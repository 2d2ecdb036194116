"""A fixed reference kernel that measures how fast the host runs right now.

On a shared 2-vCPU VM, other tenants can slow the guest by up to ~1.7x
for spells of seconds to minutes, and the slowdown shows in CPU time as
much as in wall time (a slower core, not time stolen from the guest). A run
of tens of seconds can sit inside one spell, so no quantile of the run's
own op times is steady across runs.

The worker therefore times this kernel right before and right after every
op and every cold load, and, from a ``SIGALRM`` handler on the measuring
thread, every ``INTERVAL_S`` while a long one runs. It reports each op and
load rescaled to a host on which the kernel takes ``NOMINAL_NS``::

    calibrated = elapsed * NOMINAL_NS / mean(references before, during, after)

where ``elapsed`` leaves out the time the handler spent. A reference is
the median of three kernel runs: the first run after a large op is slowed
by the caches the op left cold.

The kernel does what the engine's hot paths do (per-row numpy calls in a
Python loop, regex tokenising into a dict, a keyed sort, struct unpacking)
but imports nothing from the engine, so a change to the engine moves the
calibrated numbers by the same share as the raw ones.
"""

from __future__ import annotations

import re
import signal
import struct
import time
from contextlib import contextmanager

import numpy as np

#: About the kernel's time on a calm 2-vCPU x86-64 VM (Python 3.11, numpy
#: 2.4); it only sets the scale of the calibrated numbers.
NOMINAL_NS = 6_000_000
#: How often a reference is taken inside a long op; ~3.5% of its time.
INTERVAL_S = 0.5

_ROWS = np.random.default_rng(0).standard_normal((800, 384)).astype(np.float32)
_QUERY = _ROWS[0] / np.linalg.norm(_ROWS[0])
_WORDS = re.compile(r"\w+|[^\w\s]")
_TEXT = " ".join(f"Word{i % 97} says sentence {i}, again." for i in range(200))
_PACKED = b"".join(struct.pack("<H", 5) + b"abcde" for _ in range(2000))


def reference_ns() -> int:
    """The median wall time of three kernel runs."""
    return sorted(kernel_ns() for _ in range(3))[1]


def kernel_ns() -> int:
    """Run the kernel once and return its wall time."""
    start = time.perf_counter_ns()
    scores = [float(np.dot(row, _QUERY)) / (float(np.linalg.norm(row)) + 1.0) for row in _ROWS]
    sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:10]
    counts: dict[str, int] = {}
    for match in _WORDS.finditer(_TEXT):
        word = match.group(0).lower()
        counts[word] = counts.get(word, 0) + 1
    offset, ids = 0, []
    while offset < len(_PACKED):
        (n,) = struct.unpack_from("<H", _PACKED, offset)
        ids.append(_PACKED[offset + 2 : offset + 2 + n].decode("utf-8"))
        offset += 2 + n
    return time.perf_counter_ns() - start


class Sampler:
    """Takes a reference every INTERVAL_S of a timed block. The ``SIGALRM``
    handler runs on the main thread, between two bytecodes of the block."""

    def __init__(self) -> None:
        self.samples: list[int] = []
        #: Time the handler took inside the current block.
        self.spent_ns = 0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        self.samples.append(reference_ns())
        self.spent_ns += time.perf_counter_ns() - start

    @contextmanager
    def during(self):
        self.samples, self.spent_ns = [], 0
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
