"""Workload definitions and cache locations shared by every benchmark script.

This module imports nothing from the engine, so the runner can resolve
cache paths before any engine code is loaded.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

#: Points in a read run that make cold ``load_context`` calls, and traced loads.
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    """A synthetic corpus spec and the loop the worker runs over it.

    Why each workload exists, and its held-out seed, are recorded in
    ``BENCHMARK.json`` and ``perfbench/README.md``.
    """

    name: str
    #: "query", "eval" or "ingest": which loop the worker runs.
    kind: str
    n_docs: int
    n_needles: int
    default_seed: int

    def spec(self, seed: int) -> dict:
        """Arguments for ``hrr.synth.CorpusSpec``; the rest stay at their defaults."""
        return {"seed": seed, "n_docs": self.n_docs, "n_needles": self.n_needles}


#: ingest-200 reads the query-200 documents: same spec, same input cache entry.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("query-200", "query", n_docs=200, n_needles=30, default_seed=7),
        Workload("eval-20", "eval", n_docs=20, n_needles=30, default_seed=42),
        Workload("ingest-200", "ingest", n_docs=200, n_needles=30, default_seed=7),
    )
}


def source_digest(root: Path) -> str:
    """sha256 over the engine's source files, so caches follow code changes."""
    h = hashlib.sha256()
    src = root / "src" / "hrr"
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def cache_root(root: Path) -> Path:
    return root / ".bench_cache"


def input_key(workload: Workload, seed: int, digest: str) -> str:
    payload = json.dumps({"spec": workload.spec(seed), "src": digest}, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


def input_dir(root: Path, workload: Workload, seed: int, digest: str) -> Path:
    """Synthetic documents, query set and expected counts for (spec, seed)."""
    return cache_root(root) / "inputs" / input_key(workload, seed, digest)


def artifact_dir(root: Path, workload: Workload, seed: int, digest: str) -> Path:
    """Ingested corpus and indexes that the read workloads load."""
    return cache_root(root) / "artifacts" / input_key(workload, seed, digest)
