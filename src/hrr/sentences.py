"""Rule-based sentence boundary detection.

The rule set is deliberately small and fully documented so chunk boundaries
are reproducible everywhere:

  * a run of ``.``, ``!`` or ``?`` ends a sentence when it is followed by
    whitespace and then an uppercase letter;
  * a single ``.`` does not end a sentence when the word before it is a
    known abbreviation, or is a single letter directly preceded by another
    period (dotted abbreviations like "e.g.");
  * a blank line always ends a sentence, terminator or not;
  * end of text ends a sentence.

Sentences are never length-capped here; the chunker hard-splits any
sentence longer than ``ChunkingConfig.max_sentence_tokens``.

Returned spans are tight: they start and end on non-whitespace characters,
never overlap, and together cover every non-whitespace character of the
input.
"""

from __future__ import annotations

import numpy as np

from .tokens import _SPACE, _WORD, classify

#: Words whose trailing period does not end a sentence. Single letters are
#: suppressed by rule and need not be listed.
ABBREVIATIONS = frozenset(
    """
    mr mrs ms dr prof rev gen sen rep hon st jr sr vs etc inc ltd co corp
    dept univ assn bros approx est min max avg fig figs eq eqs sec secs
    no nos vol vols pp cf al
    """.split()
)

#: How far back from a period the word before it is read: one character
#: more than the longest abbreviation.
_LOOK_BACK = 1 + max(map(len, ABBREVIATIONS))

_PERIOD, _NEWLINE = ord("."), ord("\n")


def _table(chars: bytes) -> np.ndarray:
    """Whether each of the code points 0-255 is one of ``chars``."""
    table = np.zeros(256, dtype=bool)
    table[list(chars)] = True
    return table


_TERMINATOR = _table(b".!?")
#: What a blank line may hold between its two newlines.
_BLANK_FILL = _table(b" \t\r")


def _is(table: np.ndarray, code_points: np.ndarray) -> np.ndarray:
    """``table``'s entry for each code point, False past 255."""
    if code_points.dtype == np.uint8:
        return table[code_points]
    return table[np.minimum(code_points, 255)] & (code_points < 256)


#: Each abbreviation's ASCII codes read as one big-endian integer, sorted.
#: A window's word, its codes right-aligned with 0 before them, reads as
#: one of these exactly when it is an abbreviation (``_is_abbreviation``).
_ABBREVIATION_KEYS = np.array(
    sorted(int.from_bytes(word.encode("ascii"), "big") for word in ABBREVIATIONS),
    dtype=np.uint64)


class SentenceSpans:
    """Sentence spans as one ``(n, 2)`` int64 array, ``array[i]`` being
    sentence ``i``'s ``(start, end)``.

    It reads as a sequence of ``(start, end)`` int pairs and equals a list
    of the same pairs; ``np.asarray`` gives the array itself, so the chunker
    makes no tuple per sentence.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray) -> None:
        self.array = array

    def __len__(self) -> int:
        return len(self.array)

    def __iter__(self):
        return map(tuple, self.array.tolist())

    def __eq__(self, other) -> bool:
        return list(self) == other

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self.array if dtype is None else self.array.astype(dtype, copy=False)

    def __repr__(self) -> str:
        return f"SentenceSpans({list(self)!r})"


def split_sentences(text: str) -> SentenceSpans:
    """Split ``text`` into ordered, non-overlapping sentence spans.

    Spans are (start, end) character offsets. Whitespace-only input yields
    no span.

    A sentence ends inside a run of whitespace, so the rules reduce to
    which whitespace runs break, and a few array passes over the text's
    code points (``tokens.classify``: its bytes when it is ASCII) find
    them: the runs come from the positions of every whitespace character;
    a run breaks if it holds a blank line, or if a terminator run ends
    where it starts and an uppercase letter follows it, the period's word
    being read off a window of the ``_LOOK_BACK`` code points before it.
    Each sentence then runs from the end of one breaking run to the start
    of the next. This keeps to the rules exactly:

    * ``isspace()`` is whitespace, as ``\\s`` and ``str.strip()`` are
      (``hrr.tokens`` says how a test checks this), so the spans are tight;
    * a blank line is a newline whose next character other than a space,
      tab or ``\\r`` is a newline, so it lies inside one whitespace run;
    * a period's word is at most ``_LOOK_BACK`` characters: for a longer
      word the window holds ``_LOOK_BACK`` word characters, too many for an
      abbreviation and not a single letter, just as the whole word is. A
      word holding a non-ASCII character is no abbreviation: no such
      character lowercases to ASCII but the Kelvin sign, to a ``k`` that
      no abbreviation holds (a test checks every code point). An ASCII
      word's lowercase is its codes with ``A``-``Z`` moved down.
    """
    code_points, classes = classify(text)
    size = len(code_points)
    gaps = np.flatnonzero(classes == _SPACE)
    # Whitespace run r covers [run_start[r], run_end[r]); run_of[g] is the
    # run of gaps[g].
    apart = gaps[1:] - 1 != gaps[:-1]
    starts_run, ends_run = np.ones((2, len(gaps)), dtype=bool)
    starts_run[1:] = ends_run[:-1] = apart
    run_start, run_end = gaps[starts_run], gaps[ends_run] + 1
    head = run_end[0] if len(gaps) and run_start[0] == 0 else 0
    tail = run_start[-1] if len(gaps) and run_end[-1] == size else size
    if head >= tail:
        return SentenceSpans(np.zeros((0, 2), dtype=np.int64))
    inner = np.flatnonzero((run_start > 0) & (run_end < size))

    # Runs holding a blank line: two newlines with only blank fill between.
    run_of = np.cumsum(starts_run) - 1
    hard = np.flatnonzero(~_is(_BLANK_FILL, code_points[gaps]))
    newline = code_points[gaps[hard]] == _NEWLINE
    pair = newline[:-1] & newline[1:] & (run_of[hard[:-1]] == run_of[hard[1:]])
    blank = run_of[hard[:-1][pair]]

    # Runs after a terminator run and before an uppercase letter.
    after = inner[_is(_TERMINATOR, code_points[run_start[inner] - 1])]
    after = after[_is_upper(code_points[run_end[after]])]
    period = run_start[after] - 1
    single = code_points[period] == _PERIOD
    single[single] = (period[single] < 1) | ~_is(_TERMINATOR, code_points[period[single] - 1])
    single[single] = _is_abbreviation(code_points, classes, period[single])
    breaking = np.zeros(len(run_start), dtype=bool)
    breaking[blank] = breaking[after[~single]] = True
    breaks = np.flatnonzero(breaking)
    breaks = breaks[(run_start[breaks] > 0) & (run_end[breaks] < size)]
    spans = np.empty((len(breaks) + 1, 2), dtype=np.int64)
    spans[0, 0], spans[-1, 1] = head, tail
    spans[1:, 0], spans[:-1, 1] = run_end[breaks], run_start[breaks]
    return SentenceSpans(spans)


def _is_upper(code_points: np.ndarray) -> np.ndarray:
    """Whether each code point is an uppercase character."""
    upper = (code_points >= ord("A")) & (code_points <= ord("Z"))
    wide = np.flatnonzero(code_points >= 0x80)
    if len(wide):
        values, inverse = np.unique(code_points[wide], return_inverse=True)
        upper[wide] = np.array([chr(c).isupper() for c in values.tolist()])[inverse]
    return upper


def _is_abbreviation(
    code_points: np.ndarray, classes: np.ndarray, periods: np.ndarray
) -> np.ndarray:
    """Whether the word before each single period is an abbreviation, or a
    single letter directly preceded by another period."""
    at = periods[:, None] + np.arange(-_LOOK_BACK, 0)
    inside = at >= 0
    at = np.where(inside, at, 0)
    # The word is the run of word characters that ends at the period.
    word = np.cumprod((inside & (classes[at] == _WORD))[:, ::-1], axis=1)[:, ::-1].astype(bool)
    length = word.sum(axis=1)
    codes = np.where(word, code_points[at], 0)
    ascii_word = (codes < 0x80).all(axis=1)
    codes = codes + 32 * ((codes >= ord("A")) & (codes <= ord("Z")))
    # Each window's lowercased word, right-aligned in 8 bytes, read as one integer.
    rows = np.zeros((len(codes), 8), dtype=np.uint8)
    rows[:, 8 - _LOOK_BACK :] = codes & 0xFF
    keys = rows.view(">u8")[:, 0].astype(np.uint64)
    found = _ABBREVIATION_KEYS[np.searchsorted(_ABBREVIATION_KEYS[:-1], keys)]
    abbreviation = ascii_word & (found == keys)
    letter = (length == 1) & (periods >= 2)
    letter[letter] = code_points[periods[letter] - 2] == _PERIOD
    return abbreviation | letter
