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

import re

#: Words whose trailing period does not end a sentence. Single letters are
#: suppressed by rule and need not be listed.
ABBREVIATIONS = frozenset(
    """
    mr mrs ms dr prof rev gen sen rep hon st jr sr vs etc inc ltd co corp
    dept univ assn bros approx est min max avg fig figs eq eqs sec secs
    no nos vol vols pp cf al
    """.split()
)

_TERMINATOR_RE = re.compile(r"[.!?]+")
_BLANK_LINE_RE = re.compile(r"\n[ \t\r]*\n")
_WORD_BEFORE_RE = re.compile(r"(\w+)\Z")


def split_sentences(text: str) -> list[tuple[int, int]]:
    """Split ``text`` into ordered, non-overlapping sentence spans.

    Spans are (start, end) character offsets. Whitespace-only input yields
    an empty list.
    """
    spans: list[tuple[int, int]] = []
    for block_start, block_end in _blocks(text):
        spans.extend(_split_block(text, block_start, block_end))
    return spans


def _blocks(text: str):
    """Yield (start, end) of regions separated by blank lines."""
    pos = 0
    for match in _BLANK_LINE_RE.finditer(text):
        if match.start() > pos:
            yield pos, match.start()
        pos = match.end()
    if pos < len(text):
        yield pos, len(text)


def _split_block(text: str, start: int, end: int) -> list[tuple[int, int]]:
    spans: list[tuple[int, int]] = []
    sent_start = _skip_ws(text, start, end)
    if sent_start >= end:
        return spans
    for match in _TERMINATOR_RE.finditer(text, sent_start, end):
        if match.start() < sent_start:
            continue
        if not _is_boundary(text, match, end):
            continue
        spans.append((sent_start, match.end()))
        sent_start = _skip_ws(text, match.end(), end)
        if sent_start >= end:
            return spans
    last_end = _trim_ws(text, sent_start, end)
    if last_end > sent_start:
        spans.append((sent_start, last_end))
    return spans


def _is_boundary(text: str, match: re.Match, block_end: int) -> bool:
    run = match.group()
    if run == "." and _is_abbreviation(text, match.start()):
        return False
    nxt = _skip_ws(text, match.end(), block_end)
    if nxt == match.end():
        return False  # terminator not followed by whitespace
    return nxt < block_end and text[nxt].isupper()


def _is_abbreviation(text: str, period_pos: int) -> bool:
    # Search a bounded window so the anchored lookback stays O(1); nothing
    # longer than the window could be an abbreviation anyway.
    word = _WORD_BEFORE_RE.search(text, max(0, period_pos - 64), period_pos)
    if word is None:
        return False
    token = word.group(1)
    if token.lower() in ABBREVIATIONS:
        return True
    return len(token) == 1 and word.start() > 0 and text[word.start() - 1] == "."


def _skip_ws(text: str, pos: int, end: int) -> int:
    while pos < end and text[pos].isspace():
        pos += 1
    return pos


def _trim_ws(text: str, start: int, end: int) -> int:
    while end > start and text[end - 1].isspace():
        end -= 1
    return end
