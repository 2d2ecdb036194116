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

#: A run of terminators; its group is the whitespace after the run.
_RUN_RE = re.compile(r"[.!?]+(\s*)")
_BLANK_LINE_RE = re.compile(r"\n[ \t\r]*\n")
_NON_SPACE_RE = re.compile(r"\S")
_WORD_BEFORE_RE = re.compile(r"(\w+)\Z")
#: How far back from a period the word before it is read: one character
#: more than the longest abbreviation.
_LOOK_BACK = 1 + max(map(len, ABBREVIATIONS))


def split_sentences(text: str) -> list[tuple[int, int]]:
    """Split ``text`` into ordered, non-overlapping sentence spans.

    Spans are (start, end) character offsets. Whitespace-only input yields
    an empty list.

    Each block between blank lines is read in one pass over its terminator
    runs, each matched with the whitespace after it, so where the next
    sentence would start is known without a scan of its own. This keeps
    to the module's rules exactly:

    * ``\\s``, ``\\S`` and ``str.rstrip()`` are whitespace where
      ``isspace()`` is (``hrr.tokens`` says how a test checks this), so a
      run's whitespace ends at the next sentence's first character and the
      last sentence of a block is trimmed as the rules say;
    * a period's word is read at most ``_LOOK_BACK`` characters back. For
      a longer word the window holds ``_LOOK_BACK`` word characters, which
      lowercase to at least as many (lowercasing never empties a
      character): too long for an abbreviation and not a single letter,
      just as the whole word is.
    """
    spans: list[tuple[int, int]] = []
    for block_start, block_end in _blocks(text):
        first = _NON_SPACE_RE.search(text, block_start, block_end)
        if first is None:
            continue
        sent_start = first.start()
        for run in _RUN_RE.finditer(text, sent_start, block_end):
            run_end, nxt = run.span(1)
            if (
                run_end < nxt < block_end
                and text[nxt].isupper()
                and not (run_end - run.start() == 1 and text[run.start()] == "."
                         and _is_abbreviation(text, run.start()))
            ):
                spans.append((sent_start, run_end))
                sent_start = nxt
        last = text[sent_start:block_end].rstrip()
        spans.append((sent_start, sent_start + len(last)))
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


def _is_abbreviation(text: str, period_pos: int) -> bool:
    word = _WORD_BEFORE_RE.search(text, max(0, period_pos - _LOOK_BACK), period_pos)
    if word is None:
        return False
    token = word.group(1)
    if token.lower() in ABBREVIATIONS:
        return True
    return len(token) == 1 and word.start() > 0 and text[word.start() - 1] == "."
