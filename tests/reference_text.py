"""Reference tokenizer and sentence splitter: one regex scan per call.

These are the plain versions the engine's fast paths must equal: the
word-punct tokenizer run as one ``\\w+|[^\\w\\s]`` scan over the whole
text, and the splitter that checks each terminator run with its own
look-back and whitespace loops. Tests compare the engine with them output
for output, and can patch them into the chunker in place of the engine's.
"""

from __future__ import annotations

import re

from hrr.sentences import ABBREVIATIONS

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


class ReferenceTokenizer:
    """The word-punct rule, scanned with the regex over every text."""

    name = "word-punct"

    def count_tokens(self, text: str) -> int:
        return len(_TOKEN_RE.findall(text))

    def token_spans(self, text: str) -> list[tuple[int, int]]:
        return [m.span() for m in _TOKEN_RE.finditer(text)]

    def tokens(self, text: str) -> list[str]:
        return _TOKEN_RE.findall(text)


_TERMINATOR_RE = re.compile(r"[.!?]+")
_BLANK_LINE_RE = re.compile(r"\n[ \t\r]*\n")
_WORD_BEFORE_RE = re.compile(r"(\w+)\Z")


def split_sentences(text: str) -> list[tuple[int, int]]:
    """The rules of ``hrr.sentences``, one terminator run at a time."""
    spans: list[tuple[int, int]] = []
    for block_start, block_end in _blocks(text):
        spans.extend(_split_block(text, block_start, block_end))
    return spans


def _blocks(text: str):
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
    # A 64-character window: nothing longer could be an abbreviation.
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
