"""Token accounting for chunk budgets.

Budgets are counted with a small rule-based tokenizer so the core pipeline
carries no model dependency. Anything satisfying the ``Tokenizer`` protocol
can be swapped in through configuration when budgets should track a specific
model's tokenizer instead.

The word-punct tokenizer's rule is the pattern ``\\w+|[^\\w\\s]``, and its
two hot paths give exactly what scanning with that pattern gives:

* ``count_tokens`` splits the text at whitespace with ``str.split()`` and
  looks each piece up in a memo of piece to token count (see ``Memo``),
  so the pattern runs once per distinct piece instead of over every text.
  A token holds no whitespace, so a text's tokens are its pieces' tokens
  in order. While the memo rests, a text is scanned with the pattern.
* ``token_spans`` classifies every code point as word, space or other in
  one numpy pass, from a table that the same predicates fill a block of
  256 code points at a time as blocks are first seen, and reads each
  token's start and end off the classes: a token starts at every other
  code point and at every word code point that follows none, and ends
  likewise.

Both are exact because ``re``'s ``\\w`` matches exactly the code points for
which ``isalnum()`` is true or that are ``_``, and ``\\s`` exactly those for
which ``isspace()`` is true, which is also where ``str.split()`` splits. A
tier-1 test checks both over every code point, so an interpreter whose
Unicode tables disagree fails the tests instead of changing artifacts.
"""

from __future__ import annotations

import re
import sys
from typing import Any, Callable, Protocol, runtime_checkable

import numpy as np

from .errors import ConfigError

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")

#: Keys one memo holds, and characters its keys hold, before it is emptied.
_MEMO_SIZE = 1 << 16
_MEMO_CHARS = 1 << 21
#: Most tokens a memo rests for at a time.
_MEMO_MAX_REST = 1 << 17


class Memo(dict):
    """Key to ``compute(key)``, each computed on first sight.

    Bounded in bytes as well as in keys: it is emptied before it would hold
    more than ``_MEMO_SIZE`` keys or keys of more than ``_MEMO_CHARS``
    characters in all (a longer key is then kept alone).

    A memo pays only where pieces repeat. A hit is a lookup in C, but a
    miss adds a Python call to the scan it stands for, so text of new
    pieces (unique words, whitespace-poor text whose pieces are whole
    sentences, a memo emptied faster than it is reused) is slower
    through it than scanned directly. So its users look a text's pieces up
    and report with ``judge``. After a text whose lookups missed more than
    one time in eight the memo rests: its users scan the texts that follow
    directly and take their tokens off ``resting`` until it is spent. The
    rest is the text's tokens plus twice the rest before, up to
    ``_MEMO_MAX_REST``, while such texts come in a row; a text that
    mostly hits resets it. Resting changes no result, only which of two
    exact paths runs.
    """

    def __init__(self, compute: Callable[[str], Any]) -> None:
        super().__init__()
        self.compute = compute
        self.chars = 0
        #: Keys computed so far.
        self.misses = 0
        #: Tokens left to scan without the memo.
        self.resting = 0
        self._rest = 0

    def __missing__(self, key: str) -> Any:
        self.misses += 1
        self.chars += len(key)
        if len(self) >= _MEMO_SIZE or self.chars > _MEMO_CHARS:
            self.clear()
            self.chars = len(key)
        value = self[key] = self.compute(key)
        return value

    def judge(self, misses: int, lookups: int, tokens: int) -> None:
        """Note a text of ``tokens`` tokens whose ``lookups`` missed ``misses`` times."""
        if 8 * misses > lookups:
            self._rest = self.resting = min(2 * self._rest + tokens, _MEMO_MAX_REST)
        else:
            self._rest = 0


@runtime_checkable
class Tokenizer(Protocol):
    """Behavioral contract for token accounting.

    Implementations must be deterministic across runs and platforms, and
    concatenation must never inflate counts beyond
    ``count_tokens(a) + count_tokens(b) + 1``.

    Tokenization must also be *local*: for any cut points ``s <= e`` that
    split no token of ``text``, ``token_spans(text[s:e])`` equals the spans
    of ``token_spans(text)`` that lie inside ``[s, e)``, shifted by ``-s``,
    and ``count_tokens`` agrees with their number. The chunker tokenizes
    each document once and counts every chunk from those spans, which is
    exact only under this property. A tokenizer that breaks it yields
    stored counts that ``validate_corpus`` recounts as ``TokenCountDrift``
    (and, at overlap 0, children's counts that the corpus refuses when they
    do not sum to their owner's), so ingest fails instead of persisting
    them.
    """

    name: str

    def count_tokens(self, text: str) -> int: ...

    def token_spans(self, text: str) -> list[tuple[int, int]]: ...


_SPACE, _WORD, _OTHER = 0, 1, 2


def _code_class(char: str) -> int:
    """Whether ``_TOKEN_RE`` reads ``char`` as word, space or other."""
    if char.isalnum() or char == "_":
        return _WORD
    return _SPACE if char.isspace() else _OTHER


#: The class of each code point, filled in a block of 256 code points at a
#: time when the block is first seen (``_KNOWN``); only pages of the blocks
#: filled are ever touched.
_CLASSES = np.zeros(sys.maxunicode + 1, dtype=np.uint8)
_KNOWN = np.zeros(len(_CLASSES) >> 8, dtype=bool)


def _learn(blocks: list[int]) -> None:
    """Fill ``_CLASSES`` for each block number in ``blocks``."""
    for block in set(blocks):
        first = block << 8
        _CLASSES[first : first + 256] = [_code_class(chr(c)) for c in range(first, first + 256)]
        _KNOWN[block] = True


_learn([0])


class WordPunctTokenizer:
    """Whitespace-and-punctuation tokenizer.

    Rules:
      * a token is a maximal run of word characters (letters, digits,
        underscore; unicode-aware), or
      * a single non-word, non-space character (each punctuation mark is
        one token).

    Whitespace never produces tokens. Spans are (start, end) character
    offsets into the input, non-overlapping and strictly increasing. Each
    instance keeps its own memo of piece token counts (see the module
    docstring).
    """

    name = "word-punct"

    def __init__(self) -> None:
        self._counts = Memo(_piece_count)

    def count_tokens(self, text: str) -> int:
        memo = self._counts
        if memo.resting > 0:
            count = len(_TOKEN_RE.findall(text))
            memo.resting -= count
            return count
        misses, pieces = memo.misses, text.split()
        count = sum(map(memo.__getitem__, pieces))
        if memo.misses != misses:
            memo.judge(memo.misses - misses, len(pieces), count)
        return count

    def token_spans(self, text: str) -> list[tuple[int, int]]:
        code_points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
        if not text.isascii():
            blocks = code_points >> 8
            new = blocks[~_KNOWN[blocks]]
            if len(new):
                _learn(new.tolist())
        classes = _CLASSES.take(code_points)
        # ``word`` is padded with a non-word entry at each end.
        word = np.zeros(len(classes) + 2, dtype=bool)
        np.equal(classes, _WORD, out=word[1:-1])
        other = classes == _OTHER
        starts = np.flatnonzero(other | (word[1:-1] > word[:-2]))
        ends = np.flatnonzero(other | (word[1:-1] > word[2:])) + 1
        return list(zip(starts.tolist(), ends.tolist()))

    def tokens(self, text: str) -> list[str]:
        """The token strings, ``[text[s:e] for s, e in token_spans(text)]``."""
        return _TOKEN_RE.findall(text)


def _piece_count(piece: str) -> int:
    return len(_TOKEN_RE.findall(piece))


_TOKENIZERS = {WordPunctTokenizer.name: WordPunctTokenizer}


def get_tokenizer(name: str) -> Tokenizer:
    """Look up a tokenizer by its config name."""
    try:
        factory = _TOKENIZERS[name]
    except KeyError:
        known = ", ".join(sorted(_TOKENIZERS))
        raise ConfigError(f"unknown tokenizer {name!r} (known: {known})") from None
    return factory()
