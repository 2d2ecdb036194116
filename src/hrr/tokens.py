"""Token accounting for chunk budgets.

Budgets are counted with a small rule-based tokenizer so the core pipeline
carries no model dependency. Anything satisfying the ``Tokenizer`` protocol
can be swapped in through configuration when budgets should track a specific
model's tokenizer instead.

The word-punct tokenizer's rule is the pattern ``\\w+|[^\\w\\s]``, and its
two hot paths give exactly what scanning with that pattern gives. Both
classify every code point as word, space or other in one numpy pass, from
a table that the same predicates fill a block of 256 code points at a time
as blocks are first seen; a token starts at every other code point and at
every word code point that follows none, and ends likewise:

* ``token_spans`` reads the arrays of one text's token starts and ends off
  the classes;
* ``count_each`` counts the tokens of each of many texts with one pass
  over their concatenation, where a word code point that begins a text is
  a start too, so no word run carries over from one text to the next; one
  ``searchsorted`` of the texts' bounds in the starts gives every count.
  ``count_tokens`` is its one-text case.

Both are exact because ``re``'s ``\\w`` matches exactly the code points for
which ``isalnum()`` is true or that are ``_``, and ``\\s`` exactly those for
which ``isspace()`` is true, which is also where ``str.split()`` splits, so
a whitespace piece's tokens are its text's tokens inside it (which the
hashed-bow embedder's ``PieceTable`` relies on). A tier-1 test checks
both over every code point, so an interpreter whose Unicode tables
disagree fails the tests instead of changing artifacts.
"""

from __future__ import annotations

import re
import sys
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from .errors import ConfigError

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


@runtime_checkable
class Tokenizer(Protocol):
    """Behavioral contract for token accounting.

    Implementations must be deterministic across runs and platforms, and
    concatenation must never inflate counts beyond
    ``count_tokens(a) + count_tokens(b) + 1``.

    ``count_each(texts)`` returns an int64 array equal to
    ``[count_tokens(text) for text in texts]``: each text is counted on its
    own, whatever its neighbours in the sequence hold.

    ``token_spans`` returns the tokens' character offsets as two int64
    arrays, ``(starts, ends)``, token ``i`` being ``text[starts[i]:ends[i]]``;
    spans are non-empty and strictly increasing, and never overlap.

    Tokenization must also be *local*: for any cut points ``s <= e`` that
    split no token of ``text``, the spans of ``token_spans(text[s:e])`` are
    the spans of ``token_spans(text)`` that lie inside ``[s, e)``, shifted
    by ``-s``, and ``count_tokens`` agrees with their number. The chunker
    tokenizes each document once and counts every chunk from those spans,
    which is exact only under this property. A tokenizer that breaks it
    yields stored counts that ``validate_corpus`` recounts as
    ``TokenCountDrift`` (and, at overlap 0, children's counts that the
    corpus refuses when they do not sum to their owner's), so ingest fails
    instead of persisting them.
    """

    name: str

    def count_tokens(self, text: str) -> int: ...

    def count_each(self, texts: Sequence[str]) -> np.ndarray: ...

    def token_spans(self, text: str) -> tuple[np.ndarray, np.ndarray]: ...


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


def classify(text: str) -> tuple[np.ndarray, np.ndarray]:
    """The code points of ``text`` (its bytes, ``uint8``, when it is ASCII,
    else ``<u4``) and the class of each, ``_SPACE``, ``_WORD`` or ``_OTHER``."""
    if text.isascii():
        code_points = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    else:
        code_points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
        blocks = code_points >> 8
        new = blocks[~_KNOWN[blocks]]
        if len(new):
            _learn(new.tolist())
    return code_points, _CLASSES.take(code_points)


class WordPunctTokenizer:
    """Whitespace-and-punctuation tokenizer.

    Rules:
      * a token is a maximal run of word characters (letters, digits,
        underscore; unicode-aware), or
      * a single non-word, non-space character (each punctuation mark is
        one token).

    Whitespace never produces tokens. ``token_spans`` gives the tokens'
    character offsets into the input as ``(starts, ends)`` arrays, and
    ``count_each`` the token counts of many texts from one class scan (see
    the module docstring).
    """

    name = "word-punct"

    def count_tokens(self, text: str) -> int:
        return int(self.count_each((text,))[0])

    def count_each(self, texts: Sequence[str]) -> np.ndarray:
        classes = classify("".join(texts))[1]
        bounds = np.zeros(len(texts) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, texts), np.int64, len(texts)), out=bounds[1:])
        word = classes == _WORD
        starts = classes == _OTHER
        np.logical_or(starts[1:], word[1:] > word[:-1], out=starts[1:])
        # A text's first code point starts a token if it is a word one,
        # whatever the text before ends with (empty texts share the next's).
        firsts = bounds[: np.searchsorted(bounds, len(classes))]
        starts[firsts] |= word[firsts]
        return np.diff(np.searchsorted(np.flatnonzero(starts), bounds))

    def token_spans(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        classes = classify(text)[1]
        # ``word`` is padded with a non-word entry at each end.
        word = np.zeros(len(classes) + 2, dtype=bool)
        np.equal(classes, _WORD, out=word[1:-1])
        other = classes == _OTHER
        starts = np.flatnonzero(other | (word[1:-1] > word[:-2]))
        ends = np.flatnonzero(other | (word[1:-1] > word[2:])) + 1
        return starts, ends

    #: The token strings of a text, ``text[s:e]`` for each span of ``token_spans``.
    tokens = staticmethod(_TOKEN_RE.findall)


_TOKENIZERS = {WordPunctTokenizer.name: WordPunctTokenizer}


def get_tokenizer(name: str) -> Tokenizer:
    """Look up a tokenizer by its config name."""
    try:
        factory = _TOKENIZERS[name]
    except KeyError:
        known = ", ".join(sorted(_TOKENIZERS))
        raise ConfigError(f"unknown tokenizer {name!r} (known: {known})") from None
    return factory()
