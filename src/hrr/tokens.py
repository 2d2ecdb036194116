"""Token accounting for chunk budgets.

Budgets are counted with a small rule-based tokenizer so the core pipeline
carries no model dependency. Anything satisfying the ``Tokenizer`` protocol
can be swapped in through configuration when budgets should track a specific
model's tokenizer instead.
"""

from __future__ import annotations

import re
from typing import Protocol, runtime_checkable

from .errors import ConfigError

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


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


class WordPunctTokenizer:
    """Whitespace-and-punctuation tokenizer.

    Rules:
      * a token is a maximal run of word characters (letters, digits,
        underscore; unicode-aware), or
      * a single non-word, non-space character (each punctuation mark is
        one token).

    Whitespace never produces tokens. Spans are (start, end) character
    offsets into the input, non-overlapping and strictly increasing.
    """

    name = "word-punct"

    def count_tokens(self, text: str) -> int:
        return len(_TOKEN_RE.findall(text))

    def token_spans(self, text: str) -> list[tuple[int, int]]:
        return [m.span() for m in _TOKEN_RE.finditer(text)]

    def tokens(self, text: str) -> list[str]:
        """The token strings, ``[text[s:e] for s, e in token_spans(text)]``."""
        return _TOKEN_RE.findall(text)


_TOKENIZERS = {WordPunctTokenizer.name: WordPunctTokenizer}


def get_tokenizer(name: str) -> Tokenizer:
    """Look up a tokenizer by its config name."""
    try:
        factory = _TOKENIZERS[name]
    except KeyError:
        known = ", ".join(sorted(_TOKENIZERS))
        raise ConfigError(f"unknown tokenizer {name!r} (known: {known})") from None
    return factory()
