"""Three-tier document chunking.

Each document becomes parent chunks (budget 2048 tokens by default), each
parent becomes intermediate chunks (512), and each intermediate becomes
sentence chunks. Chunk boundaries prefer sentence boundaries: a chunk ends
at the last sentence that fits its budget, and only a sentence that alone
exceeds the budget is hard-split at a token boundary (and flagged).

With zero overlap the spans at every level partition the level above, with
inter-sentence whitespace attached to the preceding chunk, so token counts
add up exactly and documents reassemble byte-for-byte. With overlap > 0 a
chunk's span additionally covers the tail sentences of its predecessor, but
those sentences still belong to the earlier chunk for hierarchy purposes.

An optional side tier of sub-intermediate chunks (256 tokens, consumed
only by the child-to-parent retrieval strategy) is cut from each
intermediate the same way, without overlap. It is a level outside
``HIERARCHY_LEVELS``, linked to its intermediate.

The cut works on arrays. A fragment (a sentence, or a piece of one
hard-split at a budget) is a range ``[lo, lo + n)`` of the document's
token indexes with its character span and whether each end fell
mid-sentence; a level's fragments and chunks are parallel arrays. Each
level is cut from the fragments its owners hold: split the fragments over
its budget (one ``np.repeat``), pack each owner's, then read every
chunk's span, count and flag off the arrays. Sentences skip the packing,
one chunk per fragment. Packing is the greedy rule, run once per chunk on
the prefix sums of fragment tokens: a chunk owns fragments while its
tokens fit the budget, after first carrying the longest run of its
predecessor's last fragments that fits the overlap, less the oldest while
its first own fragment would not fit. No count is negative, so the sums
never fall and a bisection stops at the fragment where the rule, adding
one fragment at a time, stops: the cut is exact.

Rows are written in the order they are cut: each document's parents, then
its intermediates, then its sentences, each in text order, and after every
document's, the side tier, document by document. So a parent row comes
before its children's, a link is the row where the owners' block
starts plus the owner's place in it, and each owner's children at one
level are one run of rows, from which the corpus derives their ids. A
``ChunkNode`` is built only when asked for.

Each document is tokenized once. Every chunk boundary falls on a token
boundary: a sentence ends after a terminator that whitespace follows, or
before trimmed whitespace; a hard split falls at the end of a token; and
padding between chunks is whitespace. So, by the ``Tokenizer`` locality
contract, a chunk's tokens are exactly the document tokens inside its
span: every count is two ``searchsorted`` calls on the document's token
starts and ends. A tokenizer that breaks the contract leaves counts that
are wrong, and ingest fails: at overlap 0 the corpus refuses children
whose counts do not sum to their owner's (``InvalidCorpusError``), and
``validate_corpus``'s recount reports every count that differs from the
node's own text's as ``TokenCountDrift``. The recount never reads these
spans: it decodes each node's bytes and counts the texts with the
tokenizer's ``count_each``, a batch of them per call, each text on its own.
One that puts a sentence inside a single token is refused at once: that
sentence's count is negative.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .corpus import _CODES, Corpus, Level
from .errors import ConfigError, EmptyDocumentError, InvalidCorpusError
from .sentences import split_sentences
from .tokens import Tokenizer, WordPunctTokenizer


@dataclass(frozen=True)
class ChunkingConfig:
    parent_size: int = 2048
    parent_overlap: int = 0
    intermediate_size: int = 512
    intermediate_overlap: int = 0
    #: Budget for the C2P-only side tier; None skips building it.
    sub_intermediate_size: int | None = 256
    #: Sentences longer than this are hard-split at token boundaries (and
    #: flagged) before packing.
    max_sentence_tokens: int = 400

    def validate(self) -> None:
        if min(self.parent_size, self.intermediate_size) < 1:
            raise ConfigError("chunk sizes must be >= 1")
        if self.intermediate_size >= self.parent_size:
            raise ConfigError("intermediate_size must be smaller than parent_size")
        if self.parent_overlap < 0 or self.intermediate_overlap < 0:
            raise ConfigError("overlaps must be non-negative")
        if self.parent_overlap >= self.parent_size:
            raise ConfigError("parent_overlap must be smaller than parent_size")
        if self.intermediate_overlap >= self.intermediate_size:
            raise ConfigError("intermediate_overlap must be smaller than intermediate_size")
        if self.sub_intermediate_size is not None:
            if not 1 <= self.sub_intermediate_size < self.intermediate_size:
                raise ConfigError(
                    "sub_intermediate_size must be in [1, intermediate_size)"
                )
        if self.max_sentence_tokens < 1:
            raise ConfigError("max_sentence_tokens must be >= 1")

    def budget(self, level: Level) -> int | None:
        """The most tokens a chunk at ``level`` holds; None for sentences,
        which are cut one per sentence fragment."""
        return {
            Level.PARENT: self.parent_size,
            Level.INTERMEDIATE: self.intermediate_size,
            Level.SENTENCE: None,
            Level.SUB_INTERMEDIATE: self.sub_intermediate_size,
        }[level]


class _Fragments(NamedTuple):
    """One level's fragments of a document, as parallel arrays in text order."""

    lo: np.ndarray  #: the first token's index
    n: np.ndarray  #: token count
    start: np.ndarray  #: character span
    end: np.ndarray
    head: np.ndarray  #: whether the start falls mid-sentence
    tail: np.ndarray  #: whether the end falls mid-sentence

    def split(self, budget: int, starts: np.ndarray, ends: np.ndarray) -> tuple:
        """Hard-split each fragment of more than ``budget`` tokens at token
        boundaries; returns the pieces and each fragment's first piece."""
        pieces = np.where(self.n > budget, -(-self.n // budget), 1)
        first = np.zeros(len(pieces) + 1, dtype=np.int64)
        np.cumsum(pieces, out=first[1:])
        source = np.repeat(np.arange(len(pieces)), pieces)
        out = _Fragments(*(column[source] for column in self))
        cut = np.flatnonzero(pieces[source] > 1)
        k = cut - first[source[cut]]  # the piece's place in its fragment
        lo = out.lo[cut] + k * budget
        n = out.n[cut] = np.minimum(out.n[cut] - k * budget, budget)
        out.lo[cut], out.start[cut], out.end[cut] = lo, starts[lo], ends[lo + n - 1]
        out.head[cut] |= k > 0
        out.tail[cut] |= k < pieces[source[cut]] - 1
        return out, first


class _Level(NamedTuple):
    """One level's chunks of a document, as parallel arrays in text order."""

    fragments: _Fragments  #: what the chunks were cut from
    bounds: np.ndarray  #: chunk ``c`` owns ``fragments[bounds[c]:bounds[c + 1]]``
    own_start: np.ndarray  #: the owned characters, which tile the owner's
    end: np.ndarray  #: where the owned characters and the span end
    start: np.ndarray | None = None  #: the span's start, the overlap tail's if any
    owner: np.ndarray | None = None  #: the owning chunk's place in its level
    count: np.ndarray | None = None
    hard: np.ndarray | None = None


def _cut(above: _Level, budget: int | None, overlap: int, tokens: tuple) -> _Level:
    """Cut a level from the fragments each chunk of ``above`` owns; a
    ``budget`` of None makes each fragment a chunk."""
    fragments, bounds = above.fragments, above.bounds
    if budget is None:
        firsts = tails = np.arange(bounds[-1])
    else:
        fragments, first_piece = fragments.split(budget, *tokens)
        bounds = first_piece[bounds]
        prefix = np.zeros(len(fragments.n) + 1, dtype=np.int64)
        np.cumsum(fragments.n, out=prefix[1:])
        firsts, tails = map(np.array, _pack(prefix.tolist(), bounds.tolist(), budget, overlap))
    owner = np.searchsorted(bounds, firsts, "right") - 1
    # Owned characters run from a chunk's first fragment to the next chunk's;
    # an owner's first and last chunks reach to its own ends.
    first = np.ones(len(owner), dtype=bool)
    np.not_equal(owner[1:], owner[:-1], out=first[1:])
    last = np.append(first[1:], True)
    own_start = fragments.start[firsts]
    own_start[first] = above.own_start[owner[first]]
    end = np.append(own_start[1:], 0)
    end[last] = above.end[owner[last]]
    start = np.where(tails < firsts, fragments.start[tails], own_start)
    starts, ends = tokens
    count = np.searchsorted(ends, end, "right") - np.searchsorted(starts, start, "left")
    chunk_bounds = np.append(firsts, len(fragments.n))
    hard = fragments.head[firsts] | fragments.tail[chunk_bounds[1:] - 1]
    return _Level(fragments, chunk_bounds, own_start, end, start, owner, count, hard)


def _pack(tokens: list[int], bounds: list[int], budget: int, overlap: int) -> tuple:
    """Pack each owner's fragments, ``bounds[j]:bounds[j + 1]``, by the
    greedy rule of the module docstring; ``tokens[i]`` is the tokens of the
    fragments before fragment ``i``. Returns each chunk's first fragment and
    its span's first (its overlap tail's when it has one)."""
    firsts: list[int] = []
    tails: list[int] = []
    for lo, hi in zip(bounds, bounds[1:]):
        i = lo
        while i < hi:
            tail = i
            if overlap and i > lo:  # fit the overlap, then leave fragment i room
                tail = bisect_left(tokens, tokens[i] - overlap, firsts[-1], i)
                tail = bisect_left(tokens, tokens[i + 1] - budget, tail, i)
            firsts.append(i)
            tails.append(tail)
            i = bisect_right(tokens, tokens[tail] + budget, i + 2, hi + 1) - 1
    return firsts, tails


def _utf8_offsets(text: str) -> np.ndarray:
    """The UTF-8 byte offset of each character offset, 0 to ``len(text)``."""
    if text.isascii():
        return np.arange(len(text) + 1)
    code_points = np.frombuffer(text.encode("utf-32-le"), dtype="<u4")
    widths = 1 + (code_points >= 0x80) + (code_points >= 0x800) + (code_points >= 0x10000)
    cumulative = np.zeros(len(code_points) + 1, dtype=np.int64)
    np.cumsum(widths, out=cumulative[1:])
    return cumulative


def _part(level, chunks: _Level, parent_rows, doc, to_bytes) -> tuple:
    """A document's chunks at ``level`` as the node table's seven columns."""
    n = len(chunks.owner)
    return (np.full(n, _CODES[level]), np.full(n, doc), parent_rows,
            to_bytes[chunks.start], to_bytes[chunks.end], chunks.count, chunks.hard)


def build_corpus(
    documents: Mapping[str, str],
    config: ChunkingConfig | None = None,
    tokenizer: Tokenizer | None = None,
) -> Corpus:
    """Chunk every document (in mapping order) into the corpus's node table.

    Pure and deterministic: the same inputs always yield the same table.
    Rows come in the order the levels are cut: for each document, its
    parents, then its intermediates, then its sentences, each in text
    order; then the side tier, document by document. Raises
    ``EmptyDocumentError`` for a document that holds no sentences.
    """
    config = config if config is not None else ChunkingConfig()
    config.validate()
    tokenizer = tokenizer if tokenizer is not None else WordPunctTokenizer()
    # Each (doc, level)'s seven columns, in the table's order.
    hierarchy: list[tuple] = []
    side: list[tuple] = []
    base = 0  # the document's first row

    for doc, (doc_id, text) in enumerate(documents.items()):
        sentence_spans = split_sentences(text)
        if not sentence_spans:
            raise EmptyDocumentError(f"document {doc_id!r} has no chunkable content")
        tokens = tokenizer.token_spans(text)
        to_bytes = _utf8_offsets(text)
        span = np.asarray(sentence_spans, dtype=np.int64)
        lo = np.searchsorted(tokens[0], span[:, 0], "left")
        n = np.searchsorted(tokens[1], span[:, 1], "right") - lo
        if n.min() < 0:
            raise InvalidCorpusError(
                f"document {doc_id!r}: tokenizer {tokenizer.name!r} puts a whole sentence "
                "inside one token, so it is not local"
            )
        flags = np.zeros(len(n), dtype=bool)
        fragments, _ = _Fragments(lo, n, span[:, 0], span[:, 1], flags, flags).split(
            config.max_sentence_tokens, *tokens)
        whole = _Level(fragments, np.array([0, len(fragments.n)]), np.array([0]),
                       np.array([len(text)]))
        parents = _cut(whole, config.parent_size, config.parent_overlap, tokens)
        inters = _cut(parents, config.intermediate_size, config.intermediate_overlap, tokens)
        sentences = _cut(inters, None, 0, tokens)

        # A link is the row where the owners' block starts plus the owner's place.
        n_parents = len(parents.owner)
        inter_base = base + n_parents
        at = (doc, to_bytes)
        hierarchy.append(_part(Level.PARENT, parents, np.full(n_parents, -1), *at))
        hierarchy.append(_part(Level.INTERMEDIATE, inters, base + inters.owner, *at))
        hierarchy.append(_part(Level.SENTENCE, sentences, inter_base + sentences.owner, *at))
        if config.sub_intermediate_size is not None:
            subs = _cut(inters, config.sub_intermediate_size, 0, tokens)
            side.append(_part(Level.SUB_INTERMEDIATE, subs, inter_base + subs.owner, *at))
        base = inter_base + len(inters.owner) + len(sentences.owner)

    parts = hierarchy + side
    empty = np.zeros(0, dtype=np.int64)  # no documents, no parts
    columns = [np.concatenate([empty, *(part[field] for part in parts)]) for field in range(7)]
    del hierarchy, side, parts
    encoded = {doc_id: text.encode("utf-8") for doc_id, text in documents.items()}
    return Corpus(encoded, columns, config=config, tokenizer_name=tokenizer.name)
