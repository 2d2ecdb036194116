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
``HIERARCHY_LEVELS``, linked to its intermediate, and its rows of the node
table follow every hierarchy row.

One recursive ``cut`` makes every level, driven by a table that gives each
level its id letter, budget, overlap and the levels cut from its chunks:
parents yield intermediates, and intermediates yield sentences (the level
without a budget: one chunk per sentence fragment), then the side tier. The
chunker writes the node table's rows directly; a ``ChunkNode`` is built
only when the corpus is asked for one.

Each document is tokenized once. Every chunk boundary falls on a token
boundary: a sentence ends after a terminator that whitespace follows, or
before trimmed whitespace; a hard split falls at the end of a token; and
padding between chunks is whitespace. So, by the ``Tokenizer`` locality
contract, a chunk's tokens are exactly the document tokens inside its
span, and every count and hard split is read off the document's spans. A
tokenizer that breaks the contract leaves counts that are wrong, and ingest
fails: at overlap 0 the corpus refuses children whose counts do not sum to
their owner's (``InvalidCorpusError``), and ``validate_corpus``'s recount
reports every count that differs from the node's own text's as
``TokenCountDrift``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .corpus import _CODES, HIERARCHY_LEVELS, Corpus, Level
from .errors import ConfigError, EmptyDocumentError
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


@dataclass
class _Fragment:
    # Character offsets into the document; hard-split pieces remember which
    # side of their boundary fell mid-sentence.
    start: int
    end: int
    tokens: int
    split_head: bool = False
    split_tail: bool = False


@dataclass
class _Group:
    owned: list[_Fragment]
    tail: list[_Fragment] = field(default_factory=list)  # overlap from predecessor


class _DocTokens:
    """One document's token starts and ends, from a single tokenizer pass.

    A region whose ends split no token holds exactly the document tokens
    inside it (see the module docstring), found by two bisections.
    """

    def __init__(self, text: str, tokenizer: Tokenizer) -> None:
        spans = tokenizer.token_spans(text)
        self.starts = [s for s, _ in spans]
        self.ends = [e for _, e in spans]

    def bounds(self, start: int, end: int) -> tuple[int, int]:
        """Indexes ``[lo, hi)`` of the document tokens inside ``[start, end)``."""
        return bisect_left(self.starts, start), bisect_right(self.ends, end)

    def count(self, start: int, end: int) -> int:
        lo, hi = self.bounds(start, end)
        return hi - lo


def _byte_offsets(text: str) -> Callable[[int], int]:
    """Maps character offsets to UTF-8 byte offsets in O(1) per query."""
    code_points = np.frombuffer(text.encode("utf-32-le"), dtype="<u4")
    widths = 1 + (code_points >= 0x80) + (code_points >= 0x800) + (code_points >= 0x10000)
    cumulative = np.zeros(len(code_points) + 1, dtype=np.int64)
    np.cumsum(widths, out=cumulative[1:])
    return cumulative.item


class _Tier(NamedTuple):
    """How one level is cut from each chunk of the level above it."""

    letter: str  #: the level's letter in chunk ids, as in ``d:p0.i1.s2``
    budget: int | None  #: None: each sentence fragment is a chunk of its own
    overlap: int
    children: tuple[Level, ...]  #: the levels cut from each of its chunks, in order


def _tiers(config: ChunkingConfig) -> dict[Level, _Tier]:
    side = () if config.sub_intermediate_size is None else (Level.SUB_INTERMEDIATE,)
    rest = {
        Level.PARENT: ("p", config.parent_overlap, (Level.INTERMEDIATE,)),
        Level.INTERMEDIATE: ("i", config.intermediate_overlap, (Level.SENTENCE, *side)),
        Level.SENTENCE: ("s", 0, ()),
        Level.SUB_INTERMEDIATE: ("c", 0, ()),
    }
    return {level: _Tier(letter, config.budget(level), overlap, children)
            for level, (letter, overlap, children) in rest.items()}


def build_corpus(
    documents: Mapping[str, str],
    config: ChunkingConfig | None = None,
    tokenizer: Tokenizer | None = None,
) -> Corpus:
    """Chunk every document (in mapping order) into the corpus's node table.

    Pure and deterministic: the same inputs always yield the same table.
    Rows are the hierarchy in emission order (each parent, then each of its
    intermediates followed by that intermediate's sentences), then the side
    tier in the same order. Raises ``EmptyDocumentError`` for a document
    that holds no sentences.
    """
    config = config if config is not None else ChunkingConfig()
    config.validate()
    tokenizer = tokenizer if tokenizer is not None else WordPunctTokenizer()
    tiers = _tiers(config)
    # One (id, level, document, parent, start, end, tokens, hard split)
    # tuple per row; the side tier's rows follow every hierarchy row and
    # point only at intermediate rows, so no row number changes when the
    # two lists are joined.
    hierarchy: list[tuple] = []
    side: list[tuple] = []

    for doc, (doc_id, text) in enumerate(documents.items()):
        sentence_spans = split_sentences(text)
        if not sentence_spans:
            raise EmptyDocumentError(f"document {doc_id!r} has no chunkable content")
        tokens = _DocTokens(text, tokenizer)
        to_bytes = _byte_offsets(text)

        def cut(level, fragments, region, parent_row, id_prefix) -> None:
            """Cut ``level``'s chunks from the fragments owning ``region``."""
            tier = tiers[level]
            if tier.budget is None:
                groups = [_Group([fragment]) for fragment in fragments]
            else:
                fragments = _split_to_budget(fragments, tier.budget, tokens)
                groups = _pack(fragments, tier.budget, tier.overlap)
            rows = hierarchy if level in HIERARCHY_LEVELS else side
            for ordinal, (group, group_region) in enumerate(zip(groups, _regions(groups, *region))):
                chunk_id = f"{id_prefix}{tier.letter}{ordinal}"
                # The chunk's row, for a hierarchy level; only those have children.
                row = len(rows)
                start, end = group_region.span
                rows.append((
                    chunk_id, _CODES[level], doc, parent_row, to_bytes(start), to_bytes(end),
                    tokens.count(start, end),
                    group.owned[0].split_head or group.owned[-1].split_tail,
                ))
                for child in tier.children:
                    cut(child, group.owned, group_region.owned, row, f"{chunk_id}.")

        fragments = [_Fragment(s, e, tokens.count(s, e)) for s, e in sentence_spans]
        fragments = _split_to_budget(fragments, config.max_sentence_tokens, tokens)
        cut(Level.PARENT, fragments, (0, len(text)), -1, f"{doc_id}:")

    ids, *columns = zip(*hierarchy, *side) if hierarchy else [()] * 8
    encoded = {doc_id: text.encode("utf-8") for doc_id, text in documents.items()}
    return Corpus(encoded, ids, columns, config=config, tokenizer_name=tokenizer.name)


# ---------------------------------------------------------------------------
# Packing machinery
# ---------------------------------------------------------------------------


def _split_to_budget(
    fragments: list[_Fragment], budget: int, tokens: _DocTokens
) -> list[_Fragment]:
    """Hard-split any fragment exceeding ``budget`` at token boundaries."""
    out: list[_Fragment] = []
    for frag in fragments:
        if frag.tokens <= budget:
            out.append(frag)
            continue
        lo, hi = tokens.bounds(frag.start, frag.end)
        for i in range(lo, hi, budget):
            last = min(i + budget, hi) - 1
            out.append(
                _Fragment(
                    start=tokens.starts[i],
                    end=tokens.ends[last],
                    tokens=last + 1 - i,
                    split_head=frag.split_head if i == lo else True,
                    split_tail=frag.split_tail if last == hi - 1 else True,
                )
            )
    return out


def _pack(fragments: list[_Fragment], budget: int, overlap: int) -> list[_Group]:
    """Greedily pack fragments into budgeted groups, oldest first.

    Every fragment is owned by exactly one group. With overlap > 0, each
    group after the first also carries trailing fragments of its predecessor
    totalling at most ``overlap`` tokens; the tail is trimmed (oldest first)
    whenever it would crowd out the next owned fragment.
    """
    groups: list[_Group] = []
    i = 0
    while i < len(fragments):
        tail: list[_Fragment] = []
        if groups and overlap > 0:
            total = 0
            for frag in reversed(groups[-1].owned):
                if total + frag.tokens > overlap:
                    break
                tail.insert(0, frag)
                total += frag.tokens
            while tail and total + fragments[i].tokens > budget:
                total -= tail.pop(0).tokens
        used = sum(f.tokens for f in tail)
        owned: list[_Fragment] = []
        while i < len(fragments) and (
            not owned or used + fragments[i].tokens <= budget
        ):
            owned.append(fragments[i])
            used += fragments[i].tokens
            i += 1
        groups.append(_Group(owned, tail))
    return groups


@dataclass(frozen=True)
class _Region:
    span: tuple[int, int]  # full char span, including any overlap tail
    owned: tuple[int, int]  # char region owned for hierarchy purposes


def _regions(groups: list[_Group], region_start: int, region_end: int) -> list[_Region]:
    """Pad tight group spans so owned regions partition [start, end) exactly.

    Whitespace between groups attaches to the preceding group; leading
    whitespace goes to the first group.
    """
    boundaries = [region_start]
    boundaries.extend(g.owned[0].start for g in groups[1:])
    boundaries.append(region_end)
    out: list[_Region] = []
    for idx, group in enumerate(groups):
        owned = (boundaries[idx], boundaries[idx + 1])
        span_start = group.tail[0].start if group.tail else owned[0]
        out.append(_Region(span=(span_start, owned[1]), owned=owned))
    return out
