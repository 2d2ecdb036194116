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
intermediate the same way, without overlap. Its nodes are emitted after
their intermediate's sentences, into the same node list as every other
level; it is a level outside ``HIERARCHY_LEVELS``, linked to its
intermediate.

Each document is tokenized once. Every chunk boundary falls on a token
boundary: a sentence ends after a terminator that whitespace follows, or
before trimmed whitespace; a hard split falls at the end of a token; and
padding between chunks is whitespace. So, by the ``Tokenizer`` locality
contract, a chunk's tokens are exactly the document tokens inside its
span, and every count and hard split is read off the document's spans. A
tokenizer that breaks the contract leaves counts that ``validate_corpus``
reports as ``TokenCountDrift``, and ingest fails.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .corpus import ChunkNode, Corpus, Level
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


@dataclass(frozen=True)
class DocumentChunks:
    """All chunk nodes for one document, every level, in emission order."""

    doc_id: str
    nodes: tuple[ChunkNode, ...]


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


def chunk_document(
    doc_id: str,
    text: str,
    config: ChunkingConfig | None = None,
    tokenizer: Tokenizer | None = None,
) -> DocumentChunks:
    """Chunk one document into all three levels (plus the optional side tier).

    Pure and deterministic: the same inputs always yield the same nodes.
    Raises ``EmptyDocumentError`` when the text holds no sentences.
    """
    config = config if config is not None else ChunkingConfig()
    config.validate()
    tokenizer = tokenizer if tokenizer is not None else WordPunctTokenizer()

    sentence_spans = split_sentences(text)
    if not sentence_spans:
        raise EmptyDocumentError(f"document {doc_id!r} has no chunkable content")

    tokens = _DocTokens(text, tokenizer)
    fragments = [_Fragment(s, e, tokens.count(s, e)) for s, e in sentence_spans]
    fragments = _split_to_budget(fragments, config.max_sentence_tokens, tokens)
    to_bytes = _byte_offsets(text)

    nodes: list[ChunkNode] = []

    parent_frags = _split_to_budget(fragments, config.parent_size, tokens)
    parent_groups = _pack(parent_frags, config.parent_size, config.parent_overlap)
    parent_regions = _regions(parent_groups, 0, len(text))

    for p_ord, (p_group, p_region) in enumerate(zip(parent_groups, parent_regions)):
        parent_id = f"{doc_id}:p{p_ord}"
        nodes.append(
            _make_node(parent_id, Level.PARENT, doc_id, None, p_group, p_region, tokens, to_bytes)
        )

        inter_frags = _split_to_budget(p_group.owned, config.intermediate_size, tokens)
        inter_groups = _pack(
            inter_frags, config.intermediate_size, config.intermediate_overlap
        )
        inter_regions = _regions(inter_groups, *p_region.owned)

        for i_ord, (i_group, i_region) in enumerate(zip(inter_groups, inter_regions)):
            inter_id = f"{parent_id}.i{i_ord}"
            nodes.append(
                _make_node(inter_id, Level.INTERMEDIATE, doc_id, parent_id, i_group, i_region, tokens, to_bytes)
            )

            sent_groups = [_Group([f]) for f in i_group.owned]
            sent_regions = _regions(sent_groups, *i_region.owned)
            for s_ord, (s_group, s_region) in enumerate(zip(sent_groups, sent_regions)):
                nodes.append(
                    _make_node(
                        f"{inter_id}.s{s_ord}", Level.SENTENCE, doc_id, inter_id,
                        s_group, s_region, tokens, to_bytes,
                    )
                )

            if config.sub_intermediate_size is not None:
                sub_frags = _split_to_budget(i_group.owned, config.sub_intermediate_size, tokens)
                sub_groups = _pack(sub_frags, config.sub_intermediate_size, 0)
                sub_regions = _regions(sub_groups, *i_region.owned)
                for c_ord, (c_group, c_region) in enumerate(zip(sub_groups, sub_regions)):
                    nodes.append(
                        _make_node(
                            f"{inter_id}.c{c_ord}", Level.SUB_INTERMEDIATE, doc_id,
                            inter_id, c_group, c_region, tokens, to_bytes,
                        )
                    )

    return DocumentChunks(doc_id, tuple(nodes))


def build_corpus(
    documents: Mapping[str, str],
    config: ChunkingConfig | None = None,
    tokenizer: Tokenizer | None = None,
) -> Corpus:
    """Chunk every document (in mapping order) and assemble a corpus."""
    config = config if config is not None else ChunkingConfig()
    tokenizer = tokenizer if tokenizer is not None else WordPunctTokenizer()
    nodes: list[ChunkNode] = []
    for doc_id, text in documents.items():
        nodes.extend(chunk_document(doc_id, text, config, tokenizer).nodes)
    return Corpus(documents, nodes, config=config, tokenizer_name=tokenizer.name)


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


def _make_node(
    chunk_id: str,
    level: Level,
    doc_id: str,
    parent_id: str | None,
    group: _Group,
    region: _Region,
    tokens: _DocTokens,
    to_bytes: Callable[[int], int],
) -> ChunkNode:
    start, end = region.span
    return ChunkNode(
        id=chunk_id,
        level=level,
        doc_id=doc_id,
        parent_id=parent_id,
        char_span=(to_bytes(start), to_bytes(end)),
        token_count=tokens.count(start, end),
        hard_split=group.owned[0].split_head or group.owned[-1].split_tail,
    )
