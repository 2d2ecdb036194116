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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

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


class _ByteOffsets:
    """Converts character offsets to UTF-8 byte offsets in O(1) per query."""

    def __init__(self, text: str) -> None:
        self._cum = list(
            itertools.accumulate((len(ch.encode("utf-8")) for ch in text), initial=0)
        )

    def __call__(self, char_offset: int) -> int:
        return self._cum[char_offset]


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

    fragments = [
        _Fragment(s, e, tokenizer.count_tokens(text[s:e])) for s, e in sentence_spans
    ]
    fragments = _split_to_budget(fragments, config.max_sentence_tokens, text, tokenizer)
    to_bytes = _ByteOffsets(text)

    nodes: list[ChunkNode] = []

    parent_frags = _split_to_budget(fragments, config.parent_size, text, tokenizer)
    parent_groups = _pack(parent_frags, config.parent_size, config.parent_overlap)
    parent_regions = _regions(parent_groups, 0, len(text))

    for p_ord, (p_group, p_region) in enumerate(zip(parent_groups, parent_regions)):
        parent_id = f"{doc_id}:p{p_ord}"
        nodes.append(
            _make_node(parent_id, Level.PARENT, doc_id, None, p_group, p_region, text, tokenizer, to_bytes)
        )

        inter_frags = _split_to_budget(
            p_group.owned, config.intermediate_size, text, tokenizer
        )
        inter_groups = _pack(
            inter_frags, config.intermediate_size, config.intermediate_overlap
        )
        inter_regions = _regions(inter_groups, *p_region.owned)

        for i_ord, (i_group, i_region) in enumerate(zip(inter_groups, inter_regions)):
            inter_id = f"{parent_id}.i{i_ord}"
            nodes.append(
                _make_node(inter_id, Level.INTERMEDIATE, doc_id, parent_id, i_group, i_region, text, tokenizer, to_bytes)
            )

            sent_groups = [_Group([f]) for f in i_group.owned]
            sent_regions = _regions(sent_groups, *i_region.owned)
            for s_ord, (s_group, s_region) in enumerate(zip(sent_groups, sent_regions)):
                nodes.append(
                    _make_node(
                        f"{inter_id}.s{s_ord}", Level.SENTENCE, doc_id, inter_id,
                        s_group, s_region, text, tokenizer, to_bytes,
                    )
                )

            if config.sub_intermediate_size is not None:
                sub_frags = _split_to_budget(
                    i_group.owned, config.sub_intermediate_size, text, tokenizer
                )
                sub_groups = _pack(sub_frags, config.sub_intermediate_size, 0)
                sub_regions = _regions(sub_groups, *i_region.owned)
                for c_ord, (c_group, c_region) in enumerate(zip(sub_groups, sub_regions)):
                    nodes.append(
                        _make_node(
                            f"{inter_id}.c{c_ord}", Level.SUB_INTERMEDIATE, doc_id,
                            inter_id, c_group, c_region, text, tokenizer, to_bytes,
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
    fragments: list[_Fragment], budget: int, text: str, tokenizer: Tokenizer
) -> list[_Fragment]:
    """Hard-split any fragment exceeding ``budget`` at token boundaries."""
    out: list[_Fragment] = []
    for frag in fragments:
        if frag.tokens <= budget:
            out.append(frag)
            continue
        spans = tokenizer.token_spans(text[frag.start : frag.end])
        for i in range(0, len(spans), budget):
            piece = spans[i : i + budget]
            out.append(
                _Fragment(
                    start=frag.start + piece[0][0],
                    end=frag.start + piece[-1][1],
                    tokens=len(piece),
                    split_head=frag.split_head if i == 0 else True,
                    split_tail=frag.split_tail if i + budget >= len(spans) else True,
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
    text: str,
    tokenizer: Tokenizer,
    to_bytes: _ByteOffsets,
) -> ChunkNode:
    start, end = region.span
    return ChunkNode(
        id=chunk_id,
        level=level,
        doc_id=doc_id,
        parent_id=parent_id,
        char_span=(to_bytes(start), to_bytes(end)),
        token_count=tokenizer.count_tokens(text[start:end]),
        hard_split=group.owned[0].split_head or group.owned[-1].split_tail,
    )
