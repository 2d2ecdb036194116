"""Reference tokenizer, sentence splitter, chunker and corpus recount.

These are the plain versions the engine's fast paths must equal: the
word-punct tokenizer run as one ``\\w+|[^\\w\\s]`` scan over the whole
text, the splitter that checks each terminator run with its own
look-back and whitespace loops, the chunker that packs one fragment
object at a time and cuts each level by recursion, and the recount that
counts one node's text per ``count_tokens`` call. Tests compare the
engine with them output for output, and can patch the tokenizer and
splitter into the chunker in place of the engine's.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple

import numpy as np

from hrr import sentences
from hrr.chunking import ChunkingConfig
from hrr.corpus import _CODES, HIERARCHY_LEVELS, Corpus, Level, Violation
from hrr.errors import EmptyDocumentError
from hrr.sentences import ABBREVIATIONS
from hrr.tokens import Tokenizer, WordPunctTokenizer, get_tokenizer

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


class ReferenceTokenizer:
    """The word-punct rule, scanned with the regex over every text."""

    name = "word-punct"

    def count_tokens(self, text: str) -> int:
        return len(_TOKEN_RE.findall(text))

    def token_spans(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        spans = [m.span() for m in _TOKEN_RE.finditer(text)]
        return (np.array([s for s, _ in spans], dtype=np.int64),
                np.array([e for _, e in spans], dtype=np.int64))

    def tokens(self, text: str) -> list[str]:
        return _TOKEN_RE.findall(text)


def span_pairs(spans: tuple[np.ndarray, np.ndarray]) -> list[tuple[int, int]]:
    """``token_spans``'s ``(starts, ends)`` arrays as one ``(start, end)`` per token."""
    starts, ends = spans
    assert len(starts) == len(ends)
    return list(zip(starts.tolist(), ends.tolist()))


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


def reference_validate(corpus: Corpus) -> list[Violation]:
    """``validate_corpus`` one node at a time: each node, in row order,
    read through ``Corpus.get``, its text decoded from its document's bytes
    and counted by one ``count_tokens`` call of the corpus's tokenizer."""
    violations: list[Violation] = []
    count_tokens = get_tokenizer(corpus.tokenizer_name).count_tokens
    for chunk_id in corpus.ids_of(np.arange(len(corpus))):
        node = corpus.get(chunk_id)
        start, end = node.char_span
        counted = count_tokens(corpus.documents[node.doc_id][start:end].decode("utf-8"))
        if counted != node.token_count:
            violations.append(Violation("TokenCountDrift", chunk_id,
                                        f"stored {node.token_count}, counted {counted}"))
        budget = corpus.config.budget(node.level)
        if budget is not None and counted > budget:
            violations.append(Violation("BudgetExceeded", chunk_id, f"{counted} tokens > {budget}"))
    return violations


# ---------------------------------------------------------------------------
# The chunker: a recursive cut over fragment objects
# ---------------------------------------------------------------------------


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
    inside it, found by two bisections.
    """

    def __init__(self, text: str, tokenizer: Tokenizer) -> None:
        starts, ends = tokenizer.token_spans(text)
        self.starts = starts.tolist()
        self.ends = ends.tolist()

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
    """``hrr.chunking.build_corpus``'s nodes, one fragment object at a time,
    in ``node_rows``' order, which is the order earlier versions saved. A
    corpus refuses that order where an owner's children at one level are
    not one run of rows, as they are not once a parent has two
    intermediates."""
    config = config if config is not None else ChunkingConfig()
    config.validate()
    tokenizer = tokenizer if tokenizer is not None else WordPunctTokenizer()
    return corpus_of_rows(documents, node_rows(documents, config, tokenizer), config,
                          tokenizer.name)


def corpus_of_rows(documents: Mapping[str, str], rows: list[tuple], config: ChunkingConfig,
                   tokenizer_name: str) -> Corpus:
    """The corpus of ``documents`` whose table is ``rows``, each an id and
    its seven columns. The corpus stores no id, so each row's id must be
    the one the corpus derives, which is asserted."""
    ids, *columns = zip(*rows) if rows else [()] * 8
    encoded = {doc_id: text.encode("utf-8") for doc_id, text in documents.items()}
    corpus = Corpus(encoded, columns, config=config, tokenizer_name=tokenizer_name)
    assert tuple(corpus.ids_of(range(len(ids)))) == ids
    return corpus


def node_rows(documents: Mapping[str, str], config: ChunkingConfig,
              tokenizer: Tokenizer) -> list[tuple]:
    """Every node's row, an id and its seven columns: the hierarchy
    depth-first (each parent followed by its intermediates, each of those
    followed by its sentences), then the side tier in the same order.

    One recursive ``cut`` makes every level: each chunk is packed from the
    fragments its owner holds, and its token count is two bisections on
    the document's token spans. Sentences come from
    ``hrr.sentences.split_sentences``.
    """
    tiers = _tiers(config)
    hierarchy: list[tuple] = []
    side: list[tuple] = []

    for doc, (doc_id, text) in enumerate(documents.items()):
        sentence_spans = sentences.split_sentences(text)
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

    return hierarchy + side


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
