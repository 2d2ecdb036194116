"""Document and chunk hierarchy model.

A corpus holds plain-text documents plus one table of the chunk nodes
produced by the chunker, keyed by id and by level: parent chunks,
intermediate chunks nested in parents, and sentence chunks nested in
intermediates. The sub-intermediate side tier (used only by the
child-to-parent retrieval strategy) is stored the same way; it also nests in
intermediates, but it is a level outside ``HIERARCHY_LEVELS``, so sentence
nodes always sit exactly two hops below their parent chunk.

Chunk text is never stored on the nodes; every node carries a (start, end)
byte span into its source document's UTF-8 encoding, and the corpus decodes
on demand. With zero overlap the spans at each level partition the level
above, so documents reassemble byte-for-byte from their parent chunks.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from .errors import LevelViolationError, SnapshotFormatError, UnknownChunkError
from .tokens import get_tokenizer

if TYPE_CHECKING:
    from .chunking import ChunkingConfig


class Level(str, Enum):
    PARENT = "parent"
    INTERMEDIATE = "intermediate"
    SENTENCE = "sentence"
    #: C2P-only side tier; nests in intermediates, outside the main hierarchy.
    SUB_INTERMEDIATE = "sub_intermediate"


#: The three levels of the document hierarchy proper, top to bottom.
HIERARCHY_LEVELS = (Level.PARENT, Level.INTERMEDIATE, Level.SENTENCE)


@dataclass(frozen=True)
class ChunkNode:
    """One text span at one hierarchy level.

    ``char_span`` is a half-open (start, end) byte range into the UTF-8
    encoding of the source document. ``hard_split`` marks chunks whose
    boundary was forced inside a sentence because a single sentence (or a
    single token, in the limit) exceeded the level's budget; such content
    is kept, never truncated.
    """

    id: str
    level: Level
    doc_id: str
    parent_id: str | None
    char_span: tuple[int, int]
    token_count: int
    hard_split: bool = False


@dataclass(frozen=True)
class Violation:
    """One broken corpus invariant; data, not an exception."""

    rule: str
    chunk_id: str | None
    detail: str

    def __str__(self) -> str:
        return f"{self.rule}({self.chunk_id or '-'}: {self.detail})"


class Corpus:
    """Immutable container for documents and one table of chunk nodes.

    Safe for concurrent readers once constructed. Every level, the side tier
    included, is stored alike: ``chunks`` maps each id to its node,
    ``children`` maps a node id to its children at every level, and
    ``nodes_at`` gives one level's nodes in emission order. ``nodes`` holds
    the ``HIERARCHY_LEVELS`` in the chunker's emission order (parents in
    document order, each followed by its intermediates and their sentences),
    which downstream code relies on for deterministic iteration; iterating
    the corpus yields those, then every other level's nodes.
    """

    def __init__(
        self,
        documents: Mapping[str, str],
        nodes: Iterable[ChunkNode],
        *,
        config: "ChunkingConfig",
        tokenizer_name: str = "word-punct",
    ) -> None:
        self.documents: dict[str, str] = dict(documents)
        self.config = config
        self.tokenizer_name = tokenizer_name

        hierarchy: list[ChunkNode] = []
        by_level: dict[Level, list[ChunkNode]] = {level: [] for level in Level}
        self.chunks: dict[str, ChunkNode] = {}
        children: dict[str, list[str]] = {}
        for node in nodes:
            by_level[node.level].append(node)
            if node.level in HIERARCHY_LEVELS:
                hierarchy.append(node)
            self.chunks.setdefault(node.id, node)
            if node.parent_id is not None:
                children.setdefault(node.parent_id, []).append(node.id)
        self.nodes: tuple[ChunkNode, ...] = tuple(hierarchy)
        self._by_level = {level: tuple(ns) for level, ns in by_level.items()}
        self.children: dict[str, tuple[str, ...]] = {
            pid: tuple(ids) for pid, ids in children.items()
        }

        self._parents_by_doc: dict[str, list[ChunkNode]] = {}
        for node in self._by_level[Level.PARENT]:
            self._parents_by_doc.setdefault(node.doc_id, []).append(node)

        self._doc_bytes: dict[str, bytes] = {
            doc_id: text.encode("utf-8") for doc_id, text in self.documents.items()
        }

    def __len__(self) -> int:
        return sum(map(len, self._by_level.values()))

    def __iter__(self) -> Iterator[ChunkNode]:
        """Every node: ``nodes``, then each other level's, as saved."""
        yield from self.nodes
        for level in Level:
            if level not in HIERARCHY_LEVELS:
                yield from self._by_level[level]

    def get(self, chunk_id: str) -> ChunkNode:
        node = self.chunks.get(chunk_id)
        if node is None:
            raise UnknownChunkError(f"no chunk {chunk_id!r} in corpus")
        return node

    def __contains__(self, chunk_id: str) -> bool:
        return chunk_id in self.chunks

    def nodes_at(self, level: Level) -> tuple[ChunkNode, ...]:
        return self._by_level[level]

    @property
    def levels(self) -> tuple[Level, ...]:
        """The levels that hold at least one node, top to bottom."""
        return tuple(level for level, nodes in self._by_level.items() if nodes)

    @property
    def sub_nodes(self) -> tuple[ChunkNode, ...]:
        """The side tier, ``nodes_at(Level.SUB_INTERMEDIATE)``."""
        return self._by_level[Level.SUB_INTERMEDIATE]

    def parent_at(self, doc_id: str, byte: int) -> str | None:
        """Id of the parent chunk owning byte offset ``byte`` of ``doc_id``.

        A document's parent spans end in strictly increasing order, even with
        overlap, so the first span ending after ``byte`` owns it, provided
        that span starts at or before it. None when no parent covers it.
        """
        parents = self._parents_by_doc.get(doc_id, ())
        i = bisect.bisect_right(parents, byte, key=lambda node: node.char_span[1])
        if i < len(parents) and parents[i].char_span[0] <= byte:
            return parents[i].id
        return None

    def document_bytes(self, doc_id: str) -> bytes:
        return self._doc_bytes[doc_id]

    def chunk_text(self, chunk_id: str) -> str:
        node = self.get(chunk_id)
        start, end = node.char_span
        return self._doc_bytes[node.doc_id][start:end].decode("utf-8")


def resolve_parent(corpus: Corpus, chunk_id: str, target_level: Level) -> str:
    """Return the id of ``chunk_id``'s unique ancestor at ``target_level``.

    Identity when the levels already match. Raises ``UnknownChunkError`` for
    a missing chunk and ``LevelViolationError`` when the target level is not
    on the chunk's ancestor chain (anything below it, or the sentence and
    sub-intermediate tiers of other branches).
    """
    node = corpus.get(chunk_id)
    while True:
        if node.level is target_level:
            return node.id
        if node.parent_id is None:
            raise LevelViolationError(
                f"{chunk_id!r} ({node.level.value}) has no ancestor at "
                f"{target_level.value!r}"
            )
        node = corpus.get(node.parent_id)


_EXPECTED_PARENT_LEVEL = {
    Level.INTERMEDIATE: Level.PARENT,
    Level.SENTENCE: Level.INTERMEDIATE,
    Level.SUB_INTERMEDIATE: Level.INTERMEDIATE,
}


def validate_corpus(corpus: Corpus) -> list[Violation]:
    """Check every corpus invariant; an empty list means the corpus is sound.

    Pure function: same corpus, same violations, in a deterministic order.
    Coverage and token-sum rules only apply at overlap 0, where spans are
    required to partition exactly.
    """
    violations: list[Violation] = []
    tokenizer = get_tokenizer(corpus.tokenizer_name)
    cfg = corpus.config

    seen: set[str] = set()
    for node in corpus:
        if node.id in seen:
            violations.append(Violation("DuplicateId", node.id, "chunk id reused"))
        seen.add(node.id)

    budgets = {
        Level.PARENT: cfg.parent_size,
        Level.INTERMEDIATE: cfg.intermediate_size,
        Level.SENTENCE: None,
        Level.SUB_INTERMEDIATE: cfg.sub_intermediate_size,
    }

    for node in corpus:
        violations.extend(_check_node(corpus, node, budgets, tokenizer))

    if cfg.parent_overlap == 0 and cfg.intermediate_overlap == 0:
        violations.extend(_check_partitions(corpus))

    return violations


def _check_node(corpus, node, budgets, tokenizer) -> list[Violation]:
    out: list[Violation] = []
    if node.doc_id not in corpus.documents:
        out.append(Violation("UnknownDocument", node.id, f"doc {node.doc_id!r} missing"))
        return out

    doc = corpus.document_bytes(node.doc_id)
    start, end = node.char_span
    if not (0 <= start < end <= len(doc)):
        out.append(Violation("SpanOutOfBounds", node.id, f"span {node.char_span}"))
        return out
    try:
        text = doc[start:end].decode("utf-8")
    except UnicodeDecodeError:
        out.append(Violation("SpanNotCharAligned", node.id, f"span {node.char_span}"))
        return out

    expected = _EXPECTED_PARENT_LEVEL.get(node.level)
    if expected is None:
        if node.parent_id is not None:
            out.append(Violation("HierarchySkip", node.id, "parent-level node has a parent link"))
    elif node.parent_id is None:
        out.append(Violation("HierarchySkip", node.id, f"{node.level.value} node has no parent link"))
    else:
        parent = corpus.chunks.get(node.parent_id)
        if parent is None:
            out.append(Violation("DanglingParent", node.id, f"parent {node.parent_id!r} missing"))
        elif parent.level is not expected:
            out.append(
                Violation(
                    "HierarchySkip",
                    node.id,
                    f"{node.level.value} links to {parent.level.value}, expected {expected.value}",
                )
            )

    actual_tokens = tokenizer.count_tokens(text)
    if actual_tokens != node.token_count:
        out.append(
            Violation(
                "TokenCountDrift",
                node.id,
                f"stored {node.token_count}, counted {actual_tokens}",
            )
        )
    budget = budgets.get(node.level)
    if budget is not None and actual_tokens > budget:
        out.append(
            Violation("BudgetExceeded", node.id, f"{actual_tokens} tokens > {budget}")
        )
    return out


def _check_partitions(corpus: Corpus) -> list[Violation]:
    """Parents cover their document, and each owner's children at one level
    cover the owner and sum to its token count."""
    out: list[Violation] = []

    for doc_id, parents in corpus._parents_by_doc.items():
        out.extend(_check_cover(parents, 0, len(corpus.document_bytes(doc_id)), doc_id))

    for owner_id, child_ids in corpus.children.items():
        owner = corpus.chunks.get(owner_id)
        if owner is None:
            continue
        by_level: dict[Level, list[ChunkNode]] = {}
        for child_id in child_ids:
            child = corpus.chunks[child_id]
            by_level.setdefault(child.level, []).append(child)
        for children in by_level.values():
            out.extend(_check_cover(children, *owner.char_span, owner_id))
            token_sum = sum(c.token_count for c in children)
            if token_sum != owner.token_count:
                out.append(
                    Violation(
                        "TokenSumMismatch",
                        owner_id,
                        f"{children[0].level.value} children sum {token_sum} "
                        f"!= {owner.token_count}",
                    )
                )
    return out


def _check_cover(nodes: list[ChunkNode], start: int, end: int, owner: str) -> list[Violation]:
    out: list[Violation] = []
    pos = start
    for node in nodes:
        s, e = node.char_span
        if s < pos:
            out.append(Violation("OrderViolation", node.id, f"span starts at {s}, before {pos}"))
            return out
        if s > pos:
            out.append(Violation("CoverageGap", node.id, f"gap [{pos}, {s}) under {owner}"))
        pos = e
    if pos != end:
        out.append(Violation("CoverageGap", None, f"[{pos}, {end}) uncovered under {owner}"))
    return out


# ---------------------------------------------------------------------------
# Serialization: documents.jsonl + chunks.jsonl (line-delimited records)
# ---------------------------------------------------------------------------

_FORMAT = "hrr-corpus"
_VERSION = 1

DOCUMENTS_FILE = "documents.jsonl"
CHUNKS_FILE = "chunks.jsonl"


def _dumps(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def _node_record(node: ChunkNode, corpus: Corpus, include_text: bool) -> dict:
    rec = {
        "id": node.id,
        "level": node.level.value,
        "doc_id": node.doc_id,
        "parent_id": node.parent_id,
        "char_span": list(node.char_span),
        "token_count": node.token_count,
        "hard_split": node.hard_split,
    }
    if include_text:
        rec["text"] = corpus.chunk_text(node.id)
    return rec


def save_corpus(corpus: Corpus, directory: str | Path, *, include_text: bool = False) -> None:
    """Write the corpus as two line-delimited record files.

    ``chunks.jsonl`` starts with a header record (format version, tokenizer,
    chunking settings) followed by one record per chunk, in the corpus's
    iteration order (the hierarchy in emission order, then the side tier);
    text is omitted unless ``include_text`` since it is recoverable from the
    source and span.
    """
    from dataclasses import asdict

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    with open(directory / DOCUMENTS_FILE, "w", encoding="utf-8") as fh:
        for doc_id, text in corpus.documents.items():
            fh.write(_dumps({"doc_id": doc_id, "text": text}) + "\n")

    header = {
        "format": _FORMAT,
        "version": _VERSION,
        "tokenizer": corpus.tokenizer_name,
        "chunking": asdict(corpus.config),
    }
    with open(directory / CHUNKS_FILE, "w", encoding="utf-8") as fh:
        fh.write(_dumps(header) + "\n")
        for node in corpus:
            fh.write(_dumps(_node_record(node, corpus, include_text)) + "\n")


def load_corpus(directory: str | Path) -> Corpus:
    """Load a corpus previously written by ``save_corpus``.

    A line that is not a well-formed record raises ``SnapshotFormatError``
    naming the file and line.
    """
    from .chunking import ChunkingConfig

    directory = Path(directory)
    documents: dict[str, str] = {}
    path = directory / DOCUMENTS_FILE
    with open(path, encoding="utf-8") as fh:
        line_no = 0
        try:
            for line_no, line in enumerate(fh, start=1):
                rec = json.loads(line)
                documents[rec["doc_id"]] = rec["text"]
        except MALFORMED_RECORD_ERRORS as exc:
            raise malformed_record(path, line_no, exc) from None

    path = directory / CHUNKS_FILE
    with open(path, encoding="utf-8") as fh:
        line_no = 1
        try:
            header = json.loads(fh.readline())
            if (
                not isinstance(header, dict)
                or header.get("format") != _FORMAT
                or header.get("version") != _VERSION
            ):
                raise SnapshotFormatError(f"{path}: unsupported corpus file header: {header}")
            config = ChunkingConfig(**header["chunking"])
            tokenizer_name = header["tokenizer"]
            nodes: list[ChunkNode] = []
            for line_no, line in enumerate(fh, start=2):
                rec = json.loads(line)
                node = ChunkNode(
                    id=rec["id"],
                    level=Level(rec["level"]),
                    doc_id=rec["doc_id"],
                    parent_id=rec["parent_id"],
                    char_span=(rec["char_span"][0], rec["char_span"][1]),
                    token_count=rec["token_count"],
                    hard_split=rec["hard_split"],
                )
                nodes.append(node)
        except MALFORMED_RECORD_ERRORS as exc:
            raise malformed_record(path, line_no, exc) from None

    return Corpus(documents, nodes, config=config, tokenizer_name=tokenizer_name)


#: What reading fields from one parsed JSON line can raise when the line is
#: not a well-formed record (``json.JSONDecodeError`` is a ``ValueError``).
MALFORMED_RECORD_ERRORS = (ValueError, KeyError, TypeError, IndexError)


def malformed_record(path: Path | str, line_no: int, exc: Exception) -> SnapshotFormatError:
    """The one-line error for a bad line in a JSON-lines file."""
    return SnapshotFormatError(f"{path} line {line_no}: malformed record ({exc})")
