"""Document and chunk hierarchy model.

A corpus holds documents, as their UTF-8 bytes, plus one table of the
chunk nodes produced by the chunker, keyed by id and by level: parent chunks,
intermediate chunks nested in parents, and sentence chunks nested in
intermediates. The sub-intermediate side tier (used only by the
child-to-parent retrieval strategy) is stored the same way; it also nests in
intermediates, but it is a level outside ``HIERARCHY_LEVELS``, so sentence
nodes always sit exactly two hops below their parent chunk.

The table is columnar: one numpy array per node field plus one list of
ids, row ``i`` being the ``i``-th node in iteration order. A ``ChunkNode``
is built only when one is asked for; ancestor walks, text lookups and
byte-to-parent lookups read the columns. This is the layout column stores
use to scan only what a query touches (Abadi, Madden and Hachem,
"Column-Stores vs. Row-Stores", SIGMOD 2008), and it is also the on-disk
layout, so loading a corpus builds no per-node object.

Chunk text is never stored on the nodes; every node carries a (start, end)
byte span into its source document's UTF-8 encoding, and the corpus decodes
on demand, keeping the texts it handed out most recently. With zero
overlap the spans at each level partition the level above, so documents
reassemble byte-for-byte from their parent chunks; like the rest of the
table's structure, this is checked whenever a corpus is built or loaded.

A corpus is saved as one file, ``nodes.bin``: the node table's columns, the
chunk ids joined by NUL, then the documents' UTF-8 bytes, so one rename
replaces texts and spans together. Its container (magic, header length, JSON
header, blocks whose sizes the header gives) is the one the index snapshots
use too; ``write_snapshot`` and ``read_snapshot`` frame both.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from contextlib import closing, contextmanager
from dataclasses import asdict, dataclass
from enum import Enum
from functools import cached_property, lru_cache, partial
from pathlib import Path
from typing import (
    TYPE_CHECKING, BinaryIO, Callable, Iterator, Mapping, NamedTuple, Sequence,
)

import numpy as np

from .embedding import encodes_as_utf8
from .errors import (
    ConfigError,
    InvalidCorpusError,
    LevelViolationError,
    SnapshotFormatError,
    UnknownChunkError,
)
from .rerank import TOKEN_SET_CACHE_SIZE
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

#: A node's level is stored as its position in ``Level``.
_LEVELS = tuple(Level)
_CODES = {level: code for code, level in enumerate(_LEVELS)}
_HIERARCHY_CODES = [_CODES[level] for level in HIERARCHY_LEVELS]

#: The level of each level's parent node; a parent-level node has none.
_EXPECTED_PARENT_LEVEL = {
    Level.INTERMEDIATE: Level.PARENT,
    Level.SENTENCE: Level.INTERMEDIATE,
    Level.SUB_INTERMEDIATE: Level.INTERMEDIATE,
}
#: The same by level code, -1 for none.
_PARENT_CODES = np.array([_CODES.get(_EXPECTED_PARENT_LEVEL.get(level), -1) for level in _LEVELS])


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
    chunk_id: str
    detail: str

    def __str__(self) -> str:
        return f"{self.rule}({self.chunk_id}: {self.detail})"


class _Columns(NamedTuple):
    """The node table, one array per field; row ``i`` is node ``i``."""

    level: np.ndarray  #: position of the node's level in ``Level``
    doc: np.ndarray  #: row of the node's document
    parent: np.ndarray  #: row of the parent node, -1 for none
    start: np.ndarray  #: the byte span into the document
    end: np.ndarray
    token_count: np.ndarray
    hard_split: np.ndarray  #: 0 or 1


#: Each column's dtype, in file order.
_DTYPES = _Columns("u1", "<u4", "<i4", "<i8", "<i8", "<u4", "u1")
_ROW_BYTES = sum(np.dtype(dtype).itemsize for dtype in _DTYPES)


class Corpus:
    """Immutable container for documents and one table of chunk nodes.

    Safe for concurrent readers once constructed. Every level, the side tier
    included, is stored alike: ``chunks`` maps each id to its node, and
    ``nodes_at``, ``nodes`` (the ``HIERARCHY_LEVELS``) and iterating the
    corpus give nodes in row order. Each of these builds its nodes when
    called; the corpus keeps none.

    The chunker's rows are each document's parents, intermediates and
    sentences in turn, then the side tier (see ``hrr.chunking``); earlier
    versions saved the hierarchy depth-first. Each level's rows are in
    document and text order either way, and nothing reads more of the
    order than the structure check below, so both load and answer alike.

    A corpus is constructed from the blocks ``nodes.bin`` stores, built or
    loaded alike, and construction proves each of them once. It raises
    ``InvalidCorpusError`` for the first of these rules that is broken,
    naming what breaks it: a value does not fit its column; a document id
    holds a NUL or a lone surrogate (which UTF-8 cannot encode); a document
    is not UTF-8 (the first such document); the id table is not UTF-8 or
    does not split at NUL into one id per row (so no id holds a NUL or a
    lone surrogate); an id names more than one node. Then, naming the first
    node in row order within each rule: a level code is 4 or more; a document
    row is not one of ``documents``; a parent-level node has a parent, or
    another node's parent is not an earlier node of the same document at
    the level ``_EXPECTED_PARENT_LEVEL`` names (so a sentence sits exactly
    two hops below its parent chunk); a span is empty or reversed, ends
    beyond its document or cuts a UTF-8 character; a ``hard_split`` flag is
    not 0 or 1. At overlap 0 (``parent_overlap`` and
    ``intermediate_overlap`` both 0), each level's spans must also tile the
    level above: a document's parents, and one node's children at one
    level, taken in row order, start at their owner's start (0 for a
    document), each next one where the one before ends, and the last ends
    at the owner's end (the document's length); and those children's token
    counts sum to the owner's. An owner without children at a level, and a
    document without parents, are not checked. ``validate_corpus``
    recounts the tokens.

    ``ids_sha256`` digests the table's identity: the sha256 of the level
    column (``u1``) followed by the id table as handed in, the bytes
    ``save_corpus`` writes for them. As no id holds a NUL, the table of
    ``n`` ids holds ``n - 1``, and the column is ``n`` bytes, so those
    bytes name exactly one (levels, ids) sequence: two splits of one byte
    string at ``n < m`` would need the ``m - n`` bytes between them to hold
    ``n - m`` NULs. An index is a level of its corpus
    (``index.LevelIndex``): its snapshot stores this one digest, and loads
    only beside a corpus whose digest it matches.
    """

    def __init__(
        self,
        documents: Mapping[str, bytes],
        id_table: bytes,
        columns: Sequence[Sequence[int]],
        *,
        config: "ChunkingConfig",
        tokenizer_name: str,
    ) -> None:
        """A corpus over ``documents``, each id's UTF-8 bytes, and the node
        table ``id_table``, ``columns``.

        ``id_table`` is the chunk ids in row order, joined by NUL, as UTF-8;
        a table of no bytes is no id, or one empty id where the columns hold
        one row. ``columns`` holds one sequence of ints per field, in this
        order: the node's level as its position in ``Level``, its document's
        position in ``documents``, its parent's row (-1 for none), the start
        and end of its byte span, its token count and its hard-split flag
        (0 or 1).
        """
        try:
            # Converted, never cast, so an out-of-range value raises; in
            # native byte order, since a memoryview of another order cannot
            # be indexed (no copy of a loaded column on a little-endian host).
            columns = _Columns(*(np.asarray(values, dtype=np.dtype(dtype).newbyteorder("="))
                                 for values, dtype in zip(columns, _DTYPES, strict=True)))
        except OverflowError as exc:
            raise InvalidCorpusError(f"a node field does not fit the node table ({exc})") from None
        #: Each document id to its UTF-8 bytes, which the spans index.
        self.documents: dict[str, bytes] = dict(documents)
        self.config = config
        self.tokenizer_name = tokenizer_name
        is_ascii = _check_documents(self.documents)
        self._ids = ids = _split_ids(id_table, len(columns.level))
        self._index: dict[str, int] = dict(zip(ids, range(len(ids))))
        self._cols = columns
        #: The columns as memoryviews too, whose items read as Python ints
        #: several times faster than numpy scalars; per-row lookups use them.
        self._view = _Columns(*map(memoryview, columns))
        #: Documents by row.
        self._doc_ids: list[str] = list(self.documents)
        self._doc_rows = {doc_id: row for row, doc_id in enumerate(self._doc_ids)}
        self._doc_bytes: list[bytes] = list(self.documents.values())
        _check_structure(self, is_ascii)
        digest = hashlib.sha256(columns.level.tobytes())
        digest.update(id_table)
        #: The digest of the level column and the id table (see above).
        self.ids_sha256: str = digest.hexdigest()
        self._level_counts = np.bincount(columns.level, minlength=len(_LEVELS))

        # Parent rows grouped by document, each group in row order: document
        # d's are _parent_rows[_parent_bounds[d]:_parent_bounds[d + 1]].
        parent_rows = np.flatnonzero(columns.level == _CODES[Level.PARENT])
        parent_rows = parent_rows[np.argsort(columns.doc[parent_rows], kind="stable")]
        self._parent_rows = parent_rows
        self._parent_ends = columns.end[parent_rows]
        self._parent_bounds = np.searchsorted(
            columns.doc[parent_rows], np.arange(len(self._doc_ids) + 1)
        ).tolist()

    # -- the table ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[ChunkNode]:
        """Every node, in row order."""
        return map(self._node, range(len(self)))

    def _row(self, chunk_id: str) -> int:
        row = self._index.get(chunk_id)
        if row is None:
            raise UnknownChunkError(f"no chunk {chunk_id!r} in corpus")
        return row

    def _node(self, row: int) -> ChunkNode:
        """The node at ``row``, built from the columns."""
        view, ids = self._view, self._ids
        parent = view.parent[row]
        return ChunkNode(
            ids[row], _LEVELS[view.level[row]], self._doc_ids[view.doc[row]],
            ids[parent] if parent >= 0 else None,
            (view.start[row], view.end[row]), view.token_count[row], bool(view.hard_split[row]),
        )

    def _nodes(self, rows: np.ndarray) -> tuple[ChunkNode, ...]:
        return tuple(map(self._node, rows.tolist()))

    def get(self, chunk_id: str) -> ChunkNode:
        return self._node(self._row(chunk_id))

    def __contains__(self, chunk_id: str) -> bool:
        return chunk_id in self._index

    @property
    def chunks(self) -> Mapping[str, ChunkNode]:
        """Read-only view: each id to its node, built on lookup."""
        return _ChunkMap(self)

    def rows_at(self, level: Level) -> np.ndarray:
        """The rows of ``level``'s nodes, ascending, as int64."""
        return np.flatnonzero(self._cols.level == _CODES[level])

    def ids_of(self, rows: np.ndarray) -> Iterator[str]:
        """The ids of ``rows``, an int64 array, in its order, read one at a
        time from the one id list, so no list of rows or of ids is built."""
        return map(self._ids.__getitem__, memoryview(rows))

    def nodes_at(self, level: Level) -> tuple[ChunkNode, ...]:
        return self._nodes(self.rows_at(level))

    def ids_at(self, level: Level) -> tuple[str, ...]:
        """The ids of ``nodes_at(level)``, without building the nodes."""
        return tuple(self.ids_of(self.rows_at(level)))

    @property
    def nodes(self) -> tuple[ChunkNode, ...]:
        """The ``HIERARCHY_LEVELS``' nodes, in row order."""
        return self._nodes(np.flatnonzero(np.isin(self._cols.level, _HIERARCHY_CODES)))

    @property
    def levels(self) -> tuple[Level, ...]:
        """The levels that hold at least one node, top to bottom."""
        return tuple(level for level, count in zip(_LEVELS, self._level_counts) if count)

    @property
    def sub_nodes(self) -> tuple[ChunkNode, ...]:
        """The side tier, ``nodes_at(Level.SUB_INTERMEDIATE)``."""
        return self.nodes_at(Level.SUB_INTERMEDIATE)

    # -- lookups that build no node --------------------------------------------

    def parent_at(self, doc_id: str, byte: int) -> str | None:
        """Id of the parent chunk owning byte offset ``byte`` of ``doc_id``.

        A document's parent spans end in strictly increasing order, even with
        overlap, so the first span ending after ``byte`` owns it, provided
        that span starts at or before it. None when no parent covers it.
        """
        doc = self._doc_rows.get(doc_id)
        if doc is None or not 0 <= byte < len(self._doc_bytes[doc]):
            return None
        lo, hi = self._parent_bounds[doc], self._parent_bounds[doc + 1]
        i = lo + int(np.searchsorted(self._parent_ends[lo:hi], byte, side="right"))
        if i < hi:
            row = int(self._parent_rows[i])
            if self._view.start[row] <= byte:
                return self._ids[row]
        return None

    def chunk_text(self, chunk_id: str) -> str:
        """The text of ``chunk_id``: one shared ``str`` per chunk while the
        chunk is among the ``TOKEN_SET_CACHE_SIZE`` most recently read.

        For per-query lookups, such as the rerank pool's texts. Handing the
        lexical reranker the same object again lets its token-set cache find
        a text by its cached hash and identity, not by decoding, hashing and
        comparing it anew. Whole levels are read through ``texts_at``.
        """
        return self._texts(self._row(chunk_id))

    def texts_at(self, level: Level) -> list[str]:
        """The texts of ``ids_at(level)``, in that order, each decoded anew.

        For reading a whole level once, as ``build_index`` does: it leaves
        the ``chunk_text`` memo unbuilt, so no level's texts outlive the call.
        """
        # The rows are read one at a time, so no list of them is built.
        return list(map(partial(_decode, self._doc_bytes, self._view),
                        memoryview(self.rows_at(level))))

    @cached_property
    def _texts(self) -> Callable[[int], str]:
        """Each row's text, memoized; built on the first ``chunk_text`` call.
        The memo holds the documents and columns, not the corpus, so it
        makes no reference cycle that would keep a dropped corpus alive."""
        return lru_cache(maxsize=TOKEN_SET_CACHE_SIZE)(
            partial(_decode, self._doc_bytes, self._view)
        )


def _decode(doc_bytes: list[bytes], view: _Columns, row: int) -> str:
    """The text of node ``row``, decoded from its document's UTF-8 bytes."""
    return doc_bytes[view.doc[row]][view.start[row] : view.end[row]].decode("utf-8")


class _ChunkMap(Mapping):
    def __init__(self, corpus: Corpus) -> None:
        self._corpus = corpus

    def __getitem__(self, chunk_id: str) -> ChunkNode:
        return self._corpus._node(self._corpus._index[chunk_id])

    def __contains__(self, chunk_id) -> bool:
        return chunk_id in self._corpus._index

    def __iter__(self) -> Iterator[str]:
        return iter(self._corpus._index)

    def __len__(self) -> int:
        return len(self._corpus._index)


def resolve_parent(corpus: Corpus, chunk_id: str, target_level: Level) -> str:
    """Return the id of ``chunk_id``'s unique ancestor at ``target_level``.

    Identity when the levels already match. Every ancestor chain ends at a
    parent-level node, since the corpus checks its structure when built or
    loaded, so the walk reads only the parent and level columns. Raises
    ``UnknownChunkError`` for a missing chunk and ``LevelViolationError``
    when the target level is not on the chunk's ancestor chain (anything
    below it, or the sentence and sub-intermediate tiers of other branches).
    """
    row = start = corpus._row(chunk_id)
    levels, parents = corpus._view.level, corpus._view.parent
    target = _CODES[target_level]
    while levels[row] != target:
        row = parents[row]
        if row < 0:
            raise LevelViolationError(
                f"{chunk_id!r} ({_LEVELS[levels[start]].value}) has no ancestor at "
                f"{target_level.value!r}"
            )
    return corpus._ids[row]


def validate_corpus(corpus: Corpus) -> list[Violation]:
    """Recount the corpus's tokens; an empty list means the corpus is sound.

    The structure (unique ids, parent links, levels, spans and, at overlap
    0, each level's tiling of the one above and its token sums) is checked
    whenever a corpus is built or loaded, so this checks what it does not:
    each stored token count against a recount of the node's text
    (``TokenCountDrift``) and the level budgets (``BudgetExceeded``). The
    recount tokenizes every node's text on its own, so it is the oracle for
    the ``Tokenizer`` locality contract the chunker's counts rely on. Pure
    function: same corpus, same violations, in row order. Reads the node
    table row by row and builds no node.
    """
    violations: list[Violation] = []
    count_tokens = get_tokenizer(corpus.tokenizer_name).count_tokens
    budgets = [corpus.config.budget(level) for level in _LEVELS]
    documents, view = corpus._doc_bytes, corpus._view
    level, doc, start, end, stored = view.level, view.doc, view.start, view.end, view.token_count
    for row, chunk_id in enumerate(corpus._ids):
        counted = count_tokens(documents[doc[row]][start[row] : end[row]].decode("utf-8"))
        if counted != stored[row]:
            violations.append(
                Violation("TokenCountDrift", chunk_id, f"stored {stored[row]}, counted {counted}")
            )
        budget = budgets[level[row]]
        if budget is not None and counted > budget:
            violations.append(Violation("BudgetExceeded", chunk_id, f"{counted} tokens > {budget}"))
    return violations


# ---------------------------------------------------------------------------
# Serialization: one nodes.bin per corpus, in the snapshot container that
# the index snapshots share
# ---------------------------------------------------------------------------

#: Format version 1 was ``chunks.jsonl``, one JSON record per node; version
#: 2 kept the documents apart from ``nodes.bin``, in ``documents.jsonl``;
#: version 3 stored the chunk ids as one JSON array.
_MAGIC = b"HRRNODE\n"
_VERSION = 4

NODES_FILE = "nodes.bin"
_RETIRED_NODES_FILE = "chunks.jsonl"
_RETIRED_DOCUMENTS_FILE = "documents.jsonl"


def save_corpus(corpus: Corpus, directory: str | Path) -> None:
    """Write the corpus as the one file ``nodes.bin``.

    It is a snapshot (``write_snapshot``) whose JSON header holds the format
    version, tokenizer, chunking settings, node count, the document ids in
    row order, each document's length in bytes (``document_bytes``) and
    ``ids_bytes``. The body is each column of the node table as
    little-endian fixed-width values (``level`` u1, document row ``<u4``,
    parent row ``<i4``, -1 for none, byte ``start`` and ``end`` ``<i8``,
    ``token_count`` ``<u4``, ``hard_split`` u1), then the id table, the
    chunk ids joined by NUL as UTF-8 (``ids_bytes`` bytes), then each
    document's UTF-8 bytes. Rows
    are in the corpus's row order (each document's parents, intermediates
    and sentences in turn, then the side tier, as ``build_corpus`` writes
    them), so a parent row always precedes its children's.
    The file is replaced by one rename, so an interrupted save leaves the
    earlier corpus whole, texts and spans alike; the ``chunks.jsonl`` and
    ``documents.jsonl`` of retired formats are removed. A corpus checks its
    structure when constructed, so every corpus saves, and what is saved
    loads back.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    ids = "\0".join(corpus._ids).encode("utf-8")
    header = {
        "version": _VERSION,
        "tokenizer": corpus.tokenizer_name,
        "chunking": asdict(corpus.config),
        "count": len(corpus),
        "documents": list(corpus.documents),
        "document_bytes": list(map(len, corpus._doc_bytes)),
        "ids_bytes": len(ids),
    }
    columns = [column.astype(dtype, copy=False) for column, dtype in zip(corpus._cols, _DTYPES)]
    write_snapshot(directory / NODES_FILE, _MAGIC, header, [*columns, ids, *corpus._doc_bytes])
    for retired in (_RETIRED_NODES_FILE, _RETIRED_DOCUMENTS_FILE):
        (directory / retired).unlink(missing_ok=True)


def load_corpus(directory: str | Path) -> Corpus:
    """Load a corpus previously written by ``save_corpus``: frame the
    blocks of ``nodes.bin`` and construct the ``Corpus`` they store, which
    proves them. Loading builds no ``ChunkNode``.

    A ``nodes.bin`` that could not have been saved raises
    ``SnapshotFormatError`` naming it, in one line: anything
    ``read_snapshot`` refuses (another magic, a malformed header, sizes
    that do not fill the file exactly); a version, count or size that is
    not a JSON integer (``json_int``); another format version, which asks
    for a re-ingest; an unknown tokenizer or invalid chunking settings;
    document ids that are not one string per length, or that name a
    document twice; and any rule ``Corpus`` lists, whose message the error
    carries, followed by "; re-run ingest".
    """
    from .chunking import ChunkingConfig

    directory = Path(directory)
    path = directory / NODES_FILE
    if not path.exists() and (directory / _RETIRED_NODES_FILE).exists():
        raise SnapshotFormatError(
            f"{directory / _RETIRED_NODES_FILE}: corpus format v1 is not read; re-run ingest"
        )

    def parse(header):
        version = json_int(header["version"], "version")
        if version != _VERSION:
            raise SnapshotFormatError(
                f"corpus format version {version} is not read; re-run ingest"
            )
        config = ChunkingConfig(**header["chunking"])
        config.validate()
        get_tokenizer(header["tokenizer"])
        count, doc_ids = json_int(header["count"], "count"), header["documents"]
        lengths = header["document_bytes"]
        if not (isinstance(lengths, list) and _is_strings(doc_ids, len(lengths))):
            raise SnapshotFormatError("the document ids are not one string per document length")
        if len(set(doc_ids)) != len(doc_ids):
            duplicate = next(doc_id for doc_id, n in Counter(doc_ids).items() if n > 1)
            raise SnapshotFormatError(f"document id {duplicate!r} is used twice")
        sizes = [count * np.dtype(dtype).itemsize for dtype in _DTYPES]
        sizes.append(json_int(header["ids_bytes"], "ids_bytes"))
        sizes += (json_int(n, f"document_bytes[{i}]") for i, n in enumerate(lengths))
        return (config, header["tokenizer"], doc_ids), sizes

    with closing(read_snapshot(path, _MAGIC, parse)) as snapshot:
        config, tokenizer_name, doc_ids = next(snapshot)
        columns = [np.frombuffer(next(snapshot), dtype) for dtype in _DTYPES]
        id_table = next(snapshot)
        documents = dict(zip(doc_ids, snapshot))
    try:
        return Corpus(documents, id_table, columns, config=config, tokenizer_name=tokenizer_name)
    except InvalidCorpusError as exc:
        raise SnapshotFormatError(f"{path}: {exc}; re-run ingest") from None


def json_int(value, name: str) -> int:
    """``value``, the header field ``name``, if it is a JSON integer; any
    other value, a bool, float or numeric string included, raises
    ``TypeError``, so a snapshot header's numbers are checked, not coerced."""
    if type(value) is not int:
        raise TypeError(f"{name} {value!r} is not an integer")
    return value


def _is_strings(value, count: int) -> bool:
    """Whether ``value`` is a list of ``count`` strings."""
    return isinstance(value, list) and len(value) == count and set(map(type, value)) <= {str}


def write_snapshot(path: str | Path, magic: bytes, header: Mapping, blocks) -> None:
    """Write a snapshot: ``magic``, a ``<I`` header length, ``header`` as
    JSON with sorted keys, then each of ``blocks`` (bytes-like, arrays
    already in their file dtypes) as it is. The file is written under a
    temporary name and renamed into place, so an interrupted write leaves
    the earlier file whole."""
    header_bytes = json.dumps(header, sort_keys=True).encode("ascii")
    with replacing(path) as fh:
        fh.write(magic)
        fh.write(len(header_bytes).to_bytes(4, "little"))
        fh.write(header_bytes)
        for block in blocks:
            fh.write(block)


def read_snapshot(
    path: str | Path, magic: bytes, parse: Callable, retired: Mapping[bytes, str] = {}
) -> Iterator:
    """Read a snapshot ``write_snapshot`` wrote, as a generator: its first
    value is the header's fields, each later one a block of the body as
    ``bytes``, read only when it is asked for, so a caller can check the
    fields before any block is read. A caller that may stop early closes it
    (``contextlib.closing``), which closes the file.

    ``parse`` takes the decoded header and returns ``(fields, sizes)``,
    the values its caller needs and the byte size of each block; it raises
    ``SnapshotFormatError`` for a header it refuses, and what reading a
    malformed record raises for one that lacks a field. Every failure is a
    one-line ``SnapshotFormatError`` naming ``path``, raised before the
    fields are given: a magic of ``retired`` (which names the retired
    format and asks for a re-ingest) or another magic; a header length or
    header that the file cannot hold; a malformed header; a negative size;
    and sizes that do not fill the rest of the file exactly, so no block is
    read from a file that could not have been written.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        found = fh.read(len(magic))
        if found in retired:
            raise SnapshotFormatError(f"{path}: snapshot format {retired[found]} is not read; "
                                      "re-run ingest")
        if found != magic:
            raise SnapshotFormatError(f"{path}: bad magic {found!r}")
        length = fh.read(4)
        header_len = int.from_bytes(length, "little")
        if len(length) != 4 or header_len > size - fh.tell():
            raise SnapshotFormatError(f"{path}: truncated snapshot")
        try:
            fields, sizes = parse(json.loads(fh.read(header_len).decode("utf-8")))
        except (*MALFORMED_RECORD_ERRORS, ConfigError) as exc:
            raise SnapshotFormatError(f"{path}: malformed header ({exc})") from None
        except SnapshotFormatError as exc:
            raise SnapshotFormatError(f"{path}: {exc}") from None
        remaining = size - fh.tell()
        if min(sizes, default=0) < 0:
            raise SnapshotFormatError(f"{path}: its header gives a negative size")
        if sum(sizes) != remaining:
            raise SnapshotFormatError(
                f"{path}: its header's sizes do not fill the file: they take {sum(sizes)} bytes, "
                f"but {remaining} follow the header"
            )
        yield fields
        for n in sizes:
            yield fh.read(n)


@contextmanager
def replacing(path: str | Path) -> Iterator[BinaryIO]:
    """Write ``path``'s temporary sibling, and rename it over ``path`` once
    written whole; a write that fails removes it."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _check_documents(documents: Mapping[str, bytes]) -> list[bool]:
    """Raise ``InvalidCorpusError`` for the first document whose id holds a
    NUL or a lone surrogate, or whose bytes are not UTF-8; return whether
    each document is ASCII, the one scan of its bytes the cut rule reads."""
    verdicts = []
    for doc_id, data in documents.items():
        if "\0" in doc_id or not encodes_as_utf8(doc_id):
            raise InvalidCorpusError(
                f"document id {doc_id!r} holds a NUL or does not encode as UTF-8")
        # ASCII is UTF-8, and is found several times faster than decoded.
        is_ascii = data.isascii()
        try:
            if not is_ascii:
                data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InvalidCorpusError(
                f"document {doc_id!r} is not UTF-8 ({exc.reason} at byte {exc.start})"
            ) from None
        verdicts.append(is_ascii)
    return verdicts


def _split_ids(table: bytes, count: int) -> list[str]:
    """The ``count`` ids of ``table``, split at NUL once it decodes as
    strict UTF-8, which encodes no lone surrogate; else ``InvalidCorpusError``."""
    try:
        # An empty table holds no id, or one empty id where the count says so.
        ids = table.decode("utf-8").split("\0") if count or table else []
    except UnicodeDecodeError as exc:
        raise InvalidCorpusError(
            f"the id table is not UTF-8 ({exc.reason} at byte {exc.start})") from None
    if len(ids) != count:
        raise InvalidCorpusError(f"the id table splits at NUL into {len(ids)} ids, not {count}")
    return ids


def _check_structure(corpus: Corpus, is_ascii: Sequence[bool]) -> None:
    """Raise ``InvalidCorpusError`` naming the first node, in row order
    within each rule, that breaks the node table's structure (the rules
    ``Corpus`` lists from the duplicate id on); for a token sum, the node is
    the owner. ``is_ascii`` says which documents are ASCII."""
    ids = corpus._ids
    if len(corpus._index) != len(ids):
        duplicate = next(chunk_id for chunk_id, n in Counter(ids).items() if n > 1)
        raise InvalidCorpusError(f"id {duplicate!r} names more than one node")

    def refuse(bad: np.ndarray, problem: str, rows: np.ndarray | None = None) -> None:
        """Raise for the least row whose entry of ``bad`` is true, entry
        ``i`` standing for row ``rows[i]`` (row ``i`` when ``rows`` is None)."""
        if bad.any():
            row = int(np.argmax(bad)) if rows is None else int(rows[bad].min())
            raise InvalidCorpusError(f"node {ids[row]!r}: {problem}")

    level, doc, parent, start, end, token_count, hard_split = corpus._cols
    refuse(level >= len(_LEVELS), f"its level code is not below {len(_LEVELS)}")
    refuse(doc >= len(corpus.documents), "its document row is not one of the corpus's documents")
    top = level == _CODES[Level.PARENT]
    refuse(top & (parent != -1), "it is a parent-level node with a parent link")
    refuse(~top & (parent == -1), "its parent link is missing")
    linked = np.flatnonzero(~top)
    up = parent[linked]
    refuse((up < 0) | (up >= linked), "its parent row is not an earlier row", linked)
    refuse(level[up] != _PARENT_CODES[level[linked]],
           "its parent is not at the level above it", linked)
    refuse(doc[up] != doc[linked], "its parent is in another document", linked)
    sizes = np.array([len(data) for data in corpus._doc_bytes], dtype=np.int64)
    refuse((start < 0) | (start >= end) | (end > sizes[doc]),
           "its span is empty, reversed or ends beyond its document")
    # A span cuts a character where its start or end is a continuation byte
    # (10xxxxxx); an end at the end of its document cuts none, and ASCII
    # holds no such byte. Each document's rows are found from one sort by
    # document.
    order = np.argsort(doc, kind="stable")
    bounds = np.searchsorted(doc[order], np.arange(len(sizes) + 1)).tolist()
    cuts = np.zeros(len(ids), dtype=bool)
    for d, data in enumerate(corpus._doc_bytes):
        if is_ascii[d]:
            continue
        text = np.frombuffer(data, dtype=np.uint8)
        rows = order[bounds[d] : bounds[d + 1]]
        ends = end[rows]
        at_end = np.where(ends < len(text), text[np.minimum(ends, len(text) - 1)], 0)
        cuts[rows] = ((text[start[rows]] & 0xC0) == 0x80) | ((at_end & 0xC0) == 0x80)
    refuse(cuts, "its span cuts a UTF-8 character")
    refuse(hard_split > 1, "its hard_split flag is not 0 or 1")
    if corpus.config.parent_overlap or corpus.config.intermediate_overlap or not len(ids):
        return
    # At overlap 0, each document's parents, and each node's children at one
    # level, tile their owner. Owners are numbered documents first, then
    # nodes (n_docs + row); one stable sort on (owner, level) puts each such
    # group together, in row order.
    n_docs = len(sizes)
    key = np.where(top, doc, parent.astype(np.int64) + n_docs) * len(_LEVELS) + level
    grouped = np.argsort(key, kind="stable")
    key = key[grouped]
    new = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new[1:])
    heads = np.flatnonzero(new)
    tails = np.append(heads[1:], len(key)) - 1
    owners = key[heads] // len(_LEVELS)
    # Where each span must start: its owner's start for a group's first (0
    # for a document), else the end of the span before it.
    starts, ends = start[grouped], end[grouped]
    expected = np.empty_like(starts)
    expected[1:] = ends[:-1]
    expected[heads] = np.concatenate([np.zeros(n_docs, dtype=np.int64), start])[owners]
    # Both ways a start can be wrong are one rule, which names the least row
    # either way with its own problem: so a parent moved alone is named, not
    # its first child, which then starts before it.
    wrong = starts != expected
    if wrong.any():
        first = np.flatnonzero(wrong)[np.argmin(grouped[wrong])]
        problem = ("a gap comes before its span" if starts[first] > expected[first]
                   else "its span overlaps the one before it or starts before its owner")
        raise InvalidCorpusError(f"node {ids[grouped[first]]!r}: {problem}")
    refuse(ends[tails] != np.concatenate([sizes, end])[owners],
           "its span is the last under its owner but does not end where the owner ends",
           grouped[tails])
    at_node = owners >= n_docs
    sums = np.add.reduceat(token_count[grouped], heads, dtype=np.int64)[at_node]
    node = owners[at_node] - n_docs
    refuse(sums != token_count[node], "its children at one level do not sum to its token count",
           node)


#: What reading fields from a parsed JSON record or header can raise when it
#: is malformed (``json.JSONDecodeError`` is a ``ValueError``; ``int()`` of a
#: number too large for a float, such as ``1e400``, raises ``OverflowError``;
#: arrays nested thousands deep raise ``RecursionError``).
MALFORMED_RECORD_ERRORS = (
    ValueError, KeyError, TypeError, IndexError, OverflowError, RecursionError
)
