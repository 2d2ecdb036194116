"""Document and chunk hierarchy model.

A corpus holds documents, as their UTF-8 bytes, plus one table of the
chunk nodes produced by the chunker, keyed by id and by level: parent chunks,
intermediate chunks nested in parents, and sentence chunks nested in
intermediates. The sub-intermediate side tier (used only by the
child-to-parent retrieval strategy) is stored the same way; it also nests in
intermediates, but it is a level outside ``HIERARCHY_LEVELS``, so sentence
nodes always sit exactly two hops below their parent chunk.

The table is columnar: one numpy array per node field plus one list of
ids, each indexed by the node's row. A ``ChunkNode`` is built only when
one is asked for; ancestor walks, text lookups and byte-to-parent lookups
read the columns. This is the layout column stores
use to scan only what a query touches (Abadi, Madden and Hachem,
"Column-Stores vs. Row-Stores", SIGMOD 2008), and it is also the on-disk
layout, so loading a corpus builds no per-node object.

Chunk text is never stored on the nodes; every node carries a (start, end)
byte span into its source document's UTF-8 encoding, and the corpus decodes
on demand, keeping the texts it handed out most recently. With zero
overlap the spans at each level partition the level above, so documents
reassemble byte-for-byte from their parent chunks; like the rest of the
table's structure, this is checked whenever a corpus is built or loaded.

An ingest is saved as one file, ``nodes.bin``: a header, the node table's
columns, the chunk ids joined by NUL, the documents' UTF-8 bytes, then each
level's vectors and their footer, so one rename replaces texts, spans and
vectors together (``save_corpus``).
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from enum import Enum
from functools import cached_property, lru_cache, partial
from pathlib import Path
from typing import (
    TYPE_CHECKING, BinaryIO, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence,
)

import numpy as np

from .errors import (
    ConfigError,
    InvalidCorpusError,
    InvalidInputError,
    LevelViolationError,
    SnapshotFormatError,
    UnknownChunkError,
)
from .rerank import TOKEN_SET_CACHE_SIZE
from .tokens import get_tokenizer

if TYPE_CHECKING:
    from .chunking import ChunkingConfig
    from .embedding import EmbeddingProvider
    from .index import LevelIndex


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


#: Each column's dtype in memory; the file stores each at its data's width
#: (``save_corpus``).
_DTYPES = _Columns("u1", "<u4", "<i4", "<i8", "<i8", "<u4", "u1")


class Corpus:
    """Immutable container for documents and one table of chunk nodes.

    Safe for concurrent readers once constructed. Every level, the side tier
    included, is stored alike, and read by row: ``rows_at`` gives a level's
    rows, ``ids_of`` their ids, ``ancestor_rows`` their ancestors at a level,
    and ``texts_at`` and ``texts_of`` their texts. Retrieval reads nothing
    else. By id, ``get`` builds the one ``ChunkNode`` of an id (``in`` and
    ``len`` as for a set of ids) and ``chunk_text`` reads its text; the
    id→row map they read is built on the first of them, so a corpus that is
    only queried never builds it. ``parent_at`` names the parent chunk
    owning a byte of a document. The node views ``chunks``, ``nodes`` and
    ``sub_nodes`` are kept only for the benchmark harness. The corpus keeps
    no node.

    The chunker's rows are each document's parents, intermediates and
    sentences in turn, then the side tier (see ``hrr.chunking``). Each
    level's rows are in document and text order, and nothing reads more of
    the order than the structure check below.

    A corpus is constructed from the blocks ``nodes.bin`` stores, built or
    loaded alike, and construction proves each of them once. It raises
    ``InvalidCorpusError`` for the first of these rules that is broken,
    naming what breaks it: a value does not fit its column; a column holds
    more or fewer values than the level column; a document id holds a NUL
    or a lone surrogate (which UTF-8 cannot encode); a document is not
    UTF-8 (the first such document); the id table is not UTF-8 or
    does not split at NUL into one id per row (so no id holds a NUL or a
    lone surrogate); an id names more than one node (proven by one ``set``
    of the ids, which is dropped). Then, naming the first
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
    """

    def __init__(
        self,
        documents: Mapping[str, bytes],
        id_table: bytes,
        columns: Sequence[Sequence[int]],
        *,
        config: "ChunkingConfig",
        tokenizer_name: str,
        document_sha256: Sequence[str] | None = None,
    ) -> None:
        """A corpus over ``documents``, each id's UTF-8 bytes, and the node
        table ``id_table``, ``columns``.

        ``id_table`` is the chunk ids in row order, joined by NUL, as UTF-8;
        a table of no bytes is no id, or one empty id where the columns hold
        one row. ``columns`` holds one sequence of ints per field, in this
        order: the node's level as its position in ``Level``, its document's
        position in ``documents``, its parent's row (-1 for none), the start
        and end of its byte span, its token count and its hard-split flag
        (0 or 1). ``document_sha256``, the hex sha256 of each document's
        bytes as a file recorded them, is kept for ``validate_corpus`` to
        check; nothing else reads it.
        """
        try:
            # Converted, never cast, so an out-of-range value raises; in
            # native byte order, since a memoryview of another order cannot
            # be indexed (no copy of a loaded column on a little-endian host).
            columns = _Columns(*(np.asarray(values, dtype=np.dtype(dtype).newbyteorder("="))
                                 for values, dtype in zip(columns, _DTYPES, strict=True)))
        except OverflowError as exc:
            raise InvalidCorpusError(f"a node field does not fit the node table ({exc})") from None
        for name, column in zip(_Columns._fields, columns):
            if len(column) != len(columns.level):
                raise InvalidCorpusError(f"the {name} column holds {len(column)} values, "
                                         f"the level column {len(columns.level)}")
        #: Each document id to its UTF-8 bytes, which the spans index.
        self.documents: dict[str, bytes] = dict(documents)
        self.config = config
        self.tokenizer_name = tokenizer_name
        self.document_sha256 = document_sha256
        is_ascii = _check_documents(self.documents)
        self._ids = _split_ids(id_table, len(columns.level))
        self._cols = columns
        #: The columns as memoryviews too, whose items read as Python ints
        #: several times faster than numpy scalars; per-row lookups use them.
        self._view = _Columns(*map(memoryview, columns))
        #: Documents by row.
        self._doc_ids: list[str] = list(self.documents)
        self._doc_rows = {doc_id: row for row, doc_id in enumerate(self._doc_ids)}
        self._doc_bytes: list[bytes] = list(self.documents.values())
        _check_structure(self, is_ascii)
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

    @cached_property
    def _index(self) -> dict[str, int]:
        """Each id to its row, built on the first id lookup: retrieval reads
        rows, so a loaded corpus that is only queried never builds it."""
        ids = self._ids
        return dict(zip(ids, range(len(ids))))

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

    def get(self, chunk_id: str) -> ChunkNode:
        return self._node(self._row(chunk_id))

    def __contains__(self, chunk_id: str) -> bool:
        return chunk_id in self._index

    def rows_at(self, level: Level) -> np.ndarray:
        """The rows of ``level``'s nodes, ascending, as int64."""
        return np.flatnonzero(self._cols.level == _CODES[level])

    def ids_of(self, rows: np.ndarray | list[int]) -> Iterator[str]:
        """The ids of ``rows``, an integer array or a list of ints, in its
        order, read one at a time from the one id list, so no list of rows or
        of ids is built."""
        return map(self._ids.__getitem__, memoryview(rows) if isinstance(rows, np.ndarray)
                   else rows)

    def ancestor_rows(self, rows: Iterable[int], level: Level) -> list[int]:
        """The row of each of ``rows``' ancestors at ``level``, in their
        order: a row already at ``level`` is its own. Each walks the parent
        column up from its row, reading the level column at every hop: a
        query maps a few dozen rows, for which Python reads of the columns'
        memoryviews cost less than numpy calls.

        Every ancestor chain ends at a parent-level node, since the corpus
        checks its structure when built or loaded, so every walk ends.
        Raises ``LevelViolationError`` naming the first of ``rows`` whose
        chain misses ``level`` (a row above it, or below it on another
        branch, as the sentence and side tiers are to each other).
        """
        levels, parents = self._view.level, self._view.parent
        target = _CODES[level]
        found = []
        for start in rows:
            row = start
            while levels[row] != target:
                row = parents[row]
                if row < 0:
                    raise LevelViolationError(
                        f"{self._ids[start]!r} ({_LEVELS[levels[start]].value}) has no "
                        f"ancestor at {level.value!r}"
                    )
            found.append(row)
        return found

    @property
    def levels(self) -> tuple[Level, ...]:
        """The levels that hold at least one node, top to bottom."""
        return tuple(level for level, count in zip(_LEVELS, self._level_counts) if count)

    # -- node views that only the benchmark harness reads ----------------------
    # ``perfbench/`` counts chunks with ``nodes`` and ``sub_nodes`` and checks
    # hits with ``chunks``; no engine, CLI or script path reads them. They go
    # once it reads ``len(corpus.rows_at(level))``, ``in`` and ``get``.

    @property
    def chunks(self) -> Mapping[str, ChunkNode]:
        """Read-only view: each id to its node, built on lookup."""
        return _ChunkMap(self)

    @property
    def nodes(self) -> tuple[ChunkNode, ...]:
        """The ``HIERARCHY_LEVELS``' nodes, in row order."""
        return self._nodes(np.flatnonzero(np.isin(self._cols.level, _HIERARCHY_CODES)))

    @property
    def sub_nodes(self) -> tuple[ChunkNode, ...]:
        """The side tier's nodes, in row order."""
        return self._nodes(self.rows_at(Level.SUB_INTERMEDIATE))

    def _nodes(self, rows: np.ndarray) -> tuple[ChunkNode, ...]:
        return tuple(map(self._node, rows.tolist()))

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

    def parent_doc(self, chunk_id: str) -> str | None:
        """The document of the parent chunk ``chunk_id``, or None when no
        parent-level chunk has that id. It reads a map of the parent rows'
        ids alone, built on the first call, so checking a gold parent builds
        no map of every id."""
        row = self._parent_index.get(chunk_id)
        return None if row is None else self._doc_ids[self._view.doc[row]]

    @cached_property
    def _parent_index(self) -> dict[str, int]:
        rows = self._parent_rows
        return dict(zip(self.ids_of(rows), rows.tolist()))

    def chunk_text(self, chunk_id: str) -> str:
        """The text of ``chunk_id``, as ``texts_of`` reads it."""
        return self._texts(self._row(chunk_id))

    def texts_of(self, rows: Iterable[int]) -> Iterator[str]:
        """The texts of ``rows``, in their order: one shared ``str`` per row
        while the row is among the ``TOKEN_SET_CACHE_SIZE`` most recently
        read.

        For per-query lookups, such as the rerank pool's texts. Handing the
        lexical reranker the same object again lets its token-set cache find
        a text by its cached hash and identity, not by decoding, hashing and
        comparing it anew. Whole levels are read through ``texts_at``.
        """
        return map(self._texts, rows)

    def texts_at(self, level: Level) -> "LevelTexts":
        """The texts of ``rows_at(level)``'s nodes, in row order, as a
        ``LevelTexts``: each text is decoded anew when read, and the
        sequence names each one's document row and byte span.

        For reading a whole level once, as ``build_index`` does: it leaves
        the ``texts_of`` memo unbuilt, so no level's texts outlive the call.
        The hashed-bow embedder reads the spans instead of the texts: it
        tokenizes each document once per ingest, lowercased whole, and
        counts each row from the tokens inside its span. That is the
        per-text recipe for a document that holds neither ``İ`` (U+0130,
        whose lowercase is two code points) nor ``Σ`` (U+03A3, which
        lowercases by context) and for a row whose span cuts no token of the
        lowercased document; any other row falls back to its decoded text.
        """
        return LevelTexts(self, level)

    @cached_property
    def _texts(self) -> Callable[[int], str]:
        """Each row's text, memoized; built on the first ``texts_of`` or
        ``chunk_text`` call. The memo holds the documents and columns, not
        the corpus, so it makes no reference cycle that would keep a dropped
        corpus alive."""
        return lru_cache(maxsize=TOKEN_SET_CACHE_SIZE)(
            partial(_decode, self._doc_bytes, self._view)
        )


def _decode(doc_bytes: list[bytes], view: _Columns, row: int) -> str:
    """The text of node ``row``, decoded from its document's UTF-8 bytes."""
    return doc_bytes[view.doc[row]][view.start[row] : view.end[row]].decode("utf-8")


class LevelTexts(Sequence):
    """The texts of one level of a corpus, decoded when read.

    A sequence of ``str`` through ``len``, indexing, slicing (a list) and
    iteration, as any provider reads a batch. ``rows`` are the level's
    corpus rows, and ``doc``, ``start`` and ``end`` name each text's
    document row and UTF-8 byte span in ``documents``; the corpus proved
    every span non-empty UTF-8 when it was built or loaded. The hashed-bow
    embedder reads these to count rows from each document's one token
    stream (``hrr.embedding.HashedBowEmbedder``).
    """

    __slots__ = ("corpus", "level", "rows", "_decode")

    def __init__(self, corpus: Corpus, level: Level) -> None:
        self.corpus = corpus
        self.level = level
        self.rows = corpus.rows_at(level)
        self._decode = partial(_decode, corpus._doc_bytes, corpus._view)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(self._decode, memoryview(self.rows[i])))
        return self._decode(int(self.rows[i]))

    def __iter__(self) -> Iterator[str]:
        # The rows are read one at a time, so no list of them is built.
        return map(self._decode, memoryview(self.rows))

    @property
    def documents(self) -> list[bytes]:
        """The corpus's documents' UTF-8 bytes, by document row."""
        return self.corpus._doc_bytes

    @property
    def doc(self) -> np.ndarray:
        return self.corpus._cols.doc[self.rows]

    @property
    def start(self) -> np.ndarray:
        return self.corpus._cols.start[self.rows]

    @property
    def end(self) -> np.ndarray:
        return self.corpus._cols.end[self.rows]


class _ChunkMap(Mapping):
    def __init__(self, corpus: Corpus) -> None:
        self._corpus = corpus

    def __getitem__(self, chunk_id: str) -> ChunkNode:
        return self._corpus._node(self._corpus._index[chunk_id])

    def __contains__(self, chunk_id) -> bool:
        return chunk_id in self._corpus

    def __iter__(self) -> Iterator[str]:
        return iter(self._corpus._ids)

    def __len__(self) -> int:
        return len(self._corpus)


def resolve_parent(corpus: Corpus, chunk_id: str, target_level: Level) -> str:
    """Return the id of ``chunk_id``'s unique ancestor at ``target_level``.

    Identity when the levels already match. The id lookup of
    ``Corpus.ancestor_rows``, which retrieval calls on rows: raises
    ``UnknownChunkError`` for a missing chunk and ``LevelViolationError``
    when the target level is not on the chunk's ancestor chain (anything
    below it, or the sentence and sub-intermediate tiers of other branches).
    """
    return corpus._ids[corpus.ancestor_rows([corpus._row(chunk_id)], target_level)[0]]


#: Most bytes of node text ``validate_corpus`` recounts with one
#: ``count_each`` call, so at most as many characters (a longer node is
#: counted alone).
_RECOUNT_BYTES = 1 << 18


def validate_corpus(corpus: Corpus) -> list[Violation]:
    """Check the corpus's documents against the digests its file recorded,
    and recount its tokens; an empty list means the corpus is sound.

    The structure (unique ids, parent links, levels, spans and, at overlap
    0, each level's tiling of the one above and its token sums) is checked
    whenever a corpus is built or loaded, so this checks what it does not:
    each stored token count against a recount of the node's text
    (``TokenCountDrift``) and the level budgets (``BudgetExceeded``). The
    recount decodes every node's text from its own bytes and counts it on
    its own, so it is the oracle for the ``Tokenizer`` locality contract
    the chunker's counts rely on: the texts go to the tokenizer's
    ``count_each`` in row order, in batches of at most ``_RECOUNT_BYTES``,
    and the counts are checked with array compares. Pure function: same
    corpus, same violations, in row order, a node's drift before its
    budget. Builds a ``Violation`` only for a node that fails, and no node.

    A loaded corpus (``document_sha256`` recorded) first has each
    document's bytes hashed: a document whose sha256 is not the one its
    file recorded is one ``DocumentDigestMismatch``, in document order,
    before any node's violation. Only this check hashes the documents; a
    load does not.
    """
    count_each = get_tokenizer(corpus.tokenizer_name).count_each
    columns, documents = corpus._cols, corpus._doc_bytes
    violations: list[Violation] = []
    for doc_id, data, recorded in zip(corpus._doc_ids, documents, corpus.document_sha256 or ()):
        found = hashlib.sha256(data).hexdigest()
        if found != recorded:
            violations.append(Violation("DocumentDigestMismatch", doc_id,
                                        f"recorded sha256 {recorded}, its bytes hash to {found}"))
    counted = np.empty(len(corpus), dtype=np.int64)
    # A batch ends before the first row past ``_RECOUNT_BYTES`` more bytes.
    ends = np.cumsum(columns.end - columns.start)
    low = 0
    while low < len(counted):
        before = ends[low - 1] if low else 0
        high = max(int(np.searchsorted(ends, before + _RECOUNT_BYTES, "right")), low + 1)
        spans = (column[low:high].tolist() for column in (columns.doc, columns.start, columns.end))
        counted[low:high] = count_each(
            [documents[doc][start:end].decode("utf-8") for doc, start, end in zip(*spans)]
        )
        low = high
    budgets = [corpus.config.budget(level) for level in _LEVELS]
    limits = np.array([np.iinfo(np.int64).max if b is None else b for b in budgets])
    stored = columns.token_count
    drift = counted != stored
    over = counted > limits[columns.level]
    for row in np.flatnonzero(drift | over).tolist():
        chunk_id, count = corpus._ids[row], int(counted[row])
        if drift[row]:
            violations.append(
                Violation("TokenCountDrift", chunk_id, f"stored {stored[row]}, counted {count}")
            )
        if over[row]:
            budget = budgets[columns.level[row]]
            violations.append(Violation("BudgetExceeded", chunk_id, f"{count} tokens > {budget}"))
    return violations


# ---------------------------------------------------------------------------
# Serialization: one nodes.bin per ingest, the corpus and its levels' vectors
# ---------------------------------------------------------------------------

#: Format version 1 was ``chunks.jsonl``, one JSON record per node; version
#: 2 kept the documents apart from ``nodes.bin``, in ``documents.jsonl``;
#: version 3 stored the chunk ids as one JSON array; version 4 stored every
#: node column, row pointer and CSR value at one fixed width.
_MAGIC = b"HRRNODE\n"
_VERSION = 5
#: Ends the vectors' footer. Before it, each level's vectors were kept in a
#: ``<level>.idx`` snapshot of their own, which is no longer read.
_VECTORS_MAGIC = b"HRRVEC1\n"

NODES_FILE = "nodes.bin"
_RETIRED_NODES_FILE = "chunks.jsonl"
_RETIRED_DOCUMENTS_FILE = "documents.jsonl"

#: The widths an integer block is stored at, narrowest first: node
#: columns, CSR row lengths and counts.
WIDTHS = ("u1", "<u2", "<u4", "<u8")


def narrowest(values: np.ndarray) -> str:
    """The narrowest of ``WIDTHS`` that holds every one of ``values``,
    integers of at least 0."""
    top = int(values.max()) if len(values) else 0
    return next(width for width in WIDTHS if top <= np.iinfo(width).max)


def stored_width(value, what: str) -> str:
    """``value``, a header's dtype for ``what``, if it is one of ``WIDTHS``;
    else ``SnapshotFormatError``."""
    if not (isinstance(value, str) and value in WIDTHS):
        raise SnapshotFormatError(f"{what} dtype {value!r} is not one of {', '.join(WIDTHS)}")
    return value


def save_corpus(
    corpus: Corpus,
    directory: str | Path,
    indexes: Iterable["LevelIndex"] = (),
    embedder: "EmbeddingProvider | None" = None,
) -> None:
    """Write the corpus, and the vectors of ``indexes``, as the one file
    ``nodes.bin``.

    It starts with ``_MAGIC``, a ``<u4`` header length and the JSON header
    (sorted keys): the format version, tokenizer, chunking settings, node
    count, the document ids in row order, each document's length in bytes
    (``document_bytes``) and the hex sha256 of its bytes
    (``document_sha256``, which only ``validate_corpus`` checks),
    ``ids_bytes``, and ``columns``, the dtype each node column is stored
    at. Then come the node table's columns in the order ``level``,
    ``doc`` (document row), ``parent``, byte ``start`` and ``end``,
    ``token_count`` and ``hard_split``, each as little-endian unsigned
    integers of the narrowest of ``WIDTHS`` that holds its values
    (``narrowest``); ``parent`` is stored as the parent's row plus 1, 0 for
    none. Then the id table (the chunk ids joined by NUL as UTF-8) and
    each document's UTF-8 bytes. Rows are in the corpus's row order (each
    document's parents, intermediates and sentences in turn, then the side
    tier, as ``build_corpus`` writes them), so a parent row always precedes
    its children's.

    Each index's blocks (``index.save_index``) follow, then the vectors'
    footer: JSON holding ``embedder``'s name and dimension and each index's
    entry, its ``<u4`` length and ``_VECTORS_MAGIC``. It comes last, as a
    Parquet file's footer does, because an entry is known only once its
    level is embedded. ``indexes``, ``embedder``'s indexes of this corpus,
    one per level it holds, are drawn once the corpus is written, and each
    is dropped before the next is drawn, so a generator that builds them
    holds one level at a time; a set that misses a level is refused. A
    corpus saved with no index ends with its blocks.

    The file is replaced by one rename: a save that stops, by a crash or by
    an index that fails to build, leaves the earlier file whole, corpus and
    vectors alike. The ``chunks.jsonl`` and ``documents.jsonl`` of retired
    formats are removed. A corpus checks its structure when constructed, so
    every corpus saves, and what is saved loads back.
    """
    from .index import save_index

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    ids = "\0".join(corpus._ids).encode("utf-8")
    columns = corpus._cols._replace(parent=corpus._cols.parent.astype(np.int64) + 1)
    widths = _Columns(*map(narrowest, columns))
    header = {
        "version": _VERSION,
        "tokenizer": corpus.tokenizer_name,
        "chunking": asdict(corpus.config),
        "count": len(corpus),
        "documents": list(corpus.documents),
        "document_bytes": list(map(len, corpus._doc_bytes)),
        "document_sha256": [hashlib.sha256(data).hexdigest() for data in corpus._doc_bytes],
        "ids_bytes": len(ids),
        "columns": widths._asdict(),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("ascii")
    levels: list[dict] = []
    with replacing(directory / NODES_FILE) as fh:
        fh.writelines([_MAGIC, len(header_bytes).to_bytes(4, "little"), header_bytes])
        fh.writelines(column.astype(width, copy=False)
                      for column, width in zip(columns, widths))
        del columns
        fh.writelines([ids, *corpus._doc_bytes])
        del ids  # freed before the first index is drawn
        for index in indexes:
            if (index.corpus is not corpus or index.dimension != embedder.dimension
                    or index.level.value in {entry["level"] for entry in levels}):
                raise InvalidInputError(
                    f"the {index.level.value} index is not of this corpus, at "
                    f"{embedder.name!r}'s dimension, or its level's only one")
            entry, blocks = save_index(index)
            fh.writelines(blocks)
            levels.append(entry)
            del index, blocks  # freed before the next index is drawn
        if levels:
            saved = {entry["level"] for entry in levels}
            missing = [level.value for level in corpus.levels if level.value not in saved]
            if missing:
                raise InvalidInputError(
                    f"no {missing[0]} index among those saved: the file stores the "
                    "vectors of every level of its corpus, or of none")
            footer = json.dumps({"embedder": embedder.name, "dimension": embedder.dimension,
                                 "levels": levels}, sort_keys=True).encode("ascii")
            fh.writelines([footer, len(footer).to_bytes(4, "little"), _VECTORS_MAGIC])
    for retired in (_RETIRED_NODES_FILE, _RETIRED_DOCUMENTS_FILE):
        (directory / retired).unlink(missing_ok=True)


def load_corpus(directory: str | Path) -> Corpus:
    """Load the corpus ``save_corpus`` wrote, as ``load_artifacts`` does,
    reading none of the vectors stored after it."""
    return load_artifacts(directory)[0]


def load_artifacts(
    directory: str | Path, embedder: "EmbeddingProvider | None" = None
) -> tuple[Corpus, dict[Level, "LevelIndex"]]:
    """Load the ``nodes.bin`` that ``save_corpus`` wrote in ``directory``:
    the ``Corpus`` its blocks store, which construction proves, and, given
    ``embedder``, the index of each level whose vectors it stores
    (``index.load_index``). Without one, no vector block is read. Loading
    builds no ``ChunkNode``.

    Each node column is widened from the width it is stored at to its
    in-memory dtype (``_DTYPES``), the parent column less 1. The documents
    are not hashed: ``validate_corpus`` checks them against the header's
    ``document_sha256``, which the corpus keeps.

    A ``nodes.bin`` that could not have been saved raises
    ``SnapshotFormatError`` naming it, in one line, before any block is
    read: another magic; a header length or header that the file cannot
    hold; a malformed header or vectors' footer; a version, count or size
    that is not a JSON integer (``json_int``); another format version,
    which asks for a re-ingest; an unknown tokenizer, or chunking settings
    that the config file's ``chunking`` section would refuse (a bool or a
    float for an integer, say); document ids that are not one string per
    length, or that name a document twice; document digests that are not
    one string per document; ``columns`` that do not name one dtype of
    ``WIDTHS`` for each node column; a level entry that
    ``index.parse_level`` refuses, or a level stored twice; a negative
    size; and sizes that do not fill the file exactly (bytes after the
    corpus that do not end with a footer included). Given ``embedder``, so
    do a file with no vectors, as ingests wrote before the footer, which
    asks for a re-ingest, and vectors of another embedder or dimension.
    Then a column value that its in-memory dtype cannot hold, or a rule
    ``Corpus`` lists, raises it with the rule's message and "; re-run
    ingest", as does, given ``embedder``, a level the corpus holds that the
    footer stores no vectors for; and ``index.load_index``'s refusal of a
    level with its own.
    """
    from .chunking import ChunkingConfig
    from .config import _section_from_dict
    from .index import load_index, parse_level

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
        config = _section_from_dict(ChunkingConfig, header["chunking"], "chunking")
        config.validate()
        get_tokenizer(header["tokenizer"])
        count, doc_ids = json_int(header["count"], "count"), header["documents"]
        lengths = header["document_bytes"]
        if not (isinstance(lengths, list) and _is_strings(doc_ids, len(lengths))):
            raise SnapshotFormatError("the document ids are not one string per document length")
        if len(set(doc_ids)) != len(doc_ids):
            duplicate = next(doc_id for doc_id, n in Counter(doc_ids).items() if n > 1)
            raise SnapshotFormatError(f"document id {duplicate!r} is used twice")
        digests = header["document_sha256"]
        if not _is_strings(digests, len(doc_ids)):
            raise SnapshotFormatError("the document digests are not one string per document")
        widths = header["columns"]
        if not (isinstance(widths, dict) and sorted(widths) == sorted(_Columns._fields)):
            raise SnapshotFormatError("the header does not name one dtype per node column")
        widths = _Columns(*(stored_width(widths[name], f"the {name} column's")
                            for name in _Columns._fields))
        sizes = [count * np.dtype(width).itemsize for width in widths]
        sizes.append(json_int(header["ids_bytes"], "ids_bytes"))
        sizes += (json_int(n, f"document_bytes[{i}]") for i, n in enumerate(lengths))
        return (config, header["tokenizer"], doc_ids, digests, widths), sizes

    def parse_footer(footer):
        levels = [parse_level(entry, footer["dimension"]) for entry in footer["levels"]]
        stored = [fields[0] for fields, _ in levels]
        if len(set(stored)) != len(stored):
            raise SnapshotFormatError("a level's vectors are stored twice")
        return footer["embedder"], footer["dimension"], levels

    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        found = fh.read(len(_MAGIC))
        if found != _MAGIC:
            raise SnapshotFormatError(f"{path}: bad magic {found!r}")
        length = fh.read(4)
        header_len = int.from_bytes(length, "little")
        if len(length) != 4 or header_len > size - fh.tell():
            raise SnapshotFormatError(f"{path}: truncated snapshot")
        (config, tokenizer_name, doc_ids, digests, widths), sizes = _parsed(
            path, "header", parse, fh.read(header_len))
        start = fh.tell()
        # The corpus blocks, then the vectors and their footer if the file
        # ends with one.
        taken, built_by, dimension, levels = sum(sizes), None, None, []
        tail = 4 + len(_VECTORS_MAGIC)
        if size - start > taken + tail:
            fh.seek(size - tail)
            footer_len = int.from_bytes(fh.read(4), "little")
            if fh.read() == _VECTORS_MAGIC and footer_len <= size - start - taken - tail:
                fh.seek(size - tail - footer_len)
                built_by, dimension, levels = _parsed(
                    path, "vectors' footer", parse_footer, fh.read(footer_len))
                sizes += (n for _, level_sizes in levels for n in level_sizes)
                taken = sum(sizes) + footer_len + tail
        if min(sizes) < 0:
            raise SnapshotFormatError(f"{path}: its header gives a negative size")
        if taken != size - start:
            raise SnapshotFormatError(
                f"{path}: its header's sizes do not fill the file: they take {taken} bytes, "
                f"but {size - start} follow the header"
            )
        if embedder is None:
            levels = []
        elif not levels:
            raise SnapshotFormatError(
                f"{path}: no vectors follow the corpus (an ingest before this format kept "
                "them in <level>.idx files, which are not read); re-run ingest")
        elif built_by != embedder.name:
            raise SnapshotFormatError(f"{path}: vectors from the {built_by!r} embedder, "
                                      f"not {embedder.name!r}; re-run ingest")
        elif dimension != embedder.dimension:
            raise SnapshotFormatError(
                f"{path}: index dimension {dimension} differs from the configured "
                f"embedding dimension {embedder.dimension}; re-run ingest"
            )
        fh.seek(start)
        try:
            columns = [_widened(fh.read(n), width, name)
                       for n, width, name in zip(sizes, widths, _Columns._fields)]
            id_table = fh.read(sizes[len(widths)])
            documents = {doc_id: fh.read(n)
                         for doc_id, n in zip(doc_ids, sizes[len(widths) + 1 :])}
            corpus = Corpus(documents, id_table, columns, config=config,
                            tokenizer_name=tokenizer_name, document_sha256=digests)
        except InvalidCorpusError as exc:
            raise SnapshotFormatError(f"{path}: {exc}; re-run ingest") from None
        del id_table  # split into the corpus's ids, and freed before a level is read
        stored = {fields[0] for fields, _ in levels}
        missing = [level.value for level in corpus.levels if level not in stored]
        if levels and missing:
            raise SnapshotFormatError(
                f"{path}: no vectors for the {missing[0]} level its corpus holds; re-run ingest")
        indices = {}
        for fields, level_sizes in levels:
            try:
                index = load_index(corpus, fields, [fh.read(n) for n in level_sizes])
            except (InvalidCorpusError, InvalidInputError) as exc:
                raise SnapshotFormatError(f"{path}: {exc}") from None
            indices[index.level] = index
    return corpus, indices


def _widened(data: bytes, width: str, name: str) -> np.ndarray:
    """The node column ``name``, stored in ``data`` at ``width``, at its
    in-memory dtype: the parent column less 1. Raises ``InvalidCorpusError``
    for a value that dtype cannot hold."""
    column = np.frombuffer(data, width)
    dtype = np.dtype(getattr(_DTYPES, name)).newbyteorder("=")
    if name == "parent":
        column = column.astype(np.int64) - 1
    top = int(column.max()) if len(column) else 0
    if top > np.iinfo(dtype).max:
        raise InvalidCorpusError(f"the {name} column holds {top}, beyond its {dtype} range")
    return column.astype(dtype, copy=False)


def _parsed(path: Path, what: str, parse: Callable, data: bytes):
    """``parse`` of the JSON ``data``, ``path``'s header or footer (``what``);
    what it refuses, or what reading a malformed record raises, is a
    one-line ``SnapshotFormatError`` naming ``path``."""
    try:
        return parse(json.loads(data.decode("utf-8")))
    except (*MALFORMED_RECORD_ERRORS, ConfigError) as exc:
        raise SnapshotFormatError(f"{path}: malformed {what} ({exc})") from None
    except SnapshotFormatError as exc:
        raise SnapshotFormatError(f"{path}: {exc}") from None


def json_int(value, name: str) -> int:
    """``value``, the header field ``name``, if it is a JSON integer; any
    other value, a bool, float or numeric string included, raises
    ``TypeError``, so a header's numbers are checked, not coerced."""
    if type(value) is not int:
        raise TypeError(f"{name} {value!r} is not an integer")
    return value


def _is_strings(value, count: int) -> bool:
    """Whether ``value`` is a list of ``count`` strings."""
    return isinstance(value, list) and len(value) == count and set(map(type, value)) <= {str}


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
    from .embedding import encodes_as_utf8  # ``hrr.embedding`` imports this module

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
    if len(set(ids)) != len(ids):
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
    # holds no such byte. Where some document is not ASCII, each document's
    # rows are found from one sort by document.
    if not all(is_ascii):
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
