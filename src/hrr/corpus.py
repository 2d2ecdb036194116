"""Document and chunk hierarchy model.

A corpus holds documents, as their UTF-8 bytes, plus one table of the
chunk nodes produced by the chunker, by level: parent chunks, intermediate
chunks nested in parents, and sentence chunks nested in intermediates. The
sub-intermediate side tier (used only by the child-to-parent retrieval
strategy) is stored the same way; it also nests in intermediates, but it is
a level outside ``HIERARCHY_LEVELS``, so sentence nodes always sit exactly
two hops below their parent chunk.

The table is columnar: one numpy array per node field, each indexed by the
node's row. A ``ChunkNode`` is built only when one is asked for; ancestor
walks, text lookups and byte-to-parent lookups read the columns. This is
the layout column stores use to scan only what a query touches (Abadi,
Madden and Hachem, "Column-Stores vs. Row-Stores", SIGMOD 2008), and it is
also the on-disk layout, so loading a corpus builds no per-node object.

No chunk id is stored. The three tiers form a tree, so an id is a Dewey
path (Tatarinov et al., SIGMOD 2002; O'Neil et al., "ORDPATHs", SIGMOD
2004): its owner's id (``doc_id:`` for a parent chunk, else the parent's id
and ``.``), the level's letter (``p``, ``i``, ``s``, or ``c`` in the side
tier) and the node's ordinal among its owner's children at its level, as in
``doc:p0.i1.s2``. The columns determine it, because each owner's children
at one level are one run of rows, which the structure check proves: the
ordinal is the row's offset from the run's first row. An id is derived when
it is read and kept in one memo per corpus; an id is looked up by parsing
it and walking down the runs.

Chunk text is never stored on the nodes; every node carries a (start, end)
byte span into its source document's UTF-8 encoding, and the corpus decodes
on demand, keeping the texts it handed out most recently. With zero
overlap the spans at each level partition the level above, so documents
reassemble byte-for-byte from their parent chunks; like the rest of the
table's structure, this is checked whenever a corpus is built or loaded.

An ingest is saved as one file, ``nodes.bin``: a header, the node table's
columns, the documents' UTF-8 bytes, then each level's vectors and their
footer, so one rename replaces texts, spans and vectors together
(``save_corpus``).
"""

from __future__ import annotations

import hashlib
import json
import os
from bisect import bisect_left, bisect_right
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
#: Each level's letter in chunk ids, by level code, as in ``d:p0.i1.s2``.
_LETTERS = "pisc"


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
    rows, ``ids_of`` their ids, ``id_ranks`` their places in id order,
    ``ancestor_rows`` their ancestors at a level, and ``texts_at`` and
    ``texts_of`` their texts. Retrieval reads nothing else. By id, ``get``
    builds the one ``ChunkNode`` of an id (``in`` and ``len`` as for a set
    of ids) and ``chunk_text`` reads its text. The corpus holds no id table
    and builds no id→row map: an id is derived from the tree when it is
    read, and kept in one memo of the ids read so far, which a load leaves
    empty; a lookup parses the id from the right and walks down the runs of
    rows (``_find``). ``parent_at`` names the parent chunk owning a byte of
    a document. The node views ``chunks``, ``nodes`` and ``sub_nodes`` are
    kept only for the benchmark harness. The corpus keeps no node.

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
    UTF-8 (the first such document). Then, naming the first node in row
    order within each rule, by its row: a level code is 4 or more; a
    document row is not one of ``documents``; a parent-level node has a
    parent, or another node's parent is not an earlier node of the same
    document at the level ``_EXPECTED_PARENT_LEVEL`` names (so a sentence
    sits exactly two hops below its parent chunk); one owner's children at
    one level (a document's parents, or one node's children at one level)
    are not one run of rows, the row named starting the second run. That
    run proof makes every id well defined, and it is also the proof that
    no two nodes share an id: the part of an id after its last ``:`` holds
    no ``:``, so an id names its document, whose id is unique, and within a
    document two nodes share an id only if they share every ordinal on
    their paths. Then, naming the node by its id: a span is empty or
    reversed, ends beyond its document or cuts a UTF-8 character; a
    ``hard_split`` flag is not 0 or 1. At overlap 0 (``parent_overlap`` and
    ``intermediate_overlap`` both 0), each level's spans must also tile the
    level above: each run of one owner's children, in row order, starts at
    its owner's start (0 for a document), each next one where the one
    before ends, and the last ends at the owner's end (the document's
    length); and those children's token counts sum to the owner's. An
    owner without children at a level, and a document without parents, are
    not checked. ``validate_corpus`` recounts the tokens.
    """

    def __init__(
        self,
        documents: Mapping[str, bytes],
        columns: Sequence[Sequence[int]],
        *,
        config: "ChunkingConfig",
        tokenizer_name: str,
        document_sha256: Sequence[str] | None = None,
    ) -> None:
        """A corpus over ``documents``, each id's UTF-8 bytes, and the node
        table ``columns``.

        ``columns`` holds one sequence of ints per field, in this order: the
        node's level as its position in ``Level``, its document's position
        in ``documents``, its parent's row (-1 for none), the start and end
        of its byte span, its token count and its hard-split flag (0 or 1).
        ``document_sha256``, the hex sha256 of each document's bytes as a
        file recorded them, is kept for ``validate_corpus`` to check;
        nothing else reads it.
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
        self._cols = columns
        #: The columns as memoryviews too, whose items read as Python ints
        #: several times faster than numpy scalars; per-row lookups use them.
        self._view = _Columns(*map(memoryview, columns))
        #: Documents by row.
        self._doc_ids: list[str] = list(self.documents)
        self._doc_rows = {doc_id: row for row, doc_id in enumerate(self._doc_ids)}
        self._doc_bytes: list[bytes] = list(self.documents.values())
        # Proves the structure, and sets the runs (``_runs``) and the memo
        # of derived ids (``_ids``) that it names nodes by.
        _check_structure(self, is_ascii)
        self._level_counts = np.bincount(columns.level, minlength=len(_LEVELS))

    # -- the table ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._cols.level)

    def _find(self, chunk_id: str) -> int | None:
        """The row whose id is ``chunk_id``, or None. The id is parsed from
        the right: the document id before its last ``:``, then one part
        per level, each a level's letter and an ordinal in canonical ASCII
        decimal, which walks down from the document to that child of its
        owner's run. The row found is confirmed by deriving its id, so no
        other spelling of an ordinal finds it."""
        if not isinstance(chunk_id, str):
            return None
        doc_id, colon, path = chunk_id.rpartition(":")
        doc = self._doc_rows.get(doc_id) if colon else None
        if doc is None:
            return None
        owner, level = doc, -1
        for part in path.split("."):
            code, digits = _LETTERS.find(part[:1]), part[1:]
            # An empty part finds code 0 and no digits.
            if (code < 0 or _PARENT_CODES[code] != level or not digits.isdigit()
                    or not digits.isascii() or len(digits) > 18
                    or (digits[0] == "0" and len(digits) > 1)):
                return None
            run = self._run(owner, code)
            if run is None or int(digits) >= len(run):
                return None
            row = run[int(digits)]
            owner, level = len(self._doc_ids) + row, code
        return row if self._ids[row] == chunk_id else None

    def _run(self, owner: int, code: int) -> range | None:
        """The rows of ``owner``'s children at the level of ``code``, or
        None when it has none; ``owner`` is a document's row, or the number
        of documents plus a node's row."""
        runs, key = self._runs, owner * len(_LEVELS) + code
        i = bisect_left(runs.keys, key)
        if i == len(runs.keys) or runs.keys[i] != key:
            return None
        return range(runs.starts[i], runs.ends[i])

    def _row(self, chunk_id: str) -> int:
        row = self._find(chunk_id)
        if row is None:
            raise UnknownChunkError(f"no chunk {chunk_id!r} in corpus")
        return row

    def _node(self, row: int) -> ChunkNode:
        """The node at ``row``, built from the columns."""
        view = self._view
        parent = view.parent[row]
        return ChunkNode(
            self._ids[row], _LEVELS[view.level[row]], self._doc_ids[view.doc[row]],
            self._ids[parent] if parent >= 0 else None,
            (view.start[row], view.end[row]), view.token_count[row], bool(view.hard_split[row]),
        )

    def get(self, chunk_id: str) -> ChunkNode:
        return self._node(self._row(chunk_id))

    def __contains__(self, chunk_id: str) -> bool:
        return self._find(chunk_id) is not None

    def rows_at(self, level: Level) -> np.ndarray:
        """The rows of ``level``'s nodes, ascending, as int64."""
        return np.flatnonzero(self._cols.level == _CODES[level])

    def ids_of(self, rows: np.ndarray | Iterable[int]) -> Iterator[str]:
        """The ids of ``rows``, an integer array or an iterable of ints, in
        its order, each derived on its first read (``_Ids``), so no list of
        rows or of ids is built."""
        return map(self._ids.__getitem__,
                   memoryview(rows) if isinstance(rows, np.ndarray) else rows)

    def id_ranks(self, rows: np.ndarray) -> np.ndarray:
        """Each of ``rows``' place, as int32, when ``rows``, distinct rows of
        one level, are sorted by id as strings, read from the tree.

        Ids of one level share their shape, so id order is the order of
        (document, each path part in turn): a document by its ``doc_id:``
        in string order, and a part by its ordinal's decimal string in
        string order (``s10`` sorts before ``s2``); one ``np.lexsort`` of
        those narrow keys orders the rows. Where one document's ``doc_id:``
        is a prefix of another's (``a`` and ``a:b``), their ids interleave,
        so only those documents' rows are ordered by their derived ids; no
        other id is derived.
        """
        cols, heads, table = self._cols, np.asarray(self._runs.heads), self._decimal_ranks
        keys = []  # least significant first, as ``np.lexsort`` reads them
        chain = rows
        while len(chain):
            keys.append(_part_ranks(chain, heads, table))
            chain = cols.parent[chain]
            if chain[0] < 0:
                break
        del chain
        block, tangled = self._doc_blocks
        doc = cols.doc[rows]
        if tangled.any():
            mine = np.flatnonzero(tangled[doc])
            strings = list(self.ids_of(rows[mine]))
            order = sorted(range(len(strings)), key=strings.__getitem__)
            within = np.zeros(len(rows), dtype=np.int32)
            within[mine[order]] = np.arange(1, len(order) + 1, dtype=np.int32)
            keys.append(within)
        keys.append(block[doc])
        del doc
        order = np.lexsort(keys)
        del keys
        ranks = np.empty(len(rows), dtype=np.int32)
        ranks[order] = np.arange(len(rows), dtype=np.int32)
        return ranks

    @cached_property
    def _decimal_ranks(self) -> np.ndarray:
        """Each ordinal a run holds, 0 to the longest run's last, to its
        place in the string order of their decimal strings, at the
        narrowest width that holds it."""
        runs = self._runs
        top = int(np.max(np.subtract(runs.ends, runs.starts), initial=0))
        table = np.empty(top, dtype=narrowest(np.array([top])))
        table[sorted(range(top), key=str)] = np.arange(top)
        return table

    @cached_property
    def _doc_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """Each document's place in the order of its ``doc_id:``, and
        whether it shares that place: documents whose ``doc_id:`` starts
        with another's share the other's place, since their ids interleave.
        Every string that sorts between ``P`` and ``P + x`` starts with
        ``P``, so each such block is a run of the sorted order."""
        names = [f"{doc_id}:" for doc_id in self._doc_ids]
        block = np.empty(len(names), dtype=np.uint32)
        shared = np.zeros(len(names), dtype=bool)
        place, root, first = -1, None, None
        for doc in sorted(range(len(names)), key=names.__getitem__):
            if root is not None and names[doc].startswith(root):
                shared[[first, doc]] = True
            else:
                place, root, first = place + 1, names[doc], doc
            block[doc] = place
        return block.astype(narrowest(block), copy=False), shared

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

        A document's parents are one run of rows whose spans end in strictly
        increasing order, even with overlap, so the first span ending after
        ``byte`` owns it, provided that span starts at or before it. None
        when no parent covers it.
        """
        doc = self._doc_rows.get(doc_id)
        if doc is None or not 0 <= byte < len(self._doc_bytes[doc]):
            return None
        run = self._run(doc, _CODES[Level.PARENT])
        if run is None:
            return None
        row = run.start + int(np.searchsorted(self._cols.end[run.start : run.stop], byte, "right"))
        if row < run.stop and self._view.start[row] <= byte:
            return self._ids[row]
        return None

    def parent_doc(self, chunk_id: str) -> str | None:
        """The document of the parent chunk ``chunk_id``, or None when no
        parent-level chunk has that id; the id is parsed, as by ``get``."""
        row = self._find(chunk_id)
        if row is None or self._view.level[row] != _CODES[Level.PARENT]:
            return None
        return self._doc_ids[self._view.doc[row]]

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


#: Rows whose ordinals ``_part_ranks`` finds at a time.
_RANK_BLOCK = 4096


def _part_ranks(rows: np.ndarray, heads: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``table``'s entry for each of ``rows``' ordinals, its offset from the
    head of its run (``heads``), found a block of rows at a time, so that no
    int64 array of every row is built."""
    ranks = np.empty(len(rows), dtype=table.dtype)
    for low in range(0, len(rows), _RANK_BLOCK):
        block = rows[low : low + _RANK_BLOCK]
        ranks[low : low + _RANK_BLOCK] = table[
            block - heads[np.searchsorted(heads, block, "right") - 1]]
    return ranks


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
        row = self._corpus._find(chunk_id)
        if row is None:
            raise KeyError(chunk_id)
        return self._corpus._node(row)

    def __contains__(self, chunk_id) -> bool:
        return chunk_id in self._corpus

    def __iter__(self) -> Iterator[str]:
        return self._corpus.ids_of(range(len(self._corpus)))

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

    The structure (parent links, levels, runs, spans and, at overlap
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
#: node column, row pointer and CSR value at one fixed width; version 5
#: stored the chunk ids, joined by NUL.
_MAGIC = b"HRRNODE\n"
_VERSION = 6
#: The header's fields; any other is refused.
_HEADER_FIELDS = frozenset({"version", "tokenizer", "chunking", "count", "documents",
                            "document_bytes", "document_sha256", "columns"})
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
    (``document_sha256``, which only ``validate_corpus`` checks), and
    ``columns``, the dtype each node column is stored at. Then come the node table's columns in the order ``level``,
    ``doc`` (document row), ``parent``, byte ``start`` and ``end``,
    ``token_count`` and ``hard_split``, each as little-endian unsigned
    integers of the narrowest of ``WIDTHS`` that holds its values
    (``narrowest``); ``parent`` is stored as the parent's row plus 1, 0 for
    none. Then each document's UTF-8 bytes. No chunk id is stored: each is
    derived from the columns (see ``Corpus``). Rows are in the corpus's row
    order (each document's parents, intermediates and sentences in turn,
    then the side tier, as ``build_corpus`` writes them), so a parent row
    always precedes its children's, and each owner's children at one level
    are one run.

    Each index's blocks (``index.save_index``) follow, then the vectors'
    footer: JSON holding ``embedder``'s name and dimension, the
    ``base_url`` of a remote embedder (none for a local one), and each
    index's entry, then its ``<u4`` length and ``_VECTORS_MAGIC``. It comes last, as a
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
        "columns": widths._asdict(),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("ascii")
    levels: list[dict] = []
    with replacing(directory / NODES_FILE) as fh:
        fh.writelines([_MAGIC, len(header_bytes).to_bytes(4, "little"), header_bytes])
        fh.writelines(column.astype(width, copy=False)
                      for column, width in zip(columns, widths))
        del columns
        fh.writelines(corpus._doc_bytes)
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
            footer = {"embedder": embedder.name, "dimension": embedder.dimension,
                      "levels": levels}
            if getattr(embedder, "base_url", None) is not None:
                footer["base_url"] = embedder.base_url
            footer = json.dumps(footer, sort_keys=True).encode("ascii")
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
    builds no ``ChunkNode`` and derives no chunk id: the file stores none,
    and the structure check's run proof stands in for proving them unique.

    Each node column is widened from the width it is stored at to its
    in-memory dtype (``_DTYPES``), the parent column less 1. The documents
    are not hashed: ``validate_corpus`` checks them against the header's
    ``document_sha256``, which the corpus keeps.

    A ``nodes.bin`` that could not have been saved raises
    ``SnapshotFormatError`` naming it, in one line, before any block is
    read: another magic; a header length or header that the file cannot
    hold; a malformed header or vectors' footer; a version, count or size
    that is not a JSON integer (``json_int``); another format version,
    which asks for a re-ingest (v5 and earlier stored an id table); a
    header field that v6 does not store, such as v5's ``ids_bytes``; an
    unknown tokenizer, or chunking settings
    that the config file's ``chunking`` section would refuse (a bool or a
    float for an integer, say); document ids that are not one string per
    length, or that name a document twice; document digests that are not
    one string per document; ``columns`` that do not name one dtype of
    ``WIDTHS`` for each node column; a level entry that
    ``index.parse_level`` refuses, or a level stored twice; a negative
    size; and sizes that do not fill the file exactly (bytes after the
    corpus that do not end with a footer included). Given ``embedder``, so
    do a file with no vectors, as ingests wrote before the footer, which
    asks for a re-ingest, and vectors of another embedder or dimension, or
    from another service's ``base_url`` than ``embedder``'s (a local
    embedder has none).
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
        unknown = sorted(set(header) - _HEADER_FIELDS)
        if unknown:
            raise SnapshotFormatError(
                f"the header holds {unknown[0]!r}, which format v{_VERSION} does not store")
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
        sizes += (json_int(n, f"document_bytes[{i}]") for i, n in enumerate(lengths))
        return (config, header["tokenizer"], doc_ids, digests, widths), sizes

    def parse_footer(footer):
        levels = [parse_level(entry, footer["dimension"]) for entry in footer["levels"]]
        stored = [fields[0] for fields, _ in levels]
        if len(set(stored)) != len(stored):
            raise SnapshotFormatError("a level's vectors are stored twice")
        return footer["embedder"], footer["dimension"], footer.get("base_url"), levels

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
        taken, built_by, dimension, base_url, levels = sum(sizes), None, None, None, []
        tail = 4 + len(_VECTORS_MAGIC)
        if size - start > taken + tail:
            fh.seek(size - tail)
            footer_len = int.from_bytes(fh.read(4), "little")
            if fh.read() == _VECTORS_MAGIC and footer_len <= size - start - taken - tail:
                fh.seek(size - tail - footer_len)
                built_by, dimension, base_url, levels = _parsed(
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
        elif base_url != (configured := getattr(embedder, "base_url", None)):
            raise SnapshotFormatError(f"{path}: vectors from the service at {base_url!r}, "
                                      f"not the configured {configured!r}; re-run ingest")
        fh.seek(start)
        try:
            columns = [_widened(fh.read(n), width, name)
                       for n, width, name in zip(sizes, widths, _Columns._fields)]
            documents = {doc_id: fh.read(n)
                         for doc_id, n in zip(doc_ids, sizes[len(widths) :])}
            corpus = Corpus(documents, columns, config=config,
                            tokenizer_name=tokenizer_name, document_sha256=digests)
        except InvalidCorpusError as exc:
            raise SnapshotFormatError(f"{path}: {exc}; re-run ingest") from None
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


class _Ids(dict):
    """Each chunk id derived so far, by row, one memo per corpus; a row's id
    is derived when first read: its owner's id and ``.`` (``doc_id:`` for a
    parent chunk), the level's letter, and its offset from the first row of
    its run. No bound empties it, so a row read again is never derived
    again. It holds the corpus's columns, not the corpus, so it makes no
    reference cycle."""

    __slots__ = ("_doc_ids", "_view", "_heads")

    def __init__(self, doc_ids: list[str], view: "_Columns", heads: memoryview) -> None:
        super().__init__()
        self._doc_ids, self._view, self._heads = doc_ids, view, heads

    def __missing__(self, row: int) -> str:
        view, heads = self._view, self._heads
        parent = view.parent[row]
        owner = f"{self[parent]}." if parent >= 0 else f"{self._doc_ids[view.doc[row]]}:"
        ordinal = row - heads[bisect_right(heads, row) - 1]
        chunk_id = self[row] = f"{owner}{_LETTERS[view.level[row]]}{ordinal}"
        return chunk_id


class _Runs(NamedTuple):
    """The runs of rows that the structure check proves: each owner's
    children at one level are one run. An owner is a document, for parent
    chunks, or a node; a run's key is ``owner * 4 + level code``, the owner
    being a document's row or the number of documents plus a node's row.
    Each field is a memoryview of int64, whose items read as Python ints."""

    heads: memoryview  #: each run's first row, ascending
    keys: memoryview  #: each run's key, ascending
    starts: memoryview  #: the first row of each of ``keys``' runs
    ends: memoryview  #: one past its last row


def _check_structure(corpus: Corpus, is_ascii: Sequence[bool]) -> None:
    """Raise ``InvalidCorpusError`` naming the first node, in row order
    within each rule, that breaks the node table's structure (the rules
    ``Corpus`` lists from the level code on), by its row until the run
    proof makes every id well defined and by its id after it; for a token
    sum, the node is the owner. ``is_ascii`` says which documents are
    ASCII. Once the run proof holds, sets ``corpus._runs``, which ids are
    derived and parsed by, and ``corpus._ids``, the memo of derived ids."""
    n = len(corpus)

    def refuse(bad: np.ndarray, problem: str, rows: np.ndarray | None = None,
               named: bool = True) -> None:
        """Raise for the least row whose entry of ``bad`` is true, entry
        ``i`` standing for row ``rows[i]`` (row ``i`` when ``rows`` is None),
        naming it by its id, or by its row where not ``named``."""
        if bad.any():
            row = int(np.argmax(bad)) if rows is None else int(rows[bad].min())
            name = repr(corpus._ids[row]) if named else f"at row {row}"
            raise InvalidCorpusError(f"node {name}: {problem}")

    level, doc, parent, start, end, token_count, hard_split = corpus._cols
    n_docs = len(corpus.documents)
    refuse(level >= len(_LEVELS), f"its level code is not below {len(_LEVELS)}", named=False)
    refuse(doc >= n_docs, "its document row is not one of the corpus's documents", named=False)
    top = level == _CODES[Level.PARENT]
    refuse(top & (parent != -1), "it is a parent-level node with a parent link", named=False)
    refuse(~top & (parent == -1), "its parent link is missing", named=False)
    linked = np.flatnonzero(~top)
    up = parent[linked]
    refuse((up < 0) | (up >= linked), "its parent row is not an earlier row", linked, False)
    refuse(level[up] != _PARENT_CODES[level[linked]],
           "its parent is not at the level above it", linked, False)
    refuse(doc[up] != doc[linked], "its parent is in another document", linked, False)
    # The run proof: a run starts wherever a row's (owner, level) key is not
    # the row before's, and no two runs share a key. One sort of the runs'
    # keys, not of the rows', finds a key used twice; ids are parsed by it.
    key = np.where(top, doc, parent.astype(np.int64) + n_docs)
    key *= len(_LEVELS)
    key += level
    new = np.ones(n, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new[1:])
    heads = np.flatnonzero(new)
    run_keys = key[heads]
    del key, new
    by_key = np.argsort(run_keys, kind="stable")
    keys = run_keys[by_key]
    again = keys[1:] == keys[:-1]
    if again.any():
        row = int(heads[by_key[1:][again]].min())
        raise InvalidCorpusError(
            f"node at row {row}: it starts a second run of rows of its owner's children at "
            "its level")
    ends = np.append(heads[1:], n)
    corpus._runs = _Runs(*map(memoryview, (heads, keys, heads[by_key], ends[by_key])))
    corpus._ids = _Ids(corpus._doc_ids, corpus._view, corpus._runs.heads)
    sizes = np.array([len(data) for data in corpus._doc_bytes], dtype=np.int64)
    refuse((start < 0) | (start >= end) | (end > sizes[doc]),
           "its span is empty, reversed or ends beyond its document")
    # A span cuts a character where its start or end is a continuation byte
    # (10xxxxxx); an end at the end of its document cuts none, and ASCII
    # holds no such byte. Where some document is not ASCII, each document's
    # rows are found from one sort by document.
    if not all(is_ascii):
        order = np.argsort(doc, kind="stable")
        bounds = np.searchsorted(doc[order], np.arange(n_docs + 1)).tolist()
        cuts = np.zeros(n, dtype=bool)
        for d, data in enumerate(corpus._doc_bytes):
            if is_ascii[d]:
                continue
            text = np.frombuffer(data, dtype=np.uint8)
            rows = order[bounds[d] : bounds[d + 1]]
            ends_at = end[rows]
            at_end = np.where(ends_at < len(text), text[np.minimum(ends_at, len(text) - 1)], 0)
            cuts[rows] = ((text[start[rows]] & 0xC0) == 0x80) | ((at_end & 0xC0) == 0x80)
        refuse(cuts, "its span cuts a UTF-8 character")
    refuse(hard_split > 1, "its hard_split flag is not 0 or 1")
    if corpus.config.parent_overlap or corpus.config.intermediate_overlap or not n:
        return
    # At overlap 0, each run of one owner's children tiles its owner: in row
    # order, a run's first span starts at its owner's start (0 for a
    # document), and every other span where the row before it ends.
    owners = run_keys // len(_LEVELS)
    expected = np.empty_like(start)
    expected[1:] = end[:-1]
    expected[heads] = np.concatenate([np.zeros(n_docs, dtype=np.int64), start])[owners]
    # Both ways a start can be wrong are one rule, which names the least row
    # either way with its own problem: so a parent moved alone is named, not
    # its first child, which then starts before it.
    wrong = start != expected
    if wrong.any():
        first = int(np.argmax(wrong))
        problem = ("a gap comes before its span" if start[first] > expected[first]
                   else "its span overlaps the one before it or starts before its owner")
        raise InvalidCorpusError(f"node {corpus._ids[first]!r}: {problem}")
    tails = ends - 1
    refuse(end[tails] != np.concatenate([sizes, end])[owners],
           "its span is the last under its owner but does not end where the owner ends", tails)
    at_node = owners >= n_docs
    sums = np.add.reduceat(token_count, heads, dtype=np.int64)[at_node]
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
