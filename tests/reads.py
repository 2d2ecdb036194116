"""Bulk reads of a corpus and of an index, for tests.

A corpus is read through its one read API (``rows_at``, ``ids_of`` and
``get``); an index's rows are densified here from the arrays it stores, so
an oracle that reads them does not go through the code it checks; and a
search's hits, corpus rows and scores, are read as (chunk id, score) pairs.
"""

import numpy as np

from hrr.corpus import ChunkNode, Corpus, Level
from hrr.embedding import CsrBatch
from hrr.index import LevelIndex
from hrr.rerank import ScoredCandidate


def level_ids(corpus: Corpus, level: Level) -> tuple[str, ...]:
    """The ids of ``level``'s nodes, in row order."""
    return tuple(corpus.ids_of(corpus.rows_at(level)))


def nodes_of(corpus: Corpus, level: Level | None = None) -> tuple[ChunkNode, ...]:
    """Every node of ``corpus`` in row order, or only ``level``'s."""
    rows = np.arange(len(corpus)) if level is None else corpus.rows_at(level)
    return tuple(map(corpus.get, corpus.ids_of(rows)))


def index_ids(index: LevelIndex) -> tuple[str, ...]:
    """The chunk ids of ``index``'s rows, in row order."""
    return level_ids(index.corpus, index.level)


def search_hits(index: LevelIndex, query: np.ndarray, k: int) -> list[ScoredCandidate]:
    """``index.search``'s hits as (chunk id, score) pairs, best first."""
    rows, scores = index.search(query, k)
    return list(map(ScoredCandidate, index.corpus.ids_of(rows), scores))


def dense_rows(rows: LevelIndex | CsrBatch) -> np.ndarray:
    """The ``(n, d)`` float32 rows of an index or a ``CsrBatch``: a dense
    index's matrix, or a CSR one's stored entries placed in a zero matrix."""
    if isinstance(rows, LevelIndex):
        if rows.layout == "dense":
            return rows._rows.matrix
        rows = rows._rows.csr
    out = np.zeros((len(rows.indptr) - 1, rows.dimension), dtype=np.float32)
    entry_rows = np.repeat(np.arange(len(out)), np.diff(rows.indptr))
    out[entry_rows, rows.columns] = rows.values
    return out
