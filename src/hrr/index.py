"""Per-level vector index with exact top-k search.

Search is exact: it returns what a full scan would, scoring every entry
with the package's one cosine routine and selecting the top k under the
total order (score descending, chunk id ascending). That order makes
results a deterministic function of (index, query, k), and the naive full
rescan stays the correctness oracle in the tests.

The scan is done in two passes, the structure of an exact flat index
(Johnson, Douze, Jegou, arXiv 1702.08734). A first pass gives every entry
an approximate score; only the entries whose approximate score lies within
a proven rounding-error margin of the k-th best stay candidates, and each
gets its canonical score. A dense candidate is rescored with the canonical
routine. A CSR candidate whose first-pass sum added at most two stored
entries keeps that sum, which is bit for bit the canonical score but for
the sign of a zero; it is rescored only if it is returned with a score of
0. ``LevelIndex.search`` holds the proof of both steps.

Rows are kept in the layout the embedding provider returned: a
``CsrBatch``, as hashed bag-of-words rows come, is kept as compressed
sparse rows (CSR), and an ``(n, d)`` block as a dense float32 matrix, whose
first pass is one BLAS matrix-vector product. Building, saving and loading
an index convert no rows between the two. A CSR index also keeps
column-wise postings, so its first pass reads only the postings of the
query's non-zero buckets: exact inverted-file scoring (Zobel and Moffat,
"Inverted files for text search engines", ACM Computing Surveys 2006). The
postings are built on a level's first search, so loading or building an
index that is never searched, or only searched for all its rows, builds
none.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from contextlib import closing
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Corpus, Level, json_int, read_snapshot, write_snapshot
from .embedding import (
    _NORM_TOLERANCE,
    CsrBatch,
    EmbeddingProvider,
    cosine_similarity,
    embed_batch,
    ensure_unit,
)
from .errors import InvalidCorpusError, InvalidInputError, SnapshotFormatError
from .rerank import ScoredCandidate

_MAGIC = b"HRRIDX3\n"
_RETIRED_MAGICS = {b"HRRIDX1\n": "v1", b"HRRIDX2\n": "v2"}

LAYOUT_DENSE = "dense"
LAYOUT_CSR = "csr"

#: Unit roundoffs of float32 and float64, the float32 underflow unit (its
#: smallest subnormal) and the largest finite float32.
_U32 = 2.0**-24
_U64 = 2.0**-53
_ETA32 = float(np.finfo(np.float32).smallest_subnormal)
_F32_MAX = float(np.finfo(np.float32).max)


def _gamma(d: int, u: float) -> float:
    """Higham's gamma_d: bounds the relative error of a length-d dot product."""
    return d * u / (1.0 - d * u)


def _kth_largest(values: np.ndarray, k: int) -> float:
    """The k-th largest of ``values``, as the k-th smallest of a negated copy
    partitioned in place.

    np.partition is many times slower at a kth near the end of an array
    holding many equal values (a CSR index's untouched rows all score 0).
    """
    negated = -values
    negated.partition(k - 1)
    return -float(negated[k - 1])


class _DenseRows:
    """Rows as one C-contiguous ``(n, d)`` float32 matrix."""

    layout = LAYOUT_DENSE

    def __init__(self, block: np.ndarray) -> None:
        matrix = np.ascontiguousarray(block, dtype=np.float32)
        if matrix.ndim != 2:
            raise InvalidInputError(f"vectors shape {matrix.shape} is not (n, d)")
        matrix.setflags(write=False)
        self.matrix = matrix
        self.count, self.dimension = matrix.shape
        self.nnz = int(np.count_nonzero(matrix))

    def squared_norms(self) -> np.ndarray:
        return np.einsum("ij,ij->i", self.matrix, self.matrix)

    def approx_scores(self, query: np.ndarray) -> tuple[np.ndarray, None]:
        """Each row's float32 ``V @ q``; no row's score is exact."""
        return self.matrix @ query, None

    def row(self, i: int) -> np.ndarray:
        return self.matrix[i]

    def dense(self) -> np.ndarray:
        return self.matrix

    def blocks(self) -> list[np.ndarray]:
        """The arrays a snapshot body holds, in file order."""
        return [self.matrix]


class _CsrRows:
    """Compressed sparse rows plus column-wise postings.

    The arrays are checked here (``CsrBatch.problem``), so that no search
    can index out of range. The postings are built by the first
    ``approx_scores`` call and kept.
    """

    layout = LAYOUT_CSR

    def __init__(self, csr: CsrBatch) -> None:
        problem = csr.problem()
        if problem is not None:
            raise InvalidCorpusError(problem)
        self.csr = csr
        #: Row ``i`` as a dense float32 vector; search rescores with it.
        self.row = csr.__getitem__
        self.count = len(csr)
        self.dimension = csr.dimension
        self.nnz = csr.nnz

    @functools.cached_property
    def _postings(self) -> tuple[list[int], np.ndarray, np.ndarray]:
        """``(starts, rows, values)``: bucket j's entries are ``rows`` and
        ``values`` ``[starts[j]:starts[j + 1]]``, rows ascending.

        Built on the level's first search, as one tuple stored at once, so a
        concurrent first search sees either none or all of it.
        """
        csr, dimension = self.csr, self.dimension
        # The bincount, which takes a wide copy of the columns, runs first,
        # while no other temporary is held.
        starts = np.zeros(dimension + 1, dtype=np.int64)
        np.cumsum(np.bincount(csr.columns, minlength=dimension), out=starts[1:])
        order = np.argsort(csr.columns, kind="stable")
        return starts.tolist(), csr.entry_rows()[order], csr.values[order]

    def squared_norms(self) -> np.ndarray:
        return self.csr.squared_norms()

    def approx_scores(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each row's float64 sum of ``x_ij q_j`` over the query's non-zero
        buckets, and the number of stored entries that sum added."""
        starts, posting_rows, posting_values = self._postings
        buckets = np.flatnonzero(query).tolist()
        spans = [(starts[j], starts[j + 1], float(query[j])) for j in buckets]
        rows = np.concatenate([posting_rows[s:e] for s, e, _ in spans])
        # Products of float32 values are exact in float64.
        weights = np.concatenate(
            [np.multiply(posting_values[s:e], q, dtype=np.float64) for s, e, q in spans]
        )
        sums = np.bincount(rows, weights=weights, minlength=self.count)
        return sums, np.bincount(rows, minlength=self.count)

    def dense(self) -> np.ndarray:
        return np.asarray(self.csr)

    def blocks(self) -> list[np.ndarray]:
        """The arrays a snapshot body holds, in file order."""
        csr = self.csr
        return [csr.indptr, csr.columns, csr.values]


class LevelIndex:
    """Immutable (chunk id, embedding) store for one hierarchy level.

    Built from a ``CsrBatch``, it keeps the rows as CSR; built from an
    ``(n, d)`` float32 block, it keeps them dense (``layout``). No dense
    copy of a CSR index is kept. Every row must be finite with a squared
    norm inside float32 range; the search's error bound rests on it.
    """

    def __init__(
        self, level: Level, chunk_ids: Sequence[str], vectors: np.ndarray | CsrBatch
    ) -> None:
        if len(chunk_ids) == 0:
            raise InvalidCorpusError(f"no entries for level {level.value!r}")
        if len(set(chunk_ids)) != len(chunk_ids):
            raise InvalidCorpusError("duplicate chunk ids in index")
        rows = _CsrRows(vectors) if isinstance(vectors, CsrBatch) else _DenseRows(vectors)
        if rows.count != len(chunk_ids):
            raise InvalidInputError(f"{rows.count} rows do not match {len(chunk_ids)} ids")
        squared_norms = rows.squared_norms()
        bad = np.flatnonzero(~(squared_norms <= _F32_MAX))
        if bad.size:
            raise InvalidCorpusError(
                f"{bad.size} index rows are not finite or overflow float32, first "
                f"{chunk_ids[bad[0]]!r}"
            )
        dim = rows.dimension
        # The float32 sum of squares is low by at most a factor (1 - gamma_d)
        # plus d * eta / 2 of underflow; (1 + 2 gamma_d) and d * eta cover both.
        # A CSR index sums exact float64 squares, which errs far less.
        self._max_norm = math.sqrt(
            float(squared_norms.max()) * (1.0 + 2.0 * _gamma(dim, _U32)) + dim * _ETA32
        )
        worst = int(np.argmax(np.abs(squared_norms - 1.0)))
        #: The row whose squared norm lies furthest from 1, and that norm;
        #: ``load_index`` refuses a snapshot whose rows are not unit.
        self._least_unit_row = (chunk_ids[worst], float(squared_norms[worst]))
        self.level = level
        self.chunk_ids: tuple[str, ...] = tuple(chunk_ids)
        self._rows = rows

    @property
    def dimension(self) -> int:
        return self._rows.dimension

    @property
    def layout(self) -> str:
        """``"dense"`` or ``"csr"``."""
        return self._rows.layout

    @property
    def nnz(self) -> int:
        """The number of non-zero entries."""
        return self._rows.nnz

    @functools.cached_property
    def vectors(self) -> np.ndarray:
        """The rows as one read-only ``(n, d)`` float32 matrix.

        For inspection and tests: a CSR index builds it on first access and
        keeps it, so no build, load, save or search path reads it.
        """
        matrix = self._rows.dense()
        matrix.setflags(write=False)
        return matrix

    def __len__(self) -> int:
        return len(self.chunk_ids)

    def search(self, query: np.ndarray, k: int) -> list[ScoredCandidate]:
        """Exact top-k by cosine, ties broken by chunk id ascending.

        Bit-identical to scoring every row with ``cosine_similarity`` and
        sorting. Pass 1 takes an approximate score ``a_i`` of every row and
        the k-th largest of them, ``t``: ``(V @ q)_i`` in float32 for a
        dense index, the float64 sum of ``x_ij q_j`` over the query's
        non-zero buckets for a CSR one. Pass 2 keeps only the rows with
        ``a_i >= t - 2E`` as candidates, where

            E = (gamma_d(f32) + gamma_d(f64)) * max_i |x_i| * |q| + d * eta

        and scores them canonically.

        Why no row of the true top k is missed: let ``c_i`` be the
        canonical score. Its float64 products of float32 inputs are exact,
        so ``|c_i - x_i.q| <= gamma_d(f64) * sum|x_ij q_j|``. The float32
        product errs by at most ``gamma_d(f32) * sum|x_ij q_j|`` plus
        ``eta / 2`` of underflow per term, in any summation order (Higham,
        Accuracy and Stability of Numerical Algorithms, 3.1). The CSR sum
        adds at most nnz_i <= d exact float64 products, so it errs by at
        most ``gamma_nnz(f64) * sum|x_ij q_j| <= E``. As
        ``sum|x_ij q_j| <= |x_i| |q|``, ``|a_i - c_i| <= E`` for every row.
        At least k rows have ``a_i >= t``, hence ``c_i >= t - E``, so the
        k-th best canonical score ``c_(k)`` is at least ``t - E``. Every
        row with ``c_i >= c_(k)`` -- the true top k and everything tied
        with its last score -- has ``a_i >= c_i - E >= t - 2E`` and is a
        candidate; every other row has ``c_i <= a_i + E < t - E <= c_(k)``
        and could not be selected. Selecting among the candidates under
        the same order therefore returns the full scan's hits exactly.
        Finite rows keep every term finite. E is evaluated in float64: the
        norm inflation in ``__init__`` leaves it a relative slack of about
        gamma_d(f32) / 2, far above those few roundings, and the cut is
        rounded down.

        Which candidates are rescored: a dense row always; a CSR row only
        when its sum added three or more stored entries. A CSR row that
        shares at most two buckets with the query keeps its sum, which is
        already its canonical score: the canonical dot of the densified row
        holds the same one or two exact products ``p1``, ``p2`` and exact
        zeros; adding a zero to a non-zero value is exact, and ``p1 + p2``
        rounds once in either order, so every summation order, with FMA or
        without, gives the same bits. Only the sign of a zero sum may differ
        (``np.dot`` of one ``-0.0`` product can give ``-0.0`` where
        ``bincount`` gives ``+0.0``), and signed zeros compare equal, so the
        selection stands and each returned row whose kept sum is 0 is
        rescored.
        """
        if k < 1:
            raise InvalidInputError("k must be >= 1")
        query = ensure_unit(query, self.dimension)
        n = len(self)
        if k >= n:
            candidates = np.arange(n)
            scores = np.zeros(n)
            kept = np.zeros(n, dtype=bool)
        else:
            approx, entries = self._rows.approx_scores(query)
            t = _kth_largest(approx, k)
            d = self.dimension
            q_norm = float(np.linalg.norm(query.astype(np.float64)))
            bound = (_gamma(d, _U32) + _gamma(d, _U64)) * self._max_norm * q_norm + d * _ETA32
            cut = np.nextafter(t - 2.0 * bound, -math.inf)
            candidates = np.flatnonzero(approx >= cut)
            scores = approx[candidates].astype(np.float64, copy=False)
            if entries is None:
                kept = np.zeros(len(candidates), dtype=bool)
            else:
                kept = entries[candidates] <= 2
        row = self._rows.row
        for p in np.flatnonzero(~kept).tolist():
            scores[p] = cosine_similarity(row(candidates[p]), query)
        hits = []
        for p in self._best(candidates, scores, k):
            i = candidates[p]
            score = cosine_similarity(row(i), query) if kept[p] and scores[p] == 0 else scores[p]
            hits.append(ScoredCandidate(self.chunk_ids[i], float(score)))
        return hits

    def _best(self, rows: np.ndarray, scores: np.ndarray, k: int) -> list[int]:
        """The positions of the top k ``scores``, best first, under (score
        descending, chunk id of ``rows`` ascending). ``rows`` ascend."""
        ids = self.chunk_ids
        keep = range(len(scores))
        if len(scores) > k:
            kth = _kth_largest(scores, k)
            above = np.flatnonzero(scores > kth).tolist()
            # Chunk ids are compared only among the rows tied with the k-th.
            tied = sorted(rows[scores == kth].tolist(), key=ids.__getitem__)
            keep = above + np.searchsorted(rows, tied[: k - len(above)]).tolist()
        return sorted(keep, key=lambda p: (-scores[p], ids[rows[p]]))


def build_index(corpus: Corpus, level: Level, provider: EmbeddingProvider) -> LevelIndex:
    """Embed every chunk at ``level`` and index it, one entry per chunk.

    The level is embedded in one ``embed_batch`` call, and the index keeps
    the rows in the layout the provider returned: a ``CsrBatch`` as CSR,
    with no dense block of it made, and an ``(n, d)`` block dense.
    """
    ids = corpus.ids_at(level)
    if not ids:
        raise InvalidCorpusError(f"corpus has no chunks at level {level.value!r}")
    # The texts are freed once embedded, so the index is built beside none.
    return LevelIndex(level, ids, embed_batch(provider, [corpus.chunk_text(i) for i in ids]))


def save_index(index: LevelIndex, path: str | Path, embedder: str) -> None:
    """Write a versioned snapshot of ``index``, whose vectors ``embedder`` made.

    A snapshot (``corpus.write_snapshot``) whose JSON header holds the
    level, dimension, count, embedder name, ``ids_sha256``, the digest of
    the level's chunk ids in row order, ``layout`` and ``nnz``, the number
    of non-zeros. A dense body is the ``count x dimension`` little-endian
    float32 matrix; a CSR body is the ``count + 1`` ``<i8`` row pointers,
    the ``nnz`` ``<u2`` columns and the ``nnz`` ``<f4`` values. Row ``i``
    belongs to the ``i``-th chunk id, so the ids themselves live only in
    the corpus. An interrupted save leaves the earlier snapshot whole.
    """
    fields = {"level": index.level.value, "dimension": index.dimension, "count": len(index),
              "embedder": embedder, "ids_sha256": _ids_digest(index.chunk_ids),
              "layout": index.layout, "nnz": index.nnz}
    blocks = zip(index._rows.blocks(), _DTYPES[index.layout])
    write_snapshot(path, _MAGIC, fields, (a.astype(dtype, copy=False) for a, dtype in blocks))


def load_index(
    path: str | Path, chunk_ids: Sequence[str], embedder: str, dimension: int
) -> LevelIndex:
    """Load a snapshot written by ``save_index`` for rows ``chunk_ids``.

    ``chunk_ids`` are the level's ids in corpus order, and ``embedder`` and
    ``dimension`` name the provider queries will use. A file of another
    format version, a malformed header (an unknown layout, say), sizes that
    do not fit the file (all refused by ``corpus.read_snapshot``), another
    embedder or dimension, or other ids raise ``SnapshotFormatError`` naming
    the file, before the body is read; so do CSR arrays that do not form a
    valid matrix, non-finite values, and rows that are not unit:
    ``embed_batch`` stores only rows within its tolerance of unit norm.
    """
    with closing(read_snapshot(path, _MAGIC, _parse_header, _RETIRED_MAGICS)) as blocks:
        level, stored_dimension, count, built_by, ids_sha256, layout, nnz = next(blocks)
        if built_by != embedder:
            raise SnapshotFormatError(
                f"{path}: vectors from the {built_by!r} embedder, not {embedder!r}; re-run ingest"
            )
        if stored_dimension != dimension:
            raise SnapshotFormatError(
                f"{path}: index dimension {stored_dimension} differs from the "
                f"configured embedding dimension {dimension}; re-run ingest"
            )
        if count != len(chunk_ids) or ids_sha256 != _ids_digest(chunk_ids):
            raise SnapshotFormatError(
                f"{path}: {count} {level.value} rows whose ids do not match the corpus's "
                f"{len(chunk_ids)} chunks at that level; re-run ingest"
            )
        arrays = [np.frombuffer(block, dtype) for block, dtype in zip(blocks, _DTYPES[layout])]
    if layout == LAYOUT_DENSE:
        vectors = arrays[0].reshape(count, stored_dimension)
    else:
        vectors = CsrBatch(*arrays, stored_dimension)
    try:
        index = LevelIndex(level, chunk_ids, vectors)
    except InvalidCorpusError as exc:
        raise SnapshotFormatError(f"{path}: {exc}") from None
    if index.nnz != nnz:
        raise SnapshotFormatError(
            f"{path}: the header counts {nnz} non-zeros, the rows hold {index.nnz}"
        )
    # The stored rows' squared norms lie within (1 +- tolerance)**2 of 1; a
    # float32 sum of squares errs by at most gamma_d(f32) plus d * eta of
    # underflow (a CSR one, of exact float64 squares, far less), and the
    # doubled gamma also covers the float64 norm the tolerance was checked on.
    d = index.dimension
    slack = (1.0 + _NORM_TOLERANCE) ** 2 * (1.0 + 2.0 * _gamma(d, _U32)) - 1.0 + d * _ETA32
    chunk_id, squared_norm = index._least_unit_row
    if not abs(squared_norm - 1.0) <= slack:
        raise SnapshotFormatError(
            f"{path}: row {chunk_id!r} is not unit (squared norm {squared_norm!r})"
        )
    return index


#: Each layout's body blocks, as file dtypes, in file order.
_DTYPES = {LAYOUT_DENSE: ("<f4",), LAYOUT_CSR: ("<i8", "<u2", "<f4")}


def _parse_header(header) -> tuple[tuple, list[int]]:
    """An index snapshot header's fields, and its body's block sizes."""
    level = Level(header["level"])
    dimension, count, nnz = (json_int(header[key], key) for key in ("dimension", "count", "nnz"))
    layout = header["layout"]
    if dimension < 1 or not 0 <= nnz <= count * dimension:
        raise SnapshotFormatError(f"bad header sizes {header}")
    if layout not in _DTYPES:
        raise SnapshotFormatError(f"unknown layout {layout!r}")
    lengths = [count * dimension] if layout == LAYOUT_DENSE else [count + 1, nnz, nnz]
    sizes = [n * np.dtype(dtype).itemsize for n, dtype in zip(lengths, _DTYPES[layout])]
    fields = (level, dimension, count, header["embedder"], header["ids_sha256"], layout, nnz)
    return fields, sizes


def _ids_digest(chunk_ids: Sequence[str]) -> str:
    """sha256 of the ids as one JSON array, an encoding no id can forge."""
    return hashlib.sha256(json.dumps(list(chunk_ids)).encode("ascii")).hexdigest()
