"""Per-level vector index with exact top-k search.

Search is exact: it returns what a full scan would, scoring every entry
with the package's one cosine routine and selecting the top k under the
total order (score descending, chunk id ascending). That order makes
results a deterministic function of (index, query, k), and the naive full
rescan stays the correctness oracle in the tests.

The scan is done in two passes, the structure of an exact flat index
(Johnson, Douze, Jegou, arXiv 1702.08734). A first pass gives every entry
an approximate score; only the entries whose approximate score lies within
a proven rounding-error margin of the k-th best are rescored with the
canonical routine. ``LevelIndex.search`` holds the proof that this never
drops an entry of the true top k.

Rows are kept in one of two layouts, picked from the data when an index is
built: a dense float32 matrix, whose first pass is one BLAS matrix-vector
product, or compressed sparse rows (CSR) when those take fewer bytes, as
hashed bag-of-words rows do. A CSR index also keeps column-wise postings,
so its first pass reads only the postings of the query's non-zero buckets:
exact inverted-file scoring (Zobel and Moffat, "Inverted files for text
search engines", ACM Computing Surveys 2006).
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import json
import math
import os
import struct
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import MALFORMED_RECORD_ERRORS, Corpus, Level
from .embedding import EmbeddingProvider, cosine_similarity, embed_batch, ensure_unit
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


def _csr_is_smaller(count: int, dimension: int, nnz: int) -> bool:
    """Whether CSR takes fewer bytes than the dense matrix.

    CSR spends 8 bytes per row pointer and 6 per non-zero (a ``<u2`` column
    and a ``<f4`` value) against 4 per entry dense; ``<u2`` columns address
    at most 65,536 buckets.
    """
    return dimension <= 1 << 16 and 6 * nnz + 8 * (count + 1) < 4 * count * dimension


class _Csr(NamedTuple):
    """A CSR matrix as plain arrays.

    Row ``i`` holds ``values[indptr[i]:indptr[i + 1]]`` at the same slice of
    ``columns``.
    """

    indptr: np.ndarray
    columns: np.ndarray
    values: np.ndarray
    dimension: int


class _DenseRows:
    """Rows as one C-contiguous ``(n, d)`` float32 matrix."""

    layout = LAYOUT_DENSE

    def __init__(self, matrix: np.ndarray) -> None:
        matrix.setflags(write=False)
        self.matrix = matrix
        self.dimension = matrix.shape[1]
        self.nnz = int(np.count_nonzero(matrix))

    def squared_norms(self) -> np.ndarray:
        return np.einsum("ij,ij->i", self.matrix, self.matrix)

    def approx_scores(self, query: np.ndarray) -> np.ndarray:
        return self.matrix @ query

    def row(self, i: int) -> np.ndarray:
        return self.matrix[i]

    def dense(self) -> np.ndarray:
        return self.matrix

    def blocks(self) -> list[tuple[np.ndarray, str]]:
        """The arrays a snapshot body holds, in file order, with their file dtypes."""
        return [(self.matrix, "<f4")]


#: Rows compacted at a time, which bounds the temporaries beside the block.
_COMPACT_ROWS = 4096


def _compact(block: np.ndarray) -> _DenseRows | _Csr:
    """Keep an ``(n, d)`` float32 block dense, or take its CSR arrays when smaller.

    The block is read ``_COMPACT_ROWS`` rows at a time, so that compacting
    it needs little memory beside it.
    """
    block = np.ascontiguousarray(block)
    dense = _DenseRows(block)
    count, dimension = block.shape
    if not _csr_is_smaller(count, dimension, dense.nnz):
        return dense
    indptr = np.zeros(count + 1, dtype=np.int64)
    columns = np.empty(dense.nnz, dtype=np.uint16)
    values = np.empty(dense.nnz, dtype=np.float32)
    for start in range(0, count, _COMPACT_ROWS):
        part = block[start : start + _COMPACT_ROWS]
        # The non-zeros of a bool mask are found several times faster than
        # those of the floats.
        flat = np.flatnonzero(part != 0)
        rows, cols = np.divmod(flat, dimension)
        offset = indptr[start]
        ends = indptr[start + 1 : start + 1 + len(part)]
        np.cumsum(np.bincount(rows, minlength=len(part)), out=ends)
        ends += offset
        columns[offset : offset + len(flat)] = cols
        values[offset : offset + len(flat)] = part.reshape(-1)[flat]
    return _Csr(indptr, columns, values, dimension)


class _CsrRows:
    """Compressed sparse rows plus column-wise postings.

    The arrays are checked first, so that no search can index out of range:
    the row pointers rise from 0 to ``nnz``, and each row's columns are
    strictly ascending and below the dimension.
    """

    layout = LAYOUT_CSR

    def __init__(self, csr: _Csr) -> None:
        indptr, columns, values, dimension = csr
        nnz = len(values)
        if indptr[0] != 0 or indptr[-1] != nnz or (np.diff(indptr) < 0).any():
            raise InvalidCorpusError(
                f"row pointers do not rise from 0 to the {nnz} stored non-zeros"
            )
        if nnz and int(columns.max()) >= dimension:
            raise InvalidCorpusError(f"a column index is not below the dimension {dimension}")
        # Entries p - 1 and p may descend only where p starts a row.
        descending = columns[1:] <= columns[:-1]
        starts = indptr[(indptr > 0) & (indptr < nnz)]
        descending[starts - 1] = False
        if descending.any():
            raise InvalidCorpusError("columns are not strictly ascending within a row")
        self.indptr = indptr
        self.columns = columns
        self.values = values
        self.count = len(indptr) - 1
        self.dimension = dimension
        self.nnz = nnz
        # Postings: bucket j's entries are _posting_rows / _posting_values
        # [_posting_starts[j]:_posting_starts[j + 1]], rows ascending.
        order = np.argsort(columns, kind="stable")
        self._posting_rows = self._entry_rows()[order]
        self._posting_values = values[order]
        starts = np.zeros(dimension + 1, dtype=np.int64)
        np.cumsum(np.bincount(columns, minlength=dimension), out=starts[1:])
        self._posting_starts = starts.tolist()

    def _entry_rows(self) -> np.ndarray:
        """The row of every stored entry."""
        dtype = np.int32 if self.count < 2**31 else np.int64
        return np.repeat(np.arange(self.count, dtype=dtype), np.diff(self.indptr))

    def squared_norms(self) -> np.ndarray:
        squares = np.square(self.values, dtype=np.float64)
        return np.bincount(self._entry_rows(), weights=squares, minlength=self.count)

    def approx_scores(self, query: np.ndarray) -> np.ndarray:
        starts = self._posting_starts
        buckets = np.flatnonzero(query).tolist()
        spans = [(starts[j], starts[j + 1], float(query[j])) for j in buckets]
        rows = np.concatenate([self._posting_rows[s:e] for s, e, _ in spans])
        # Products of float32 values are exact in float64.
        weights = np.concatenate(
            [np.multiply(self._posting_values[s:e], q, dtype=np.float64) for s, e, q in spans]
        )
        return np.bincount(rows, weights=weights, minlength=self.count)

    def row(self, i: int) -> np.ndarray:
        start, end = self.indptr[i], self.indptr[i + 1]
        out = np.zeros(self.dimension, dtype=np.float32)
        out[self.columns[start:end]] = self.values[start:end]
        return out

    def dense(self) -> np.ndarray:
        out = np.zeros((self.count, self.dimension), dtype=np.float32)
        out[self._entry_rows(), self.columns] = self.values
        return out

    def blocks(self) -> list[tuple[np.ndarray, str]]:
        """The arrays a snapshot body holds, in file order, with their file dtypes."""
        return [(self.indptr, "<i8"), (self.columns, "<u2"), (self.values, "<f4")]


class LevelIndex:
    """Immutable (chunk id, embedding) store for one hierarchy level.

    Built from the level's ``(n, d)`` float32 block, it keeps the rows dense
    or as CSR, whichever takes fewer bytes (``layout``); no dense copy of a
    CSR index is kept. Every row must be finite with a squared norm inside
    float32 range; the search's error bound rests on it.
    """

    def __init__(
        self, level: Level, chunk_ids: Sequence[str], vectors: np.ndarray | _DenseRows | _Csr
    ) -> None:
        """``vectors`` is the ``(n, d)`` block, or what ``_compact`` made of it."""
        if len(chunk_ids) == 0:
            raise InvalidCorpusError(f"no entries for level {level.value!r}")
        if len(set(chunk_ids)) != len(chunk_ids):
            raise InvalidCorpusError("duplicate chunk ids in index")
        if not isinstance(vectors, (_DenseRows, _Csr)):
            vectors = np.asarray(vectors, dtype=np.float32)
            if vectors.ndim != 2 or vectors.shape[0] != len(chunk_ids):
                raise InvalidInputError(
                    f"vectors shape {vectors.shape} does not match {len(chunk_ids)} ids"
                )
            vectors = _compact(vectors)
        rows = _CsrRows(vectors) if isinstance(vectors, _Csr) else vectors
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
        non-zero buckets for a CSR one. Pass 2 rescores canonically only the
        rows with ``a_i >= t - 2E``, where

            E = (gamma_d(f32) + gamma_d(f64)) * max_i |x_i| * |q| + d * eta

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
        with its last score -- has ``a_i >= c_i - E >= t - 2E`` and is
        rescored; every other row has ``c_i <= a_i + E < t - E <= c_(k)``
        and could not be selected. Selecting among the rescored rows under
        the same order therefore returns the full scan's hits exactly.
        Finite rows keep every term finite. E is evaluated in float64: the
        norm inflation in ``__init__`` leaves it a relative slack of about
        gamma_d(f32) / 2, far above those few roundings, and the cut is
        rounded down. A CSR row is densified before it is rescored; its
        stored zeros are exact, so the canonical score is the same.
        """
        if k < 1:
            raise InvalidInputError("k must be >= 1")
        query = ensure_unit(query, self.dimension)
        n = len(self)
        if k >= n:
            candidates = range(n)
        else:
            approx = self._rows.approx_scores(query)
            # The k-th smallest of -a: np.partition is many times slower at a
            # kth near the end of an array holding many equal values (a CSR
            # index's untouched rows all score 0).
            t = -float(np.partition(-approx, k - 1)[k - 1])
            d = self.dimension
            q_norm = float(np.linalg.norm(query.astype(np.float64)))
            bound = (_gamma(d, _U32) + _gamma(d, _U64)) * self._max_norm * q_norm + d * _ETA32
            cut = np.nextafter(t - 2.0 * bound, -math.inf)
            candidates = np.flatnonzero(approx >= cut).tolist()
        row = self._rows.row
        scores = {i: cosine_similarity(row(i), query) for i in candidates}
        best = heapq.nsmallest(k, scores, key=lambda i: (-scores[i], self.chunk_ids[i]))
        return [ScoredCandidate(self.chunk_ids[i], scores[i]) for i in best]


def build_index(corpus: Corpus, level: Level, provider: EmbeddingProvider) -> LevelIndex:
    """Embed every chunk at ``level`` and index it, one entry per chunk."""
    nodes = corpus.nodes_at(level)
    if not nodes:
        raise InvalidCorpusError(f"corpus has no chunks at level {level.value!r}")
    # Nested calls free the texts once embedded and the block once compacted,
    # so a CSR index builds its postings beside neither.
    rows = _compact(embed_batch(provider, [corpus.chunk_text(node.id) for node in nodes]))
    return LevelIndex(level, [node.id for node in nodes], rows)


def save_index(index: LevelIndex, path: str | Path, embedder: str) -> None:
    """Write a versioned snapshot of ``index``, whose vectors ``embedder`` made.

    Layout: magic, ``<I`` header length, a JSON header (level, dimension,
    count, embedder name, ``ids_sha256``, the digest of the level's chunk
    ids in row order, ``layout`` and ``nnz``, the number of non-zeros),
    then the body. A dense body is the ``count x dimension`` little-endian
    float32 matrix; a CSR body is the ``count + 1`` ``<i8`` row pointers,
    the ``nnz`` ``<u2`` columns and the ``nnz`` ``<f4`` values. Row ``i``
    belongs to the ``i``-th chunk id, so the ids themselves live only in
    the corpus.
    """
    fields = {"level": index.level.value, "dimension": index.dimension, "count": len(index),
              "embedder": embedder, "ids_sha256": _ids_digest(index.chunk_ids),
              "layout": index.layout, "nnz": index.nnz}
    header = json.dumps(fields, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for array, dtype in index._rows.blocks():
            fh.write(memoryview(array.astype(dtype, copy=False)))


def load_index(
    path: str | Path, chunk_ids: Sequence[str], embedder: str, dimension: int
) -> LevelIndex:
    """Load a snapshot written by ``save_index`` for rows ``chunk_ids``.

    ``chunk_ids`` are the level's ids in corpus order, and ``embedder`` and
    ``dimension`` name the provider queries will use. A file of another
    format version, a header that does not fit the file, another embedder or
    dimension, or other ids raise ``SnapshotFormatError`` naming the file,
    before the body is read; so do CSR arrays that do not form a valid
    matrix and non-finite values.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic in _RETIRED_MAGICS:
            raise SnapshotFormatError(
                f"{path}: snapshot format {_RETIRED_MAGICS[magic]} is not read; re-run ingest"
            )
        if magic != _MAGIC:
            raise SnapshotFormatError(f"{path}: bad magic {magic!r}")
        (header_len,) = struct.unpack("<I", _read_exact(fh, 4, path))
        header_bytes = _read_exact(fh, header_len, path)
        try:
            header = json.loads(header_bytes.decode("utf-8"))
            level = Level(header["level"])
            stored_dimension = int(header["dimension"])
            count = int(header["count"])
            built_by = header["embedder"]
            ids_sha256 = header["ids_sha256"]
            layout = header["layout"]
            nnz = int(header["nnz"])
        except MALFORMED_RECORD_ERRORS as exc:
            raise SnapshotFormatError(f"{path}: malformed header ({exc})") from None
        if stored_dimension < 1 or count < 0 or not 0 <= nnz <= count * stored_dimension:
            raise SnapshotFormatError(f"{path}: bad header sizes {header}")
        if layout == LAYOUT_DENSE:
            shapes = [((count, stored_dimension), "<f4")]
        elif layout == LAYOUT_CSR:
            shapes = [((count + 1,), "<i8"), ((nnz,), "<u2"), ((nnz,), "<f4")]
        else:
            raise SnapshotFormatError(f"{path}: unknown layout {layout!r}")
        size = sum(math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in shapes)
        remaining = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != remaining:
            raise SnapshotFormatError(
                f"{path}: {count} {layout} rows of dimension {stored_dimension} with {nnz} "
                f"non-zeros take {size} bytes, but {remaining} follow the header"
            )
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
        arrays = []
        for shape, dtype in shapes:
            array = np.empty(shape, dtype=dtype)
            if fh.readinto(array) != array.nbytes:
                raise SnapshotFormatError(f"{path}: truncated snapshot")
            arrays.append(array)
    try:
        if layout == LAYOUT_DENSE:
            index = LevelIndex(level, chunk_ids, arrays[0])
        else:
            index = LevelIndex(level, chunk_ids, _Csr(*arrays, stored_dimension))
    except InvalidCorpusError as exc:
        raise SnapshotFormatError(f"{path}: {exc}") from None
    if index.nnz != nnz:
        raise SnapshotFormatError(
            f"{path}: the header counts {nnz} non-zeros, the rows hold {index.nnz}"
        )
    return index


def _ids_digest(chunk_ids: Sequence[str]) -> str:
    """sha256 of the ids as one JSON array, an encoding no id can forge."""
    return hashlib.sha256(json.dumps(list(chunk_ids)).encode("ascii")).hexdigest()


def _read_exact(fh, n: int, path) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise SnapshotFormatError(f"{path}: truncated snapshot")
    return data
