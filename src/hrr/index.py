"""Per-level vector index with exact top-k search.

Search is exact: it returns what a full scan would, scoring every entry
with the package's one cosine routine (``cosine_similarity``: exact
float64 products added in column order from +0.0) and selecting the top k
under the total order (score descending, chunk id ascending). That order
makes results a deterministic function of (index, query, k), the same
under every BLAS kernel, and the naive full rescan stays the correctness
oracle in the tests.

Rows are kept in the layout the embedding provider returned: a
``CsrBatch``, as hashed bag-of-words rows come, is kept as compressed
sparse rows (CSR), and an ``(n, d)`` block as a dense float32 matrix.
Building, saving and loading an index convert no rows between the two.

A CSR index keeps column-wise postings, so its search reads only the
postings of the query's non-zero buckets: exact inverted-file scoring
(Zobel and Moffat, "Inverted files for text search engines", ACM
Computing Surveys 2006). A row's postings sum adds its products in the
canonical routine's order, so it is the row's score bit for bit and no row
is rescored. Each bucket's postings are built the first time a search
reads that bucket, so a search builds only its query's buckets, and
loading or building an index, or searching it for all its rows, builds
none.

A dense index is searched in two passes, the structure of an exact flat
index (Johnson, Douze, Jegou, arXiv 1702.08734): one float32 BLAS
matrix-vector product gives every row an approximate score, and only the
rows within a proven rounding-error margin of the k-th best are rescored
with the canonical routine. ``_DenseRows.candidates`` holds the proof. That
product is the only BLAS call on any vector path: every norm is a float64
sum of exact squares (``embedding.squared_norms``).

On a CSR level of at least ``_EARLY_STOP_ROWS`` rows, each bucket's
postings are ordered by value descending (impact order, Anh and Moffat,
SIGIR 2006), so the search can stop early: it reads the top of each query
list in rounds, and stops once no unread entry can lift a row to the k-th
best score seen (the threshold algorithm of Fagin, Lotem and Naor, PODS
2001). It returns the full pass's candidates and sums bit for bit, and
hands over to the full pass wherever the stop cannot be proven. Ties with
the k-th score are broken by a per-index rank of the chunk ids, built when
ties first need it.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator

import numpy as np

from .corpus import Corpus, Level, json_int
from .embedding import (
    CsrBatch,
    EmbeddingProvider,
    cosine_similarities,
    cosine_similarity,
    embed_batch,
    ensure_unit,
    gamma,
    squared_norms,
    unit_slack,
)
from .errors import InvalidCorpusError, InvalidInputError, SnapshotFormatError

LAYOUT_DENSE = "dense"
LAYOUT_CSR = "csr"

#: The unit roundoff of float32, its underflow unit (its smallest
#: subnormal) and the largest finite float32.
_U32 = 2.0**-24
_ETA32 = float(np.finfo(np.float32).smallest_subnormal)
_F32_MAX = float(np.finfo(np.float32).max)

#: The fewest rows for which CSR search tries the early stop before the full
#: pass. The early stop costs some 0.12 ms of fixed numpy calls, while the
#: full pass's steps grow with the rows: on prefixes of a 1,000-doc synth
#: sentence level, searched for its 30 needle queries at k = 10, the full
#: pass takes 0.07 ms at 2,174 rows and 0.27-0.41 ms at 68,278, and the two
#: break even between 16k and 24k rows (2-vCPU host, Python 3.11, numpy 2.4).
_EARLY_STOP_ROWS = 16384
#: Entries of each query list the first round reads, and how many times
#: deeper each later round reads.
_FIRST_DEPTH = 128
_DEPTH_GROWTH = 4
#: Dense candidates rescored at a time, which bounds the float64 products
#: held at once.
_RESCORE_ROWS = 1024


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
        # LevelIndex takes the norms once, before any search, so the bound
        # that search puts on the row norms is kept from them here.
        norms = squared_norms(self.matrix)
        self._max_norm = math.sqrt(float(norms.max()))
        return norms

    def candidates(self, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows ascending, including all that score at least the k-th best
        score, and their canonical scores: every row if ``k`` reaches the row
        count, else each row whose float32 first-pass score ``a_i = (V @ q)_i``
        reaches ``t - 2E``, with ``t`` the k-th largest ``a_i`` and

            E = (gamma_d(f32) + 2 gamma_d(f64)) * max_i |x_i| * |q| + d * eta

        The canonical score's float64 products of float32 inputs are exact,
        so ``|c_i - x_i.q| <= gamma_d(f64) * sum|x_ij q_j|``; the float32
        pass errs by at most ``gamma_d(f32) * sum|x_ij q_j|`` plus ``eta / 2``
        of underflow per term, in any summation order (Higham, Accuracy and
        Stability of Numerical Algorithms, 3.1). As ``sum|x_ij q_j| <=
        |x_i| |q|``, ``|a_i - c_i| <= E`` for every row. At least k rows have
        ``a_i >= t``, hence ``c_i >= t - E``, so ``c_(k) >= t - E``. Every
        row with ``c_i >= c_(k)`` has ``a_i >= c_i - E >= t - 2E`` and is a
        candidate; every other row has ``c_i <= a_i + E < t - E <= c_(k)``
        and could not be selected. Finite rows keep every term finite. E,
        taken from the rounded roots of ``squared_norms`` (sums low by at most
        ``gamma_(d-1)(f64)``) with six float64 roundings more, is low by a
        relative ``(d + 7) u64`` at most, which the second ``gamma_d(f64)``
        covers for every d up to ``2**22``, where ``gamma_d(f32) + 2
        gamma_d(f64) <= d / (d + 7)``. The cut is rounded down.
        """
        matrix = self.matrix
        candidates = np.arange(self.count)
        if k < self.count:
            d = self.dimension
            q_norm = math.sqrt(cosine_similarity(query, query))
            bound = (gamma(d, _U32) + 2.0 * gamma(d)) * self._max_norm * q_norm + d * _ETA32
            approx = matrix @ query
            cut = np.nextafter(_kth_largest(approx, k) - 2.0 * bound, -math.inf)
            candidates = np.flatnonzero(approx >= cut)
        scores = np.concatenate([
            cosine_similarities(matrix[candidates[s : s + _RESCORE_ROWS]], query)
            for s in range(0, len(candidates), _RESCORE_ROWS)
        ])
        return candidates, scores

    def blocks(self) -> list[np.ndarray]:
        """The arrays the level's stored blocks hold, in file order."""
        return [self.matrix]


class _CsrRows:
    """Compressed sparse rows plus column-wise postings.

    The arrays are checked here (``CsrBatch.problem``), so that no search
    can index out of range. Each bucket's postings are built the first time
    a search reads that bucket, and kept (``_list``).
    """

    layout = LAYOUT_CSR

    def __init__(self, csr: CsrBatch) -> None:
        problem = csr.problem()
        if problem is not None:
            raise InvalidCorpusError(problem)
        self.csr = csr
        self.count = len(csr)
        self.dimension = csr.dimension
        self.nnz = csr.nnz
        #: Each bucket's postings that a search has read (``_list``).
        self._lists: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @functools.cached_property
    def _by_value(self) -> bool:
        """Whether the early stop may read this level: it holds at least
        ``_EARLY_STOP_ROWS`` rows and no stored value below 0. Its buckets'
        lists are then by value descending, else by row."""
        values = self.csr.values
        return self.count >= _EARLY_STOP_ROWS and (values.size == 0 or bool(values.min() >= 0))

    def _list(self, bucket: int) -> tuple[np.ndarray, np.ndarray]:
        """Bucket ``bucket``'s postings ``(rows, values)``, built the first
        time a search reads it and kept. On a ``_by_value`` level they are by
        value descending (+0.0 before -0.0), then row ascending; on another,
        by row, as only the full pass reads them. The full pass's sums do
        not depend on that order: a row holds at most one entry per bucket,
        and ``bincount`` adds them in bucket order.

        Stored by one assignment, so a concurrent first search sees either
        none or all of it; two that both build it build the same lists.
        """
        found = self._lists.get(bucket)
        if found is not None:
            return found
        csr = self.csr
        # The entries come out row ascending.
        entries = np.flatnonzero(csr.columns == bucket)
        rows = np.searchsorted(csr.indptr, entries, "right") - 1
        values = csr.values[entries]
        if len(entries) > 1 and self._by_value:
            # A non-negative float32's bits with all but the sign flipped
            # sort, unsigned, in descending value order; one sort of the
            # unique (value key, row) pairs orders the bucket.
            key = np.bitwise_xor(values.view(np.uint32), 0x7FFFFFFF).astype(np.uint64)
            key <<= 32
            key |= rows.astype(np.uint64)
            key.sort()
            rows = (key & 0xFFFFFFFF).astype(rows.dtype)
            key >>= 32
            values = (key ^ 0x7FFFFFFF).astype(np.uint32).view(np.float32)
        self._lists[bucket] = found = (rows, values)
        return found

    def squared_norms(self) -> np.ndarray:
        return squared_norms(self.csr)

    def candidates(self, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The rows scoring at least the k-th best score, and their scores:
        every row, scored from the CSR rows with no postings read, when ``k``
        reaches the row count; else the early stop's rows, or the full pass's.
        """
        if k >= self.count:
            every = np.arange(self.count)
            return every, self._row_sums(every, query.astype(np.float64))
        found = self.early_candidates(query, k)
        if found is not None:
            return found
        sums = self.approx_scores(query)
        candidates = np.flatnonzero(sums >= _kth_largest(sums, k))
        return candidates, sums[candidates]

    def approx_scores(self, query: np.ndarray) -> np.ndarray:
        """Each row's score, ``cosine_similarity`` of it and ``query`` bit
        for bit: the float64 sum of ``x_ij q_j`` over the query's non-zero
        buckets, which ``bincount`` adds in bucket order from 0.0."""
        buckets = np.flatnonzero(query).tolist()
        lists = [(*self._list(j), float(query[j])) for j in buckets]
        rows = np.concatenate([rows for rows, _, _ in lists])
        # Products of float32 values are exact in float64.
        weights = np.concatenate(
            [np.multiply(values, q, dtype=np.float64) for _, values, q in lists]
        )
        return np.bincount(rows, weights=weights, minlength=self.count)

    def early_candidates(self, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray] | None:
        """The full pass's candidates, rows ascending, with their scores,
        found by reading each query list only as deep as the threshold stop
        needs; or None, and the caller takes the full pass.

        Reads the lists in rounds, ``_FIRST_DEPTH`` entries deep and
        ``_DEPTH_GROWTH`` times deeper each round, and scores every row read
        so far from its own CSR row (``_row_sums``); the last round's work
        bounds the earlier ones'. ``LevelIndex.search`` holds the proof of
        the stop and lists when it returns None.
        """
        buckets = np.flatnonzero(query).tolist()
        weights = [float(query[j]) for j in buckets]
        if not self._by_value or min(weights) < 0:
            return None
        lists = [self._list(j) for j in buckets]
        ends = [len(rows) for rows, _ in lists]
        query64 = query.astype(np.float64)
        # Both the frontier and a row's sum add at most |J| terms.
        inflation = 1.0 + 2.0 * gamma(len(lists))
        depth = _FIRST_DEPTH
        while True:
            read = [min(depth, e) for e in ends]
            depth *= _DEPTH_GROWTH
            seen = np.concatenate([rows[:r] for (rows, _), r in zip(lists, read)])
            # A row read from two lists is kept once, and rows ascend.
            seen.sort()
            once = np.ones(len(seen), dtype=bool)
            np.not_equal(seen[1:], seen[:-1], out=once[1:])
            seen = seen[once]
            exhausted = read == ends
            if len(seen) < k:
                if exhausted:
                    return None
                continue
            sums = self._row_sums(seen, query64)
            t_seen = _kth_largest(sums, k)
            if t_seen <= 0:
                return None
            if not exhausted:
                frontier = sum(
                    w * float(values[r]) for w, r, (_, values) in zip(weights, read, lists)
                    if r < len(values)
                )
                if not np.nextafter(frontier * inflation, math.inf) < t_seen:
                    continue
            keep = np.flatnonzero(sums >= t_seen)
            return seen[keep], sums[keep]

    def _row_sums(self, rows: np.ndarray, query64: np.ndarray) -> np.ndarray:
        """``approx_scores`` of ``rows`` only, bit for bit, from their CSR rows.

        Each row's exact products in the query's buckets are added in column
        order from 0.0, as the full pass's ``bincount`` adds them.
        """
        csr = self.csr
        first = csr.indptr[rows]
        lengths = csr.indptr[rows + 1] - first
        owner = np.repeat(np.arange(len(rows)), lengths)
        # Each entry's place in the CSR arrays: its row's first entry plus its rank in the row.
        entry = np.arange(len(owner)) + np.repeat(first - (np.cumsum(lengths) - lengths), lengths)
        weight = query64[csr.columns[entry]]
        hit = np.flatnonzero(weight)
        owner, entry = owner[hit], entry[hit]
        products = csr.values[entry] * weight[hit]
        return np.bincount(owner, products, minlength=len(rows))

    def blocks(self) -> list[np.ndarray]:
        """The arrays the level's stored blocks hold, in file order."""
        csr = self.csr
        return [csr.indptr, csr.columns, csr.values]


class LevelIndex:
    """Immutable embeddings of one level of a corpus, one row per chunk.

    Row ``i`` is the corpus's ``i``-th chunk at ``level``. The index keeps
    its corpus and that level's corpus rows, and reads chunk ids from the
    corpus's one id list, so it holds no ids of its own: the corpus has
    proved them unique, and free of a NUL and a lone surrogate.

    Built from a ``CsrBatch``, it keeps the rows as CSR; built from an
    ``(n, d)`` float32 block, it keeps them dense (``layout``), and neither
    is ever converted to the other. Every row must be finite with a squared
    norm inside float32 range; the dense search's error bound rests on it.
    Its rows are read only by ``search`` and ``save_index``.
    """

    def __init__(self, corpus: Corpus, level: Level, vectors: np.ndarray | CsrBatch) -> None:
        corpus_rows = corpus.rows_at(level)
        if len(corpus_rows) == 0:
            raise InvalidCorpusError(f"no entries for level {level.value!r}")
        rows = _CsrRows(vectors) if isinstance(vectors, CsrBatch) else _DenseRows(vectors)
        if rows.count != len(corpus_rows):
            raise InvalidInputError(f"{rows.count} rows do not match {len(corpus_rows)} ids")
        self.corpus = corpus
        self.level = level
        self._corpus_rows = corpus_rows
        self._rows = rows
        squared_norms = rows.squared_norms()
        bad = np.flatnonzero(~(squared_norms <= _F32_MAX))
        if bad.size:
            raise InvalidCorpusError(
                f"{bad.size} index rows are not finite or overflow float32, first "
                f"{next(self._ids_of(bad))!r}"
            )
        worst = np.argmax(np.abs(squared_norms - 1.0), keepdims=True)
        #: The row whose squared norm lies furthest from 1, and that norm;
        #: ``load_index`` refuses stored rows that are not unit.
        self._least_unit_row = (next(self._ids_of(worst)), float(squared_norms[worst[0]]))

    def _ids_of(self, rows: np.ndarray) -> Iterator[str]:
        """The chunk ids of index ``rows``, in their order."""
        return self.corpus.ids_of(self._corpus_rows[rows])

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

    def __len__(self) -> int:
        return self._rows.count

    def search(self, query: np.ndarray, k: int) -> tuple[list[int], list[float]]:
        """Exact top-k by cosine, ties broken by chunk id ascending: the
        hits' corpus rows and their scores, best first.

        Bit-identical to scoring every row with ``cosine_similarity`` and
        sorting. The ids are read only to order the hits; a caller reads
        theirs with ``corpus.ids_of``. Let ``c_i`` be row i's canonical
        score and ``c_(k)`` the k-th best. Search finds candidates that
        include every row with ``c_i >= c_(k)`` -- the true top k and
        everything tied with its last score -- and gives each its ``c_i``;
        selecting among them under the same order returns the full scan's
        hits exactly.

        A CSR level rescores nothing. Its first pass (``approx_scores``) adds
        the canonical routine's products in its order, less the zero ones,
        each of which leaves a partial sum that is never -0.0 as it is. So
        each sum is the row's ``c_i`` bit for bit, and the rows whose sum
        reaches the k-th largest are the candidates.

        The early stop (``_CsrRows.early_candidates``) finds a CSR level's
        candidates and scores while reading only the top of each query
        list: the threshold algorithm of Fagin, Lotem and Naor (PODS 2001)
        over impact-ordered postings (Anh and Moffat, SIGIR 2006). Let J be
        the query's non-zero buckets, each list holding its bucket's entries
        by value descending. Each round reads every list deeper and gives
        every row read so far its sum from its own CSR row: its exact
        products in J's buckets added in column order from 0.0, the full
        pass's additions in the full pass's order, so the sum is the row's
        ``c_i`` bit for bit. Once at least k rows are seen, let ``t_seen``
        be their k-th best sum. Let ``v_j`` be the next unread value of list
        j, or 0 once it is read to its end, and ``F`` the float64 sum of
        ``q_j v_j``. When every stored value and query weight is
        non-negative, an unseen row has ``x_ij <= v_j`` for every j, so with
        ``S`` the exact ``sum q_j v_j`` and ``m = |J| - 1``, both sums of at
        most |J| non-negative exact products give ``c_i <= (1 + gamma_m) S``
        and ``S <= F / (1 - gamma_m)``, in float64. Their ratio
        ``1 + gamma_2m`` lies below ``1 + 2 gamma_|J|`` by about 2u, which
        covers rounding that factor and the product, so ``F (1 + 2
        gamma_|J|)`` rounded up bounds every unseen ``c_i``. Once it lies
        below ``t_seen``, or every list is read to its end (an unseen row
        then holds none of J and scores exactly 0) and ``t_seen > 0``, every
        unseen row scores below ``t_seen``. Then the k rows at or above
        ``t_seen`` are all seen, so ``t_seen = c_(k)``, and the seen rows at
        or above it are exactly the candidates. The full pass runs instead
        on a level of fewer than ``_EARLY_STOP_ROWS`` rows, where the
        rounds' fixed costs outweigh it; on a level holding a negative
        value; for a query with a negative weight; when the lists run out
        with fewer than k rows seen; and once ``t_seen <= 0``, since the
        rows that no list holds score 0 and would be candidates too.

        A dense level's margin is proven at ``_DenseRows.candidates``.
        """
        if k < 1:
            raise InvalidInputError("k must be >= 1")
        candidates, scores = self._rows.candidates(ensure_unit(query, self.dimension), k)
        return self._best(candidates, scores, k)

    def _best(
        self, rows: np.ndarray, scores: np.ndarray, k: int
    ) -> tuple[list[int], list[float]]:
        """The corpus rows of the top k of ``scores``, index ``rows``, and
        their scores, best first, under (score descending, chunk id
        ascending)."""
        if len(scores) > k:
            kth = _kth_largest(scores, k)
            above = np.flatnonzero(scores > kth)
            tied = np.flatnonzero(scores == kth)
            need = k - len(above)
            if len(tied) > need:
                # The tied rows with the lowest chunk ids, by their ranks.
                ranks = self._id_ranks[rows[tied]]
                tied = tied[np.argpartition(ranks, need - 1)[:need]]
            keep = np.concatenate((above, tied))
            rows, scores = rows[keep], scores[keep]
        rows = self._corpus_rows[rows].tolist()
        # Sorted as Python values, each read out of numpy once; ``bincount``
        # adds no products, where the query's buckets hold no postings, into
        # integer zeros, which ``float`` makes scores.
        best = sorted(zip(scores.tolist(), self.corpus.ids_of(rows), rows),
                      key=lambda hit: (-hit[0], hit[1]))
        return [row for _, _, row in best], [float(score) for score, _, _ in best]

    @functools.cached_property
    def _id_ranks(self) -> np.ndarray:
        """Each row's place in chunk id order, built when ties first need it."""
        # An object array sorts by Python's str order, with no int per row;
        # the stable sort (timsort) runs ~4x faster over ids that come in
        # long ascending runs, as a corpus's do. The object array, filled
        # from the corpus's ids with no list between, is freed before the
        # int32 ranks are allocated.
        ids = self.corpus.ids_of(self._corpus_rows)
        order = np.argsort(np.fromiter(ids, dtype=object, count=len(self)), kind="stable")
        ranks = np.empty(len(self), dtype=np.int32)
        ranks[order] = np.arange(len(self), dtype=np.int32)
        return ranks


def build_index(corpus: Corpus, level: Level, provider: EmbeddingProvider) -> LevelIndex:
    """Embed every chunk at ``level`` and index it as that level of ``corpus``.

    The level is embedded in one ``embed_batch`` call of its
    ``Corpus.texts_at`` sequence, and the index keeps the rows in the layout
    the provider returned: a ``CsrBatch`` as CSR, with no dense block of it
    made, and an ``(n, d)`` block dense. No id is read: row ``i`` is the
    corpus's ``i``-th chunk at ``level``.
    """
    if level not in corpus.levels:
        raise InvalidCorpusError(f"corpus has no chunks at level {level.value!r}")
    # The texts are decoded only as the provider reads them, so the index is
    # built beside none of them.
    return LevelIndex(corpus, level, embed_batch(provider, corpus.texts_at(level)))


def save_index(index: LevelIndex) -> tuple[dict, list[np.ndarray]]:
    """The header entry and the blocks, in file order and file dtypes, that
    store ``index`` in its corpus's file (``corpus.save_corpus``).

    The entry holds the level, ``layout``, ``count`` and ``nnz``, the number
    of non-zeros. A dense level's block is the ``count x dimension``
    little-endian float32 matrix; a CSR level's are the ``count + 1``
    ``<i8`` row pointers, the ``nnz`` ``<u2`` columns and the ``nnz``
    ``<f4`` values. Row ``i`` belongs to the corpus's ``i``-th chunk at the
    level, so the ids live only in the corpus.
    """
    entry = {"level": index.level.value, "layout": index.layout, "count": len(index),
             "nnz": index.nnz}
    blocks = zip(index._rows.blocks(), _DTYPES[index.layout])
    return entry, [array.astype(dtype, copy=False) for array, dtype in blocks]


def parse_level(entry, dimension) -> tuple[tuple, list[int]]:
    """A level's header entry, as ``save_index`` wrote it beside the file's
    ``dimension``: its fields ``(level, layout, count, dimension, nnz)`` and
    the byte size of each of its blocks. Raises ``SnapshotFormatError`` for
    an unknown layout or sizes no index has, and what reading a malformed
    record raises for anything else."""
    level = Level(entry["level"])
    count, nnz = json_int(entry["count"], "count"), json_int(entry["nnz"], "nnz")
    dimension, layout = json_int(dimension, "dimension"), entry["layout"]
    if dimension < 1 or not 0 <= nnz <= count * dimension:
        raise SnapshotFormatError(f"bad {level.value} level sizes {entry}")
    if layout not in _DTYPES:
        raise SnapshotFormatError(f"unknown layout {layout!r}")
    lengths = [count * dimension] if layout == LAYOUT_DENSE else [count + 1, nnz, nnz]
    sizes = [n * np.dtype(dtype).itemsize for n, dtype in zip(lengths, _DTYPES[layout])]
    return (level, layout, count, dimension, nnz), sizes


def load_index(corpus: Corpus, fields: tuple, blocks: list[bytes]) -> LevelIndex:
    """The index of one level of ``corpus`` that ``save_index`` stored, from
    its ``parse_level`` fields and its blocks.

    Raises ``InvalidCorpusError`` (``InvalidInputError`` for a row count
    other than the corpus's at the level) for what no ``save_index`` wrote:
    CSR arrays that do not form a valid matrix, non-finite values, a number
    of non-zeros other than the entry's, and rows further from unit than
    any ``embed_batch`` returns (``embedding.unit_slack``).
    """
    level, layout, count, dimension, nnz = fields
    arrays = [np.frombuffer(block, dtype) for block, dtype in zip(blocks, _DTYPES[layout])]
    if layout == LAYOUT_DENSE:
        vectors = arrays[0].reshape(count, dimension)
    else:
        vectors = CsrBatch(*arrays, dimension)
    index = LevelIndex(corpus, level, vectors)
    if index.nnz != nnz:
        raise InvalidCorpusError(
            f"the {level.value} header entry counts {nnz} non-zeros, the rows hold {index.nnz}")
    chunk_id, squared_norm = index._least_unit_row
    if not abs(squared_norm - 1.0) <= unit_slack(index.dimension):
        raise InvalidCorpusError(f"row {chunk_id!r} is not unit (squared norm {squared_norm!r})")
    return index


#: Each layout's blocks, as file dtypes, in file order.
_DTYPES = {LAYOUT_DENSE: ("<f4",), LAYOUT_CSR: ("<i8", "<u2", "<f4")}
