"""Embedding providers and vector helpers.

All vectors entering the pipeline are float32, finite, and unit-norm, so
the index can use a plain dot product as cosine similarity. Two providers
ship with the package: a deterministic hashed bag-of-words embedder for
offline runs and tests, and a client for a remote embedding service.

A provider returns a batch as a dense ``(n, d)`` float32 block or as
compressed sparse rows (``CsrBatch``). A hashed bag-of-words row holds a
dozen non-zeros of 384 buckets, so that embedder returns CSR and no dense
block of its rows is ever built.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache, partial
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from ._http import auth_headers, new_session, post_json
from .errors import (
    ConfigError,
    DimensionMismatchError,
    InvalidInputError,
    ProviderUnavailableError,
)
from . import tokens
from .tokens import WordPunctTokenizer

if TYPE_CHECKING:
    import requests

_NORM_TOLERANCE = 1e-6

#: CSR rows whose norms are taken at a time, which bounds the temporaries.
_NORM_ROWS = 1024

#: The most columns a ``<u2`` CSR column index addresses.
MAX_CSR_DIMENSION = 1 << 16


class CsrBatch:
    """A batch of float32 rows in compressed sparse row (CSR) form.

    Row ``i`` holds ``values[indptr[i]:indptr[i + 1]]`` at the columns in
    the same slice of ``columns``, ascending; its other entries are 0. The
    batch is a sequence of rows through ``len`` and ``batch[i]``, a dense
    ``(dimension,)`` float32 copy of row ``i``: a query of one text reads
    its row so.
    """

    __slots__ = ("indptr", "columns", "values", "dimension")

    def __init__(
        self, indptr: np.ndarray, columns: np.ndarray, values: np.ndarray, dimension: int
    ) -> None:
        self.indptr = indptr
        self.columns = columns
        self.values = values
        self.dimension = dimension

    @property
    def nnz(self) -> int:
        """The number of stored entries."""
        return len(self.values)

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, i: int) -> np.ndarray:
        if i < 0:
            i += len(self)
            if i < 0:
                raise IndexError("row index out of range")
        # Past the last row, indptr[i + 1] raises the IndexError.
        start, end = self.indptr[i], self.indptr[i + 1]
        out = np.zeros(self.dimension, dtype=np.float32)
        out[self.columns[start:end]] = self.values[start:end]
        return out

    def problem(self) -> str | None:
        """What keeps these arrays from being a CSR matrix, or None.

        The row pointers must rise from 0 to ``nnz``, with one column index
        per value, and each row's columns must be strictly ascending and in
        ``[0, dimension)``, so that no row can index out of range.
        """
        indptr, columns, nnz = self.indptr, self.columns, self.nnz
        if len(columns) != nnz:
            return f"{len(columns)} column indexes for {nnz} values"
        if indptr[0] != 0 or indptr[-1] != nnz or (indptr[1:] < indptr[:-1]).any():
            return f"row pointers do not rise from 0 to the {nnz} stored non-zeros"
        if nnz and not (0 <= int(columns.min()) and int(columns.max()) < self.dimension):
            return f"a column index lies outside [0, {self.dimension})"
        # Entries p - 1 and p may descend only where p starts a row.
        descending = columns[1:] <= columns[:-1]
        starts = indptr[(indptr > 0) & (indptr < nnz)]
        descending[starts - 1] = False
        if descending.any():
            return "columns are not strictly ascending within a row"
        return None

    def entry_rows(self) -> np.ndarray:
        """The row of every stored entry."""
        indptr = self.indptr
        dtype = np.int32 if len(indptr) <= 2**31 else np.int64
        return np.repeat(np.arange(len(indptr) - 1, dtype=dtype), indptr[1:] - indptr[:-1])


@runtime_checkable
class EmbeddingProvider(Protocol):
    """Contract every embedder must satisfy.

    Deterministic (same text, same vector), and every output has the
    provider's declared dimension.
    """

    name: str

    @property
    def dimension(self) -> int: ...

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray | CsrBatch:
        """One row per text, in order: an ``(n, dimension)`` float32 block,
        or the same rows as a ``CsrBatch``.

        The rows must be fresh arrays that pass to the caller, which may
        normalize rows in place and freeze them inside an index. The type
        returned is the index's layout: CSR rows are stored as CSR and a
        block dense. A provider whose rows are mostly zeros returns CSR, so
        that no dense block is built or stored for them.
        """
        ...


def gamma(d: int, u: float = 2.0**-53) -> float:
    """Higham's gamma_d, bounding a length-d sum's relative error at roundoff u."""
    return d * u / (1.0 - d * u)


def squared_norms(rows: np.ndarray | CsrBatch) -> np.ndarray:
    """Each row's float64 sum of its entries' exact squares, within ``gamma_d``
    of exact and with no BLAS call. CSR rows must pass ``CsrBatch.problem``."""
    if not isinstance(rows, CsrBatch):
        # einsum casts a buffer at a time, so no float64 copy of the block is made.
        return np.einsum("ij,ij->i", rows, rows, dtype=np.float64)
    out = np.zeros(len(rows))
    for start in range(0, len(rows), _NORM_ROWS):
        ptr = rows.indptr[start : start + _NORM_ROWS + 1]
        # An empty row adds nothing, so each non-empty row's run of
        # entries ends where the next non-empty row's begins.
        nonempty = np.flatnonzero(ptr[1:] > ptr[:-1])
        if nonempty.size:
            squares = np.square(rows.values[ptr[0] : ptr[-1]], dtype=np.float64)
            out[start + nonempty] = np.add.reduceat(squares, ptr[nonempty] - ptr[0])
    return out


def unit_slack(dimension: int) -> float:
    """How far from 1 a stored row's ``squared_norms`` may lie: ``ensure_unit``
    held its norm to the tolerance, and ``2 gamma_d`` covers order and rounding."""
    return (1.0 + _NORM_TOLERANCE) ** 2 * (1.0 + 2.0 * gamma(dimension)) - 1.0


def ensure_unit(vector, dimension: int | None = None) -> np.ndarray:
    """Validate a vector at the pipeline boundary and return it unit-norm.

    Vectors whose norm, ``sqrt(cosine_similarity(v, v))``, lies within 1e-6
    of 1 pass through bit-identically; others are divided by it in float64
    and rounded to float32. Non-finite entries and zero vectors are rejected.
    """
    arr = np.asarray(vector, dtype=np.float32)
    if arr.ndim != 1:
        raise InvalidInputError(f"expected a 1-d vector, got shape {arr.shape}")
    if dimension is not None and arr.shape[0] != dimension:
        raise DimensionMismatchError(f"expected dimension {dimension}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("vector has non-finite entries")
    norm = math.sqrt(cosine_similarity(arr, arr))
    if norm == 0.0:
        raise InvalidInputError("zero vector cannot be normalized")
    if abs(norm - 1.0) > _NORM_TOLERANCE:
        arr = (arr.astype(np.float64) / norm).astype(np.float32)
    return arr


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product of two unit vectors, computed in float64.

    This is the one scoring routine in the package, defined to the bit: the
    float64 products ``a_j * b_j``, exact for float32 inputs, are added one
    at a time in ascending ``j`` from +0.0. So a score is the same under
    every BLAS kernel, and it is never -0.0: no sum from +0.0 gives -0.0.
    A zero product leaves such a partial sum's bits as they are, so a CSR
    index's postings sum, the same additions with the zero products left
    out, is this score too. Exact search returns this score for every hit,
    so it is reproducible against a naive rescan.
    """
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shapes differ: {a.shape} vs {b.shape}")
    return float(cosine_similarities(a, b))


def cosine_similarities(rows: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``cosine_similarity`` of each row of ``rows`` (along its last axis)
    and ``b``, bit for bit, for many rows in one numpy pass."""
    products = np.multiply(rows, b, dtype=np.float64)
    if products.shape[-1] == 0:
        return np.zeros(products.shape[:-1])
    # accumulate adds strictly left to right along the axis, where a BLAS
    # dot and np.sum may reassociate. It starts from the first product, not from
    # +0.0 plus it, which differs only when every product is -0.0; adding
    # +0.0 mends that.
    return np.add.accumulate(products, axis=-1)[..., -1] + 0.0


def encodes_as_utf8(text: str) -> bool:
    """Whether ``text`` holds no lone surrogate, the one thing UTF-8 cannot
    encode: what Python makes of undecodable bytes in a name or an argument,
    or of a ``\\udc80`` escape in JSON."""
    if text.isascii():
        return True
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def embed_batch(provider: EmbeddingProvider, texts: Sequence[str]) -> np.ndarray | CsrBatch:
    """Embed texts through ``provider`` with boundary validation.

    Order-preserving: one unit-norm float32 row per input, as the provider's
    ``(n, dimension)`` block or ``CsrBatch``. Every row comes out as
    ``ensure_unit`` would return it: one check over all the rows'
    ``squared_norms`` passes those plainly unit untouched, and only the rest
    (``_rows_off_unit``) go through ``ensure_unit`` itself. A writeable
    float32 block and a ``CsrBatch`` are validated in place and returned
    without a copy. Rejects an empty list, empty strings and strings that
    UTF-8 cannot encode; whitespace-only text is allowed (providers map it
    to a documented fallback vector).
    """
    if len(texts) == 0:
        raise InvalidInputError("embed_batch requires at least one text")
    for i, text in enumerate(texts):
        if not isinstance(text, str) or text == "":
            raise InvalidInputError(f"texts[{i}] is not a non-empty string")
        if not encodes_as_utf8(text):
            raise InvalidInputError(f"texts[{i}] holds a lone surrogate, not UTF-8 text")
    vectors = provider.embed_batch(texts)
    if len(vectors) != len(texts):
        raise ProviderUnavailableError(
            f"provider {provider.name!r} returned {len(vectors)} vectors for {len(texts)} texts"
        )
    dimension = provider.dimension
    if isinstance(vectors, CsrBatch):
        _check_csr(vectors, dimension)
        indptr, values = vectors.indptr, vectors.values
        for i in _rows_off_unit(squared_norms(vectors), dimension):
            start, end = indptr[i], indptr[i + 1]
            # The unstored entries are 0: they add nothing to the norm, and
            # ensure_unit divides entry by entry.
            values[start:end] = ensure_unit(values[start:end])
        return vectors
    block = vectors
    if not (isinstance(block, np.ndarray) and block.dtype == np.float32 and block.flags.writeable):
        try:
            block = np.array(vectors, dtype=np.float32)
        except ValueError as exc:
            raise InvalidInputError(f"provider rows do not form one block: {exc}") from None
    if block.ndim != 2:
        raise InvalidInputError(f"expected an (n, d) block of vectors, got shape {block.shape}")
    if block.shape[1] != dimension:
        raise DimensionMismatchError(f"expected dimension {dimension}, got {block.shape[1]}")
    for i in _rows_off_unit(squared_norms(block), dimension):
        block[i] = ensure_unit(block[i])
    return block


def _check_csr(batch: CsrBatch, dimension: int) -> None:
    """Reject CSR rows of another dimension, not float32, or not a CSR matrix."""
    if batch.dimension != dimension:
        raise DimensionMismatchError(f"expected dimension {dimension}, got {batch.dimension}")
    if batch.values.dtype != np.float32:
        raise InvalidInputError(f"CSR values must be float32, got {batch.values.dtype}")
    problem = batch.problem()
    if problem is not None:
        raise InvalidInputError(f"malformed CSR rows: {problem}")


def _rows_off_unit(sums: np.ndarray, dimension: int) -> np.ndarray | tuple[()]:
    """The rows ``ensure_unit`` might not pass through unchanged.

    ``sums`` are the rows' ``squared_norms``, each within ``2 * gamma_d`` of
    the column-order sum ``ensure_unit`` takes, so ``ensure_unit`` passes a
    row through bit-identically if its norm lies within the tolerance by
    ``d * 2**-50`` or more, a margin that also covers the square root's
    rounding. With ``t`` the tolerance less that margin, ``|s - 1| <= 2t -
    t**2`` puts ``sqrt(s)`` within ``t`` of 1; near 1, ``s - 1`` is exact.
    Every other row (off unit, near the tolerance, zero or not finite) is
    returned, to be handed to ``ensure_unit``.
    """
    t = _NORM_TOLERANCE - dimension * 2.0**-50
    bound = 2.0 * t - t * t
    off = np.abs(sums - 1.0)
    if off.max() <= bound:
        return ()
    return np.flatnonzero(~(off <= bound))


def _bucket(token: str, dimension: int) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % dimension


#: Count cells (rows times dimension) one block of a hashed-bow batch holds;
#: the temporaries of an embed stay near 8 bytes per cell.
_BLOCK_CELLS = 1 << 15


class HashedBowEmbedder:
    """Deterministic hashed bag-of-words embedder.

    Recipe: lowercase the text, tokenize with the word-punct tokenizer, hash
    each token with BLAKE2b (digest_size 8, unkeyed), reduce the digest as a
    big-endian integer modulo the dimension to pick a bucket, accumulate
    counts, L2-normalize. The vector is therefore invariant to word order;
    it captures keyword overlap, not semantics, which is exactly what
    deterministic offline runs need. Text with no tokens maps to the first
    basis vector. The dimension lies in ``1..MAX_CSR_DIMENSION``, so that
    every bucket fits a ``<u2`` CSR column.

    A batch comes back as a ``CsrBatch``, built a block of rows at a time:
    one ``np.bincount`` counts every (row, bucket) pair of the block, so no
    dense row is made. Each value is ``float32(count / norm)`` with the
    norm taken over exact float64 integer squares, so the rows are
    bit-identical to the recipe applied one text at a time. A batch of one
    text, a query, comes back as a dense ``(1, d)`` block instead: search
    reads the query dense, and one row is built with fewer numpy calls so.

    Where pieces repeat, the tokenizer runs once per distinct piece, not
    once per text: a row's buckets come from the embedder's
    ``hrr.tokens.Memo`` of piece to bucket list, over the ``str.split()``
    pieces of the lowercased text in order, and each token's bucket from
    an ``lru_cache`` of token to bucket. This is the recipe's token sequence
    exactly: a token holds no whitespace, and ``str.split`` splits where the
    tokenizer's ``\\s`` does (see ``hrr.tokens``). The whole text is
    lowercased before it is split, as the recipe says, so context-dependent
    lowercasing such as a final sigma is unchanged. While the memo rests, a
    text is tokenized whole and its tokens looked up in the cache one by
    one, as before the memo.
    """

    name = "hashed-bow"

    def __init__(self, dimension: int = 384) -> None:
        if not 1 <= dimension <= MAX_CSR_DIMENSION:
            raise ConfigError(f"dimension must be between 1 and {MAX_CSR_DIMENSION}")
        self._dimension = dimension
        bucket = lru_cache(tokens._MEMO_SIZE)(partial(_bucket, dimension=dimension))
        scan = WordPunctTokenizer.tokens
        # Lists, not tuples: CPython keeps freed short tuples on free lists,
        # so a batch's resting texts would leave thousands of them behind.
        self._pieces = tokens.Memo(lambda text: list(map(bucket, scan(text))), _joined)

    @property
    def dimension(self) -> int:
        return self._dimension

    def embed_batch(self, texts: Sequence[str]) -> CsrBatch | np.ndarray:
        if len(texts) == 1:
            return self._embed_one(texts[0])
        dimension = self._dimension
        step = max(1, _BLOCK_CELLS // dimension)
        indptr = np.zeros(len(texts) + 1, dtype=np.int64)
        columns, values = [], []
        for start in range(0, len(texts), step):
            block = texts[start : start + step]
            counts = np.bincount(self._bucket_cells(block))
            cells = np.flatnonzero(counts)
            rows, cols = np.divmod(cells, dimension)
            counts = counts[cells].astype(np.float64)
            norms = np.sqrt(np.bincount(rows, weights=counts * counts))
            values.append((counts / norms[rows]).astype(np.float32))
            columns.append(cols.astype(np.uint16))
            row_ends = indptr[start + 1 : start + 1 + len(block)]
            np.cumsum(np.bincount(rows, minlength=len(block)), out=row_ends)
            row_ends += indptr[start]
        # One array joined at a time, its pieces freed before the next.
        values = np.concatenate(values)
        return CsrBatch(indptr, np.concatenate(columns), values, dimension)

    def _embed_one(self, text: str) -> np.ndarray:
        """The ``(1, d)`` block of one text."""
        buckets = self._buckets_of(text)
        counts = np.bincount(buckets or [0], minlength=self._dimension)
        # An integer sum of squares, exact, as is its conversion to float.
        norm = math.sqrt(np.square(counts).sum())
        return (counts / norm).astype(np.float32).reshape(1, -1)

    def _bucket_cells(self, block: Sequence[str]) -> np.ndarray:
        """``row * dimension + bucket`` for every token of every text in ``block``.

        A text without tokens counts once in bucket 0.
        """
        buckets_of = self._buckets_of
        flat: list[int] = []
        lengths: list[int] = []
        for text in block:
            before = len(flat)
            flat.extend(buckets_of(text))
            if len(flat) == before:
                flat.append(0)
            lengths.append(len(flat) - before)
        cells = np.array(flat, dtype=np.int64)
        cells += np.repeat(np.arange(0, len(block) * self._dimension, self._dimension), lengths)
        return cells

    def _buckets_of(self, text: str) -> list[int]:
        """The bucket of each token of ``text.lower()``, in order."""
        return self._pieces.of(text.lower())


def _joined(lists: Iterable[list[int]]) -> list[int]:
    return list(chain.from_iterable(lists))


class RemoteEmbedder:
    """Client for a remote embedding service.

    Wire contract: ``POST {base_url}/embed`` with ``{"texts": [...]}``;
    response ``{"vectors": [[...], ...], "dimension": int}``. Requests are
    batched (default 64 texts) with at most ``max_in_flight`` concurrent
    calls, and each call retries with exponential backoff before giving up
    with ``ProviderUnavailableError``. A response whose dimension disagrees
    with the configured one raises ``DimensionMismatchError`` immediately.
    """

    name = "remote"

    def __init__(
        self,
        base_url: str,
        dimension: int,
        *,
        timeout: float = 10.0,
        retries: int = 3,
        batch_size: int = 64,
        max_in_flight: int = 4,
        api_key_env: str | None = None,
        session: requests.Session | None = None,
    ) -> None:
        self._url = base_url.rstrip("/") + "/embed"
        self._dimension = dimension
        self._timeout = timeout
        self._retries = retries
        self._batch_size = batch_size
        self._max_in_flight = max_in_flight
        self._session = session if session is not None else new_session()
        self._headers = auth_headers(api_key_env)

    @property
    def dimension(self) -> int:
        return self._dimension

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        out = np.empty((len(texts), self._dimension), dtype=np.float32)
        starts = range(0, len(texts), self._batch_size)

        def fill(start: int) -> None:
            end = start + self._batch_size
            self._embed_one_batch(list(texts[start:end]), out[start:end])

        if len(starts) == 1:
            fill(0)
        else:
            workers = min(self._max_in_flight, len(starts))
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(fill, starts))
        return out

    def _embed_one_batch(self, texts: list[str], out: np.ndarray) -> None:
        """Embed one request's texts into the rows of ``out``."""
        payload = post_json(
            self._session, self._url, {"texts": texts},
            timeout=self._timeout, retries=self._retries, headers=self._headers,
        )
        try:
            vectors = payload["vectors"]
            reported = payload["dimension"]
            # A JSON integer, never coerced: not a bool, float or string.
            if type(reported) is not int:
                raise TypeError(f"dimension {reported!r} is not an integer")
            received = len(vectors)
        except (KeyError, TypeError, ValueError) as exc:
            raise ProviderUnavailableError(f"malformed embed response: {exc}") from exc
        if reported != self._dimension:
            raise DimensionMismatchError(
                f"service reports dimension {reported}, configured {self._dimension}"
            )
        if received != len(texts):
            raise ProviderUnavailableError(
                f"embed response has {received} vectors for {len(texts)} texts"
            )
        for row, vec in zip(out, vectors):
            try:
                arr = np.asarray(vec)
            except ValueError as exc:  # ragged nesting
                raise ProviderUnavailableError(f"malformed embed response: {exc}") from exc
            if arr.dtype.kind not in "iuf":
                raise ProviderUnavailableError(
                    f"malformed embed response: vector elements are not numbers ({arr.dtype})"
                )
            arr = arr.astype(np.float32)
            if arr.ndim != 1 or arr.shape[0] != self._dimension:
                raise DimensionMismatchError(
                    f"service returned a vector of dimension {arr.shape}, "
                    f"configured {self._dimension}"
                )
            if not np.all(np.isfinite(arr)):
                raise ProviderUnavailableError("embed response contains non-finite values")
            row[:] = arr
