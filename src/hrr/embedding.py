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
import threading
import weakref
from array import array
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache, partial
from itertools import chain
from operator import methodcaller
from typing import TYPE_CHECKING, Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from ._http import auth_headers, new_session, post_json
from .errors import (
    ConfigError,
    DimensionMismatchError,
    InvalidInputError,
    ProviderUnavailableError,
)
from .corpus import LevelTexts, narrowest
from .tokens import WordPunctTokenizer

if TYPE_CHECKING:
    import requests

    from .corpus import Corpus

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

    A batch of integer ``counts`` (one per entry, as the hashed-bow embedder
    counts its rows and as a counts level loads) holds no float values, in
    memory or in flight: a value is derived from its count and its row's
    norm when it is read (``values_of``). Only the rows' float64 norms are
    kept, taken the first time a value is read.
    """

    __slots__ = ("indptr", "columns", "dimension", "counts", "_values", "_norms")

    def __init__(
        self, indptr: np.ndarray, columns: np.ndarray, values: np.ndarray | None,
        dimension: int, counts: np.ndarray | None = None,
    ) -> None:
        self.indptr = indptr
        self.columns = columns
        #: The stored float32 values; None for a batch of counts.
        self._values = values
        self.dimension = dimension
        self.counts = counts
        self._norms: np.ndarray | None = None

    @property
    def values(self) -> np.ndarray:
        """Every entry's float32 value: the stored array, or a batch of
        counts' values derived afresh (``values_of``) and kept nowhere.
        Search and save never read a batch of counts so."""
        if self.counts is None:
            return self._values
        entry_rows = np.repeat(np.arange(len(self)), np.diff(self.indptr))
        return self.values_of(np.arange(self.nnz), entry_rows)

    @values.setter
    def values(self, values: np.ndarray) -> None:
        self._values = values

    def values_of(self, entries: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The float32 values of ``entries``, entry ``entries[i]`` lying in
        row ``rows[i]``, in any order. The one routine from counts to
        values: a count ``c`` becomes ``float32(c / norm)``, divided in
        float64, ``norm`` the square root of the row's sum of ``c**2``
        (``_row_norms``), so a value is the same bits whoever reads it."""
        if self.counts is None:
            return self._values[entries]
        norms = self._norms
        if norms is None:
            # Stored by one assignment, so a concurrent reader sees none or
            # all of them; two that both take them take the same array.
            self._norms = norms = _row_norms(self.counts, self.indptr)
        return (self.counts[entries] / norms[rows]).astype(np.float32)

    @property
    def nnz(self) -> int:
        """The number of stored entries."""
        return len(self.columns)

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
        out[self.columns[start:end]] = self.values_of(np.arange(start, end),
                                                      np.full(end - start, i))
        return out

    def problem(self) -> str | None:
        """What keeps these arrays from being a CSR matrix, or None.

        The row pointers must rise from 0 to ``nnz``, with one column index
        per value and per count, and each row's columns must be strictly
        ascending and in ``[0, dimension)``, so that no row can index out of
        range. A batch of counts must also hold no count of 0 and no empty
        row, so that each of its rows derives a unit row.
        """
        indptr, columns, nnz = self.indptr, self.columns, self.nnz
        for name, stored in (("values", self._values), ("counts", self.counts)):
            if stored is not None and len(stored) != nnz:
                return f"{nnz} column indexes for {len(stored)} {name}"
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
        if self.counts is not None:
            if nnz and not self.counts.min() >= 1:
                return "a stored count is 0"
            if (indptr[1:] == indptr[:-1]).any():
                return "a row of counts is empty"
        return None


#: Counts ``_row_norms`` squares at a time (or one longer row), which
#: bounds its float64 temporaries.
_DECODE_COUNTS = 1 << 15


def _row_norms(counts: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """The float64 norm of each CSR row of integer ``counts``, row ``i``
    holding ``counts[indptr[i]:indptr[i + 1]]``: the square root of the sum
    of its counts' squares. Each square is an exact integer in float64, and
    so is each row's sum (below ``2**53``), whatever order adds them. Every
    row must hold a count."""
    out = np.empty(len(indptr) - 1)
    rows, start = len(indptr) - 1, 0
    while start < rows:
        # Whole rows of at most ``_DECODE_COUNTS`` counts, or one row.
        stop = int(np.searchsorted(indptr, indptr[start] + _DECODE_COUNTS, "right")) - 1
        ptr = indptr[start : max(stop, start + 1) + 1]
        block = counts[ptr[0] : ptr[-1]].astype(np.float64)
        block *= block
        out[start : start + len(ptr) - 1] = np.sqrt(np.add.reduceat(block, ptr[:-1] - ptr[0]))
        start += len(ptr) - 1
    return out


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
    without a copy. A batch of counts is not read for that: ``problem``
    proves each of its rows derives a unit row (``CsrBatch.values_of``).
    Rejects an empty list, empty strings and strings that UTF-8 cannot
    encode; whitespace-only text is allowed (providers map it to a
    documented fallback vector). A corpus level's texts
    (``hrr.corpus.LevelTexts``) are not read for these checks: the corpus
    proved every span non-empty UTF-8 when it was built or loaded.
    """
    if len(texts) == 0:
        raise InvalidInputError("embed_batch requires at least one text")
    for i, text in enumerate(() if isinstance(texts, LevelTexts) else texts):
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
        if vectors.counts is not None:
            return vectors
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
    """Reject CSR rows of another dimension, values not float32, or not a CSR
    matrix."""
    if batch.dimension != dimension:
        raise DimensionMismatchError(f"expected dimension {dimension}, got {batch.dimension}")
    if batch.counts is None and batch.values.dtype != np.float32:
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


def _buckets(tokens: list[str], dimension: int) -> np.ndarray:
    """``_bucket`` of each token, with no Python call per token."""
    hashes = map(partial(hashlib.blake2b, digest_size=8), map(str.encode, tokens))
    return np.frombuffer(b"".join(map(methodcaller("digest"), hashes)), dtype=">u8") % dimension


def _runs(first: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indexes of runs ``first[i]`` to ``first[i] + lengths[i]``, one
    run after another, and where each run starts among them (and the end)."""
    before = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=before[1:])
    at = np.repeat(first - before[:-1], lengths)
    at += np.arange(len(at))
    return at, before


#: Characters of text, or tokens, in one block of a hashed-bow batch's rows
#: (or one longer row), in one document slice the piece table looks up, and
#: in its window. Building the 20-doc synth corpus's sentence index peaks
#: at 2.2 MB under tracemalloc at this bound, and at 3.1 MB at twice it.
_BLOCK_CHARS = 1 << 14

#: Pieces a piece table holds, and characters its pieces hold, before it is
#: emptied (the first also bounds its token buckets and the query path's
#: token cache); and the most characters of text it rests for at a time.
_MEMO_SIZE = 1 << 16
_MEMO_CHARS = 1 << 21
_MEMO_MAX_REST = 1 << 21


class PieceTable(dict):
    """A hashed-bow embedder's batch state, and its one memo of pieces: each
    distinct whitespace piece's run of buckets, stored once, and each
    token's bucket. Batches of texts and document slices go through it; a
    query does not.

    ``table[piece]`` is the piece's id, given on first sight; once the block
    that saw it is looked up, id ``i``'s buckets, one per token in order,
    are ``store[bounds[i]:bounds[i + 1]]``. Before a block, the table is
    emptied if it holds more than ``_MEMO_SIZE`` pieces or pieces of more
    than ``_MEMO_CHARS`` characters, so it is bounded by those plus one
    block's pieces; ``token_buckets`` is bounded so too.

    Looking pieces up pays only where they repeat; a block of new pieces is
    cheaper scanned whole. So the table counts, over a window of roughly
    the last ``_BLOCK_CHARS`` characters looked up, how many belonged to
    new pieces. While more than half did, it rests: the next blocks, for as
    many characters as that window plus twice the rest before (up to
    ``_MEMO_MAX_REST``), are scanned whole, and then a block is looked up
    again. Resting changes no result, only which of two exact paths runs.
    """

    def __init__(self, dimension: int) -> None:
        super().__init__()
        self.dimension = dimension
        #: Pieces given an id since the last block was looked up.
        self.new: list[str] = []
        self.bounds = array("q", [0])
        self.store = array("H")
        self.chars = 0
        self.token_buckets: dict[str, int] = {}
        #: Pieces whose buckets were computed, and texts scanned whole.
        self.misses = 0
        self.scanned = 0
        #: Characters looked up, and those of new pieces, in the window.
        self.looked = 0
        self.missed = 0
        #: Characters of text left to scan whole.
        self.resting = 0
        self._rest = 0

    def __missing__(self, piece: str) -> int:
        self.new.append(piece)
        piece_id = self[piece] = len(self)
        return piece_id

    def buckets(self, texts: list[str], chars: int) -> tuple[np.ndarray, np.ndarray]:
        """The bucket of every token of ``texts``, lowercased texts of
        ``chars`` characters in all, in order, and each text's token count."""
        if self.resting > 0:
            self.resting -= chars
            self.scanned += len(texts)
            return self.scan(texts)
        if len(self) > _MEMO_SIZE or self.chars > _MEMO_CHARS:
            self.clear()
            self.bounds, self.store, self.chars = array("q", [0]), array("H"), 0
        pieces = list(map(str.split, texts))
        per_text = np.fromiter(map(len, pieces), dtype=np.int64, count=len(pieces))
        ids = np.fromiter(map(self.__getitem__, chain.from_iterable(pieces)),
                          dtype=np.int64, count=int(per_text.sum()))
        del pieces
        self._learn(chars)
        bounds = np.frombuffer(self.bounds, dtype=np.int64)
        first = bounds[ids]
        lengths = bounds[ids + 1] - first
        del bounds  # a view of ``self.bounds``, which cannot grow while it lives
        # Each piece's run, gathered from the store in text order.
        at, before = _runs(first, lengths)
        piece_ends = np.zeros(len(texts) + 1, dtype=np.int64)
        np.cumsum(per_text, out=piece_ends[1:])
        return np.frombuffer(self.store, dtype=np.uint16)[at], np.diff(before[piece_ends])

    def scan(self, strings: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """The bucket of every token of ``strings``, each tokenized whole, in
        order, and each string's token count."""
        found = list(map(WordPunctTokenizer.tokens, strings))
        counts = np.fromiter(map(len, found), dtype=np.int64, count=len(found))
        found = list(chain.from_iterable(found))
        known = self.token_buckets
        if len(known) > _MEMO_SIZE:
            known.clear()
        new = [token for token in dict.fromkeys(found) if token not in known]
        if new:
            known.update(zip(new, _buckets(new, self.dimension).tolist()))
        return np.fromiter(map(known.__getitem__, found), dtype=np.uint16, count=len(found)), counts

    def _learn(self, looked: int) -> None:
        """Store the new pieces' bucket runs, out of a block of ``looked``
        characters, and judge whether to rest."""
        new, self.new = self.new, []
        missed = 0
        if new:
            buckets, counts = self.scan(new)
            self.store.frombytes(buckets.tobytes())
            self.bounds.frombytes((np.cumsum(counts) + self.bounds[-1]).tobytes())
            missed = sum(map(len, new))
            self.chars += missed
            self.misses += len(new)
        self.looked += looked
        self.missed += missed
        if 2 * self.missed > self.looked:
            self._rest = self.resting = min(2 * self._rest + self.looked, _MEMO_MAX_REST)
        else:
            self._rest = 0
        if self.looked > _BLOCK_CHARS:
            self.looked //= 2
            self.missed //= 2


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

    A batch comes back as a ``CsrBatch``, built a block of rows at a time
    (at most ``_BLOCK_CHARS`` characters or tokens, or one row): the
    block's ``row * dimension + bucket`` keys, one per token, are sorted,
    and each run of equal keys is one stored entry and its count, so no
    dense row is made and the cost does not grow with the dimension. The
    batch carries its counts and no values: each value is
    ``float32(count / norm)`` (``CsrBatch.values_of``), the norm taken over
    exact float64 integer squares, so the rows are bit-identical to the
    recipe applied one text at a time, whichever way their buckets were
    found.

    A corpus level (``hrr.corpus.LevelTexts``) is counted from token
    streams: each document is tokenized once per ingest, on the first of
    its corpus's levels, and the stream is kept only until every level of
    more than one row has been embedded. A document's stream is its text
    lowercased whole, one bucket per token (through the ``PieceTable``),
    and each row's range of tokens, the tokens inside its span. That is the
    recipe's token sequence for the row when lowercasing and tokenizing are
    both local there, which a cheap proof checks: the document is ASCII or
    holds neither ``İ`` (U+0130, whose lowercase is two code points) nor
    ``Σ`` (U+03A3, which lowercases by context), so each code point
    lowercases alone to one; and neither end of the row's span falls inside
    a token of the lowercased document. A row of any other document, or
    whose span cuts a token, falls back to the per-text path below on its
    decoded text; so do queries and every plain sequence of texts.

    On the per-text path a block's buckets come from the embedder's
    ``PieceTable``: each text is lowercased whole, as the recipe says (so
    context-dependent lowercasing such as a final sigma is unchanged), and
    split with ``str.split()``; the pieces' ids gather their runs of
    buckets with numpy, so no Python int is made per token, and the
    tokenizer runs once per distinct piece, not once per text. This is the
    recipe's token sequence exactly: a token holds no whitespace, and
    ``str.split`` splits where the tokenizer's ``\\s`` does (see
    ``hrr.tokens``). While the table rests, each text is tokenized whole
    instead. New tokens are hashed a list at a time (``_buckets``, equal to
    ``_bucket``). Batches share the table and the stream, so one runs at a
    time.

    A batch of one text, a query, comes back as a dense ``(1, d)`` block
    instead: search reads the query dense, and one row is built with fewer
    numpy calls so. Its text is lowercased and tokenized whole, and each
    token's bucket comes through an ``lru_cache`` of token to bucket.
    """

    name = "hashed-bow"

    def __init__(self, dimension: int = 384) -> None:
        if not 1 <= dimension <= MAX_CSR_DIMENSION:
            raise ConfigError(f"dimension must be between 1 and {MAX_CSR_DIMENSION}")
        self._dimension = dimension
        self._bucket = lru_cache(_MEMO_SIZE)(partial(_bucket, dimension=dimension))
        self._table = PieceTable(dimension)
        #: The streams of the corpus whose levels are being embedded.
        self._stream: _Stream | None = None
        #: Documents tokenized into a stream, and level rows that fell back
        #: to their text, over the embedder's life.
        self.streamed = 0
        self.fallback_rows = 0
        # The table and the stream are shared state: one batch uses them at a time.
        self._table_lock = threading.Lock()

    @property
    def dimension(self) -> int:
        return self._dimension

    def embed_batch(self, texts: Sequence[str]) -> CsrBatch | np.ndarray:
        if len(texts) == 1:
            return self._embed_one(texts[0])
        with self._table_lock:
            if isinstance(texts, LevelTexts):
                return self._embed_level(texts)
            sizes = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
            return self._embed_rows(sizes, partial(self._bucket_cells, texts))

    def _embed_rows(
        self, sizes: np.ndarray, cells_of: Callable[[int, int, int], np.ndarray]
    ) -> CsrBatch:
        """The rows of a batch whose row ``i`` weighs ``sizes[i]`` characters
        or tokens, a block at a time: ``cells_of(start, stop, size)`` gives
        ``(row - start) * dimension + bucket`` for every token of rows
        ``start`` to ``stop``, which weigh ``size`` in all, in an array of
        its own, which is sorted in place."""
        dimension = self._dimension
        ends = np.cumsum(sizes)
        indptr = np.zeros(len(sizes) + 1, dtype=np.int64)
        columns, counts = [], []
        start = 0
        while start < len(sizes):
            # One row or more, of at most ``_BLOCK_CHARS`` in all.
            taken = int(ends[start - 1]) if start else 0
            stop = max(start + 1, int(np.searchsorted(ends, taken + _BLOCK_CHARS, "right")))
            keys = cells_of(start, stop, int(ends[stop - 1]) - taken)
            # Each run of equal keys, sorted, is one cell and its count.
            keys.sort()
            firsts = np.flatnonzero(np.diff(keys, prepend=-1))
            block_counts = np.diff(firsts, append=len(keys))
            block_rows, cols = np.divmod(keys[firsts], dimension)
            counts.append(block_counts.astype(narrowest(block_counts)))
            columns.append(cols.astype(np.uint16))
            block_ptr = indptr[start + 1 : stop + 1]
            np.cumsum(np.bincount(block_rows, minlength=stop - start), out=block_ptr)
            block_ptr += indptr[start]
            start = stop
        # The counts at the widest of their blocks' widths.
        return CsrBatch(indptr, np.concatenate(columns), None, dimension, np.concatenate(counts))

    def _embed_level(self, texts: LevelTexts) -> CsrBatch:
        """The rows of a corpus level of more than one row, counted from its
        documents' streams where the proof holds (see the class docstring)."""
        stream = self._stream
        if stream is None or not stream.holds(texts):
            stream = self._stream = _Stream(texts.corpus, self._table)
            self.streamed += stream.streamed
        token_lo, token_hi, fallback = stream.ranges.pop(texts.level)
        if not stream.ranges:
            self._stream = None
        buckets = stream.buckets
        del stream
        self.fallback_rows += int(fallback.sum())
        # A row that falls back weighs its bytes, which are at least its characters.
        sizes = np.where(fallback, texts.end - texts.start, token_hi - token_lo)

        def cells_of(start: int, stop: int, _size: int) -> np.ndarray:
            fell = fallback[start:stop]
            own = np.flatnonzero(~fell)
            lo = token_lo[start:stop][own]
            counts = token_hi[start:stop][own] - lo
            cells = self._cells(own, counts, buckets[_runs(lo, counts)[0]])
            back = np.flatnonzero(fell)
            if len(back):
                lowered = [texts[start + row].lower() for row in back.tolist()]
                found, per_text = self._table.buckets(lowered, sum(map(len, lowered)))
                cells = np.concatenate([cells, self._cells(back, per_text, found)])
            return cells

        return self._embed_rows(sizes, cells_of)

    def _embed_one(self, text: str) -> np.ndarray:
        """The ``(1, d)`` block of one text."""
        buckets = list(map(self._bucket, WordPunctTokenizer.tokens(text.lower())))
        counts = np.bincount(buckets or [0], minlength=self._dimension)
        # An integer sum of squares, exact, as is its conversion to float.
        norm = math.sqrt(np.square(counts).sum())
        return (counts / norm).astype(np.float32).reshape(1, -1)

    def _bucket_cells(self, texts: Sequence[str], start: int, stop: int, chars: int) -> np.ndarray:
        """``(row - start) * dimension + bucket`` for every token of every
        text in ``texts[start:stop]``, which hold ``chars`` characters."""
        buckets, counts = self._table.buckets(list(map(str.lower, texts[start:stop])), chars)
        return self._cells(np.arange(stop - start), counts, buckets)

    def _cells(self, rows: np.ndarray, counts: np.ndarray, buckets: np.ndarray) -> np.ndarray:
        """``row * dimension + bucket`` for every token: row ``rows[i]`` holds
        the next ``counts[i]`` of ``buckets``. A row without tokens counts
        once in bucket 0."""
        cells = np.repeat(rows * self._dimension, counts)
        cells += buckets
        tokenless = rows[counts == 0]
        if len(tokenless):
            cells = np.concatenate([cells, tokenless * self._dimension])
        return cells


#: The code points whose lowercase is not one code point found alone: ``İ``
#: lowercases to two, and ``Σ`` to ``σ`` or ``ς`` by what surrounds it. A
#: tier-1 test checks every code point.
_NOT_LOCAL_LOWER = ("İ", "Σ")

_TOKENIZER = WordPunctTokenizer()


class _Stream:
    """The token streams of one corpus's documents, and each row's range of
    them, for every level of more than one row; a level's ranges leave
    ``ranges`` as the level is embedded.

    ``buckets`` holds, document after document, the bucket of each token
    of the document lowercased whole. ``ranges[level]`` holds, for each row
    of the level, the first of its tokens in ``buckets`` and the one after
    its last, and whether it falls back to its text: its document fails the
    proof, or an end of its span lies inside a token. Only each document's
    text, tokens and buckets are held while it is tokenized; no row's text
    is decoded.
    """

    def __init__(self, corpus: "Corpus", table: PieceTable) -> None:
        self.corpus = weakref.ref(corpus)
        levels = [corpus.texts_at(level) for level in corpus.levels]
        levels = [texts for texts in levels if len(texts) > 1]
        doc, start, end = (np.concatenate([getattr(texts, name) for texts in levels])
                           for name in ("doc", "start", "end"))
        token_lo = np.zeros(len(doc), dtype=np.int64)
        token_hi = np.zeros(len(doc), dtype=np.int64)
        fallback = np.ones(len(doc), dtype=bool)
        order = np.argsort(doc, kind="stable")
        documents = levels[0].documents
        bounds = np.searchsorted(doc[order], np.arange(len(documents) + 1)).tolist()
        found: list[np.ndarray] = []
        base = self.streamed = 0
        for row, data in enumerate(documents):
            rows = order[bounds[row] : bounds[row + 1]]
            if not len(rows):
                continue
            text = data.decode("utf-8")
            if not text.isascii() and any(char in text for char in _NOT_LOCAL_LOWER):
                continue
            lowered = text.lower()
            del text
            starts, ends = _TOKENIZER.token_spans(lowered)
            found.append(_stream_buckets(table, lowered, starts))
            del lowered
            low, high = start[rows], end[rows]
            if not data.isascii():  # byte offsets to code point offsets
                leads = np.flatnonzero((np.frombuffer(data, dtype=np.uint8) & 0xC0) != 0x80)
                low, high = np.searchsorted(leads, low), np.searchsorted(leads, high)
            # The tokens starting inside the span; with no token cut, those
            # are the tokens inside it.
            lo, hi = np.searchsorted(starts, low), np.searchsorted(starts, high)
            # ``before[i]`` is where token ``i - 1`` ends (0 for the first),
            # so ``before[lo]`` is where the last token starting before the
            # span's start ends: past the start, that token is cut.
            before = np.zeros(len(ends) + 1, dtype=np.int64)
            before[1:] = ends
            token_lo[rows], token_hi[rows] = lo + base, hi + base
            fallback[rows] = (before[lo] > low) | (before[hi] > high)
            base += len(starts)
            self.streamed += 1
        self.buckets = np.concatenate(found) if found else np.zeros(0, dtype=np.uint16)
        at = np.cumsum([0, *map(len, levels)]).tolist()
        self.ranges = {texts.level: (token_lo[a:b], token_hi[a:b], fallback[a:b])
                       for texts, a, b in zip(levels, at, at[1:])}

    def holds(self, texts: LevelTexts) -> bool:
        """Whether ``texts``'s ranges are here, not yet embedded."""
        return self.corpus() is texts.corpus and texts.level in self.ranges


def _stream_buckets(table: PieceTable, lowered: str, starts: np.ndarray) -> np.ndarray:
    """The bucket of each token of ``lowered``, whose tokens start at
    ``starts``, looked up in ``table`` a slice of about ``_BLOCK_CHARS``
    characters at a time. A slice is cut at a token's start, where no token
    is cut, so its tokens are the text's."""
    cuts = np.searchsorted(starts, np.arange(_BLOCK_CHARS, len(lowered), _BLOCK_CHARS))
    # A token longer than a slice is found for more than one cut; keep it once
    # (not with np.unique, which imports numpy.ma, ~1 MB, on first use).
    cuts = [0, *dict.fromkeys(starts[cuts[cuts < len(starts)]].tolist()), len(lowered)]
    return np.concatenate([table.buckets([lowered[a:b]], b - a)[0]
                           for a, b in zip(cuts, cuts[1:])])


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
        #: The service's URL, as the file's footer records it.
        self.base_url = base_url.rstrip("/")
        self._url = self.base_url + "/embed"
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
