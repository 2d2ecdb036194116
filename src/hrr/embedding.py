"""Embedding providers and vector helpers.

All vectors entering the pipeline are float32, finite, and unit-norm, so
the index can use a plain dot product as cosine similarity. Two providers
ship with the package: a deterministic hashed bag-of-words embedder for
offline runs and tests, and a client for a remote embedding service.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from typing import Protocol, Sequence, runtime_checkable

import numpy as np
import requests

from ._http import auth_headers, post_json
from .errors import (
    ConfigError,
    DimensionMismatchError,
    InvalidInputError,
    ProviderUnavailableError,
)
from .tokens import WordPunctTokenizer

_NORM_TOLERANCE = 1e-6


@runtime_checkable
class EmbeddingProvider(Protocol):
    """Contract every embedder must satisfy.

    Deterministic (same text, same vector), and every output has the
    provider's declared dimension.
    """

    name: str

    @property
    def dimension(self) -> int: ...

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """One row per text, in order: an ``(n, dimension)`` float32 block.

        The block must be a fresh array that passes to the caller, which may
        normalize its rows in place and freeze it inside an index.
        """
        ...


def ensure_unit(vector, dimension: int | None = None) -> np.ndarray:
    """Validate a vector at the pipeline boundary and return it unit-norm.

    Vectors already within 1e-6 of unit norm pass through bit-identically;
    anything else is renormalized. Non-finite entries and zero vectors are
    rejected.
    """
    arr = np.asarray(vector, dtype=np.float32)
    if arr.ndim != 1:
        raise InvalidInputError(f"expected a 1-d vector, got shape {arr.shape}")
    if dimension is not None and arr.shape[0] != dimension:
        raise DimensionMismatchError(f"expected dimension {dimension}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("vector has non-finite entries")
    norm = float(np.linalg.norm(arr.astype(np.float64)))
    if norm == 0.0:
        raise InvalidInputError("zero vector cannot be normalized")
    if abs(norm - 1.0) > _NORM_TOLERANCE:
        arr = (arr.astype(np.float64) / norm).astype(np.float32)
    return arr


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product of two unit vectors, computed in float64.

    This is the one scoring routine in the package; index search rescores
    its candidates with it so exact search is reproducible against a naive
    rescan.
    """
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shapes differ: {a.shape} vs {b.shape}")
    return float(np.dot(a.astype(np.float64, copy=False), b.astype(np.float64, copy=False)))


def embed_batch(provider: EmbeddingProvider, texts: Sequence[str]) -> np.ndarray:
    """Embed texts through ``provider`` with boundary validation.

    Order-preserving: one unit-norm float32 row per input, in one
    ``(n, dimension)`` block. Each row goes through ``ensure_unit``; a
    writeable float32 array from the provider is validated in place and
    returned without a copy. Rejects an empty list and empty strings;
    whitespace-only text is allowed (providers map it to a documented
    fallback vector).
    """
    if len(texts) == 0:
        raise InvalidInputError("embed_batch requires at least one text")
    for i, text in enumerate(texts):
        if not isinstance(text, str) or text == "":
            raise InvalidInputError(f"texts[{i}] is not a non-empty string")
    vectors = provider.embed_batch(texts)
    if len(vectors) != len(texts):
        raise ProviderUnavailableError(
            f"provider {provider.name!r} returned {len(vectors)} vectors for {len(texts)} texts"
        )
    dimension = provider.dimension
    if isinstance(vectors, np.ndarray) and vectors.dtype == np.float32 and vectors.flags.writeable:
        block = vectors
    else:
        block = np.empty((len(texts), dimension), dtype=np.float32)
    for i, vector in enumerate(vectors):
        block[i] = ensure_unit(vector, dimension)
    return block


@lru_cache(maxsize=1 << 16)
def _bucket(token: str, dimension: int) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % dimension


class HashedBowEmbedder:
    """Deterministic hashed bag-of-words embedder.

    Recipe: lowercase the text, tokenize with the word-punct tokenizer, hash
    each token with BLAKE2b (digest_size 8, unkeyed), reduce the digest as a
    big-endian integer modulo the dimension to pick a bucket, accumulate
    counts, L2-normalize. The vector is therefore invariant to word order;
    it captures keyword overlap, not semantics, which is exactly what
    deterministic offline runs need. Text with no tokens maps to the first
    basis vector.
    """

    name = "hashed-bow"

    def __init__(self, dimension: int = 384) -> None:
        if dimension < 1:
            raise ConfigError("dimension must be >= 1")
        self._dimension = dimension
        self._tokenizer = WordPunctTokenizer()

    @property
    def dimension(self) -> int:
        return self._dimension

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        dimension = self._dimension
        # One block for every output row: a float32 array per text, allocated
        # between the per-text temporaries, fragments the heap (+15 MB peak
        # RSS over the 75k texts of a 200-doc ingest).
        out = np.empty((len(texts), dimension), dtype=np.float32)
        for row, text in zip(out, texts):
            buckets = [_bucket(token, dimension) for token in self._tokenizer.tokens(text.lower())]
            counts = np.bincount(buckets, minlength=dimension).astype(np.float64)
            norm = float(np.linalg.norm(counts))
            if norm == 0.0:
                counts[0] = 1.0
                norm = 1.0
            row[:] = counts / norm
        return out


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
        self._session = session if session is not None else requests.Session()
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
            reported = int(payload["dimension"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProviderUnavailableError(f"malformed embed response: {exc}") from exc
        if reported != self._dimension:
            raise DimensionMismatchError(
                f"service reports dimension {reported}, configured {self._dimension}"
            )
        if len(vectors) != len(texts):
            raise ProviderUnavailableError(
                f"embed response has {len(vectors)} vectors for {len(texts)} texts"
            )
        for row, vec in zip(out, vectors):
            arr = np.asarray(vec, dtype=np.float32)
            if arr.ndim != 1 or arr.shape[0] != self._dimension:
                raise DimensionMismatchError(
                    f"service returned a vector of dimension {arr.shape}, "
                    f"configured {self._dimension}"
                )
            if not np.all(np.isfinite(arr)):
                raise ProviderUnavailableError("embed response contains non-finite values")
            row[:] = ensure_unit(arr)
