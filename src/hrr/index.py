"""Per-level vector index with exact top-k search.

Search is exact: it returns what a full scan would, scoring every entry
with the package's one cosine routine and selecting the top k under the
total order (score descending, chunk id ascending). That order makes
results a deterministic function of (index, query, k), and the naive full
rescan stays the correctness oracle in the tests.

The scan is done in two passes, the structure of an exact flat index
(Johnson, Douze, Jegou, arXiv 1702.08734). One float32 BLAS matrix-vector
product gives every entry an approximate score; only the entries whose
approximate score lies within a proven rounding-error margin of the k-th
best are rescored with the canonical routine. ``LevelIndex.search`` holds
the proof that this never drops an entry of the true top k.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import os
import struct
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import MALFORMED_RECORD_ERRORS, Corpus, Level
from .embedding import EmbeddingProvider, cosine_similarity, embed_batch, ensure_unit
from .errors import InvalidCorpusError, InvalidInputError, SnapshotFormatError
from .rerank import ScoredCandidate

_MAGIC = b"HRRIDX2\n"

#: Unit roundoffs of float32 and float64, and the float32 underflow unit
#: (its smallest subnormal).
_U32 = 2.0**-24
_U64 = 2.0**-53
_ETA32 = float(np.finfo(np.float32).smallest_subnormal)


def _gamma(d: int, u: float) -> float:
    """Higham's gamma_d: bounds the relative error of a length-d dot product."""
    return d * u / (1.0 - d * u)


class LevelIndex:
    """Immutable (chunk id, embedding) store for one hierarchy level.

    Every row must be finite with a squared norm inside float32 range; the
    search's error bound rests on it.
    """

    def __init__(self, level: Level, chunk_ids: Sequence[str], vectors: np.ndarray) -> None:
        if len(chunk_ids) == 0:
            raise InvalidCorpusError(f"no entries for level {level.value!r}")
        if len(set(chunk_ids)) != len(chunk_ids):
            raise InvalidCorpusError("duplicate chunk ids in index")
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[0] != len(chunk_ids):
            raise InvalidInputError(
                f"vectors shape {vectors.shape} does not match {len(chunk_ids)} ids"
            )
        squared_norms = np.einsum("ij,ij->i", vectors, vectors)
        bad = np.flatnonzero(~np.isfinite(squared_norms))
        if bad.size:
            raise InvalidCorpusError(
                f"{bad.size} index rows are not finite or overflow float32, first "
                f"{chunk_ids[bad[0]]!r}"
            )
        dim = vectors.shape[1]
        # The float32 sum of squares is low by at most a factor (1 - gamma_d)
        # plus d * eta / 2 of underflow; (1 + 2 gamma_d) and d * eta cover both.
        self._max_norm = math.sqrt(
            float(squared_norms.max()) * (1.0 + 2.0 * _gamma(dim, _U32)) + dim * _ETA32
        )
        self.level = level
        self.chunk_ids: tuple[str, ...] = tuple(chunk_ids)
        self.vectors = vectors
        self.vectors.setflags(write=False)

    @property
    def dimension(self) -> int:
        return int(self.vectors.shape[1])

    def __len__(self) -> int:
        return len(self.chunk_ids)

    def search(self, query: np.ndarray, k: int) -> list[ScoredCandidate]:
        """Exact top-k by cosine, ties broken by chunk id ascending.

        Bit-identical to scoring every row with ``cosine_similarity`` and
        sorting. Pass 1 takes ``a_i = (V @ q)_i`` in float32 and the k-th
        largest of them, ``t``. Pass 2 rescores canonically only the rows
        with ``a_i >= t - 2E``, where

            E = (gamma_d(f32) + gamma_d(f64)) * max_i |x_i| * |q| + d * eta

        Why no row of the true top k is missed: let ``c_i`` be the
        canonical score. Its float64 products of float32 inputs are exact,
        so ``|c_i - x_i.q| <= gamma_d(f64) * sum|x_ij q_j|``. The float32
        product errs by at most ``gamma_d(f32) * sum|x_ij q_j|`` plus
        ``eta / 2`` of underflow per term, in any summation order (Higham,
        Accuracy and Stability of Numerical Algorithms, 3.1). As
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
        rounded down.
        """
        if k < 1:
            raise InvalidInputError("k must be >= 1")
        query = ensure_unit(query, self.dimension)
        n = len(self)
        if k >= n:
            candidates = range(n)
        else:
            approx = self.vectors @ query
            t = float(np.partition(approx, n - k)[n - k])
            d = self.dimension
            q_norm = float(np.linalg.norm(query.astype(np.float64)))
            bound = (_gamma(d, _U32) + _gamma(d, _U64)) * self._max_norm * q_norm + d * _ETA32
            cut = np.nextafter(t - 2.0 * bound, -math.inf)
            candidates = np.flatnonzero(approx >= cut).tolist()
        scores = {i: cosine_similarity(self.vectors[i], query) for i in candidates}
        best = heapq.nsmallest(k, scores, key=lambda i: (-scores[i], self.chunk_ids[i]))
        return [ScoredCandidate(self.chunk_ids[i], scores[i]) for i in best]


def build_index(corpus: Corpus, level: Level, provider: EmbeddingProvider) -> LevelIndex:
    """Embed every chunk at ``level`` and index it, one entry per chunk."""
    nodes = corpus.nodes_at(level)
    if not nodes:
        raise InvalidCorpusError(f"corpus has no chunks at level {level.value!r}")
    texts = [corpus.chunk_text(node.id) for node in nodes]
    return LevelIndex(level, [node.id for node in nodes], embed_batch(provider, texts))


def save_index(index: LevelIndex, path: str | Path, embedder: str) -> None:
    """Write a versioned snapshot of ``index``, whose vectors ``embedder`` made.

    Layout: magic, ``<I`` header length, a JSON header (level, dimension,
    count, embedder name, and ``ids_sha256``, the digest of the level's chunk
    ids in row order), then the ``count x dimension`` little-endian float32
    matrix as one block. Row ``i`` belongs to the ``i``-th chunk id, so the
    ids themselves live only in the corpus.
    """
    fields = {"level": index.level.value, "dimension": index.dimension, "count": len(index),
              "embedder": embedder, "ids_sha256": _ids_digest(index.chunk_ids)}
    header = json.dumps(fields, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(memoryview(index.vectors.astype("<f4", copy=False)))


def load_index(path: str | Path, chunk_ids: Sequence[str], embedder: str) -> LevelIndex:
    """Load a snapshot written by ``save_index`` for rows ``chunk_ids``.

    ``chunk_ids`` are the level's ids in corpus order and ``embedder`` the
    name of the provider queries will use. A file of another format version,
    a header that does not fit the file, other ids or another embedder raise
    ``SnapshotFormatError`` naming the file, before the matrix is read.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic == b"HRRIDX1\n":
            raise SnapshotFormatError(f"{path}: snapshot format v1 is not read; re-run ingest")
        if magic != _MAGIC:
            raise SnapshotFormatError(f"{path}: bad magic {magic!r}")
        (header_len,) = struct.unpack("<I", _read_exact(fh, 4, path))
        header_bytes = _read_exact(fh, header_len, path)
        try:
            header = json.loads(header_bytes.decode("utf-8"))
            level = Level(header["level"])
            dimension = int(header["dimension"])
            count = int(header["count"])
            built_by = header["embedder"]
            ids_sha256 = header["ids_sha256"]
        except MALFORMED_RECORD_ERRORS as exc:
            raise SnapshotFormatError(f"{path}: malformed header ({exc})") from None
        if dimension < 1 or count < 0:
            raise SnapshotFormatError(f"{path}: bad header sizes {header}")
        size = 4 * count * dimension
        remaining = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != remaining:
            raise SnapshotFormatError(
                f"{path}: {count} rows of dimension {dimension} take {size} bytes, "
                f"but {remaining} follow the header"
            )
        if built_by != embedder:
            raise SnapshotFormatError(
                f"{path}: vectors from the {built_by!r} embedder, not {embedder!r}; re-run ingest"
            )
        if count != len(chunk_ids) or ids_sha256 != _ids_digest(chunk_ids):
            raise SnapshotFormatError(
                f"{path}: {count} {level.value} rows whose ids do not match the corpus's "
                f"{len(chunk_ids)} chunks at that level; re-run ingest"
            )
        vectors = np.empty((count, dimension), dtype="<f4")
        if fh.readinto(vectors) != size:
            raise SnapshotFormatError(f"{path}: truncated snapshot")
    try:
        return LevelIndex(level, chunk_ids, vectors)
    except InvalidCorpusError as exc:
        raise SnapshotFormatError(f"{path}: {exc}") from None


def _ids_digest(chunk_ids: Sequence[str]) -> str:
    """sha256 of the ids as one JSON array, an encoding no id can forge."""
    return hashlib.sha256(json.dumps(list(chunk_ids)).encode("ascii")).hexdigest()


def _read_exact(fh, n: int, path) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise SnapshotFormatError(f"{path}: truncated snapshot")
    return data
