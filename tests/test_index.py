"""Exact search vs the naive full-scan oracle, plus stored levels."""

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import typing
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hrr.chunking import ChunkingConfig, build_corpus
from hrr.cli import EXIT_OK, main
from hrr.config import EmbeddingConfig, EngineConfig, PathsConfig
from hrr.corpus import Level, load_artifacts, save_corpus
from hrr.embedding import (
    CsrBatch,
    HashedBowEmbedder,
    cosine_similarities,
    cosine_similarity,
    embed_batch,
    ensure_unit,
)
from hrr.errors import (
    ConfigError,
    DimensionMismatchError,
    InvalidCorpusError,
    InvalidInputError,
    SnapshotFormatError,
)
from hrr.engine import ingest, load_context
import hrr.index as index_module
from hrr.index import LevelIndex, build_index
from hrr.retrievers import _PLANS, Strategy, retrieve
from hrr.synth import CorpusSpec, generate

from conftest import TOY_CHUNKING, TOY_DOCS
from level_corpus import level_corpus
from reads import dense_rows, index_ids, level_ids, nodes_of, search_hits
from test_corpus import _read_nodes, _write_nodes
from test_embedding import reference_vector


def naive_top_k(index: LevelIndex, query: np.ndarray, k: int):
    """Full-scan oracle: score everything, sort by (score desc, id asc)."""
    rows, ids = dense_rows(index), index_ids(index)
    scored = [
        (ids[i], cosine_similarity(rows[i], query))
        for i in range(len(index))
    ]
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:k]


def assert_hits_are(hits, expected, *context) -> None:
    """Search hits equal the oracle's ``(chunk id, score)`` pairs bit for bit.

    Scores are compared by ``float.hex``, so ``-0.0`` and ``0.0`` differ.
    """
    got = [(h.chunk_id, float.hex(h.score)) for h in hits]
    assert got == [(chunk_id, float.hex(score)) for chunk_id, score in expected], context


def gaussian_rows(rng: random.Random, n: int, dim: int) -> np.ndarray:
    raw = np.array(
        [[rng.gauss(0, 1) for _ in range(dim)] for _ in range(n)], dtype=np.float32
    )
    return np.stack([ensure_unit(row) for row in raw])


def sparse_rows(rng: random.Random, n: int, dim: int) -> np.ndarray:
    """Unit rows with 3-15 non-zero buckets each, like hashed bag-of-words rows."""
    rows = np.zeros((n, dim), dtype=np.float32)
    for row in rows:
        buckets = rng.sample(range(dim), rng.randint(3, min(15, dim)))
        row[buckets] = [rng.gauss(0, 1) for _ in buckets]
        row[:] = ensure_unit(row)
    return rows


def csr_batch(rows: np.ndarray) -> CsrBatch:
    """The non-zero entries of ``rows`` as CSR, as a sparse provider returns them."""
    rows = np.asarray(rows, dtype=np.float32)
    entry_rows, columns = np.nonzero(rows)
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(rows, axis=1), out=indptr[1:])
    return CsrBatch(indptr, columns.astype(np.uint16), rows[entry_rows, columns], rows.shape[1])


#: Each layout's row generator.
ROWS = {"dense": gaussian_rows, "csr": sparse_rows}


def in_layout(rows: np.ndarray, layout: str) -> np.ndarray | CsrBatch:
    """``rows`` as the provider of ``layout`` returns them: a block, or CSR."""
    return rows if layout == "dense" else csr_batch(rows)


def dim_for(layout: str, dense_dim: int) -> int:
    """The dimension a test uses in ``layout``: sparse rows get 64 buckets."""
    return dense_dim if layout == "dense" else 64


def random_index(rng: random.Random, n: int, dim: int, layout: str = "dense") -> LevelIndex:
    ids = [f"c{i:04d}" for i in range(n)]
    vectors = in_layout(ROWS[layout](rng, n, dim), layout)
    # Parents alone make a corpus, so the index is its one level.
    index = LevelIndex(level_corpus(ids, Level.PARENT), Level.PARENT, vectors)
    assert index.layout == layout
    return index


@pytest.fixture(params=["dense", "csr"])
def layout(request):
    return request.param


class TestSearchOracle:
    def test_matches_naive_scan_on_random_trials(self, layout):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(1, 120)
            dim = rng.choice({"dense": [4, 16, 33], "csr": [33, 64, 384]}[layout])
            index = random_index(rng, n, dim, layout)
            query = ROWS[layout](rng, 1, dim)[0]
            k = rng.randint(1, n + 3)
            assert_hits_are(search_hits(index, query, k), naive_top_k(index, query, k))

    def test_self_match_scores_one(self, layout):
        rng = random.Random(5)
        index = random_index(rng, 20, dim_for(layout, 8), layout)
        hits = search_hits(index, dense_rows(index)[7], 3)
        assert hits[0].chunk_id == "c0007"
        assert hits[0].score == pytest.approx(1.0, abs=1e-6)

    def test_k_saturation_returns_all_sorted(self, layout):
        rng = random.Random(6)
        dim = dim_for(layout, 8)
        index = random_index(rng, 9, dim, layout)
        query = ROWS[layout](rng, 1, dim)[0]
        hits = search_hits(index, query, 50)
        assert len(hits) == 9
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)

    def test_ties_broken_by_id_ascending(self, layout):
        vec = ensure_unit(np.r_[1.0, 1.0, np.zeros(dim_for(layout, 4) - 2)])
        vectors = np.stack([vec, vec, vec])
        index = LevelIndex(level_corpus(["zz", "aa", "mm"]), Level.SENTENCE,
                           in_layout(vectors, layout))
        assert index.layout == layout
        hits = search_hits(index, vec, 3)
        assert [h.chunk_id for h in hits] == ["aa", "mm", "zz"]

    def test_duplicate_vectors_fully_deterministic(self, layout):
        rng = random.Random(11)
        dim = dim_for(layout, 4)
        index = random_index(rng, 30, dim, layout)
        query = ROWS[layout](rng, 1, dim)[0]
        first = search_hits(index, query, 10)
        for _ in range(3):
            assert search_hits(index, query, 10) == first


def assert_matches_oracle(index: LevelIndex, query: np.ndarray, ks) -> None:
    """Search equals the full scan for each k, ids and float scores alike."""
    unit = ensure_unit(query, index.dimension)
    for k in ks:
        assert_hits_are(search_hits(index, query, k), naive_top_k(index, unit, k), k)


class TestSearchNearTies:
    """Cases where the prefilter's approximate scores tie or nearly tie."""

    def test_duplicate_rows(self, layout):
        # BLAS kernels score identical rows differently by position, so the
        # approximate scores of one duplicate group spread over a few ulps.
        rng = random.Random(21)
        base = random_index(rng, 12, 33, layout)
        rows = np.stack([dense_rows(base)[rng.randrange(12)] for _ in range(266)])
        ids = [f"d{i:03d}" for i in range(266)]
        index = LevelIndex(level_corpus(ids), Level.SENTENCE, in_layout(rows, layout))
        assert index.layout == layout
        probes = list(dense_rows(base)) + [
            np.array([rng.gauss(0, 1) for _ in range(33)], dtype=np.float32) for _ in range(12)
        ]
        for probe in probes:
            assert_matches_oracle(index, probe, [1, 7, 25, 26, 150, 265])

    def test_rows_one_ulp_apart(self, layout):
        rng = random.Random(22)
        base = dense_rows(random_index(rng, 8, 64, layout))
        nprng = np.random.default_rng(22)
        rows = []
        for i in range(400):
            row = base[i % 8].copy()
            step = nprng.integers(-1, 2, size=row.shape)
            step[row == 0] = 0  # keep a sparse row's zeros
            row[step > 0] = np.nextafter(row[step > 0], np.float32(np.inf))
            row[step < 0] = np.nextafter(row[step < 0], np.float32(-np.inf))
            rows.append(row)
        ids = [f"u{i:03d}" for i in range(400)]
        index = LevelIndex(level_corpus(ids), Level.SENTENCE, in_layout(np.stack(rows), layout))
        assert index.layout == layout
        for probe in range(8):
            assert_matches_oracle(index, base[probe], [1, 3, 50, 51, 52, 399])

    @pytest.mark.parametrize("n, dim", [(131, 33), (266, 64), (998, 384)])
    def test_all_equal_rows(self, n, dim, layout):
        rng = random.Random(n)
        row = dense_rows(random_index(rng, 1, dim, layout))[0]
        ids = [f"e{i:04d}" for i in range(n - 1, -1, -1)]
        index = LevelIndex(level_corpus(ids), Level.SENTENCE,
                           in_layout(np.stack([row] * n), layout))
        assert index.layout == layout
        query = np.array([rng.gauss(0, 1) for _ in range(dim)], dtype=np.float32)
        for probe in (row, query):
            assert_matches_oracle(index, probe, [1, 2, 10, n // 2, n - 1])
        assert [h.chunk_id for h in search_hits(index, query, 3)] == ["e0000", "e0001", "e0002"]

    def test_k_at_or_above_row_count(self, layout):
        rng = random.Random(23)
        dim = dim_for(layout, 16)
        index = random_index(rng, 40, dim, layout)
        query = np.array([rng.gauss(0, 1) for _ in range(dim)], dtype=np.float32)
        assert_matches_oracle(index, query, [39, 40, 41, 1000])
        assert len(search_hits(index, query, 1000)) == 40

    def test_non_unit_query(self, layout):
        rng = random.Random(24)
        dim = dim_for(layout, 32)
        index = random_index(rng, 200, dim, layout)
        raw = np.array([rng.gauss(0, 1) for _ in range(dim)], dtype=np.float32)
        for scale in (1e-3, 0.5, 7.0, 3e4):
            assert_matches_oracle(index, raw * np.float32(scale), [1, 10, 64])

    def test_sparse_rows_differing_in_one_bucket(self):
        # Each row is the base row with one bucket nudged by an ulp or moved
        # to a free bucket, so rows tie exactly or within a few ulps.
        rng = random.Random(25)
        base = sparse_rows(rng, 1, 384)[0]
        used = np.flatnonzero(base).tolist()
        free = [j for j in range(384) if base[j] == 0]
        rows = []
        for i in range(300):
            row = base.copy()
            j = rng.choice(used)
            if i % 2:
                row[j], row[rng.choice(free)] = 0.0, row[j]
            else:
                row[j] = np.nextafter(row[j], np.float32(rng.choice([-np.inf, np.inf])))
            rows.append(row)
        ids = [f"b{i:03d}" for i in range(300)]
        index = LevelIndex(level_corpus(ids), Level.SENTENCE, csr_batch(np.stack(rows)))
        assert index.layout == "csr"
        for probe in [base, rows[0], rows[1], rows[150]]:
            assert_matches_oracle(index, probe, [1, 2, 20, 149, 150, 151, 299])

    def test_sparse_rows_permuting_one_set_of_values(self):
        # Every row holds the same 12 values in its own order of buckets, so
        # each row's score adds them in its own order, and the scores spread
        # over a few ulps.
        rng = random.Random(28)
        values = [rng.gauss(0, 1) * 10.0 ** rng.randint(-12, 0) for _ in range(12)]
        rows = np.zeros((400, 64), dtype=np.float32)
        for row in rows:
            row[rng.sample(range(16), 12)] = values
        rows = np.stack([ensure_unit(row) for row in rows])
        index = LevelIndex(level_corpus([f"p{i:03d}" for i in range(400)]), Level.SENTENCE,
                           csr_batch(rows))
        assert index.layout == "csr"
        query = np.r_[np.ones(16), np.zeros(48)].astype(np.float32)
        # The premise reads the first pass's sums, which a fixed-order
        # bincount adds, so no BLAS kernel's choice of order can merge them.
        sums = index._rows.approx_scores(ensure_unit(query))
        assert len(set(sums.tolist())) >= 3
        assert_matches_oracle(index, query, [1, 2, 5, 17, 50, 199, 200, 201, 399])

    def test_hold_under_another_blas_kernel(self):
        """Every other case of this class, of ``TestSearchOracle`` and of
        ``TestCsrSearchBitwise`` holds under OpenBLAS's Prescott kernel,
        whose ``ddot`` and ``sgemv`` sum in another order than the host's
        default; the setting reaches only the child process."""
        env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             *(f"{__file__}::{name}" for name in
               ("TestSearchOracle", "TestSearchNearTies", "TestCsrSearchBitwise")),
             "-k", "not another_blas_kernel"],
            cwd=Path(__file__).resolve().parents[1], env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout[-3000:]

    def test_disjoint_buckets_tie_at_zero(self):
        # 40 rows share a bucket with the query; 220 hold only other buckets
        # and score exactly 0, so k past 40 selects zero-score rows by id.
        rng = random.Random(26)
        rows = np.abs(sparse_rows(rng, 260, 384))
        rows[:40, rng.sample(range(8), 1)] = 0.5
        rows[40:, :8] = 0.0
        rows = np.stack([ensure_unit(row) for row in rows])
        ids = [f"z{i:03d}" for i in rng.sample(range(260), 260)]
        index = LevelIndex(level_corpus(ids), Level.SENTENCE, csr_batch(rows))
        assert index.layout == "csr"
        query = ensure_unit(np.r_[np.ones(8), np.zeros(376)])
        assert_matches_oracle(index, query, [1, 39, 40, 41, 100, 259, 260, 261, 1000])
        hits = search_hits(index, query, 100)
        assert all(h.score > 0 for h in hits[:40])
        zeros = hits[40:]
        assert {h.score for h in zeros} == {0.0}
        assert [h.chunk_id for h in zeros] == sorted(h.chunk_id for h in zeros)

    def test_single_bucket_query(self):
        rng = random.Random(27)
        index = random_index(rng, 400, 64, "csr")
        for j in range(0, 64, 7):
            for sign in (1.0, -1.0):
                query = np.zeros(64, dtype=np.float32)
                query[j] = sign
                assert_matches_oracle(index, query, [1, 5, 40, 399, 400])

    def test_hashed_bow_index_with_ties_straddling_kth(self):
        words = "budget road school grain depot canal water permit".split()
        texts = [
            " ".join([words[i % 8], words[i % 5], words[i % 3], words[(i // 7) % 8]])
            for i in range(2400)
        ]
        vectors = embed_batch(HashedBowEmbedder(dimension=384), texts)
        index = LevelIndex(level_corpus([f"s{i:05d}" for i in range(2400)]), Level.SENTENCE,
                           vectors)
        assert index.layout == "csr"
        embedder = HashedBowEmbedder(dimension=384)
        straddled = 0
        for query in ("budget road", "grain depot canal", "water", "school permit road"):
            q = embedder.embed_batch([query])[0]
            ranked = naive_top_k(index, q, len(index))
            ks = [k for k in range(1, 400) if ranked[k - 1][1] == ranked[k][1]][::25]
            straddled += len(ks)
            assert_matches_oracle(index, q, ks + [1, 10, 2399, 2400])
        assert straddled >= 20


#: Stored CSR values: float32s ``m * 2**e`` of both signs over thirty
#: binades, with full 24-bit significands, so that sums of three or more
#: products round differently in different orders; and signed zeros, drawn
#: for the lowest ``m``.
CSR_VALUES = st.builds(
    lambda sign, m, e: sign * (m if m >= 2**23 else 0) * 2.0**e,
    st.sampled_from([1.0, -1.0]), st.integers(2**23 - 2**20, 2**24 - 1), st.integers(-54, -24),
)


@st.composite
def csr_search_cases(draw):
    """``(dimension, query, rows, ids, k)``: each row a ``{column: value}``
    dict, sharing 0 to 4 of the query's non-zero buckets, some with stored
    ``±0.0`` entries or two products that cancel exactly."""
    d = draw(st.sampled_from([1, 2, 16, 64]))
    buckets = draw(
        st.lists(st.integers(0, d - 1), min_size=min(d, 3), max_size=6, unique=True)
    )
    # Powers of two keep their ratios through ensure_unit's scaling.
    query = {j: draw(st.sampled_from([1.0, -1.0, 2.0, -2.0, 0.5, -0.5])) for j in buckets}
    others = [j for j in range(d) if j not in query]
    rows = []
    for _ in range(draw(st.integers(1, 20))):
        shared = draw(st.permutations(buckets))[: draw(st.integers(0, 4))]
        extra = draw(st.lists(st.sampled_from(others), max_size=3, unique=True)) if others else []
        row = {j: draw(CSR_VALUES) for j in shared + extra}
        if len(shared) >= 2 and draw(st.booleans()):
            a, b = shared[:2]  # x_b q_b = -x_a q_a, exactly
            row[b] = -row[a] * query[a] / query[b]
        rows.append(row)
    ids = draw(st.permutations([f"r{i:02d}" for i in range(len(rows))]))
    return d, query, rows, ids, draw(st.integers(1, len(rows) + 2))


def csr_index_of(d: int, rows: list[dict[int, float]], ids) -> LevelIndex:
    """A CSR index holding exactly the given entries, stored zeros included."""
    indptr = np.cumsum([0] + [len(row) for row in rows])
    entries = [(j, row[j]) for row in rows for j in sorted(row)]
    columns = np.array([j for j, _ in entries], dtype=np.uint16)
    values = np.array([v for _, v in entries], dtype=np.float32)
    return LevelIndex(level_corpus(ids), Level.SENTENCE, CsrBatch(indptr, columns, values, d))


#: Rows for a query on buckets 0, 5 and 10 of 16: the first row's three
#: products, added in column order, round differently from ``np.dot`` on
#: x86-64 OpenBLAS (scipy-openblas 0.3.31), whose kernel adds them in
#: another order.
THREE_ENTRIES = [
    {0: 0.11208245903253555, 5: -5.74876776227029e-06, 10: -0.08048609644174576}, {}
]


class TestCsrSearchBitwise:
    """A CSR search returns each row's postings sum as its score, with no
    rescoring; those scores must be the canonical ones bit for bit, a
    zero's sign included."""

    @given(csr_search_cases())
    @example((1, {0: -1.0}, [{0: 0.5}, {}, {0: 0.0}, {0: -0.0}], ["a", "b", "c", "d"], 3))
    @example((16, {0: 1.0, 5: 1.0, 10: 1.0}, THREE_ENTRIES, ["x", "y"], 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_scan_bit_for_bit(self, case):
        d, query, rows, ids, k = case
        index = csr_index_of(d, rows, ids)
        q = np.zeros(d, dtype=np.float32)
        q[list(query)] = list(query.values())
        assert_hits_are(search_hits(index, q, k), naive_top_k(index, ensure_unit(q), k))


@st.composite
def dot_cases(draw):
    """``(dimension, row, query)``: two ``{column: value}`` dicts of
    ``CSR_VALUES``, stored zeros included, sharing some columns; in some,
    two of the shared columns' products cancel exactly."""
    d = draw(st.sampled_from([1, 2, 16, 64, 384]))
    columns = draw(st.lists(st.integers(0, d - 1), max_size=16, unique=True))
    query = {j: draw(CSR_VALUES) for j in columns}
    shared = draw(st.permutations(columns))[: draw(st.integers(0, len(columns)))]
    others = [j for j in range(d) if j not in query]
    extra = draw(st.lists(st.sampled_from(others), max_size=3, unique=True)) if others else []
    row = {j: draw(CSR_VALUES) for j in shared + extra}
    if len(shared) >= 2 and draw(st.booleans()):
        a, b = shared[:2]  # x_b q_b = -x_a q_a, exactly
        row[b], query[b] = -row[a], query[a]
    return d, row, query


def dense_of(d: int, entries: dict[int, float]) -> np.ndarray:
    """The float32 vector of dimension ``d`` holding ``entries``."""
    vector = np.zeros(d, dtype=np.float32)
    vector[list(entries)] = list(entries.values())
    return vector


class TestCanonicalScore:
    """``cosine_similarity`` adds the exact products one at a time in column
    order from +0.0; ``cosine_similarities`` of a block's row and a CSR
    row's postings sum are that score."""

    @given(dot_cases())
    # The unit query on buckets 0, 5 and 10.
    @example((16, THREE_ENTRIES[0], dict.fromkeys([0, 5, 10], float(np.float32(3**-0.5)))))
    @settings(max_examples=300, deadline=None)
    def test_adds_the_products_in_column_order(self, case):
        d, row, query = case
        x, q = dense_of(d, row), dense_of(d, query)
        s = 0.0
        for a, b in zip(x, q):
            s += float(a) * float(b)
        assert float.hex(cosine_similarity(x, q)) == float.hex(s)
        assert float.hex(float(cosine_similarities(np.stack([q, x]), q)[1])) == float.hex(s)
        sums = csr_index_of(d, [row], ["r"])._rows._row_sums(np.array([0]), q.astype(np.float64))
        assert float.hex(float(sums[0])) == float.hex(s)


def dense_kernel_hits() -> list[list[tuple[str, str]]]:
    """The hits, scores as ``float.hex``, of a dense level of 400 Gaussian
    unit rows (d = 384) for 10 queries at k = 1, 10 and 50. The rows and
    queries are made with no BLAS call, so only the search can depend on
    the BLAS kernel."""
    raw = np.random.default_rng(17).standard_normal((408, 384))
    unit = (raw / np.sqrt(np.square(raw).sum(axis=1, keepdims=True))).astype(np.float32)
    index = LevelIndex(level_corpus([f"g{i:03d}" for i in range(400)]), Level.SENTENCE,
                       unit[:400])
    queries = [*unit[400:], unit[7], unit[123]]
    return [[(h.chunk_id, float.hex(h.score)) for h in search_hits(index, q, k)]
            for q in queries for k in (1, 10, 50)]


class TestBlasKernels:
    def test_dense_hits_match_under_another_blas_kernel(self):
        """A dense search's hits and score bits are the same in a child
        process under OpenBLAS's Prescott kernel, whose BLAS routines sum in
        another order than the host's default."""
        tests = Path(__file__).resolve().parent
        env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott",
               "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
        proc = subprocess.run(
            [sys.executable, "-c",
             "import json, test_index; print(json.dumps(test_index.dense_kernel_hits()))"],
            cwd=tests, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-3000:]
        child = [[tuple(hit) for hit in hits] for hits in json.loads(proc.stdout)]
        assert child == dense_kernel_hits()


class TestTiesByIdRank:
    """Rows tied with the k-th score are picked by their chunk ids' order,
    which is not row order: ``s10`` sorts before ``s9``."""

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_ties_at_zero_and_at_a_positive_score(self, layout):
        rng = random.Random(43)
        positive = ensure_unit(np.r_[1.0, 1.0, np.zeros(14)])
        zero = ensure_unit(np.r_[0.0, 0.0, 1.0, np.zeros(13)])
        rows = np.stack([positive if rng.random() < 0.4 else zero for _ in range(60)])
        ids = [f"s{i}" for i in rng.sample(range(60), 60)]
        index = LevelIndex(level_corpus(ids), Level.SENTENCE, in_layout(rows, layout))
        assert "_id_ranks" not in vars(index)
        query = np.r_[1.0, np.zeros(15)].astype(np.float32)
        for k in range(1, 60):
            assert_hits_are(search_hits(index, query, k), naive_top_k(index, query, k), k)
        assert "_id_ranks" in vars(index)

    def test_rank_memory_per_row(self):
        """Building the rank peaks at under 17 bytes a row, the int64 sort
        order beside either the object array of ids or the int32 ranks and
        their values, and keeps the 4-byte ranks."""
        ids = [f"d{i // 400:03d}:p{i // 40 % 10}.i{i // 8 % 5}.s{i % 8}" for i in range(20000)]
        n = len(ids)
        index = LevelIndex(level_corpus(ids), Level.SENTENCE, CsrBatch(
            np.arange(n + 1), np.zeros(n, np.uint16), np.ones(n, np.float32), 1))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert len(index._id_ranks) == n
            kept, peak = (size - before for size in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert peak <= 17 * n and kept <= 4.5 * n, (peak / n, kept / n)


#: Stored values for the early-stop cases: few, so that lists hold exact
#: ties and tie groups straddle the k-th score; with 0 and a tiny value, so
#: that some cuts fall to 0 or below.
EARLY_VALUES = st.sampled_from([0.0, 2.0**-30, 0.125, 0.25, 0.5, 0.75, 1.0])


@st.composite
def early_stop_cases(draw):
    """``(dimension, query, rows, ids, k, depth)``: non-negative CSR rows,
    each sharing 0 to 4 buckets with a query of positive weights, and the
    depth of the early stop's first round."""
    d = draw(st.sampled_from([4, 16, 64]))
    buckets = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=4, unique=True))
    query = {j: draw(st.sampled_from([0.5, 1.0, 2.0])) for j in buckets}
    others = [j for j in range(d) if j not in query]
    rows = []
    for _ in range(draw(st.integers(2, 40))):
        shared = draw(st.permutations(buckets))[: draw(st.integers(0, 4))]
        extra = draw(st.lists(st.sampled_from(others), max_size=2, unique=True)) if others else []
        rows.append({j: draw(EARLY_VALUES) for j in shared + extra})
    ids = draw(st.permutations([f"r{i}" for i in range(len(rows))]))
    return d, query, rows, ids, draw(st.integers(1, len(rows) - 1)), draw(st.integers(1, 3))


class TestEarlyStop:
    """The early-stopping first pass returns the full pass's hits and score
    bits, and the full pass runs in every case the stop cannot prove."""

    @given(early_stop_cases())
    # An unread row tied with the k-th score, whose id is the lowest.
    @example((4, {0: 1.0}, [{0: 1.0}] * 5 + [{0: 0.25}] * 2,
              ["r1", "r2", "r3", "r4", "r0", "r5", "r6"], 2, 1))
    # Every list read and the k-th score 0: the rows no list holds tie with it.
    @example((4, {0: 1.0}, [{0: 0.0}] * 3 + [{1: 1.0}] * 2, ["r2", "r3", "r4", "r0", "r1"], 2, 3))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_full_pass_bit_for_bit(self, case):
        d, query, rows, ids, k, depth = case
        q = np.zeros(d, dtype=np.float32)
        q[list(query)] = list(query.values())
        # A level's postings are built, for one path or the other, on its
        # first search, so each path searches its own copy.
        index = csr_index_of(d, rows, ids)
        full = search_hits(index, q, k)
        with mock.patch.multiple(index_module, _EARLY_STOP_ROWS=1, _FIRST_DEPTH=depth):
            early = search_hits(csr_index_of(d, rows, ids), q, k)
        assert_hits_are(early, [(h.chunk_id, h.score) for h in full])
        assert_hits_are(full, naive_top_k(index, ensure_unit(q), k))

    @pytest.fixture(scope="class")
    def synth_level(self):
        """A hashed-bow sentence level above the early stop's row count."""
        synth = generate(CorpusSpec(seed=3, n_docs=50))
        embedder = HashedBowEmbedder(dimension=384)
        index = build_index(synth.corpus, Level.SENTENCE, embedder)
        assert index.layout == "csr" and len(index) >= index_module._EARLY_STOP_ROWS
        queries = [embedder.embed_batch([q.query])[0] for q in synth.queries]
        return index, embedder, synth, queries

    @pytest.fixture
    def full_passes(self, monkeypatch):
        """The number of full first passes run so far."""
        calls = []
        real = index_module._CsrRows.approx_scores

        def counting(rows, query):
            calls.append(1)
            return real(rows, query)

        monkeypatch.setattr(index_module._CsrRows, "approx_scores", counting)
        return calls

    def test_needle_queries_need_no_full_pass(self, synth_level, monkeypatch):
        index, _, _, queries = synth_level
        expected = [naive_top_k(index, query, 50) for query in queries]

        def refuse(rows, query):
            raise AssertionError("the full pass ran")

        monkeypatch.setattr(index_module._CsrRows, "approx_scores", refuse)
        for query, ranked in zip(queries, expected):
            for k in (1, 10, 50):
                assert_hits_are(search_hits(index, query, k), ranked[:k], k)

    def test_each_case_the_stop_cannot_prove_takes_the_full_pass(self, synth_level, full_passes):
        index, embedder, synth, queries = synth_level
        needle = queries[0]
        # A query weight below 0.
        signed = needle.copy()
        signed[np.flatnonzero(signed)[0]] *= -1
        # A needle keyword alone: fewer than k rows hold it.
        rare = embedder.embed_batch([synth.needles[0].keywords[0]])[0]
        assert np.count_nonzero(dense_rows(index)[:, rare != 0]) < 10
        cases = [("negative weight", index, signed), ("fewer than k rows", index, rare)]
        csr = index._rows.csr
        # A level whose k-th sum is 0: of the commonest bucket's stored
        # values, all but 5 are 0, and the query holds that bucket alone.
        common = np.argmax(np.bincount(csr.columns, minlength=384))
        values = csr.values.copy()
        values[np.flatnonzero(csr.columns == common)[5:]] = 0.0
        zeroed = LevelIndex(index.corpus, Level.SENTENCE,
                            CsrBatch(csr.indptr, csr.columns, values, csr.dimension))
        cases.append(("k-th sum 0", zeroed, np.eye(384, dtype=np.float32)[common]))
        # A level holding a value below 0.
        values = csr.values.copy()
        values[0] = -values[0]
        negative = LevelIndex(index.corpus, Level.SENTENCE,
                              CsrBatch(csr.indptr, csr.columns, values, csr.dimension))
        cases.append(("negative value", negative, needle))
        for name, level, query in cases:
            full_passes.clear()
            hits = search_hits(level, query, 10)
            assert len(full_passes) == 1, name
            assert_hits_are(hits, naive_top_k(level, ensure_unit(query), 10), name)
        # A level below the row count.
        with mock.patch.object(index_module, "_EARLY_STOP_ROWS", len(index) + 1):
            small = LevelIndex(index.corpus, Level.SENTENCE, index._rows.csr)
            full_passes.clear()
            small.search(needle, 10)
        assert len(full_passes) == 1


def counting(calls: dict[str, int], owner, name: str):
    """Patch ``owner.name`` to count its calls in ``calls[name]``."""
    real = getattr(owner, name)

    def count(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    return mock.patch.object(owner, name, count)


class TestNoRescoring:
    """A CSR search returns its first-pass sums as the scores: it rescores
    no row with the canonical routine, densifies none, and its full pass
    runs one ``bincount``."""

    def test_needle_fewer_than_k_and_zero_tie_queries(self, toy_context):
        embedder = HashedBowEmbedder(dimension=384)
        rng = random.Random(31)
        words = "budget road school grain depot canal water permit".split()
        texts = [" ".join(rng.choice(words) for _ in range(6)) for _ in range(3000)]
        for i in (17, 1400, 2999):
            texts[i] += " zorblat"
        zorblat = LevelIndex(level_corpus([f"s{i:04d}" for i in range(3000)]), Level.SENTENCE,
                             embed_batch(embedder, texts))
        rare = embedder.embed_batch(["zorblat"])[0]
        assert np.count_nonzero(dense_rows(zorblat)[:, rare != 0]) == 3
        # Three rows above 0, and rows tied at 0: stored zeros of either
        # sign in the query's buckets, no shared bucket, products that cancel.
        zeros = csr_index_of(4, [{0: 0.5}] * 3 + [{0: -0.0}, {0: 0.0, 2: 0.5}, {2: 1.0},
                                                  {0: 0.25, 1: -0.25}] * 4,
                             [f"z{i:02d}" for i in range(19, 0, -1)])
        needle = toy_context.index(Level.SENTENCE)
        cases = [
            ("needle", needle, toy_context.embedder.embed_batch(["zorblat fenwick grant money"])[0], 3),
            ("fewer than k rows", zorblat, rare, 10),
            ("zero tie", zeros, np.array([1.0, 1.0, 0.0, 0.0], dtype=np.float32), 10),
        ]
        for name, index, query, k in cases:
            assert index.layout == "csr", name
            expected = naive_top_k(index, ensure_unit(query), k)
            index.search(query, k)  # builds the postings
            calls = dict.fromkeys(["cosine_similarities", "__getitem__", "bincount"], 0)
            with counting(calls, index_module, "cosine_similarities"), \
                    counting(calls, CsrBatch, "__getitem__"), counting(calls, np, "bincount"):
                hits = search_hits(index, query, k)
            assert calls == {"cosine_similarities": 0, "__getitem__": 0, "bincount": 1}, name
            assert_hits_are(hits, expected, name)
        assert [h.score for h in hits].count(0.0) == 7


class TestSearchValidation:
    def test_k_below_one(self):
        index = random_index(random.Random(1), 4, 4)
        with pytest.raises(InvalidInputError):
            index.search(dense_rows(index)[0], 0)

    def test_dimension_mismatch(self):
        index = random_index(random.Random(1), 4, 4)
        with pytest.raises(DimensionMismatchError):
            index.search(ensure_unit(np.ones(8)), 2)


class TestBuildIndex:
    def test_one_entry_per_chunk(self):
        docs = {"d": "One two. Three four. Five six. Seven eight. Nine ten. Final words."}
        corpus = build_corpus(
            docs, ChunkingConfig(parent_size=30, intermediate_size=10, sub_intermediate_size=None)
        )
        sentences = nodes_of(corpus, Level.SENTENCE)
        index = build_index(corpus, Level.SENTENCE, HashedBowEmbedder(dimension=16))
        assert len(index) == len(sentences)
        assert set(index_ids(index)) == {n.id for n in sentences}

    def test_missing_level_rejected(self):
        docs = {"d": "One two. Three four."}
        corpus = build_corpus(
            docs, ChunkingConfig(parent_size=30, intermediate_size=10, sub_intermediate_size=None)
        )
        with pytest.raises(InvalidCorpusError):
            build_index(corpus, Level.SUB_INTERMEDIATE, HashedBowEmbedder(dimension=16))

    def test_rebuild_identical(self):
        docs = {"d": "One two. Three four. Five six."}
        corpus = build_corpus(
            docs, ChunkingConfig(parent_size=30, intermediate_size=10, sub_intermediate_size=5)
        )
        a = build_index(corpus, Level.SENTENCE, HashedBowEmbedder(dimension=16))
        b = build_index(corpus, Level.SENTENCE, HashedBowEmbedder(dimension=16))
        assert index_ids(a) == index_ids(b)
        assert np.array_equal(dense_rows(a), dense_rows(b))

    @pytest.mark.parametrize("dimension", [384, 65_536])
    def test_hashed_bow_build_makes_no_dense_block(self, dimension):
        """The sentence level of the 20-doc synth corpus, 6,863 rows: building
        its index allocates well under the (n, 384) float32 block a dense
        embed would take, and no more at the widest dimension."""
        corpus = generate(CorpusSpec()).corpus
        n = len(corpus.rows_at(Level.SENTENCE))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            index = build_index(corpus, Level.SENTENCE, HashedBowEmbedder(dimension))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(index) == n > 5000 and index.layout == "csr"
        assert peak < n * 384 * 4 / 4

    def test_dimension_beyond_u2_columns_rejected(self):
        with pytest.raises(ConfigError, match="between 1 and 65536"):
            HashedBowEmbedder(65_537)

    @pytest.mark.parametrize("dimension", [8, 65_536])
    def test_hashed_bow_builds_csr_at_any_dimension(self, tmp_path, dimension):
        # At dimension 8 most toy rows fill most buckets; 65,536 buckets
        # are the most a <u2 column addresses.
        corpus = build_corpus(TOY_DOCS, TOY_CHUNKING)
        index = build_index(corpus, Level.SENTENCE, HashedBowEmbedder(dimension))
        assert index.layout == "csr"
        for chunk_id, row in zip(index_ids(index), dense_rows(index)):
            expected = reference_vector(corpus.chunk_text(chunk_id), dimension)
            assert row.tobytes() == expected.tobytes()
        first = saved(index, tmp_path / "a")
        loaded = reloaded(tmp_path / "a", dimension)
        assert loaded.layout == "csr"
        assert np.array_equal(dense_rows(loaded), dense_rows(index))
        assert first.read_bytes() == saved(loaded, tmp_path / "b").read_bytes()

    def test_one_chunk_level_loads_back_dense(self, tmp_path):
        # One text comes back as one dense row, and the index keeps it so.
        corpus = build_corpus(
            {"d": "One two."},
            ChunkingConfig(parent_size=30, intermediate_size=10, sub_intermediate_size=None),
        )
        assert len(corpus.rows_at(Level.PARENT)) == 1
        index = build_index(corpus, Level.PARENT, HashedBowEmbedder(dimension=384))
        saved(index, tmp_path)
        loaded = reloaded(tmp_path, 384)
        assert index.layout == loaded.layout == "dense"
        assert dense_rows(loaded)[0].tobytes() == reference_vector("One two.", 384).tobytes()


EMBEDDER = "hashed-bow"


def provider(dimension: int, name: str = EMBEDDER) -> SimpleNamespace:
    """What the file records of an embedder, and what a load checks against
    it: its name and dimension."""
    return SimpleNamespace(name=name, dimension=dimension)


def every_level(index: LevelIndex) -> list[LevelIndex]:
    """``index``, then an index of each other level of its corpus, in its
    layout and dimension, each row the first basis vector: a file stores
    every level of its corpus."""
    others = []
    for level in index.corpus.levels:
        if level != index.level:
            rows = np.zeros((len(index.corpus.rows_at(level)), index.dimension), np.float32)
            rows[:, 0] = 1.0
            others.append(LevelIndex(index.corpus, level, in_layout(rows, index.layout)))
    return [index, *others]


def saved(index: LevelIndex, directory: Path) -> Path:
    """Save ``index``'s corpus in ``directory``, with ``index`` as its first
    stored level (``every_level``), made by ``EMBEDDER``; return the file
    written."""
    save_corpus(index.corpus, directory, every_level(index), provider(index.dimension))
    return Path(directory) / "nodes.bin"


def reloaded(directory: Path, dimension: int, name: str = EMBEDDER) -> LevelIndex:
    """The first index stored in ``directory``'s file, loaded for the
    embedder ``name`` at ``dimension``."""
    return next(iter(load_artifacts(directory, provider(dimension, name))[1].values()))


def edited(path: Path, edit) -> None:
    """Rewrite the file at ``path`` after ``edit`` of it as a
    ``test_corpus.NodeFile``, whose ``vectors`` are the stored levels' blocks."""
    nodes = _read_nodes(path)
    edit(nodes)
    _write_nodes(path, nodes)


def with_footer(path: Path, footer: bytes) -> None:
    """Put ``footer``'s bytes in place of the file's vectors' footer."""
    data = path.read_bytes()
    length = int.from_bytes(data[-12:-8], "little")
    path.write_bytes(data[: -12 - length] + footer + len(footer).to_bytes(4, "little")
                     + data[-8:])


class TestSnapshots:
    """An index is stored as one level of its corpus's file
    (``corpus.save_corpus``), and loaded back from it."""

    def test_round_trip_preserves_search(self, tmp_path, layout):
        rng = random.Random(3)
        dim = dim_for(layout, 12)
        index = random_index(rng, 50, dim, layout)
        saved(index, tmp_path)
        loaded = reloaded(tmp_path, dim)
        assert loaded.level is index.level
        assert loaded.layout == layout
        assert index_ids(loaded) == index_ids(index)
        assert np.array_equal(dense_rows(loaded), dense_rows(index))
        query = ensure_unit(np.array([rng.gauss(0, 1) for _ in range(dim)]))
        assert search_hits(loaded, query, 10) == search_hits(index, query, 10)

    def test_round_trip_search_equals_naive_scan(self, tmp_path, layout):
        rng = random.Random(31)
        index = random_index(rng, 300, 33, layout)
        saved(index, tmp_path)
        loaded = reloaded(tmp_path, 33)
        assert loaded.layout == layout
        for _ in range(5):
            query = np.array([rng.gauss(0, 1) for _ in range(33)], dtype=np.float32)
            assert_matches_oracle(loaded, query, [1, 10, 299, 300])

    def test_file_holds_header_and_matrix_only(self, tmp_path):
        """A dense level stores its matrix and a header entry that names no
        id: the ids live only in the corpus's id table."""
        index = random_index(random.Random(4), 10, 6)
        nodes = _read_nodes(saved(index, tmp_path))
        assert nodes.vectors == dense_rows(index).astype("<f4").tobytes()
        assert nodes.footer == {"dimension": 6, "embedder": EMBEDDER, "levels": [
            {"count": 10, "layout": "dense", "level": "parent", "nnz": 60}]}

    def test_hashed_bow_ingest_writes_every_level_as_csr(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--seed", "42", "--out", "synth"]) == EXIT_OK
        assert main(["ingest", "synth/docs"]) == EXIT_OK
        assert [p.name for p in Path("corpus").iterdir()] == ["nodes.bin"]
        nodes = _read_nodes(Path("corpus") / "nodes.bin")
        levels = nodes.footer["levels"]
        assert [entry["level"] for entry in levels] == [level.value for level in Level]
        assert all(entry["layout"] == "csr" for entry in levels)
        assert len(nodes.vectors) == sum(8 * (entry["count"] + 1) + 6 * entry["nnz"]
                                         for entry in levels)

    def test_rewrite_is_byte_identical(self, tmp_path, layout):
        index = random_index(random.Random(4), 10, dim_for(layout, 6), layout)
        first = saved(index, tmp_path / "a").read_bytes()
        assert saved(index, tmp_path / "b").read_bytes() == first

    def test_interrupted_save_keeps_the_earlier_snapshot(self, tmp_path, layout, monkeypatch):
        dim = dim_for(layout, 6)
        index = random_index(random.Random(5), 10, dim, layout)
        path = saved(index, tmp_path)
        before = path.read_bytes()
        array = index._rows.blocks()[0]

        def fail_partway():
            yield array[: len(array) // 2]
            raise OSError("disk full")

        # The write fails after the corpus blocks, partway through the level's.
        monkeypatch.setattr(index._rows, "blocks", fail_partway)
        with pytest.raises(OSError, match="disk full"):
            saved(index, tmp_path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["nodes.bin"]
        assert np.array_equal(dense_rows(reloaded(tmp_path, dim)), dense_rows(index))

    def test_bad_magic(self, tmp_path):
        (tmp_path / "nodes.bin").write_bytes(b"NOTANIDX" + b"\x00" * 32)
        with pytest.raises(SnapshotFormatError):
            reloaded(tmp_path, 6)

    def test_snapshot_of_another_level_is_refused(self, tmp_path, toy_corpus):
        """Sentence vectors whose footer entry names the parent level (and
        parent vectors named the sentence level) do not load as the parent
        level: their rows are not the corpus's parent chunks."""
        embedder = HashedBowEmbedder(dimension=64)
        sentence = build_index(toy_corpus, Level.SENTENCE, embedder)
        save_corpus(toy_corpus, tmp_path, every_level(sentence), embedder)

        def swap(nodes):
            first, parent = nodes.footer["levels"][:2]
            assert (first["level"], parent["level"]) == ("sentence", "parent")
            first["level"], parent["level"] = "parent", "sentence"

        edited(tmp_path / "nodes.bin", swap)
        with pytest.raises(SnapshotFormatError) as exc:
            reloaded(tmp_path, 64)
        assert str(exc.value) == (f"{tmp_path / 'nodes.bin'}: {len(sentence)} rows do not "
                                  f"match {len(toy_corpus.rows_at(Level.PARENT))} ids")

    @pytest.mark.parametrize("other", ["corpus", "dimension", "level-twice"])
    def test_only_the_corpus_own_levels_are_saved(self, tmp_path, toy_corpus, other):
        """``save_corpus`` stores each index as a level of its corpus, at its
        embedder's dimension, once: an index of another corpus (the state a
        crash between two files' renames used to leave), of another
        dimension or of a level already saved is refused, and the earlier
        file is kept."""
        embedder = HashedBowEmbedder(dimension=64)
        path = saved(build_index(toy_corpus, Level.PARENT, embedder), tmp_path)
        before = path.read_bytes()
        if other == "corpus":
            corpus = build_corpus(TOY_DOCS, replace(TOY_CHUNKING, parent_size=41))
            indexes = [build_index(corpus, Level.PARENT, embedder)]
        elif other == "dimension":
            indexes = [build_index(toy_corpus, Level.PARENT, HashedBowEmbedder(dimension=32))]
        else:
            indexes = [build_index(toy_corpus, Level.PARENT, embedder)] * 2
        with pytest.raises(InvalidInputError, match="the parent index is not of this corpus"):
            save_corpus(toy_corpus, tmp_path, indexes, embedder)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["nodes.bin"]

    def test_a_set_missing_a_level_is_refused(self, tmp_path, toy_corpus):
        """Given indexes, ``save_corpus`` stores one of each level its corpus
        holds: a set that misses one is refused, and the earlier file kept."""
        embedder = HashedBowEmbedder(dimension=64)
        path = saved(build_index(toy_corpus, Level.PARENT, embedder), tmp_path)
        before = path.read_bytes()
        *kept, missing = toy_corpus.levels
        indexes = [build_index(toy_corpus, level, embedder) for level in kept]
        with pytest.raises(InvalidInputError, match=f"no {missing.value} index among those saved"):
            save_corpus(toy_corpus, tmp_path, indexes, embedder)
        assert path.read_bytes() == before

    def test_truncated_file(self, tmp_path):
        path = saved(random_index(random.Random(4), 10, 6), tmp_path)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(SnapshotFormatError):
            reloaded(tmp_path, 6)

    # Each case edits the vectors' footer of a one-row dense level
    # (dimension 6) or replaces it; every field but the one under test stays
    # valid.
    @pytest.mark.parametrize(
        "header",
        [b"{not json",
         lambda h: h["levels"][0].clear() or h["levels"][0].update(level="sentence"),
         lambda h: h["levels"][0].update(level="leaf"),
         lambda h: h.update(dimension=-6),
         lambda h: h.pop("embedder"),
         lambda h: h["levels"][0].pop("layout"),
         lambda h: h["levels"][0].pop("nnz"),
         lambda h: h["levels"][0].update(layout="coo"),
         lambda h: h["levels"][0].update(layout="csr", nnz=-1),
         lambda h: h["levels"][0].update(layout="csr", nnz=7),
         lambda h: h["levels"][0].update(layout="csr", nnz=float("inf")),
         b"\xff\xfe", b"[1, 2]",
         lambda h: h.pop("levels"),
         lambda h: h["levels"].append(h["levels"][0])],
        ids=["not-json", "level-only", "bad-level", "bad-dimension", "no-embedder",
             "no-layout", "no-nnz", "bad-layout", "negative-nnz", "nnz-beyond-matrix",
             "nnz-infinite", "not-utf8", "not-object", "no-levels", "level-twice"],
    )
    def test_malformed_header(self, tmp_path, header):
        path = saved(random_index(random.Random(4), 1, 6), tmp_path)
        if callable(header):
            fields = _read_nodes(path).footer
            header(fields)
            header = json.dumps(fields).encode("ascii")
        with_footer(path, header)
        with pytest.raises(SnapshotFormatError) as exc:
            reloaded(tmp_path, 6)
        assert "\n" not in str(exc.value)

    def test_count_beyond_file_size(self, tmp_path):
        path = saved(random_index(random.Random(4), 1, 6), tmp_path)
        edited(path, lambda nodes: nodes.footer["levels"][0].update(count=10**13, nnz=0))
        with pytest.raises(SnapshotFormatError, match="do not fill"):
            reloaded(tmp_path, 6)

    # Each case corrupts one array of a valid CSR level (10 rows, 3-15
    # non-zeros each, dimension 64) in a way its header sizes cannot show.
    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda p, c, v: p.__setitem__(0, 1), "row pointers"),
            (lambda p, c, v: p.__setitem__(slice(4, 6), p[4:6][::-1]), "row pointers"),
            (lambda p, c, v: p.__setitem__(-1, p[-1] - 1), "row pointers"),
            (lambda p, c, v: c.__setitem__(5, 64), "column index"),
            (lambda p, c, v: c.__setitem__(slice(0, 2), c[0:2][::-1]), "strictly ascending"),
            (lambda p, c, v: c.__setitem__(1, c[0]), "strictly ascending"),
            (lambda p, c, v: v.__setitem__(2, np.nan), "not finite"),
            (lambda p, c, v: v.__setitem__(-1, np.inf), "not finite"),
        ],
        ids=["indptr-not-from-0", "indptr-decreasing", "indptr-not-to-nnz", "column-past-dim",
             "columns-descending", "column-repeated", "value-nan", "value-inf"],
    )
    def test_malformed_csr_body(self, tmp_path, corrupt, message):
        index = random_index(random.Random(8), 10, 64, "csr")

        def edit(nodes):
            data = nodes.vectors
            indptr = np.frombuffer(data, "<i8", 11).copy()
            columns = np.frombuffer(data, "<u2", index.nnz, 88).copy()
            values = np.frombuffer(data, "<f4", index.nnz, 88 + 2 * index.nnz).copy()
            corrupt(indptr, columns, values)
            nodes.vectors = indptr.tobytes() + columns.tobytes() + values.tobytes()

        edited(saved(index, tmp_path), edit)
        with pytest.raises(SnapshotFormatError, match=message) as exc:
            reloaded(tmp_path, 64)
        assert "\n" not in str(exc.value)

    def test_nnz_disagreeing_with_dense_rows(self, tmp_path):
        path = saved(random_index(random.Random(4), 10, 6), tmp_path)
        edited(path, lambda nodes: nodes.footer["levels"][0].update(nnz=59))
        with pytest.raises(SnapshotFormatError, match="counts 59 non-zeros, the rows hold 60"):
            reloaded(tmp_path, 6)

    @pytest.mark.parametrize(
        "rows, field, value",
        [(10, "dimension", "6"), (10, "count", 10.0), (10, "nnz", "60"), (1, "count", True)],
        ids=["dimension-string", "count-float", "nnz-string", "count-bool"],
    )
    def test_header_number_not_an_integer(self, tmp_path, rows, field, value):
        path = saved(random_index(random.Random(4), rows, 6), tmp_path)

        def edit(nodes):
            # The dimension is the file's; the count and nnz, the level's.
            fields = nodes.footer if field == "dimension" else nodes.footer["levels"][0]
            assert fields[field] == int(value)  # the same number, in another JSON type
            fields[field] = value

        edited(path, edit)
        with pytest.raises(SnapshotFormatError) as exc:
            reloaded(tmp_path, 6)
        assert f"malformed vectors' footer ({field} {value!r} is not an integer)" in str(
            exc.value)
        assert "\n" not in str(exc.value)

    def test_trailing_garbage(self, tmp_path):
        path = saved(random_index(random.Random(4), 4, 6), tmp_path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(SnapshotFormatError):
            reloaded(tmp_path, 6)

    @pytest.mark.parametrize("rows", [-1, 1], ids=["fewer", "more"])
    def test_other_chunk_ids_rejected(self, tmp_path, rows):
        """A level stored with rows for fewer or more chunks than its corpus
        holds at the level, its sizes kept consistent, is refused."""
        path = saved(random_index(random.Random(4), 10, 6), tmp_path)

        def edit(nodes):
            nodes.footer["levels"][0].update(count=10 + rows, nnz=60 + 6 * rows)
            nodes.vectors = nodes.vectors[: 24 * (10 + rows)] + nodes.vectors[-24:] * (rows > 0)

        edited(path, edit)
        with pytest.raises(SnapshotFormatError, match=f"{10 + rows} rows do not match 10 ids"):
            reloaded(tmp_path, 6)

    def test_other_embedder_rejected(self, tmp_path):
        saved(random_index(random.Random(4), 10, 6), tmp_path)
        with pytest.raises(SnapshotFormatError, match="'hashed-bow' embedder, not 'remote'"):
            reloaded(tmp_path, 6, "remote")

    def test_other_dimension_rejected(self, tmp_path):
        saved(random_index(random.Random(4), 10, 6), tmp_path)
        with pytest.raises(SnapshotFormatError, match="dimension 6 differs from the configured "
                           "embedding dimension 7"):
            reloaded(tmp_path, 7)


class TestColdLoad:
    @pytest.fixture(scope="class")
    def seed42(self, tmp_path_factory):
        """The config of the seed-42 synth corpus, ingested."""
        root = tmp_path_factory.mktemp("seed42")
        (root / "docs").mkdir()
        for doc_id, text in generate(CorpusSpec(seed=42)).documents.items():
            (root / "docs" / f"{doc_id}.txt").write_bytes(text.encode("utf-8"))
        config = EngineConfig(paths=PathsConfig(corpus_dir=str(root / "corpus")))
        ingest(root / "docs", config)
        return config

    def test_load_context_runs_json_only_on_the_snapshot_headers(self, seed42, monkeypatch):
        """A cold ``load_context`` encodes no JSON and decodes only the header
        and the vectors' footer of ``nodes.bin``: the ids are split from
        their NUL join, not read or written as JSON."""
        encoded, decoded = [], []
        dumps, loads = json.dumps, json.loads
        monkeypatch.setattr(json, "dumps", lambda *a, **k: encoded.append(a) or dumps(*a, **k))
        monkeypatch.setattr(json, "loads",
                            lambda *a, **k: decoded.append(loads(*a, **k)) or decoded[-1])
        ctx = load_context(seed42)
        monkeypatch.undo()
        assert encoded == []
        header, footer = decoded
        assert header["version"] == 4
        assert [entry["level"] for entry in footer["levels"]] == [level.value for level in Level]
        assert set(ctx.indices) == set(Level)

    def test_load_context_builds_no_level_ids_and_hashes_none(self, seed42, monkeypatch):
        """Each index of a cold ``load_context`` is a level of the loaded
        corpus, read from the corpus's own file, so no id is hashed to tie
        the two together."""
        hashed = []
        sha256 = hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256", lambda *a: hashed.append(a) or sha256(*a))
        ctx = load_context(seed42)
        monkeypatch.undo()
        assert hashed == []
        assert set(ctx.indices) == set(Level)
        for level, index in ctx.indices.items():
            assert index.corpus is ctx.corpus
            assert index_ids(index) == level_ids(ctx.corpus, level)

    def test_load_and_retrieval_build_no_id_map(self, seed42):
        """Retrieval reads rows, so neither a cold ``load_context`` nor a
        ``retrieve`` under each strategy builds the corpus's id→row map; the
        first id lookup builds it, once, and ``get`` and ``in`` read it."""
        ctx = load_context(seed42)
        corpus = ctx.corpus
        for strategy in Strategy:
            for query in ("modaki", "the budget of the district"):
                retrieve(query, replace(ctx, config=replace(ctx.config, strategy=strategy)))
        assert "_index" not in vars(corpus)
        parent = next(corpus.ids_of(corpus.rows_at(Level.PARENT)))
        assert corpus.get(parent).level is Level.PARENT
        built = vars(corpus)["_index"]
        assert parent in corpus and "no such id" not in corpus
        assert corpus.get(parent).id == parent
        assert vars(corpus)["_index"] is built

    def test_two_loads_evaluate_each_config_type_once(self, seed42, monkeypatch):
        """The chunking settings each corpus load parses are typed by field
        types evaluated once per config type, not once per load."""
        evaluated = []
        get_type_hints = typing.get_type_hints
        monkeypatch.setattr(typing, "get_type_hints",
                            lambda t, *a, **k: evaluated.append(t) or get_type_hints(t, *a, **k))
        load_context(seed42)
        load_context(seed42)
        monkeypatch.undo()
        assert all(n == 1 for n in Counter(evaluated).values()), evaluated

    @given(st.lists(st.text(st.sampled_from("aZé中😀\"'\\,: -_"), min_size=1, max_size=10),
                    min_size=1, max_size=3, unique=True))
    @settings(max_examples=20, deadline=None)
    def test_any_file_name_survives_ingest_and_load(self, doc_ids):
        """Document ids with non-ASCII characters, quotes, backslashes,
        commas and colons are stored in the NUL-joined id table and load
        back, and every level's index loads against them."""
        with tempfile.TemporaryDirectory() as directory:
            root = Path(directory)
            (root / "docs").mkdir()
            for n, doc_id in enumerate(doc_ids):
                (root / "docs" / f"{doc_id}.txt").write_text(
                    f"Alpha beta {n} gamma. Delta epsilon zeta eta. Theta iota kappa.",
                    encoding="utf-8")
            config = EngineConfig(chunking=TOY_CHUNKING, paths=PathsConfig(
                corpus_dir=str(root / "corpus")))
            ingest(root / "docs", config)
            ctx = load_context(config)
        corpus = ctx.corpus
        assert sorted(corpus.documents) == sorted(doc_ids)
        assert set(ctx.indices) == set(corpus.levels) == set(Level)
        for level, index in ctx.indices.items():
            assert index_ids(index) == level_ids(corpus, level)
        assert {corpus.get(i).doc_id for i in level_ids(corpus, Level.PARENT)} == set(doc_ids)


class TestUnitRowsAtLoad:
    """``embed_batch`` stores only rows within its tolerance of unit norm, so
    a bit flip that moves a row's norm is refused when the snapshot loads."""

    def test_flipped_exponent_bit_in_a_csr_value(self, tmp_path):
        index = random_index(random.Random(4), 10, 64, "csr")

        def edit(nodes):
            data = bytearray(nodes.vectors)
            data[-1] ^= 0x01  # an exponent bit of the last value: times or over 4
            nodes.vectors = bytes(data)

        edited(saved(index, tmp_path), edit)
        with pytest.raises(SnapshotFormatError, match=r"nodes\.bin: row 'c0009' is not unit"):
            reloaded(tmp_path, 64)

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    @pytest.mark.parametrize("off", [-1e-5, 1e-5])
    def test_row_off_unit_by_1e_5_is_refused(self, tmp_path, layout, off):
        """A row whose squared norm is off unit by 1e-5 is refused: the slack
        ``embed_batch``'s tolerance implies is about 2.0e-6 at 384 buckets."""
        rows = ROWS[layout](random.Random(7), 20, 384)
        rows[3] = (rows[3].astype(np.float64) * np.sqrt(1.0 + off)).astype(np.float32)
        squared = np.einsum("i,i", rows[3], rows[3], dtype=np.float64)
        assert abs(squared - 1.0 - off) < 1e-6
        index = LevelIndex(level_corpus([f"c{i}" for i in range(20)]), Level.SENTENCE,
                           in_layout(rows, layout))
        saved(index, tmp_path)
        with pytest.raises(SnapshotFormatError, match=r"nodes\.bin: row 'c3' is not unit \(") as exc:
            reloaded(tmp_path, 384)
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    @pytest.mark.parametrize("off", [-0.9e-6, 0.9e-6])
    def test_rows_at_the_tolerance_load(self, tmp_path, layout, off):
        """Rows that ``embed_batch`` passes untouched, off unit by just under
        its tolerance, load back, at the default 384 buckets."""
        rows = sparse_rows(random.Random(6), 20, 384) if layout == "csr" else (
            gaussian_rows(random.Random(6), 20, 384))
        rows = (rows.astype(np.float64) * (1.0 + off)).astype(np.float32)
        vectors = in_layout(rows.copy(), layout)
        assert embed_batch(StaticProvider(vectors, 384), ["t"] * 20) is vectors
        assert np.array_equal(np.asarray(vectors), rows)  # passed through untouched
        index = LevelIndex(level_corpus([f"c{i}" for i in range(20)]), Level.SENTENCE, vectors)
        saved(index, tmp_path)
        assert len(reloaded(tmp_path, 384)) == 20


class StaticProvider:
    """A provider that returns the rows it was given."""

    name = "static"

    def __init__(self, vectors, dimension: int) -> None:
        self.vectors, self.dimension = vectors, dimension

    def embed_batch(self, texts):
        return self.vectors


def built_buckets(index: LevelIndex) -> set[int]:
    """The buckets whose postings a CSR index has built."""
    return set(index._rows._lists)


def has_postings(index: LevelIndex) -> bool:
    """Whether a CSR index has built any bucket's postings."""
    return bool(built_buckets(index))


def nonnegative_csr_index(rng: random.Random, n: int, dim: int) -> LevelIndex:
    """A CSR index like ``random_index``'s whose stored values are all at
    least 0, so that it orders its postings by value once the early stop
    may read it."""
    ids = [f"c{i:04d}" for i in range(n)]
    rows = np.abs(sparse_rows(rng, n, dim))
    return LevelIndex(level_corpus(ids, Level.PARENT), Level.PARENT, csr_batch(rows))


def bucket_query(weights: dict[int, float], dim: int) -> np.ndarray:
    """The unit query holding ``weights`` in its buckets, 0 elsewhere."""
    query = np.zeros(dim, dtype=np.float32)
    query[list(weights)] = list(weights.values())
    return ensure_unit(query)


class TestPostingsOnFirstSearch:
    @pytest.fixture(scope="class")
    def toy_artifacts(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("toy")
        (root / "docs").mkdir()
        for doc_id, text in TOY_DOCS.items():
            (root / "docs" / f"{doc_id}.txt").write_text(text)
        config = EngineConfig(
            chunking=TOY_CHUNKING,
            embedding=EmbeddingConfig(dimension=64),
            paths=PathsConfig(corpus_dir=str(root / "corpus")),
        )
        ingest(root / "docs", config)
        return config

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_a_load_builds_none_and_a_query_only_its_levels(self, toy_artifacts, strategy):
        ctx = load_context(toy_artifacts)
        indices = ctx.indices
        assert all(index.layout == "csr" for index in indices.values())
        assert not any(has_postings(index) for index in indices.values())
        ctx = replace(ctx, config=replace(ctx.config, strategy=strategy))
        retrieve("zorblat fenwick grant", ctx)
        # A search for k >= n rows scores every row and needs no postings;
        # the 6 toy parents are that case at the default k of 10.
        k = ctx.config.similarity_top_k
        searched = {level for level in _PLANS[strategy][0] if len(indices[level]) > k}
        assert {level for level, index in indices.items() if has_postings(index)} == searched
        query = embed_batch(ctx.embedder, ["zorblat fenwick grant"])[0]
        for level in searched:
            assert built_buckets(indices[level]) == set(np.flatnonzero(query).tolist()), level

    def test_build_and_save_build_none(self, tmp_path, toy_corpus):
        embedder = HashedBowEmbedder(dimension=64)
        indexes = [build_index(toy_corpus, level, embedder) for level in toy_corpus.levels]
        save_corpus(toy_corpus, tmp_path, indexes, embedder)
        assert all(index.layout == "csr" and not has_postings(index) for index in indexes)

    @pytest.mark.parametrize("by_value", [False, True])
    def test_a_search_builds_its_query_buckets_only(self, by_value):
        rng = random.Random(43)
        index = (nonnegative_csr_index(rng, 400, 64) if by_value
                 else random_index(rng, 400, 64, "csr"))
        with mock.patch.object(index_module, "_EARLY_STOP_ROWS", 1):
            # A search for k >= n rows reads no postings.
            index.search(bucket_query({3: 1.0}, 64), len(index))
            assert not has_postings(index)
            first = bucket_query({3: 1.0, 17: 0.5, 40: 2.0}, 64)
            assert_hits_are(search_hits(index, first, 5), naive_top_k(index, first, 5))
            assert built_buckets(index) == {3, 17, 40}
            assert index._rows._by_value is by_value
            kept = dict(index._rows._lists)
            second = bucket_query({17: 1.0, 40: 1.0, 41: 0.25, 63: 1.0}, 64)
            assert_hits_are(search_hits(index, second, 5), naive_top_k(index, second, 5))
        assert built_buckets(index) == {3, 17, 40, 41, 63}
        # The buckets the first search built are kept, not built again.
        assert all(index._rows._lists[j] is lists for j, lists in kept.items())

    def test_concurrent_first_searches_match_the_scan(self, tmp_path):
        rng = random.Random(41)
        levels = [("signed", random_index(rng, 3000, 64, "csr")),
                  ("non-negative", nonnegative_csr_index(rng, 3000, 64))]
        # Each thread's buckets overlap the next thread's but differ from them.
        queries = [bucket_query({j: rng.uniform(0.1, 1.0) for j in range(8 * i, 8 * i + 24)}, 64)
                   for i in range(4)]
        for name, index in levels:
            directory = tmp_path / name
            saved(index, directory)
            loaded = reloaded(directory, 64)
            barrier = threading.Barrier(4)
            results = [None] * 4

            def first_search(slot: int) -> None:
                barrier.wait(timeout=30)
                results[slot] = search_hits(loaded, queries[slot], 10)

            threads = [threading.Thread(target=first_search, args=(i,)) for i in range(4)]
            assert not has_postings(loaded)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with mock.patch.object(index_module, "_EARLY_STOP_ROWS", 1):
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert loaded._rows._by_value is (name == "non-negative")
            assert built_buckets(loaded) == set(range(48)), name
            for query, hits in zip(queries, results):
                assert_hits_are(hits, naive_top_k(loaded, query, 10), name)


@st.composite
def query_runs(draw):
    """``(by_value, queries, depth)``: 1 to 6 queries of 1 to 6 buckets each,
    in the order they run, each with its k, and the early stop's first depth.
    The buckets come from the first 12 of 64, so that queries share some;
    on a by-value level, each weight is below 0 one time in ten."""
    by_value = draw(st.booleans())
    weight = st.sampled_from([0.125, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, -1.0] if by_value
                             else [0.5, -1.0, 2.0])
    bucket_sets = st.lists(st.integers(0, 11), min_size=1, max_size=6, unique=True)
    queries = draw(st.lists(
        st.tuples(st.dictionaries(st.integers(0, 11), weight, min_size=1, max_size=6)
                  | bucket_sets.map(lambda js: dict.fromkeys(js, 1.0)),
                  st.integers(1, 40)),
        min_size=1, max_size=6))
    return by_value, queries, draw(st.integers(1, 3))


class TestBucketsBuiltAsRead:
    """A bucket's postings answer the same whether an earlier search built
    them or the search builds them afresh."""

    @pytest.fixture(scope="class")
    def stored(self, tmp_path_factory):
        """Each kind of level's saved directory: by value, and by row."""
        rng = random.Random(47)
        directories = {}
        for by_value, index in ((True, nonnegative_csr_index(rng, 300, 64)),
                                (False, random_index(rng, 300, 64, "csr"))):
            directories[by_value] = tmp_path_factory.mktemp(f"by_value_{by_value}")
            saved(index, directories[by_value])
        return directories

    @given(query_runs())
    @settings(max_examples=100, deadline=None)
    def test_drawn_queries_in_drawn_order_match_a_fresh_load(self, stored, run):
        by_value, queries, depth = run
        directory = stored[by_value]
        with mock.patch.multiple(index_module, _EARLY_STOP_ROWS=1, _FIRST_DEPTH=depth):
            shared = reloaded(directory, 64)
            for weights, k in queries:
                query = bucket_query(weights, 64)
                fresh = search_hits(reloaded(directory, 64), query, k)
                assert_hits_are(search_hits(shared, query, k),
                                [(h.chunk_id, h.score) for h in fresh], weights, k)
        assert shared._rows._by_value is by_value
        assert built_buckets(shared) == {j for weights, _ in queries for j in weights}


class TestConstruction:
    @pytest.mark.parametrize("layout", ["dense", "csr"])
    @pytest.mark.parametrize("rows", [2, 4])
    def test_row_count_other_than_ids_rejected(self, layout, rows):
        vectors = in_layout(sparse_rows(random.Random(9), rows, 64), layout)
        with pytest.raises(InvalidInputError, match=f"{rows} rows do not match 3 ids"):
            LevelIndex(level_corpus(["x", "y", "z"], Level.PARENT), Level.PARENT, vectors)

    def test_duplicate_ids_rejected(self):
        vecs = np.stack([ensure_unit(np.ones(4)), ensure_unit(np.ones(4))])
        with pytest.raises(InvalidCorpusError):
            LevelIndex(level_corpus(["x", "x"], Level.PARENT), Level.PARENT, vecs)

    def test_empty_rejected(self):
        with pytest.raises(InvalidCorpusError):
            LevelIndex(level_corpus(["x"], Level.PARENT), Level.SENTENCE,
                       np.zeros((0, 4), dtype=np.float32))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected(self, bad):
        vecs = np.stack([ensure_unit(np.ones(4)), ensure_unit(np.arange(1, 5))])
        vecs[1, 2] = bad
        with pytest.raises(InvalidCorpusError, match="'y'"):
            LevelIndex(level_corpus(["x", "y"], Level.PARENT), Level.PARENT, vecs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_snapshot_with_non_finite_row_rejected(self, tmp_path, bad):
        def edit(nodes):
            last_entry = len(nodes.vectors) - 4 * 6
            nodes.vectors = (nodes.vectors[:last_entry] + np.array([bad], dtype="<f4").tobytes()
                             + nodes.vectors[last_entry + 4 :])

        edited(saved(random_index(random.Random(4), 10, 6), tmp_path), edit)
        with pytest.raises(SnapshotFormatError, match="not finite"):
            reloaded(tmp_path, 6)
