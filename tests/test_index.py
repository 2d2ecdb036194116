"""Exact search vs the naive full-scan oracle, plus snapshots."""

import json
import random
from pathlib import Path

import numpy as np
import pytest

from hrr.chunking import ChunkingConfig, build_corpus
from hrr.cli import EXIT_OK, main
from hrr.corpus import Level
from hrr.embedding import HashedBowEmbedder, cosine_similarity, embed_batch, ensure_unit
from hrr.errors import (
    DimensionMismatchError,
    InvalidCorpusError,
    InvalidInputError,
    SnapshotFormatError,
)
from hrr.index import LevelIndex, build_index, load_index, save_index


def naive_top_k(index: LevelIndex, query: np.ndarray, k: int):
    """Full-scan oracle: score everything, sort by (score desc, id asc)."""
    scored = [
        (index.chunk_ids[i], cosine_similarity(index.vectors[i], query))
        for i in range(len(index))
    ]
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:k]


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


#: Each layout's row generator: the index picks its layout from the data.
ROWS = {"dense": gaussian_rows, "csr": sparse_rows}


def dim_for(layout: str, dense_dim: int) -> int:
    """A CSR index needs enough buckets for its sparse rows to beat dense."""
    return dense_dim if layout == "dense" else 64


def random_index(rng: random.Random, n: int, dim: int, layout: str = "dense") -> LevelIndex:
    ids = [f"c{i:04d}" for i in range(n)]
    index = LevelIndex(Level.SENTENCE, ids, ROWS[layout](rng, n, dim))
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
            hits = index.search(query, k)
            expected = naive_top_k(index, query, k)
            assert [(h.chunk_id, h.score) for h in hits] == expected

    def test_self_match_scores_one(self, layout):
        rng = random.Random(5)
        index = random_index(rng, 20, dim_for(layout, 8), layout)
        hits = index.search(index.vectors[7], 3)
        assert hits[0].chunk_id == "c0007"
        assert hits[0].score == pytest.approx(1.0, abs=1e-6)

    def test_k_saturation_returns_all_sorted(self, layout):
        rng = random.Random(6)
        dim = dim_for(layout, 8)
        index = random_index(rng, 9, dim, layout)
        query = ROWS[layout](rng, 1, dim)[0]
        hits = index.search(query, 50)
        assert len(hits) == 9
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)

    def test_ties_broken_by_id_ascending(self, layout):
        vec = ensure_unit(np.r_[1.0, 1.0, np.zeros(dim_for(layout, 4) - 2)])
        vectors = np.stack([vec, vec, vec])
        index = LevelIndex(Level.SENTENCE, ["zz", "aa", "mm"], vectors)
        assert index.layout == layout
        hits = index.search(vec, 3)
        assert [h.chunk_id for h in hits] == ["aa", "mm", "zz"]

    def test_duplicate_vectors_fully_deterministic(self, layout):
        rng = random.Random(11)
        dim = dim_for(layout, 4)
        index = random_index(rng, 30, dim, layout)
        query = ROWS[layout](rng, 1, dim)[0]
        first = index.search(query, 10)
        for _ in range(3):
            assert index.search(query, 10) == first


def assert_matches_oracle(index: LevelIndex, query: np.ndarray, ks) -> None:
    """Search equals the full scan for each k, ids and float scores alike."""
    unit = ensure_unit(query, index.dimension)
    for k in ks:
        hits = index.search(query, k)
        assert [(h.chunk_id, h.score) for h in hits] == naive_top_k(index, unit, k), k


class TestSearchNearTies:
    """Cases where the prefilter's approximate scores tie or nearly tie."""

    def test_duplicate_rows(self, layout):
        # BLAS kernels score identical rows differently by position, so the
        # approximate scores of one duplicate group spread over a few ulps.
        rng = random.Random(21)
        base = random_index(rng, 12, 33, layout)
        rows = np.stack([base.vectors[rng.randrange(12)] for _ in range(266)])
        index = LevelIndex(Level.SENTENCE, [f"d{i:03d}" for i in range(266)], rows)
        assert index.layout == layout
        probes = list(base.vectors) + [
            np.array([rng.gauss(0, 1) for _ in range(33)], dtype=np.float32) for _ in range(12)
        ]
        for probe in probes:
            assert_matches_oracle(index, probe, [1, 7, 25, 26, 150, 265])

    def test_rows_one_ulp_apart(self, layout):
        rng = random.Random(22)
        base = random_index(rng, 8, 64, layout).vectors
        nprng = np.random.default_rng(22)
        rows = []
        for i in range(400):
            row = base[i % 8].copy()
            step = nprng.integers(-1, 2, size=row.shape)
            step[row == 0] = 0  # keep a sparse row's zeros
            row[step > 0] = np.nextafter(row[step > 0], np.float32(np.inf))
            row[step < 0] = np.nextafter(row[step < 0], np.float32(-np.inf))
            rows.append(row)
        index = LevelIndex(Level.SENTENCE, [f"u{i:03d}" for i in range(400)], np.stack(rows))
        assert index.layout == layout
        for probe in range(8):
            assert_matches_oracle(index, base[probe], [1, 3, 50, 51, 52, 399])

    @pytest.mark.parametrize("n, dim", [(131, 33), (266, 64), (998, 384)])
    def test_all_equal_rows(self, n, dim, layout):
        rng = random.Random(n)
        row = random_index(rng, 1, dim, layout).vectors[0]
        ids = [f"e{i:04d}" for i in range(n - 1, -1, -1)]
        index = LevelIndex(Level.SENTENCE, ids, np.stack([row] * n))
        assert index.layout == layout
        query = np.array([rng.gauss(0, 1) for _ in range(dim)], dtype=np.float32)
        for probe in (row, query):
            assert_matches_oracle(index, probe, [1, 2, 10, n // 2, n - 1])
        assert [h.chunk_id for h in index.search(query, 3)] == ["e0000", "e0001", "e0002"]

    def test_k_at_or_above_row_count(self, layout):
        rng = random.Random(23)
        dim = dim_for(layout, 16)
        index = random_index(rng, 40, dim, layout)
        query = np.array([rng.gauss(0, 1) for _ in range(dim)], dtype=np.float32)
        assert_matches_oracle(index, query, [39, 40, 41, 1000])
        assert len(index.search(query, 1000)) == 40

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
        index = LevelIndex(Level.SENTENCE, [f"b{i:03d}" for i in range(300)], np.stack(rows))
        assert index.layout == "csr"
        for probe in [base, rows[0], rows[1], rows[150]]:
            assert_matches_oracle(index, probe, [1, 2, 20, 149, 150, 151, 299])

    def test_sparse_rows_permuting_one_set_of_values(self):
        # Every row holds the same 12 values in its own order of buckets, so
        # the canonical dot and the postings sum add them in different
        # orders and their scores spread over a few ulps.
        rng = random.Random(28)
        values = [rng.gauss(0, 1) * 10.0 ** rng.randint(-12, 0) for _ in range(12)]
        rows = np.zeros((400, 64), dtype=np.float32)
        for row in rows:
            row[rng.sample(range(16), 12)] = values
        rows = np.stack([ensure_unit(row) for row in rows])
        index = LevelIndex(Level.SENTENCE, [f"p{i:03d}" for i in range(400)], rows)
        assert index.layout == "csr"
        query = np.r_[np.ones(16), np.zeros(48)].astype(np.float32)
        assert len({h.score for h in index.search(query, 400)}) >= 3
        assert_matches_oracle(index, query, [1, 2, 5, 17, 50, 199, 200, 201, 399])

    def test_disjoint_buckets_tie_at_zero(self):
        # 40 rows share a bucket with the query; 220 hold only other buckets
        # and score exactly 0, so k past 40 selects zero-score rows by id.
        rng = random.Random(26)
        rows = np.abs(sparse_rows(rng, 260, 384))
        rows[:40, rng.sample(range(8), 1)] = 0.5
        rows[40:, :8] = 0.0
        rows = np.stack([ensure_unit(row) for row in rows])
        ids = [f"z{i:03d}" for i in rng.sample(range(260), 260)]
        index = LevelIndex(Level.SENTENCE, ids, rows)
        assert index.layout == "csr"
        query = ensure_unit(np.r_[np.ones(8), np.zeros(376)])
        assert_matches_oracle(index, query, [1, 39, 40, 41, 100, 259, 260, 261, 1000])
        hits = index.search(query, 100)
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
        index = LevelIndex(Level.SENTENCE, [f"s{i:05d}" for i in range(2400)], np.stack(vectors))
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


class TestSearchValidation:
    def test_k_below_one(self):
        index = random_index(random.Random(1), 4, 4)
        with pytest.raises(InvalidInputError):
            index.search(index.vectors[0], 0)

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
        sentences = corpus.nodes_at(Level.SENTENCE)
        index = build_index(corpus, Level.SENTENCE, HashedBowEmbedder(dimension=16))
        assert len(index) == len(sentences)
        assert set(index.chunk_ids) == {n.id for n in sentences}

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
        assert a.chunk_ids == b.chunk_ids
        assert np.array_equal(a.vectors, b.vectors)


EMBEDDER = "hashed-bow"


class TestSnapshots:
    def test_round_trip_preserves_search(self, tmp_path, layout):
        rng = random.Random(3)
        dim = dim_for(layout, 12)
        index = random_index(rng, 50, dim, layout)
        path = tmp_path / "sentence.idx"
        save_index(index, path, EMBEDDER)
        loaded = load_index(path, index.chunk_ids, EMBEDDER, dim)
        assert loaded.level is index.level
        assert loaded.layout == layout
        assert loaded.chunk_ids == index.chunk_ids
        assert np.array_equal(loaded.vectors, index.vectors)
        query = ensure_unit(np.array([rng.gauss(0, 1) for _ in range(dim)]))
        assert loaded.search(query, 10) == index.search(query, 10)

    def test_round_trip_search_equals_naive_scan(self, tmp_path, layout):
        rng = random.Random(31)
        index = random_index(rng, 300, 33, layout)
        path = tmp_path / "sentence.idx"
        save_index(index, path, EMBEDDER)
        loaded = load_index(path, index.chunk_ids, EMBEDDER, 33)
        assert loaded.layout == layout
        for _ in range(5):
            query = np.array([rng.gauss(0, 1) for _ in range(33)], dtype=np.float32)
            assert_matches_oracle(loaded, query, [1, 10, 299, 300])

    def test_file_holds_header_and_matrix_only(self, tmp_path):
        index = random_index(random.Random(4), 10, 6)
        path = tmp_path / "s.idx"
        save_index(index, path, EMBEDDER)
        data = path.read_bytes()
        header_len = int.from_bytes(data[8:12], "little")
        assert len(data) == 12 + header_len + 4 * 10 * 6
        assert data[12 + header_len :] == index.vectors.astype("<f4").tobytes()
        assert b"c0003" not in data

    def test_hashed_bow_ingest_writes_every_level_as_csr(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--seed", "42", "--out", "synth"]) == EXIT_OK
        assert main(["ingest", "synth/docs"]) == EXIT_OK
        paths = sorted(Path("indexes").iterdir())
        assert len(paths) == 4
        for path in paths:
            data = path.read_bytes()
            header_len = int.from_bytes(data[8:12], "little")
            header = json.loads(data[12 : 12 + header_len])
            assert header["layout"] == "csr", path
            assert len(data) == 12 + header_len + 8 * (header["count"] + 1) + 6 * header["nnz"]

    def test_rewrite_is_byte_identical(self, tmp_path, layout):
        index = random_index(random.Random(4), 10, dim_for(layout, 6), layout)
        save_index(index, tmp_path / "a.idx", EMBEDDER)
        save_index(index, tmp_path / "b.idx", EMBEDDER)
        assert (tmp_path / "a.idx").read_bytes() == (tmp_path / "b.idx").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"NOTANIDX" + b"\x00" * 32)
        with pytest.raises(SnapshotFormatError):
            load_index(path, ["c0000"], EMBEDDER, 6)

    def test_v1_file_asks_for_reingest(self, tmp_path):
        header = b'{"count": 1, "dimension": 6, "level": "sentence"}'
        path = tmp_path / "v1.idx"
        path.write_bytes(
            b"HRRIDX1\n" + len(header).to_bytes(4, "little") + header
            + (5).to_bytes(2, "little") + b"c0000" + b"\x00" * 24
        )
        with pytest.raises(SnapshotFormatError, match="re-run ingest") as exc:
            load_index(path, ["c0000"], EMBEDDER, 6)
        assert "\n" not in str(exc.value)

    def test_v2_file_asks_for_reingest(self, tmp_path):
        header = (
            b'{"count": 1, "dimension": 6, "embedder": "hashed-bow", "ids_sha256": "", '
            b'"level": "sentence"}'
        )
        path = tmp_path / "v2.idx"
        path.write_bytes(b"HRRIDX2\n" + len(header).to_bytes(4, "little") + header + b"\x00" * 24)
        with pytest.raises(SnapshotFormatError, match="format v2 is not read; re-run ingest") as exc:
            load_index(path, ["c0000"], EMBEDDER, 6)
        assert "\n" not in str(exc.value)

    def test_truncated_file(self, tmp_path):
        index = random_index(random.Random(4), 10, 6)
        path = tmp_path / "t.idx"
        save_index(index, path, EMBEDDER)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 7])
        with pytest.raises(SnapshotFormatError):
            load_index(path, index.chunk_ids, EMBEDDER, 6)

    # Each header but the one under test carries every field a v3 header needs.
    @pytest.mark.parametrize(
        "header",
        [b"{not json", b'{"level": "sentence"}',
         b'{"level":"leaf","dimension":6,"count":1,"embedder":"hashed-bow","ids_sha256":"",'
         b'"layout":"dense","nnz":6}',
         b'{"level": "sentence", "dimension": -6, "count": 1, "embedder": "hashed-bow", '
         b'"ids_sha256": "", "layout": "dense", "nnz": 6}',
         b'{"embedder": "hashed-bow", "level": "sentence", "dimension": 6, "count": 1, '
         b'"layout": "dense", "nnz": 6}',
         b'{"ids_sha256": "", "level": "sentence", "dimension": 6, "count": 1, '
         b'"layout": "dense", "nnz": 6}',
         b'{"level": "sentence", "dimension": 6, "count": 1, "embedder": "hashed-bow", '
         b'"ids_sha256": "", "nnz": 6}',
         b'{"level": "sentence", "dimension": 6, "count": 1, "embedder": "hashed-bow", '
         b'"ids_sha256": "", "layout": "dense"}',
         b'{"level": "sentence", "dimension": 6, "count": 1, "embedder": "hashed-bow", '
         b'"ids_sha256": "", "layout": "coo", "nnz": 6}',
         b'{"level": "sentence", "dimension": 6, "count": 1, "embedder": "hashed-bow", '
         b'"ids_sha256": "", "layout": "csr", "nnz": -1}',
         b'{"level": "sentence", "dimension": 6, "count": 1, "embedder": "hashed-bow", '
         b'"ids_sha256": "", "layout": "csr", "nnz": 7}',
         b'{"level": "sentence", "dimension": 6, "count": 1, "embedder": "hashed-bow", '
         b'"ids_sha256": "", "layout": "csr", "nnz": 1e400}',
         b"\xff\xfe", b"[1, 2]"],
        ids=["not-json", "level-only", "bad-level", "bad-dimension", "no-ids-digest",
             "no-embedder", "no-layout", "no-nnz", "bad-layout", "negative-nnz",
             "nnz-beyond-matrix", "nnz-infinite", "not-utf8", "not-object"],
    )
    def test_malformed_header(self, tmp_path, header):
        path = tmp_path / "h.idx"
        path.write_bytes(b"HRRIDX3\n" + len(header).to_bytes(4, "little") + header)
        with pytest.raises(SnapshotFormatError):
            load_index(path, ["c0000"], EMBEDDER, 6)

    def test_count_beyond_file_size(self, tmp_path):
        header = (
            b'{"level": "sentence", "dimension": 6, "count": 10000000000000, '
            b'"embedder": "hashed-bow", "ids_sha256": "", "layout": "dense", "nnz": 0}'
        )
        path = tmp_path / "c.idx"
        path.write_bytes(b"HRRIDX3\n" + len(header).to_bytes(4, "little") + header + b"\x00" * 64)
        with pytest.raises(SnapshotFormatError, match="bytes, but 64 follow the header"):
            load_index(path, ["c0000"], EMBEDDER, 6)

    # Each case corrupts one array of a valid CSR body (10 rows, 3-15
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
        path = tmp_path / "sentence.idx"
        save_index(index, path, EMBEDDER)
        data = path.read_bytes()
        body = 12 + int.from_bytes(data[8:12], "little")
        indptr = np.frombuffer(data, "<i8", 11, body).copy()
        columns = np.frombuffer(data, "<u2", index.nnz, body + 88).copy()
        values = np.frombuffer(data, "<f4", index.nnz, body + 88 + 2 * index.nnz).copy()
        corrupt(indptr, columns, values)
        path.write_bytes(data[:body] + indptr.tobytes() + columns.tobytes() + values.tobytes())
        with pytest.raises(SnapshotFormatError, match=message) as exc:
            load_index(path, index.chunk_ids, EMBEDDER, 64)
        assert "\n" not in str(exc.value)

    def test_nnz_disagreeing_with_dense_rows(self, tmp_path):
        index = random_index(random.Random(4), 10, 6)
        path = tmp_path / "sentence.idx"
        save_index(index, path, EMBEDDER)
        data = path.read_bytes()
        header_len = int.from_bytes(data[8:12], "little")
        header = json.loads(data[12 : 12 + header_len])
        header["nnz"] -= 1
        new = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(data[:8] + len(new).to_bytes(4, "little") + new + data[12 + header_len :])
        with pytest.raises(SnapshotFormatError, match="counts 59 non-zeros, the rows hold 60"):
            load_index(path, index.chunk_ids, EMBEDDER, 6)

    def test_trailing_garbage(self, tmp_path):
        index = random_index(random.Random(4), 4, 6)
        path = tmp_path / "g.idx"
        save_index(index, path, EMBEDDER)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(SnapshotFormatError):
            load_index(path, index.chunk_ids, EMBEDDER, 6)

    @pytest.mark.parametrize(
        "ids",
        [lambda ids: ids[1:] + ids[:1], lambda ids: ids[:-1], lambda ids: ids + ["c9999"]],
        ids=["reordered", "fewer", "more"],
    )
    def test_other_chunk_ids_rejected(self, tmp_path, ids):
        index = random_index(random.Random(4), 10, 6)
        path = tmp_path / "sentence.idx"
        save_index(index, path, EMBEDDER)
        with pytest.raises(SnapshotFormatError, match="do not match the corpus"):
            load_index(path, ids(list(index.chunk_ids)), EMBEDDER, 6)

    def test_id_digest_is_injective_over_newlines(self, tmp_path):
        vecs = np.stack([ensure_unit(np.ones(4)), ensure_unit(np.arange(1, 5))])
        path = tmp_path / "sentence.idx"
        save_index(LevelIndex(Level.SENTENCE, ["a\nb", "c"], vecs), path, EMBEDDER)
        with pytest.raises(SnapshotFormatError, match="do not match the corpus"):
            load_index(path, ["a", "b\nc"], EMBEDDER, 4)

    def test_other_embedder_rejected(self, tmp_path):
        index = random_index(random.Random(4), 10, 6)
        path = tmp_path / "sentence.idx"
        save_index(index, path, EMBEDDER)
        with pytest.raises(SnapshotFormatError, match="'hashed-bow' embedder, not 'remote'"):
            load_index(path, index.chunk_ids, "remote", 6)

    def test_other_dimension_rejected(self, tmp_path):
        index = random_index(random.Random(4), 10, 6)
        path = tmp_path / "sentence.idx"
        save_index(index, path, EMBEDDER)
        with pytest.raises(SnapshotFormatError, match="dimension 6 differs from the configured "
                           "embedding dimension 7"):
            load_index(path, index.chunk_ids, EMBEDDER, 7)


class TestConstruction:
    def test_duplicate_ids_rejected(self):
        vecs = np.stack([ensure_unit(np.ones(4)), ensure_unit(np.ones(4))])
        with pytest.raises(InvalidCorpusError):
            LevelIndex(Level.PARENT, ["x", "x"], vecs)

    def test_empty_rejected(self):
        with pytest.raises(InvalidCorpusError):
            LevelIndex(Level.PARENT, [], np.zeros((0, 4), dtype=np.float32))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected(self, bad):
        vecs = np.stack([ensure_unit(np.ones(4)), ensure_unit(np.arange(1, 5))])
        vecs[1, 2] = bad
        with pytest.raises(InvalidCorpusError, match="'y'"):
            LevelIndex(Level.PARENT, ["x", "y"], vecs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_snapshot_with_non_finite_row_rejected(self, tmp_path, bad):
        index = random_index(random.Random(4), 10, 6)
        path = tmp_path / "nan.idx"
        save_index(index, path, EMBEDDER)
        data = bytearray(path.read_bytes())
        last_entry = len(data) - 4 * 6
        data[last_entry : last_entry + 4] = np.array([bad], dtype="<f4").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotFormatError, match="not finite"):
            load_index(path, index.chunk_ids, EMBEDDER, 6)
