"""Exact search vs the naive full-scan oracle, plus snapshots."""

import random

import numpy as np
import pytest

from hrr.chunking import ChunkingConfig, build_corpus
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


def random_index(rng: random.Random, n: int, dim: int) -> LevelIndex:
    raw = np.array(
        [[rng.gauss(0, 1) for _ in range(dim)] for _ in range(n)], dtype=np.float32
    )
    vectors = np.stack([ensure_unit(row) for row in raw])
    ids = [f"c{i:04d}" for i in range(n)]
    return LevelIndex(Level.SENTENCE, ids, vectors)


class TestSearchOracle:
    def test_matches_naive_scan_on_random_trials(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(1, 120)
            dim = rng.choice([4, 16, 33])
            index = random_index(rng, n, dim)
            query = ensure_unit(
                np.array([rng.gauss(0, 1) for _ in range(dim)], dtype=np.float32)
            )
            k = rng.randint(1, n + 3)
            hits = index.search(query, k)
            expected = naive_top_k(index, query, k)
            assert [(h.chunk_id, h.score) for h in hits] == expected

    def test_self_match_scores_one(self):
        rng = random.Random(5)
        index = random_index(rng, 20, 8)
        hits = index.search(index.vectors[7], 3)
        assert hits[0].chunk_id == "c0007"
        assert hits[0].score == pytest.approx(1.0, abs=1e-6)

    def test_k_saturation_returns_all_sorted(self):
        rng = random.Random(6)
        index = random_index(rng, 9, 8)
        query = ensure_unit(np.array([rng.gauss(0, 1) for _ in range(8)]))
        hits = index.search(query, 50)
        assert len(hits) == 9
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)

    def test_ties_broken_by_id_ascending(self):
        vec = ensure_unit(np.array([1.0, 1.0, 0.0, 0.0]))
        vectors = np.stack([vec, vec, vec])
        index = LevelIndex(Level.SENTENCE, ["zz", "aa", "mm"], vectors)
        hits = index.search(vec, 3)
        assert [h.chunk_id for h in hits] == ["aa", "mm", "zz"]

    def test_duplicate_vectors_fully_deterministic(self):
        rng = random.Random(11)
        index = random_index(rng, 30, 4)
        query = ensure_unit(np.array([rng.gauss(0, 1) for _ in range(4)]))
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

    def test_duplicate_rows(self):
        # BLAS kernels score identical rows differently by position, so the
        # approximate scores of one duplicate group spread over a few ulps.
        rng = random.Random(21)
        base = random_index(rng, 12, 33)
        rows = np.stack([base.vectors[rng.randrange(12)] for _ in range(266)])
        index = LevelIndex(Level.SENTENCE, [f"d{i:03d}" for i in range(266)], rows)
        probes = list(base.vectors) + [
            np.array([rng.gauss(0, 1) for _ in range(33)], dtype=np.float32) for _ in range(12)
        ]
        for probe in probes:
            assert_matches_oracle(index, probe, [1, 7, 25, 26, 150, 265])

    def test_rows_one_ulp_apart(self):
        rng = random.Random(22)
        base = random_index(rng, 8, 64).vectors
        nprng = np.random.default_rng(22)
        rows = []
        for i in range(400):
            row = base[i % 8].copy()
            step = nprng.integers(-1, 2, size=row.shape)
            row[step > 0] = np.nextafter(row[step > 0], np.float32(np.inf))
            row[step < 0] = np.nextafter(row[step < 0], np.float32(-np.inf))
            rows.append(row)
        index = LevelIndex(Level.SENTENCE, [f"u{i:03d}" for i in range(400)], np.stack(rows))
        for probe in range(8):
            assert_matches_oracle(index, base[probe], [1, 3, 50, 51, 52, 399])

    @pytest.mark.parametrize("n, dim", [(131, 33), (266, 64), (998, 384)])
    def test_all_equal_rows(self, n, dim):
        rng = random.Random(n)
        row = random_index(rng, 1, dim).vectors[0]
        ids = [f"e{i:04d}" for i in range(n - 1, -1, -1)]
        index = LevelIndex(Level.SENTENCE, ids, np.stack([row] * n))
        query = np.array([rng.gauss(0, 1) for _ in range(dim)], dtype=np.float32)
        for probe in (row, query):
            assert_matches_oracle(index, probe, [1, 2, 10, n // 2, n - 1])
        assert [h.chunk_id for h in index.search(query, 3)] == ["e0000", "e0001", "e0002"]

    def test_k_at_or_above_row_count(self):
        rng = random.Random(23)
        index = random_index(rng, 40, 16)
        query = np.array([rng.gauss(0, 1) for _ in range(16)], dtype=np.float32)
        assert_matches_oracle(index, query, [39, 40, 41, 1000])
        assert len(index.search(query, 1000)) == 40

    def test_non_unit_query(self):
        rng = random.Random(24)
        index = random_index(rng, 200, 32)
        raw = np.array([rng.gauss(0, 1) for _ in range(32)], dtype=np.float32)
        for scale in (1e-3, 0.5, 7.0, 3e4):
            assert_matches_oracle(index, raw * np.float32(scale), [1, 10, 64])

    def test_hashed_bow_index_with_ties_straddling_kth(self):
        words = "budget road school grain depot canal water permit".split()
        texts = [
            " ".join([words[i % 8], words[i % 5], words[i % 3], words[(i // 7) % 8]])
            for i in range(2400)
        ]
        vectors = embed_batch(HashedBowEmbedder(dimension=384), texts)
        index = LevelIndex(Level.SENTENCE, [f"s{i:05d}" for i in range(2400)], np.stack(vectors))
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
    def test_round_trip_preserves_search(self, tmp_path):
        rng = random.Random(3)
        index = random_index(rng, 50, 12)
        path = tmp_path / "sentence.idx"
        save_index(index, path, EMBEDDER)
        loaded = load_index(path, index.chunk_ids, EMBEDDER)
        assert loaded.level is index.level
        assert loaded.chunk_ids == index.chunk_ids
        assert np.array_equal(loaded.vectors, index.vectors)
        query = ensure_unit(np.array([rng.gauss(0, 1) for _ in range(12)]))
        assert loaded.search(query, 10) == index.search(query, 10)

    def test_round_trip_search_equals_naive_scan(self, tmp_path):
        rng = random.Random(31)
        index = random_index(rng, 300, 33)
        path = tmp_path / "sentence.idx"
        save_index(index, path, EMBEDDER)
        loaded = load_index(path, index.chunk_ids, EMBEDDER)
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

    def test_rewrite_is_byte_identical(self, tmp_path):
        index = random_index(random.Random(4), 10, 6)
        save_index(index, tmp_path / "a.idx", EMBEDDER)
        save_index(index, tmp_path / "b.idx", EMBEDDER)
        assert (tmp_path / "a.idx").read_bytes() == (tmp_path / "b.idx").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"NOTANIDX" + b"\x00" * 32)
        with pytest.raises(SnapshotFormatError):
            load_index(path, ["c0000"], EMBEDDER)

    def test_v1_file_asks_for_reingest(self, tmp_path):
        header = b'{"count": 1, "dimension": 6, "level": "sentence"}'
        path = tmp_path / "v1.idx"
        path.write_bytes(
            b"HRRIDX1\n" + len(header).to_bytes(4, "little") + header
            + (5).to_bytes(2, "little") + b"c0000" + b"\x00" * 24
        )
        with pytest.raises(SnapshotFormatError, match="re-run ingest") as exc:
            load_index(path, ["c0000"], EMBEDDER)
        assert "\n" not in str(exc.value)

    def test_truncated_file(self, tmp_path):
        index = random_index(random.Random(4), 10, 6)
        path = tmp_path / "t.idx"
        save_index(index, path, EMBEDDER)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 7])
        with pytest.raises(SnapshotFormatError):
            load_index(path, index.chunk_ids, EMBEDDER)

    # Each header but the one under test carries every field a v2 header needs.
    @pytest.mark.parametrize(
        "header",
        [b"{not json", b'{"level": "sentence"}',
         b'{"level":"leaf","dimension":6,"count":1,"embedder":"hashed-bow","ids_sha256":""}',
         b'{"level": "sentence", "dimension": -6, "count": 1, "embedder": "hashed-bow", '
         b'"ids_sha256": ""}',
         b'{"embedder": "hashed-bow", "level": "sentence", "dimension": 6, "count": 1}',
         b'{"ids_sha256": "", "level": "sentence", "dimension": 6, "count": 1}',
         b"\xff\xfe", b"[1, 2]"],
    )
    def test_malformed_header(self, tmp_path, header):
        path = tmp_path / "h.idx"
        path.write_bytes(b"HRRIDX2\n" + len(header).to_bytes(4, "little") + header)
        with pytest.raises(SnapshotFormatError):
            load_index(path, ["c0000"], EMBEDDER)

    def test_count_beyond_file_size(self, tmp_path):
        header = (
            b'{"level": "sentence", "dimension": 6, "count": 10000000000000, '
            b'"embedder": "hashed-bow", "ids_sha256": ""}'
        )
        path = tmp_path / "c.idx"
        path.write_bytes(b"HRRIDX2\n" + len(header).to_bytes(4, "little") + header + b"\x00" * 64)
        with pytest.raises(SnapshotFormatError, match="bytes, but 64 follow the header"):
            load_index(path, ["c0000"], EMBEDDER)

    def test_trailing_garbage(self, tmp_path):
        index = random_index(random.Random(4), 4, 6)
        path = tmp_path / "g.idx"
        save_index(index, path, EMBEDDER)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(SnapshotFormatError):
            load_index(path, index.chunk_ids, EMBEDDER)

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
            load_index(path, ids(list(index.chunk_ids)), EMBEDDER)

    def test_id_digest_is_injective_over_newlines(self, tmp_path):
        vecs = np.stack([ensure_unit(np.ones(4)), ensure_unit(np.arange(1, 5))])
        path = tmp_path / "sentence.idx"
        save_index(LevelIndex(Level.SENTENCE, ["a\nb", "c"], vecs), path, EMBEDDER)
        with pytest.raises(SnapshotFormatError, match="do not match the corpus"):
            load_index(path, ["a", "b\nc"], EMBEDDER)

    def test_other_embedder_rejected(self, tmp_path):
        index = random_index(random.Random(4), 10, 6)
        path = tmp_path / "sentence.idx"
        save_index(index, path, EMBEDDER)
        with pytest.raises(SnapshotFormatError, match="'hashed-bow' embedder, not 'remote'"):
            load_index(path, index.chunk_ids, "remote")


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
            load_index(path, index.chunk_ids, EMBEDDER)
