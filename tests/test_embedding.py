"""Hashed bag-of-words embedder and vector boundary checks."""

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_text import ReferenceTokenizer, span_pairs

from hrr import embedding
from hrr.embedding import (
    CsrBatch,
    HashedBowEmbedder,
    cosine_similarity,
    embed_batch,
    ensure_unit,
)
from hrr.chunking import build_corpus
from hrr.config import EngineConfig, PathsConfig
from hrr.corpus import Level
from hrr.engine import ingest, load_context
from hrr.errors import DimensionMismatchError, InvalidInputError
from hrr.evaluation import compare
from hrr.retrievers import Strategy, retrieve
from hrr.synth import CorpusSpec, generate


def reference_bucket(token: str, dimension: int) -> int:
    """Independent re-derivation of the documented hash rule."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % dimension


def reference_vector(text: str, dimension: int) -> np.ndarray:
    """The documented recipe, one float64 count per token span."""
    lowered = text.lower()
    counts = np.zeros(dimension)
    for start, end in span_pairs(ReferenceTokenizer().token_spans(lowered)):
        counts[reference_bucket(lowered[start:end], dimension)] += 1.0
    norm = float(np.linalg.norm(counts))
    if norm == 0.0:
        counts[0], norm = 1.0, 1.0
    return (counts / norm).astype(np.float32)


class TestHashedBow:
    def test_hand_computed_two_word_vector(self):
        dim = 8
        provider = HashedBowEmbedder(dimension=dim)
        vec = embed_batch(provider, ["x y"])[0]

        counts = np.zeros(dim)
        counts[reference_bucket("x", dim)] += 1
        counts[reference_bucket("y", dim)] += 1
        expected = (counts / np.linalg.norm(counts)).astype(np.float32)
        assert np.array_equal(vec, expected)
        nonzero = int(np.count_nonzero(vec))
        assert nonzero in (1, 2)  # 1 only if the two tokens hash-collide
        assert abs(float(np.linalg.norm(vec.astype(np.float64))) - 1.0) <= 1e-6

    def test_determinism(self):
        provider = HashedBowEmbedder(dimension=32)
        a, b = embed_batch(provider, ["same text twice", "same text twice"])
        assert np.array_equal(a, b)

    def test_word_order_invariance(self):
        provider = HashedBowEmbedder(dimension=32)
        a, b = embed_batch(provider, ["alpha beta gamma", "gamma alpha beta"])
        assert np.array_equal(a, b)

    def test_lowercasing(self):
        provider = HashedBowEmbedder(dimension=32)
        a, b = embed_batch(provider, ["Alpha", "alpha"])
        assert np.array_equal(a, b)

    def test_tokenless_text_gets_basis_vector(self):
        provider = HashedBowEmbedder(dimension=8)
        vec = embed_batch(provider, [" \t "])[0]
        expected = np.zeros(8, dtype=np.float32)
        expected[0] = 1.0
        assert np.array_equal(vec, expected)

    @given(st.lists(st.text(max_size=60), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_recipe_bitwise(self, texts):
        provider = HashedBowEmbedder(dimension=16)
        for text, vec in zip(texts, provider.embed_batch(texts)):
            assert vec.tobytes() == reference_vector(text, 16).tobytes()

    @given(st.lists(st.text(min_size=1, max_size=30), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_outputs_unit_norm_and_dimension(self, texts):
        provider = HashedBowEmbedder(dimension=16)
        for vec in embed_batch(provider, texts):
            assert vec.shape == (16,)
            assert vec.dtype == np.float32
            assert abs(float(np.linalg.norm(vec.astype(np.float64))) - 1.0) <= 1e-6


#: Characters whose lowercasing or tokenizing is easy to get wrong: a dotted
#: capital I that lowercases to two code points, final and medial sigma, a
#: sharp s, astral letters and symbols, punctuation and whitespace.
TRICKY = "İiΣσςßẞ𐐀𐐨𝔘😀a1_.,!?-—'\" \t\n"

#: Texts a piece table can get wrong: a NUL, whitespace only (no token), a
#: dotted capital I, a final sigma, a sharp s and astral characters, within
#: a piece and alone.
EDGE_TEXTS = st.sampled_from([
    "a\x00b", "\x00", " \x00 ", " ", "\t\n\r\x0c ", "\x85\u2003", "İ", "İstanbul İi",
    "ΟΔΟΣ", "aΣ", "ΣΑΣ σας", "straße", "STRASSE ß ẞ", "𐐀𐐨 𝔘", "😀", "a😀b 😀!", "𝔘𝔫𝔦\x00𐐀",
])

#: Non-empty texts: tricky characters, runs of punctuation, whitespace only.
TEXTS = st.one_of(
    st.text(alphabet=TRICKY, min_size=1, max_size=40),
    st.text(min_size=1, max_size=40),
    st.text(alphabet="?!.,;:-", min_size=1, max_size=12),
    st.text(alphabet=" \t\n\r", min_size=1, max_size=5),
    EDGE_TEXTS,
)


class TestBatchOracle:
    """Every row of a batch is the per-text recipe, bit for bit."""

    @given(
        texts=st.lists(TEXTS, min_size=1, max_size=12),
        dimension=st.sampled_from([16, 384, 65_536]),
        block_chars=st.one_of(st.integers(1, 80), st.just(embedding._BLOCK_CHARS)),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_reference_across_block_edges(self, texts, dimension, block_chars):
        blocks = []
        buckets = embedding.PieceTable.buckets

        def looked_up(table, block, chars):
            blocks.append((len(block), chars))
            return buckets(table, block, chars)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(embedding, "_BLOCK_CHARS", block_chars)
            mp.setattr(embedding.PieceTable, "buckets", looked_up)
            rows = embed_batch(HashedBowEmbedder(dimension), texts)
        # A block is one row, or rows of at most the bound in all.
        assert all(n == 1 or chars <= block_chars for n, chars in blocks)
        assert len(rows) == len(texts)
        for text, row in zip(texts, rows):
            assert row.dtype == np.float32
            assert row.tobytes() == reference_vector(text, dimension).tobytes()

    @pytest.mark.parametrize("block_chars", [1, 40, 1 << 18])
    def test_a_batch_of_only_new_pieces(self, block_chars, monkeypatch):
        """After a batch of other words, a batch whose every piece is new
        to the piece table, looked up or scanned whole, is the recipe too."""
        monkeypatch.setattr(embedding, "_BLOCK_CHARS", block_chars)
        embedder = HashedBowEmbedder(64)
        known = [f"old{i} word{i % 3}." for i in range(20)]
        new = [f"NEW{i}x ÜBER{i}Σ 𐐀{i}, ß{i}" for i in range(30)]
        for batch in (known, new, known + new):
            rows = embed_batch(embedder, batch)
            expected = [reference_vector(text, 64).tobytes() for text in batch]
            assert [row.tobytes() for row in rows] == expected

    def test_threads_embedding_at_once_get_the_recipe(self, monkeypatch):
        """Threads that embed batches through one embedder at once, as a
        service does, each get the recipe's rows: batches share the piece
        table, so one runs at a time."""
        monkeypatch.setattr(embedding, "_BLOCK_CHARS", 50)
        embedder = HashedBowEmbedder(32)
        batches = [[f"w{i}x{j} shared{j % 5}. Σ{i}" for j in range(150)] for i in range(8)]
        expected = [[reference_vector(text, 32).tobytes() for text in batch] for batch in batches]
        start = threading.Barrier(len(batches))

        def embed(batch):
            start.wait(timeout=60)
            return embedder.embed_batch(batch)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(batches)) as pool:
                futures = [pool.submit(embed, batch) for batch in batches]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert [[row.tobytes() for row in rows] for rows in results] == expected

    def test_multi_text_batch_is_csr(self):
        rows = embed_batch(HashedBowEmbedder(384), ["alpha beta", "gamma", " "])
        assert isinstance(rows, CsrBatch)
        assert rows.columns.dtype == np.uint16
        assert np.diff(rows.indptr).tolist() == [2, 1, 1]
        assert rows[2].tobytes() == reference_vector(" ", 384).tobytes()

    def test_csr_reads_as_dense_rows(self):
        texts = ["one two two", "three", "four five six"]
        rows = embed_batch(HashedBowEmbedder(32), texts)
        dense = np.asarray(rows)
        assert dense.shape == (3, 32) and dense.dtype == np.float32
        assert [r.tobytes() for r in rows] == [r.tobytes() for r in dense]
        assert rows[-1].tobytes() == dense[2].tobytes()
        with pytest.raises(IndexError):
            rows[3]


class TestStream:
    """The proof the token stream rests on, and how long a stream lives."""

    def test_lowercasing_is_local_but_for_two_code_points(self):
        """Every code point but ``İ`` and ``Σ`` lowercases to one code point,
        whatever surrounds it, so a document without them lowercases whole
        to its code points' lowercases, one each. An interpreter whose
        Unicode tables disagree fails here instead of changing vectors."""
        others = [chr(c) for c in range(sys.maxunicode + 1)
                  if not 0xD800 <= c < 0xE000 and chr(c) not in embedding._NOT_LOCAL_LOWER]
        lowered = [char.lower() for char in others]
        assert all(len(char) == 1 for char in lowered)
        for glue in ("", " ", "A", "a."):
            assert glue.join(others).lower() == glue.lower().join(lowered)
        assert len("İ".lower()) == 2
        assert "ΑΣ".lower() != "Α".lower() + "Σ".lower()

    def test_a_stream_lives_while_its_corpus_levels_embed(self, monkeypatch):
        corpus = build_corpus(generate(CorpusSpec(seed=3, n_docs=2)).documents)
        built = []
        real = embedding._Stream
        monkeypatch.setattr(embedding, "_Stream", lambda *args: built.append(args) or real(*args))
        embedder = HashedBowEmbedder(64)
        for level in corpus.levels:
            rows = embed_batch(embedder, corpus.texts_at(level))
            assert isinstance(rows, CsrBatch)
            assert (embedder._stream is None) == (level is corpus.levels[-1])
        assert len(built) == 1 and embedder.streamed == 2 and embedder.fallback_rows == 0
        # A level embedded again, or another corpus, takes a new stream.
        embedder.embed_batch(corpus.texts_at(Level.SENTENCE))
        other = build_corpus(generate(CorpusSpec(seed=4, n_docs=1)).documents)
        embedder.embed_batch(other.texts_at(Level.SENTENCE))
        assert len(built) == 3 and built[-1][0] is other

    def test_threads_embedding_levels_at_once_get_the_recipe(self):
        """Threads that embed the levels of two corpora through one embedder
        at once, in any order, each get the per-text rows: the stream is
        shared state, so one level embeds at a time."""
        corpora = [build_corpus(generate(CorpusSpec(seed=seed, n_docs=2)).documents)
                   for seed in (3, 4)]
        jobs = [(corpus, level) for corpus in corpora for level in corpus.levels] * 2

        def arrays(rows):
            return [array.tobytes() for array in (rows.indptr, rows.columns, rows.values)]

        expected = [arrays(HashedBowEmbedder(32).embed_batch(list(corpus.texts_at(level))))
                    for corpus, level in jobs]
        embedder = HashedBowEmbedder(32)
        start = threading.Barrier(len(jobs))

        def embed(job):
            start.wait(timeout=60)
            return arrays(embedder.embed_batch(job[0].texts_at(job[1])))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
                futures = [pool.submit(embed, job) for job in jobs]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == expected

    def test_load_context_and_queries_build_no_stream(self, tmp_path, monkeypatch):
        synthetic = generate(CorpusSpec(seed=3, n_docs=2, n_needles=4))
        (tmp_path / "docs").mkdir()
        for doc_id, text in synthetic.documents.items():
            (tmp_path / "docs" / f"{doc_id}.txt").write_text(text, encoding="utf-8")
        config = EngineConfig(paths=PathsConfig(corpus_dir=str(tmp_path / "c")))
        ingest(tmp_path / "docs", config)

        def no_stream(*args):
            raise AssertionError("a stream was built")

        monkeypatch.setattr(embedding, "_Stream", no_stream)
        ctx = load_context(config)
        compare(ctx, synthetic.queries, list(Strategy))
        for query in synthetic.queries:
            retrieve(query.query, ctx)
        assert ctx.embedder._stream is None and ctx.embedder.streamed == 0


def _stub_provider(rows):
    """A provider that returns ``rows``, as a remote one hands back its block."""

    class Stub:
        name = "stub"
        dimension = rows.shape[1] if isinstance(rows, np.ndarray) else rows.dimension

        def embed_batch(self, texts):
            if isinstance(rows, CsrBatch):
                return CsrBatch(rows.indptr.copy(), rows.columns.copy(), rows.values.copy(),
                                rows.dimension)
            return rows.copy()

    return Stub()


def _scaled_unit_row(offset: float) -> np.ndarray:
    """A float32 row whose norm is ``1 + offset``, give or take float32 rounding."""
    row = np.float32([0.6, 0.0, 0.8, 0.0]) * np.float32(1.0 + offset)
    assert abs(np.linalg.norm(row.astype(np.float64)) - 1.0 - offset) < 1e-7
    return row


class TestBlockValidation:
    """The one check over a provider's rows keeps ``ensure_unit``'s semantics."""

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_row_off_unit_is_renormalized_like_ensure_unit(self, layout):
        off = _scaled_unit_row(2e-6)
        rows = np.stack([_scaled_unit_row(0.0), off])
        provider = _stub_provider(rows if layout == "dense" else _to_csr(rows))
        got = embed_batch(provider, ["a", "b"])
        assert got[1].tobytes() == ensure_unit(off).tobytes()
        assert got[1].tobytes() != off.tobytes()
        assert got[0].tobytes() == rows[0].tobytes()

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_row_within_tolerance_passes_unchanged(self, layout):
        near = _scaled_unit_row(5e-7)
        rows = np.stack([near, near])
        provider = _stub_provider(rows if layout == "dense" else _to_csr(rows))
        got = embed_batch(provider, ["a", "b"])
        assert got[0].tobytes() == near.tobytes() == ensure_unit(near).tobytes()

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    @pytest.mark.parametrize(
        "bad, message", [(np.nan, "non-finite"), (np.inf, "non-finite"), (0.0, "zero vector")]
    )
    def test_bad_row_raises_what_ensure_unit_raises(self, layout, bad, message):
        rows = np.stack([_scaled_unit_row(0.0), np.full(4, bad, dtype=np.float32)])
        provider = _stub_provider(rows if layout == "dense" else _to_csr(rows))
        with pytest.raises(InvalidInputError, match=message):
            ensure_unit(rows[1])
        with pytest.raises(InvalidInputError, match=message):
            embed_batch(provider, ["a", "b"])

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda b: b.columns.__setitem__(1, 4), "outside"),
            (lambda b: b.indptr.__setitem__(1, 9), "row pointers"),
            (lambda b: setattr(b, "values", b.values.astype(np.float64)), "float32"),
        ],
        ids=["column-past-dim", "indptr-not-rising", "float64-values"],
    )
    def test_malformed_csr_rows_rejected(self, corrupt, message):
        rows = _to_csr(np.stack([_scaled_unit_row(0.0)] * 2))
        corrupt(rows)
        with pytest.raises(InvalidInputError, match=message):
            embed_batch(_stub_provider(rows), ["a", "b"])

    def test_wrong_dimension_rejected(self):
        provider = _stub_provider(np.ones((1, 4), dtype=np.float32))
        provider.dimension = 5
        with pytest.raises(DimensionMismatchError):
            embed_batch(provider, ["a"])

    @given(
        scales=st.lists(st.floats(-3e-6, 3e-6), min_size=1, max_size=20),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_ensure_unit_row_by_row(self, scales, seed):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((len(scales), 24))
        unit = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        rows = (unit * (1.0 + np.array(scales))[:, None]).astype(np.float32)
        got = embed_batch(_stub_provider(rows), ["t"] * len(rows))
        for row, out in zip(rows, got):
            assert out.tobytes() == ensure_unit(row).tobytes()

    def test_norms_near_the_tolerance_go_to_ensure_unit(self):
        tol = 1e-6
        squared = np.array([1.0, (1 + tol) ** 2, (1 - tol) ** 2, (1 + tol / 2) ** 2, 0.0, np.nan])
        assert list(embedding._rows_off_unit(squared, 384)) == [1, 2, 4, 5]
        assert len(embedding._rows_off_unit(np.ones(3), 384)) == 0


def _to_csr(rows: np.ndarray) -> CsrBatch:
    """Every entry of ``rows`` stored, zeros too, as CSR."""
    count, dimension = rows.shape
    columns = np.tile(np.arange(dimension, dtype=np.uint16), count)
    indptr = np.arange(0, count * dimension + 1, dimension, dtype=np.int64)
    return CsrBatch(indptr, columns, rows.reshape(-1).copy(), dimension)


def _stored(rows: list[dict[int, float]], dimension: int) -> tuple[CsrBatch, np.ndarray]:
    """Rows given as ``{column: value}``, as CSR storing exactly those entries
    (zeros included) and as the dense block of the same rows."""
    dense = np.zeros((len(rows), dimension), dtype=np.float32)
    for row, entries in zip(dense, rows):
        row[list(entries)] = list(entries.values())
    indptr = np.cumsum([0, *map(len, rows)], dtype=np.int64)
    columns = np.array([c for entries in rows for c in sorted(entries)], dtype=np.uint16)
    values = np.array([entries[c] for entries in rows for c in sorted(entries)], dtype=np.float32)
    return CsrBatch(indptr, columns, values, dimension), dense


#: The width of the CSR rows below.
RENORM_DIM = 12
#: Rows off unit by 2e-6 in norm, with a negative entry.
_OFF = float(np.float32(0.6 * (1 + 2e-6))), float(np.float32(0.8 * (1 + 2e-6)))

#: CSR rows whose stored entries ``embed_batch`` checks or renormalizes.
RENORM_CASES = {
    "negative": [{0: -3.0, 5: 4.0}, {2: -0.5, 3: -0.5, 7: 0.25}],
    "stored-zeros": [{1: 0.0, 4: -0.0, 6: 2.0}, {0: -0.0, 3: 3.0, 11: 0.0}],
    "leading-empty-columns": [{9: 1.5, 11: 2.0}, {11: 7.0}],
    "one-entry": [{4: 0.5}, {0: -2.0}, {11: 1.0}],
    "off-by-2e-6": [{3: -_OFF[0], 8: _OFF[1]}, {0: _OFF[0], 1: 0.0, 11: -_OFF[1]}],
    "empty": [{1: 1.0}, {}],
    "stored-zeros-only": [{2: 0.0, 3: -0.0}],
    "nan": [{1: 1.0}, {1: np.nan, 2: 1.0}],
    "inf": [{0: np.inf}],
    "negative-inf": [{4: 1.0, 5: -np.inf}],
}


@st.composite
def stored_rows(draw) -> dict[int, float]:
    """A row's stored entries: any columns, float32 values of either sign,
    zeros of either sign, sometimes scaled to within a few 1e-6 of unit,
    and sometimes one NaN or infinity."""
    columns = sorted(draw(st.sets(st.integers(0, RENORM_DIM - 1), max_size=6)))
    value = st.one_of(st.floats(-4, 4, width=32), st.sampled_from([0.0, -0.0]))
    values = np.array([draw(value) for _ in columns], dtype=np.float64)
    scale = draw(st.sampled_from([None, 1.0, 1 + 2e-6, 1 - 2e-6, 1 + 5e-7]))
    norm = math.sqrt(float(np.sum(values * values)))
    if scale is not None and norm > 0:
        values = values / norm * scale
    values = values.astype(np.float32).tolist()
    bad = draw(st.sampled_from([None] * 8 + [np.nan, np.inf, -np.inf]))
    if bad is not None and columns:
        values[draw(st.integers(0, len(columns) - 1))] = bad
    return dict(zip(columns, values))


class TestCsrRenormalization:
    """``embed_batch`` renormalizes a CSR row from its stored values alone:
    every row comes out as ``ensure_unit`` of its dense form, byte for byte,
    and a row ``ensure_unit`` refuses raises what the dense layout raises."""

    @staticmethod
    def check(rows: list[dict[int, float]]) -> None:
        csr, dense = _stored(rows, RENORM_DIM)
        outcomes = []
        for vectors in (csr, dense):
            try:
                outcomes.append(embed_batch(_stub_provider(vectors), ["t"] * len(rows)))
            except InvalidInputError as exc:
                outcomes.append(str(exc))
        got, dense_got = outcomes
        if isinstance(dense_got, str):
            assert got == dense_got
            return
        assert isinstance(got, CsrBatch)
        assert got.indptr.tobytes() == csr.indptr.tobytes()
        assert got.columns.tobytes() == csr.columns.tobytes()
        for i, row in enumerate(dense):
            expected = ensure_unit(row)
            start, end = csr.indptr[i], csr.indptr[i + 1]
            assert got.values[start:end].tobytes() == expected[csr.columns[start:end]].tobytes()
            assert dense_got[i].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", RENORM_CASES)
    def test_named_rows(self, name):
        self.check(RENORM_CASES[name])

    @given(rows=st.lists(stored_rows(), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_drawn_rows(self, rows):
        self.check(rows)


class TestEmbedBatchValidation:
    def test_empty_list_rejected(self):
        with pytest.raises(InvalidInputError):
            embed_batch(HashedBowEmbedder(dimension=8), [])

    def test_empty_string_rejected(self):
        with pytest.raises(InvalidInputError):
            embed_batch(HashedBowEmbedder(dimension=8), ["ok", ""])

    def test_lone_surrogate_rejected(self):
        with pytest.raises(InvalidInputError, match=r"texts\[1\] holds a lone surrogate"):
            embed_batch(HashedBowEmbedder(dimension=8), ["ok", "x\udc80y"])

    def test_order_preserving(self):
        provider = HashedBowEmbedder(dimension=16)
        texts = ["one", "two", "three"]
        vectors = embed_batch(provider, texts)
        singles = [embed_batch(provider, [t])[0] for t in texts]
        for got, want in zip(vectors, singles):
            assert np.array_equal(got, want)


class TestCosine:
    def test_self_similarity(self):
        provider = HashedBowEmbedder(dimension=64)
        v = embed_batch(provider, ["some chunk of text"])[0]
        assert abs(cosine_similarity(v, v) - 1.0) <= 1e-6

    def test_orthogonal(self):
        a = np.zeros(4, dtype=np.float32)
        b = np.zeros(4, dtype=np.float32)
        a[0] = 1.0
        b[1] = 1.0
        assert cosine_similarity(a, b) == 0.0

    def test_analytic_45_degrees(self):
        a = ensure_unit(np.array([1.0, 0.0]))
        b = ensure_unit(np.array([1.0, 1.0]))
        assert cosine_similarity(a, b) == pytest.approx(0.7071, abs=1e-4)

    def test_symmetry(self):
        provider = HashedBowEmbedder(dimension=32)
        a, b = embed_batch(provider, ["left text", "right text"])
        assert cosine_similarity(a, b) == cosine_similarity(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            cosine_similarity(np.ones(3, dtype=np.float32), np.ones(4, dtype=np.float32))


def ensure_unit_bits() -> list[str]:
    """``ensure_unit``'s output bytes, as hex, for Gaussian vectors (d = 384)
    scaled off unit by amounts from far outside to just inside its 1e-6
    tolerance, made with no BLAS call."""
    raw = np.random.default_rng(24).standard_normal((16, 384))
    unit = raw / np.sqrt(np.einsum("ij,ij->i", raw, raw))[:, None]
    offsets = [0.0, 5e-7, -5e-7, 9.99e-7, -9.99e-7, 1e-6, -1e-6, 1.001e-6, -1.001e-6,
               2e-6, -2e-6, 1e-5, 1e-3, -1e-3, 0.5, 2.0]
    rows = (unit * (1.0 + np.array(offsets))[:, None]).astype(np.float32)
    return [ensure_unit(row).tobytes().hex() for row in rows]


class TestEnsureUnit:
    def test_same_bits_under_another_blas_kernel(self):
        """``ensure_unit`` returns the same bits in a child process under
        OpenBLAS's Prescott kernel, whose BLAS routines sum in another order
        than the host's default: it takes its norm with no BLAS call."""
        tests = Path(__file__).resolve().parent
        env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott",
               "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
        proc = subprocess.run(
            [sys.executable, "-c",
             "import json, test_embedding; print(json.dumps(test_embedding.ensure_unit_bits()))"],
            cwd=tests, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-3000:]
        assert json.loads(proc.stdout) == ensure_unit_bits()

    def test_passes_unit_vectors_through_bitwise(self):
        v = embed_batch(HashedBowEmbedder(dimension=16), ["hello there"])[0]
        assert ensure_unit(v) is not None
        assert np.array_equal(ensure_unit(v), v)

    def test_normalizes_off_unit(self):
        v = ensure_unit(np.array([3.0, 4.0]))
        assert np.allclose(v, [0.6, 0.8])

    def test_rejects_zero(self):
        with pytest.raises(InvalidInputError):
            ensure_unit(np.zeros(4))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            ensure_unit(np.array([np.nan, 1.0]))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(DimensionMismatchError):
            ensure_unit(np.ones(3), dimension=4)

    def test_rejects_matrix(self):
        with pytest.raises(InvalidInputError):
            ensure_unit(np.ones((2, 2)))
