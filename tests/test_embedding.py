"""Hashed bag-of-words embedder and vector boundary checks."""

import hashlib
import json
import math
import os
import subprocess
import sys
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
from hrr.errors import DimensionMismatchError, InvalidInputError


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

#: Non-empty texts: tricky characters, runs of punctuation, whitespace only.
TEXTS = st.one_of(
    st.text(alphabet=TRICKY, min_size=1, max_size=40),
    st.text(min_size=1, max_size=40),
    st.text(alphabet="?!.,;:-", min_size=1, max_size=12),
    st.text(alphabet=" \t\n\r", min_size=1, max_size=5),
)


class TestBatchOracle:
    """Every row of a batch is the per-text recipe, bit for bit."""

    @given(
        texts=st.lists(TEXTS, min_size=1, max_size=12),
        dimension=st.sampled_from([16, 384]),
        block_rows=st.integers(1, 5),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_reference_across_block_edges(self, texts, dimension, block_rows):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(embedding, "_BLOCK_CELLS", block_rows * dimension)
            rows = embed_batch(HashedBowEmbedder(dimension), texts)
        assert len(rows) == len(texts)
        for text, row in zip(texts, rows):
            assert row.dtype == np.float32
            assert row.tobytes() == reference_vector(text, dimension).tobytes()

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
