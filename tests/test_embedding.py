"""Hashed bag-of-words embedder and vector boundary checks."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrr.embedding import (
    HashedBowEmbedder,
    cosine_similarity,
    embed_batch,
    ensure_unit,
)
from hrr.errors import DimensionMismatchError, InvalidInputError
from hrr.tokens import WordPunctTokenizer


def reference_bucket(token: str, dimension: int) -> int:
    """Independent re-derivation of the documented hash rule."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % dimension


def reference_vector(text: str, dimension: int) -> np.ndarray:
    """The documented recipe, one float64 count per token span."""
    lowered = text.lower()
    counts = np.zeros(dimension)
    for start, end in WordPunctTokenizer().token_spans(lowered):
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


class TestEmbedBatchValidation:
    def test_empty_list_rejected(self):
        with pytest.raises(InvalidInputError):
            embed_batch(HashedBowEmbedder(dimension=8), [])

    def test_empty_string_rejected(self):
        with pytest.raises(InvalidInputError):
            embed_batch(HashedBowEmbedder(dimension=8), ["ok", ""])

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


class TestEnsureUnit:
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
