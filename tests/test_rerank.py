"""Rerank scoring, ordering, truncation, and fallback behavior."""

import importlib
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_text import span_pairs

from hrr.config import EngineConfig
from hrr.engine import context_for
from hrr.errors import InvalidInputError, InvalidRequestError, ProviderUnavailableError
from hrr.evaluation import compare
from hrr.rerank import (
    FALLBACK_PASSTHROUGH,
    TOKEN_SET_CACHE_SIZE,
    LexicalOverlapReranker,
    RerankRequest,
    ScoredCandidate,
    rerank,
    top_k,
)
from hrr.retrievers import Strategy
from hrr.synth import CorpusSpec, generate
from hrr.tokens import WordPunctTokenizer

SCORER = LexicalOverlapReranker()
rerank_module = importlib.import_module("hrr.rerank")  # the package re-exports rerank()

#: Text where word, digit, underscore and punctuation runs meet, with letters
#: whose lowercase is longer (İ) or context-dependent (Σ).
TRICKY_TEXT = st.text(alphabet="aZİıßΣς09_!?.,-'\" \t\n", max_size=40)


def make_request(query, pairs):
    return RerankRequest(query, tuple(pairs))


class TestLexicalScorer:
    def test_hand_computed_coverage(self):
        # query has 2 distinct tokens; first candidate covers both, second none
        scores = SCORER.score_pairs(
            "solar subsidy", ["solar subsidy scheme details", "unrelated text"]
        )
        assert scores == [1.0, 0.0]

    def test_partial_coverage_fraction(self):
        # 4 query tokens, candidate covers "grain" and "storage" only
        scores = SCORER.score_pairs(
            "grain storage permit rules", ["grain storage depots expanded"]
        )
        assert scores == [2 / 4]

    def test_case_insensitive(self):
        assert SCORER.score_pairs("Solar", ["SOLAR panels"]) == [1.0]

    def test_tokenless_query_scores_zero(self):
        assert SCORER.score_pairs("   ", ["anything"]) == [0.0]

    def test_duplicates_in_text_do_not_inflate(self):
        a, b = SCORER.score_pairs("solar", ["solar solar solar", "solar"])
        assert a == b == 1.0


def reference_score(query: str, text: str) -> float:
    """The scorer's definition, from token spans and with no cache."""

    def token_set(s: str) -> set[str]:
        lowered = s.lower()
        spans = span_pairs(WordPunctTokenizer().token_spans(lowered))
        return {lowered[a:b] for a, b in spans}

    q = token_set(query)
    return len(q & token_set(text)) / len(q) if q else 0.0


def count_tokenized(monkeypatch) -> Counter:
    """Count every ``WordPunctTokenizer.tokens`` call by its text from now on."""
    calls: Counter = Counter()
    original = WordPunctTokenizer.tokens

    def counting(text):
        calls[text] += 1
        return original(text)

    monkeypatch.setattr(WordPunctTokenizer, "tokens", staticmethod(counting))
    return calls


class TestTokenSetCache:
    @given(
        st.one_of(TRICKY_TEXT, st.text(max_size=30)),
        st.lists(st.one_of(TRICKY_TEXT, st.text(max_size=40)), max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_cached_scores_match_definition(self, query, texts):
        with mock.patch.object(rerank_module, "TOKEN_SET_CACHE_SIZE", 4):
            scorer = LexicalOverlapReranker()
        expected = [reference_score(query, text) for text in texts]
        for _ in range(2):  # cold, then warm or partly evicted
            # Float equality is bitwise here: no NaN, no negative zero.
            assert scorer.score_pairs(query, texts) == expected
            assert scorer._candidate_set.cache_info().currsize <= 4

    def test_bound_is_the_module_constant(self):
        assert LexicalOverlapReranker()._candidate_set.cache_info().maxsize == TOKEN_SET_CACHE_SIZE

    def test_query_is_not_cached(self, monkeypatch):
        calls = count_tokenized(monkeypatch)
        scorer = LexicalOverlapReranker()
        for _ in range(3):
            assert scorer.score_pairs("solar grant", ["solar panels"]) == [0.5]
        assert calls == {"solar grant": 3, "solar panels": 1}
        assert scorer._candidate_set.cache_info().currsize == 1

    def test_instances_do_not_share_a_cache(self, monkeypatch):
        calls = count_tokenized(monkeypatch)
        first, second = LexicalOverlapReranker(), LexicalOverlapReranker()
        first.score_pairs("q", ["solar panels"])
        second.score_pairs("q", ["solar panels"])
        first.score_pairs("q", ["solar panels"])
        assert calls["solar panels"] == 2

    def test_compare_tokenizes_each_candidate_once(self, monkeypatch):
        synthetic = generate(CorpusSpec(seed=42))
        candidates: set[str] = set()

        class Recording(LexicalOverlapReranker):
            def score_pairs(self, query, texts):
                candidates.update(texts)
                return super().score_pairs(query, texts)

        ctx = context_for(synthetic.corpus, EngineConfig(), reranker=Recording())
        queries = {q.query.lower() for q in synthetic.queries}
        calls = count_tokenized(monkeypatch)
        compare(ctx, synthetic.queries, list(Strategy))
        lowered = Counter(text.lower() for text in candidates)
        assert len(candidates) == 243 and queries.isdisjoint(lowered)
        # Besides the queries (embedded and scored uncached), each distinct
        # candidate text is tokenized exactly once over the four strategies.
        assert {text: n for text, n in calls.items() if text not in queries} == lowered
        calls.clear()
        compare(ctx, synthetic.queries, list(Strategy))
        assert calls and set(calls) <= queries


class TestRerankOperation:
    def test_orders_by_relevance(self):
        request = make_request(
            "solar subsidy",
            [("c2", "unrelated text"), ("c1", "solar subsidy scheme details")],
        )
        ranked = rerank(SCORER, request)
        assert [c.chunk_id for c in ranked] == ["c1", "c2"]
        assert ranked[0].score == 1.0 and ranked[1].score == 0.0

    def test_singleton(self):
        ranked = rerank(SCORER, make_request("q", [("only", "some q text")]))
        assert [c.chunk_id for c in ranked] == ["only"]

    def test_permutation_no_drop_no_invent(self):
        pairs = [(f"c{i}", f"text number {i}") for i in range(12)]
        ranked = rerank(SCORER, make_request("text number 3", pairs))
        assert sorted(c.chunk_id for c in ranked) == sorted(p[0] for p in pairs)

    def test_input_order_invariance(self):
        pairs = [("a", "solar item"), ("b", "subsidy item"), ("c", "plain item")]
        fwd = rerank(SCORER, make_request("solar subsidy", pairs))
        rev = rerank(SCORER, make_request("solar subsidy", list(reversed(pairs))))
        assert fwd == rev

    def test_ties_broken_by_id(self):
        pairs = [("zz", "nothing here"), ("aa", "nothing there"), ("mm", "still nothing")]
        ranked = rerank(SCORER, make_request("query words", pairs))
        assert [c.chunk_id for c in ranked] == ["aa", "mm", "zz"]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InvalidRequestError):
            rerank(SCORER, make_request("q", [("x", "a"), ("x", "b")]))

    def test_empty_candidates_rejected(self):
        with pytest.raises(InvalidRequestError):
            rerank(SCORER, make_request("q", []))

    def test_empty_query_rejected(self):
        with pytest.raises(InvalidRequestError):
            rerank(SCORER, make_request("  ", [("x", "a")]))

    @given(
        st.lists(
            st.tuples(st.integers(0, 50), st.text(max_size=20)),
            min_size=1,
            max_size=15,
            unique_by=lambda t: t[0],
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_property_sorted_and_permutation(self, raw):
        pairs = [(f"c{i}", text) for i, text in raw]
        ranked = rerank(SCORER, make_request("some query words here", pairs))
        assert sorted(c.chunk_id for c in ranked) == sorted(p[0] for p in pairs)
        keys = [(-c.score, c.chunk_id) for c in ranked]
        assert keys == sorted(keys)


class _FailingProvider:
    name = "failing"

    def score_pairs(self, query, texts):
        raise ProviderUnavailableError("no backend")


class _MiscountingProvider:
    name = "miscounting"

    def score_pairs(self, query, texts):
        return [1.0]


class TestFallback:
    def test_error_mode_propagates(self):
        request = make_request("q", [("a", "one"), ("b", "two")])
        with pytest.raises(ProviderUnavailableError):
            rerank(_FailingProvider(), request)

    def test_passthrough_keeps_request_order_scores_unset(self):
        request = make_request("q", [("b", "two"), ("a", "one"), ("c", "three")])
        ranked = rerank(_FailingProvider(), request, fallback=FALLBACK_PASSTHROUGH)
        assert [c.chunk_id for c in ranked] == ["b", "a", "c"]
        assert all(c.score is None for c in ranked)

    def test_unknown_fallback_rejected(self):
        request = make_request("q", [("a", "one")])
        with pytest.raises(InvalidInputError):
            rerank(SCORER, request, fallback="panic")

    def test_miscounted_scores_rejected(self):
        request = make_request("q", [("a", "one"), ("b", "two")])
        with pytest.raises(ProviderUnavailableError):
            rerank(_MiscountingProvider(), request)


class TestScoreMixing:
    def test_lambda_zero_is_default_no_op(self):
        request = make_request("solar", [("a", "solar text"), ("b", "other text")])
        plain = rerank(SCORER, request)
        mixed = rerank(SCORER, request, mix_lambda=0.0, sentence_bonus={"b": 100.0})
        assert plain == mixed

    def test_bonus_shifts_scores(self):
        request = make_request("solar", [("a", "solar text"), ("b", "other text")])
        ranked = rerank(SCORER, request, mix_lambda=0.5, sentence_bonus={"b": 4.0})
        by_id = {c.chunk_id: c.score for c in ranked}
        assert by_id["a"] == 1.0  # no bonus
        assert by_id["b"] == 0.0 + 0.5 * 4.0
        assert [c.chunk_id for c in ranked] == ["b", "a"]


class TestTopK:
    def test_first_five_of_twelve(self):
        ranked = [ScoredCandidate(f"c{i:02d}", 1.0 - i / 100) for i in range(12)]
        assert top_k(ranked, 5) == ranked[:5]

    def test_saturation(self):
        ranked = [ScoredCandidate(f"c{i}", 1.0 - i / 10) for i in range(3)]
        assert top_k(ranked, 5) == ranked

    def test_argmax(self):
        ranked = rerank(
            SCORER,
            make_request("solar", [("a", "solar text"), ("b", "other text")]),
        )
        assert [c.chunk_id for c in top_k(ranked, 1)] == ["a"]

    def test_k_below_one(self):
        with pytest.raises(InvalidInputError):
            top_k([ScoredCandidate("a", 1.0)], 0)


def test_a_scored_candidate_is_a_named_tuple():
    hit = ScoredCandidate("p0", 0.5)
    assert (hit.chunk_id, hit.score) == hit == ("p0", 0.5)
    assert ScoredCandidate("p0", None) == ("p0", None) != hit
