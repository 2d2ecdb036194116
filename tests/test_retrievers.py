"""Strategy pipelines verified stage-by-stage against brute-force oracles.

The oracle code here recomputes every stage directly: per-chunk cosine over
all nodes of a level, parent mapping via raw parent_id links, best-score
dedup, and coverage scores, all independent of LevelIndex.search and the
retriever implementations.
"""

import dataclasses
import hashlib
import json

import pytest

from hrr.chunking import ChunkingConfig, build_corpus
from hrr.corpus import Level
from hrr.embedding import HashedBowEmbedder, cosine_similarity, embed_batch
from hrr.engine import context_for, ingest, load_context
from hrr.config import EngineConfig, PathsConfig
from hrr.errors import (
    EmptyCorpusError,
    InvalidInputError,
    MissingIndexError,
    ProviderUnavailableError,
)
from hrr.evaluation import compare
from hrr.rerank import FALLBACK_PASSTHROUGH, LexicalOverlapReranker
from hrr.retrievers import (
    RetrievalContext,
    Strategy,
    retrieve,
)
from hrr.synth import CorpusSpec, generate

from conftest import TOY_CHUNKING


# ---------------------------------------------------------------------------
# Brute-force oracle helpers
# ---------------------------------------------------------------------------


def embed_one(ctx, text):
    return embed_batch(ctx.embedder, [text])[0]


def brute_force_hits(ctx, level, query_vec, k):
    """Score every chunk of a level directly; sort by (score desc, id asc)."""
    nodes = ctx.corpus.nodes_at(level)
    scored = [
        (n.id, cosine_similarity(embed_one(ctx, ctx.corpus.chunk_text(n.id)), query_vec))
        for n in nodes
    ]
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:k]


def ancestor(corpus, chunk_id, level):
    node = corpus.get(chunk_id)
    while node.level is not level:
        node = corpus.get(node.parent_id)
    return node.id


def dedup_best(pairs):
    best = {}
    for cid, score in pairs:
        if score > best.get(cid, float("-inf")):
            best[cid] = score
    return sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))


def coverage_scores(ctx, query, ids):
    scorer = LexicalOverlapReranker()
    texts = [ctx.corpus.chunk_text(cid) for cid in ids]
    return dict(zip(ids, scorer.score_pairs(query, texts)))


def as_pairs(candidates):
    return [(c.chunk_id, c.score) for c in candidates]


QUERY = "zorblat fenwick grant money"


class TestHrrStageConformance:
    def test_stage_sequence(self, toy_context):
        result = retrieve(QUERY, toy_context)
        assert [t.stage for t in result.trace] == [
            "sentence_hits",
            "intermediate_hits",
            "sentence_to_intermediate",
            "rerank_pool",
            "reranked",
            "rerank_top_k",
            "parents",
        ]

    def test_every_stage_matches_oracle(self, toy_context):
        ctx = toy_context
        k = ctx.config.similarity_top_k
        result = retrieve(QUERY, ctx)
        qv = embed_one(ctx, QUERY)

        sent = brute_force_hits(ctx, Level.SENTENCE, qv, k)
        inter = brute_force_hits(ctx, Level.INTERMEDIATE, qv, k)
        assert as_pairs(result.stage("sentence_hits")) == sent
        assert as_pairs(result.stage("intermediate_hits")) == inter

        mapped = [
            (ancestor(ctx.corpus, cid, Level.INTERMEDIATE), score) for cid, score in sent
        ]
        assert as_pairs(result.stage("sentence_to_intermediate")) == mapped

        pool = dedup_best(mapped + inter)
        assert as_pairs(result.stage("rerank_pool")) == pool

        cover = coverage_scores(ctx, QUERY, [cid for cid, _ in pool])
        reranked = sorted(
            ((cid, cover[cid]) for cid, _ in pool), key=lambda t: (-t[1], t[0])
        )
        assert as_pairs(result.stage("reranked")) == reranked

        top = reranked[: ctx.config.rerank_top_k]
        assert as_pairs(result.stage("rerank_top_k")) == top

        parents, seen = [], set()
        for cid, score in top:
            pid = ancestor(ctx.corpus, cid, Level.PARENT)
            if pid not in seen:
                seen.add(pid)
                parents.append((pid, score))
        assert as_pairs(result.parents) == parents

    def test_pool_is_exactly_the_union(self, toy_context):
        result = retrieve(QUERY, toy_context)
        from_sentences = {c.chunk_id for c in result.stage("sentence_to_intermediate")}
        direct = {c.chunk_id for c in result.stage("intermediate_hits")}
        pool = {c.chunk_id for c in result.stage("rerank_pool")}
        assert pool == from_sentences | direct

    def test_frozen_toy_expectations(self, toy_context):
        # The needle words live in one alpha sentence; its intermediate must
        # win the rerank and alpha's parent must come back first.
        result = retrieve(QUERY, toy_context)
        top_sentence = result.stage("sentence_hits")[0]
        assert "zorblat fenwick" in toy_context.corpus.chunk_text(top_sentence.chunk_id)
        best = result.stage("reranked")[0]
        text = toy_context.corpus.chunk_text(best.chunk_id)
        assert "zorblat" in text and best.score == 0.75  # covers 3 of 4 query tokens
        assert result.parents[0].chunk_id.startswith("alpha:")
        assert result.parents[0].chunk_id == "alpha:p0"

    def test_output_contract(self, toy_context):
        result = retrieve(QUERY, toy_context)
        ids = result.parent_ids()
        assert len(ids) == len(set(ids))
        assert len(ids) <= toy_context.config.rerank_top_k
        for pid in ids:
            assert toy_context.corpus.get(pid).level is Level.PARENT

    def test_determinism_byte_identical(self, toy_context):
        a = retrieve(QUERY, toy_context)
        b = retrieve(QUERY, toy_context)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )


def with_strategy(ctx, strategy, **cfg_overrides):
    config = dataclasses.replace(ctx.config, strategy=strategy, **cfg_overrides)
    return dataclasses.replace(ctx, config=config)


class TestBase:
    def test_matches_oracle(self, toy_context):
        ctx = with_strategy(toy_context, Strategy.BASE)
        result = retrieve(QUERY, ctx)
        qv = embed_one(ctx, QUERY)
        hits = brute_force_hits(ctx, Level.PARENT, qv, ctx.config.similarity_top_k)
        assert as_pairs(result.stage("parent_hits")) == hits
        cover = coverage_scores(ctx, QUERY, [cid for cid, _ in hits])
        reranked = sorted(((c, cover[c]) for c, _ in hits), key=lambda t: (-t[1], t[0]))
        assert as_pairs(result.parents) == reranked[: ctx.config.rerank_top_k]

    def test_single_parent_corpus(self):
        corpus = build_corpus(
            {"solo": "Just one tiny document here. Nothing else at all."},
            ChunkingConfig(parent_size=40, intermediate_size=16, sub_intermediate_size=8),
        )
        ctx = context_for(corpus, EngineConfig(), embedder=HashedBowEmbedder(dimension=32))
        result = retrieve("tiny document", with_strategy(ctx, Strategy.BASE))
        assert result.parent_ids() == ["solo:p0"]

    def test_rerank_granularity_is_parent_text(self, toy_context):
        ctx = with_strategy(toy_context, Strategy.BASE)
        result = retrieve(QUERY, ctx)
        for cand in result.stage("rerank_pool"):
            assert ctx.corpus.get(cand.chunk_id).level is Level.PARENT


class TestC2P:
    def test_matches_oracle_with_best_hit_pool_order(self, toy_context):
        ctx = with_strategy(toy_context, Strategy.C2P)
        result = retrieve(QUERY, ctx)
        qv = embed_one(ctx, QUERY)
        k = ctx.config.similarity_top_k
        all_hits = (
            brute_force_hits(ctx, Level.PARENT, qv, k)
            + brute_force_hits(ctx, Level.INTERMEDIATE, qv, k)
            + brute_force_hits(ctx, Level.SUB_INTERMEDIATE, qv, k)
        )
        mapped = [(ancestor(ctx.corpus, cid, Level.PARENT), s) for cid, s in all_hits]
        assert as_pairs(result.stage("rerank_pool")) == dedup_best(mapped)

    def test_sub_hit_maps_to_parent(self, toy_context):
        ctx = with_strategy(toy_context, Strategy.C2P)
        result = retrieve(QUERY, ctx)
        sub_hits = result.stage("sub_intermediate_hits")
        assert sub_hits, "sub tier must be searched"
        pool_ids = {c.chunk_id for c in result.stage("rerank_pool")}
        for hit in sub_hits:
            assert ancestor(ctx.corpus, hit.chunk_id, Level.PARENT) in pool_ids

    def test_same_parent_via_two_levels_appears_once(self, toy_context):
        ctx = with_strategy(toy_context, Strategy.C2P)
        result = retrieve(QUERY, ctx)
        pool = result.stage("rerank_pool")
        ids = [c.chunk_id for c in pool]
        assert len(ids) == len(set(ids))

    def test_requires_sub_index(self):
        corpus = build_corpus(
            {"d": "Alpha beta gamma. Delta epsilon zeta. Eta theta iota."},
            ChunkingConfig(parent_size=40, intermediate_size=16, sub_intermediate_size=None),
        )
        ctx = context_for(corpus, EngineConfig(), embedder=HashedBowEmbedder(dimension=32))
        with pytest.raises(MissingIndexError):
            retrieve("alpha beta", with_strategy(ctx, Strategy.C2P))


class TestS2P:
    def test_matches_oracle(self, toy_context):
        ctx = with_strategy(toy_context, Strategy.S2P)
        result = retrieve(QUERY, ctx)
        qv = embed_one(ctx, QUERY)
        sent = brute_force_hits(ctx, Level.SENTENCE, qv, ctx.config.similarity_top_k)
        assert as_pairs(result.stage("sentence_hits")) == sent
        mapped = [(ancestor(ctx.corpus, cid, Level.PARENT), s) for cid, s in sent]
        assert as_pairs(result.stage("rerank_pool")) == dedup_best(mapped)

    def test_hits_in_one_parent_collapse_to_pool_of_one(self, toy_context):
        ctx = with_strategy(toy_context, Strategy.S2P, similarity_top_k=1)
        result = retrieve(QUERY, ctx)
        assert len(result.stage("rerank_pool")) == 1

    def test_differs_from_hrr_only_in_rerank_granularity(self, toy_context):
        s2p = retrieve(QUERY, with_strategy(toy_context, Strategy.S2P))
        hrr = retrieve(QUERY, with_strategy(toy_context, Strategy.HRR))
        assert s2p.stage("sentence_hits") == hrr.stage("sentence_hits")
        s2p_levels = {
            toy_context.corpus.get(c.chunk_id).level for c in s2p.stage("rerank_pool")
        }
        hrr_levels = {
            toy_context.corpus.get(c.chunk_id).level for c in hrr.stage("rerank_pool")
        }
        assert s2p_levels == {Level.PARENT}
        assert hrr_levels == {Level.INTERMEDIATE}


RERANK_STAGES = ["rerank_pool", "reranked", "rerank_top_k", "parents"]


class TestSharedBehavior:
    # hrr's stage list is pinned by TestHrrStageConformance.
    @pytest.mark.parametrize(
        "strategy,stages",
        [
            (Strategy.BASE, ["parent_hits", *RERANK_STAGES]),
            (Strategy.C2P, ["parent_hits", "intermediate_hits", "sub_intermediate_hits",
                            *RERANK_STAGES]),
            (Strategy.S2P, ["sentence_hits", *RERANK_STAGES]),
        ],
    )
    def test_baseline_stage_sequence(self, toy_context, strategy, stages):
        result = retrieve(QUERY, with_strategy(toy_context, strategy))
        assert [t.stage for t in result.trace] == stages

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_parents_unique_parent_level_bounded(self, toy_context, strategy):
        result = retrieve(QUERY, with_strategy(toy_context, strategy))
        ids = result.parent_ids()
        assert len(ids) == len(set(ids))
        assert 1 <= len(ids) <= toy_context.config.rerank_top_k
        for pid in ids:
            assert toy_context.corpus.get(pid).level is Level.PARENT

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_rerun_identical(self, toy_context, strategy):
        ctx = with_strategy(toy_context, strategy)
        assert retrieve(QUERY, ctx) == retrieve(QUERY, ctx)

    def test_query_with_lone_surrogate_rejected(self, toy_context):
        with pytest.raises(InvalidInputError, match="surrogate"):
            retrieve("caf\udcff", toy_context)

    def test_empty_corpus_rejected(self):
        empty = build_corpus({}, TOY_CHUNKING)
        ctx = RetrievalContext(
            corpus=empty,
            indices={},
            embedder=HashedBowEmbedder(dimension=8),
            reranker=LexicalOverlapReranker(),
        )
        with pytest.raises(EmptyCorpusError):
            retrieve("anything", ctx)


class _DownReranker:
    name = "down"

    def score_pairs(self, query, texts):
        raise ProviderUnavailableError("rerank backend offline")


class TestRerankFallbackIntegration:
    def test_passthrough_preserves_pool_order(self, toy_corpus):
        ctx = context_for(
            toy_corpus,
            EngineConfig(chunking=TOY_CHUNKING),
            embedder=HashedBowEmbedder(dimension=64),
            reranker=_DownReranker(),
        )
        ctx = dataclasses.replace(
            ctx, rerank=dataclasses.replace(ctx.rerank, fallback=FALLBACK_PASSTHROUGH)
        )
        result = retrieve(QUERY, ctx)
        pool_ids = [c.chunk_id for c in result.stage("rerank_pool")]
        reranked_ids = [c.chunk_id for c in result.stage("reranked")]
        assert reranked_ids == pool_ids
        assert all(c.score is None for c in result.parents)

    def test_error_mode_propagates(self, toy_corpus):
        ctx = context_for(
            toy_corpus,
            EngineConfig(chunking=TOY_CHUNKING),
            embedder=HashedBowEmbedder(dimension=64),
            reranker=_DownReranker(),
        )
        with pytest.raises(ProviderUnavailableError):
            retrieve(QUERY, ctx)


class TestScoreMixingIntegration:
    def test_lambda_promotes_sentence_backed_intermediates(self, toy_corpus):
        config = EngineConfig(chunking=TOY_CHUNKING)
        base_ctx = context_for(
            toy_corpus, config, embedder=HashedBowEmbedder(dimension=64)
        )
        mixed_ctx = dataclasses.replace(
            base_ctx, rerank=dataclasses.replace(base_ctx.rerank, mix_lambda=0.5)
        )
        plain = retrieve(QUERY, base_ctx)
        mixed = retrieve(QUERY, mixed_ctx)
        plain_scores = {c.chunk_id: c.score for c in plain.stage("reranked")}
        mixed_scores = {c.chunk_id: c.score for c in mixed.stage("reranked")}
        boosted: dict[str, float] = {}
        for c in plain.stage("sentence_to_intermediate"):
            boosted[c.chunk_id] = max(boosted.get(c.chunk_id, float("-inf")), c.score)
        for cid, score in mixed_scores.items():
            expected = plain_scores[cid] + 0.5 * boosted.get(cid, 0.0)
            assert score == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# The whole retrieval output, pinned
# ---------------------------------------------------------------------------


def _hex_scores(value):
    """``value`` with every float replaced by its ``float.hex``, so a digest
    tells ``-0.0`` from ``0.0`` and sees the last bit of every score."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, dict):
        return {key: _hex_scores(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_hex_scores(item) for item in value]
    return value


class TestWholeOutputDigest:
    """Every trace stage of every strategy, and ``compare()``'s summaries,
    on the seed-42 20-doc synth corpus as ``hrr ingest`` persists it and
    ``load_context`` reads it back: the needle queries, the one-word
    queries ``the`` and ``modaki`` and a query of made-up words. A speed-up
    that moves any score, id or order fails here."""

    #: sha256 of the canonical JSON of the retrievals and summaries below.
    DIGEST = "ee3b0e5f0466758a2ce6b9dbba8520c870ecb113abea35e28d0513ef9832e5ae"

    def test_retrievals_and_summaries_are_unchanged(self, tmp_path):
        synthetic = generate(CorpusSpec(seed=42, n_docs=20, n_needles=30))
        docs = tmp_path / "docs"
        docs.mkdir()
        for doc_id, text in synthetic.documents.items():
            (docs / f"{doc_id}.txt").write_bytes(text.encode("utf-8"))
        config = EngineConfig(
            paths=PathsConfig(
                corpus_dir=str(tmp_path / "corpus"), index_dir=str(tmp_path / "indexes")
            )
        )
        ingest(docs, config)
        ctx = load_context(config)

        queries = [q.query for q in synthetic.queries] + ["the", "modaki", "qxzv wyplk"]
        retrievals = [
            _hex_scores(retrieve(query, with_strategy(ctx, strategy)).to_dict())
            for strategy in Strategy
            for query in queries
        ]
        summaries = [
            _hex_scores(dataclasses.asdict(s))
            for s in compare(ctx, list(synthetic.queries), list(Strategy))
        ]
        payload = json.dumps(
            {"retrievals": retrievals, "summaries": summaries}, sort_keys=True
        ).encode("utf-8")
        assert hashlib.sha256(payload).hexdigest() == self.DIGEST
