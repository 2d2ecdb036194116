"""Synthetic corpus generator: determinism, uniqueness, provable relevance."""

import threading

import pytest

from hrr.corpus import Level, validate_corpus
from hrr.embedding import HashedBowEmbedder, cosine_similarity, embed_batch
from hrr.errors import ConfigError, SpecInfeasibleError
from hrr.synth import DEFAULT_EMBED_DIMENSION, CorpusSpec, generate

SMALL = CorpusSpec(seed=11, n_docs=4, tokens_per_doc=600, n_needles=6)


@pytest.fixture(scope="module")
def small():
    return generate(SMALL)


class TestDeterminism:
    def test_same_seed_same_output(self):
        a = generate(SMALL)
        b = generate(SMALL)
        assert a.documents == b.documents
        assert a.queries == b.queries
        assert a.needles == b.needles

    def test_different_seed_differs(self):
        a = generate(SMALL)
        b = generate(CorpusSpec(seed=12, n_docs=4, tokens_per_doc=600, n_needles=6))
        assert a.documents != b.documents


class TestConstruction:
    def test_one_query_per_needle(self, small):
        assert len(small.queries) == SMALL.n_needles == len(small.needles)

    def test_needle_keywords_occur_exactly_once_corpus_wide(self, small):
        everything = "\n".join(small.documents.values())
        for needle in small.needles:
            for keyword in needle.keywords:
                assert everything.count(keyword) == 1

    def test_keyword_sets_pairwise_disjoint(self, small):
        seen = set()
        for needle in small.needles:
            for keyword in needle.keywords:
                assert keyword not in seen
                seen.add(keyword)

    def test_gold_parents_resolvable_and_parent_level(self, small):
        for query in small.queries:
            node = small.corpus.chunks[query.gold_parent]
            assert node.level is Level.PARENT
            assert node.doc_id == query.gold_doc

    def test_needle_sentence_lives_in_its_gold_parent(self, small):
        for query, needle in zip(small.queries, small.needles):
            parent_text = small.corpus.chunk_text(query.gold_parent)
            assert needle.sentence in parent_text

    def test_corpus_is_valid(self, small):
        assert validate_corpus(small.corpus) == []

    def test_queries_mention_their_keywords(self, small):
        for query, needle in zip(small.queries, small.needles):
            for keyword in needle.keywords:
                assert keyword in query.query

    def test_gold_parents_unique_when_docs_hold_enough_parents(self):
        # 2 needles per doc; each doc spans 3 parent chunks at the default
        # budgets, so staggered placement must yield distinct gold parents
        syn = generate(CorpusSpec(seed=5, n_docs=5, tokens_per_doc=4500, n_needles=10))
        golds = [q.gold_parent for q in syn.queries]
        assert len(golds) == len(set(golds))


class TestProvableRelevance:
    def test_needle_sentence_tops_brute_force_cosine(self, small):
        """For every query the planted sentence must beat all other sentences."""
        embedder = HashedBowEmbedder(dimension=DEFAULT_EMBED_DIMENSION)
        corpus = small.corpus
        sentences = corpus.nodes_at(Level.SENTENCE)
        vectors = embed_batch(
            embedder, [corpus.chunk_text(n.id) for n in sentences]
        )
        for query, needle in zip(small.queries, small.needles):
            qv = embed_batch(embedder, [query.query])[0]
            scored = sorted(
                (
                    (cosine_similarity(vec, qv), node.id)
                    for node, vec in zip(sentences, vectors)
                ),
                key=lambda t: (-t[0], t[1]),
            )
            top_text = corpus.chunk_text(scored[0][1])
            assert needle.sentence in top_text or top_text in needle.sentence


class TestSpecValidation:
    def test_infeasible_needle_count(self):
        with pytest.raises(SpecInfeasibleError):
            generate(CorpusSpec(seed=1, n_docs=1, tokens_per_doc=30, n_needles=50))

    def test_needles_beyond_free_hash_buckets_fail_fast(self):
        # 67 needles need 201 keyword buckets; only 199 are free at 384, and
        # coining used to loop forever. Run it on a thread to bound a hang.
        outcome = []

        def run():
            try:
                generate(CorpusSpec(n_needles=67))
            except SpecInfeasibleError as exc:
                outcome.append(str(exc))

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive(), "generate() did not return within 30 s"
        assert len(outcome) == 1 and "at most 66 needles" in outcome[0]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_docs=0),
            dict(n_needles=0),
            dict(tokens_per_doc=5),
            dict(distractor_density=1.5),
        ],
    )
    def test_bad_spec(self, kwargs):
        with pytest.raises(ConfigError):
            generate(CorpusSpec(seed=1, **kwargs))
