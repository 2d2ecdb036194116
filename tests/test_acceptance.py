"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hrr.chunking import ChunkingConfig, build_corpus
from hrr.cli import EXIT_OK, main
from hrr.config import EngineConfig
from hrr.corpus import Level, validate_corpus
from hrr.embedding import (
    HashedBowEmbedder,
    RemoteEmbedder,
    cosine_similarity,
    embed_batch,
    ensure_unit,
)
from hrr.engine import context_for
from hrr.errors import DimensionMismatchError, ProviderUnavailableError
from hrr.evaluation import EvalRecord, compare, summarize
from hrr.index import LevelIndex
from hrr.rerank import (
    FALLBACK_PASSTHROUGH,
    LexicalOverlapReranker,
    RemoteReranker,
    RerankRequest,
    rerank,
)
from hrr.retrievers import Strategy, retrieve
from hrr.synth import CorpusSpec, generate

from level_corpus import level_corpus
from stub_services import MODE_HANG, MODE_WRONG_DIMENSION, StubServices


def report(number: int, name: str, elapsed: float | None = None):
    suffix = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"[acceptance] criterion {number} ({name}): PASS{suffix}")


# ---------------------------------------------------------------------------
# 1. Hierarchy invariants on fuzzed documents
# ---------------------------------------------------------------------------


def fuzzed_document(rng: random.Random, target_tokens: int) -> str:
    vocab = [
        "policy", "budget", "canal", "depot", "grid", "Ωmega", "résumé",
        "пример", "data", "42", "3.5", "vol", "dr", "etc", "x" * 120,
        "hyphen-ated", "under_score", "quote'sign",
    ]
    out = []
    tokens = 0
    while tokens < target_tokens:
        n = rng.randint(1, 24)
        words = [rng.choice(vocab) for _ in range(n)]
        sentence = " ".join(words).capitalize() + rng.choice([".", "!", "?", "."])
        out.append(sentence)
        out.append("\n\n" if rng.random() < 0.08 else " ")
        tokens += n + 1
    return "".join(out).strip()


def test_criterion_1_hierarchy_invariants():
    started = time.perf_counter()
    rng = random.Random(1001)
    config = ChunkingConfig()
    for i in range(100):
        target = rng.randint(10, 10_000)
        doc_id = f"fuzz{i:03d}"
        text = fuzzed_document(rng, target)
        corpus = build_corpus({doc_id: text}, config)

        violations = validate_corpus(corpus)
        assert violations == [], f"doc {i}: {[str(v) for v in violations[:3]]}"

        source = text.encode("utf-8")
        parents = [n for n in corpus.nodes if n.level is Level.PARENT]
        joined = b"".join(source[n.char_span[0] : n.char_span[1]] for n in parents)
        assert joined == source, f"doc {i}: round-trip mismatch"

        budgets = {Level.PARENT: 2048, Level.INTERMEDIATE: 512}
        for node in corpus.nodes:
            budget = budgets.get(node.level)
            if budget is not None:
                assert node.token_count <= budget, f"doc {i}: {node.id} over budget"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s, budget is 10s"
    report(1, "hierarchy invariants", elapsed)


# ---------------------------------------------------------------------------
# 2. Exact search equals the naive full-scan oracle
# ---------------------------------------------------------------------------


def test_criterion_2_search_oracle_equivalence():
    rng = random.Random(2002)
    for trial in range(1000):
        n = rng.randint(1, 64)
        dim = rng.choice([4, 8, 16, 32])
        raw = np.array(
            [[rng.gauss(0, 1) for _ in range(dim)] for _ in range(n)], dtype=np.float32
        )
        vectors = np.stack([ensure_unit(row) for row in raw])
        ids = [f"c{i:03d}" for i in range(n)]
        index = LevelIndex(level_corpus(ids), Level.SENTENCE, vectors)

        if rng.random() < 0.3 and n > 1:  # exercise exact ties
            query = vectors[rng.randrange(n)].copy()
        else:
            query = ensure_unit(
                np.array([rng.gauss(0, 1) for _ in range(dim)], dtype=np.float32)
            )
        k = rng.randint(1, n + 2)

        hits = index.search(query, k)
        oracle = sorted(
            ((cid, cosine_similarity(vec, query)) for cid, vec in zip(ids, vectors)),
            key=lambda t: (-t[1], t[0]),
        )[:k]
        assert [(h.chunk_id, h.score) for h in hits] == oracle, f"trial {trial}"
    print("[acceptance] criterion 2 note: approximate index not enabled; "
          "recall clause not applicable")
    report(2, "exact search oracle equivalence, 1000 trials")


# ---------------------------------------------------------------------------
# 3. Metric correctness against an exact-arithmetic reference
# ---------------------------------------------------------------------------


def test_criterion_3_metric_correctness():
    def rec(rank):
        return EvalRecord("q", "g", rank is not None, rank)

    hand = summarize([rec(1), rec(2), rec(None)])
    assert hand.hit_rate == 2 / 3 and hand.mrr == 0.5

    rng = random.Random(3003)
    for trial in range(1000):
        ranks = [
            None if rng.random() < 0.3 else rng.randint(1, 40)
            for _ in range(rng.randint(1, 80))
        ]
        summary = summarize([rec(r) for r in ranks])
        n = len(ranks)
        hr_exact = Fraction(sum(1 for r in ranks if r is not None), n)
        mrr_exact = sum((Fraction(1, r) for r in ranks if r is not None), Fraction(0)) / n
        assert abs(summary.hit_rate - float(hr_exact)) <= 1e-12, f"trial {trial}"
        assert abs(summary.mrr - float(mrr_exact)) <= 1e-12, f"trial {trial}"
        assert 0.0 <= summary.mrr <= summary.hit_rate <= 1.0
    report(3, "metric correctness, 1000 trials at 1e-12")


# ---------------------------------------------------------------------------
# 4. Pipeline conformance on a hand-built toy corpus
# ---------------------------------------------------------------------------

TOY_DOCS = {
    "alpha": (
        "The annual budget review covers schools and roads. Committee members "
        "met on Monday morning. The zorblat fenwick grant supports village "
        "libraries. Final decisions arrive next month. Public comments stay "
        "open all spring. Road repairs begin in summer."
    ),
    "beta": (
        "Grain depots expanded across the district last year. Storage fees "
        "remain unchanged for members. Inspectors visit depots every winter. "
        "The quimbly raxon permit unlocks cold storage. Training sessions "
        "run through autumn. Depot staff attend safety courses."
    ),
    "gamma": (
        "Irrigation canals need seasonal maintenance. Water tariffs follow "
        "the published schedule. District officers inspect the gates monthly. "
        "Farmers report issues through the office. The velmor dastin scheme "
        "funds canal lining. Crews finish before the rains."
    ),
}

EXPECTED_STAGES = [
    "sentence_hits",
    "intermediate_hits",
    "sentence_to_intermediate",
    "rerank_pool",
    "reranked",
    "rerank_top_k",
    "parents",
]


def test_criterion_4_pipeline_conformance():
    chunking = ChunkingConfig(parent_size=40, intermediate_size=16, sub_intermediate_size=8)
    corpus = build_corpus(TOY_DOCS, chunking)
    embedder = HashedBowEmbedder(dimension=64)
    scorer = LexicalOverlapReranker()
    ctx = context_for(
        corpus, EngineConfig(chunking=chunking), embedder=embedder, reranker=scorer
    )
    query = "zorblat fenwick grant money"
    result = retrieve(query, ctx)

    assert [t.stage for t in result.trace] == EXPECTED_STAGES

    # Recompute each stage by hand: direct cosine scans, raw parent links,
    # best-score dedup, coverage scores.
    qv = embed_batch(embedder, [query])[0]
    k = ctx.config.similarity_top_k

    def scan(level):
        nodes = corpus.nodes_at(level)
        scored = [
            (n.id, cosine_similarity(embed_batch(embedder, [corpus.chunk_text(n.id)])[0], qv))
            for n in nodes
        ]
        scored.sort(key=lambda t: (-t[1], t[0]))
        return scored[:k]

    def up(cid, level):
        node = corpus.get(cid)
        while node.level is not level:
            node = corpus.get(node.parent_id)
        return node.id

    sent = scan(Level.SENTENCE)
    inter = scan(Level.INTERMEDIATE)
    mapped = [(up(cid, Level.INTERMEDIATE), s) for cid, s in sent]

    best = {}
    for cid, score in mapped + inter:
        best[cid] = max(best.get(cid, float("-inf")), score)
    pool = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))
    assert {cid for cid, _ in pool} == {c for c, _ in mapped} | {c for c, _ in inter}

    cover = dict(
        zip(
            [cid for cid, _ in pool],
            scorer.score_pairs(query, [corpus.chunk_text(cid) for cid, _ in pool]),
        )
    )
    reranked = sorted(((cid, cover[cid]) for cid, _ in pool), key=lambda t: (-t[1], t[0]))
    top = reranked[: ctx.config.rerank_top_k]
    parents, seen = [], set()
    for cid, score in top:
        pid = up(cid, Level.PARENT)
        if pid not in seen:
            seen.add(pid)
            parents.append((pid, score))

    stage_expectations = {
        "sentence_hits": sent,
        "intermediate_hits": inter,
        "sentence_to_intermediate": mapped,
        "rerank_pool": pool,
        "reranked": reranked,
        "rerank_top_k": top,
        "parents": parents,
    }
    for stage_name, expected in stage_expectations.items():
        got = [(c.chunk_id, c.score) for c in result.stage(stage_name)]
        assert got == expected, f"stage {stage_name} diverges"

    assert len(parents) <= 5
    assert result.parents[0].chunk_id == "alpha:p0"  # the needle's parent wins
    report(4, "pipeline stage conformance on toy corpus")


# ---------------------------------------------------------------------------
# 5. Qualitative reproduction of the published ordering
# ---------------------------------------------------------------------------


def test_criterion_5_qualitative_ordering():
    started = time.perf_counter()
    spec = CorpusSpec(seed=42, n_docs=20, tokens_per_doc=4096, n_needles=30)
    syn = generate(spec)
    assert len(syn.documents) >= 20 and len(syn.queries) >= 30
    for text in syn.documents.values():
        assert len(text.split()) >= 3500  # at least 4096 tokens incl. punctuation

    config = EngineConfig()
    embedder = HashedBowEmbedder(dimension=config.embedding.dimension)
    ctx = context_for(syn.corpus, config, embedder=embedder)

    # Pre-verify gold ranks by brute-force cosine at the sentence and parent
    # levels, independent of the index implementation.
    corpus = syn.corpus
    sentence_nodes = corpus.nodes_at(Level.SENTENCE)
    sentence_vecs = embed_batch(embedder, [corpus.chunk_text(n.id) for n in sentence_nodes])
    parent_nodes = corpus.nodes_at(Level.PARENT)
    parent_vecs = embed_batch(embedder, [corpus.chunk_text(n.id) for n in parent_nodes])

    parent_rank_misses = 0
    for query, needle in zip(syn.queries, syn.needles):
        qv = embed_batch(embedder, [query.query])[0]
        sent_ranked = sorted(
            ((cosine_similarity(v, qv), n.id) for n, v in zip(sentence_nodes, sentence_vecs)),
            key=lambda t: (-t[0], t[1]),
        )
        assert needle.sentence in corpus.chunk_text(sent_ranked[0][1]), (
            f"needle sentence must top the sentence level for {query.query!r}"
        )
        parent_ranked = sorted(
            ((cosine_similarity(v, qv), n.id) for n, v in zip(parent_nodes, parent_vecs)),
            key=lambda t: (-t[0], t[1]),
        )
        gold_rank = 1 + [cid for _, cid in parent_ranked].index(query.gold_parent)
        if gold_rank > config.retriever.similarity_top_k:
            parent_rank_misses += 1
    assert parent_rank_misses >= 3, (
        "corpus is not adversarial: 2048-level similarity finds almost every gold"
    )

    summaries = {
        s.strategy: s
        for s in compare(ctx, list(syn.queries), [Strategy.HRR, Strategy.S2P, Strategy.BASE])
    }
    hrr, s2p, base = summaries["hrr"], summaries["s2p"], summaries["base"]

    assert hrr.mrr >= s2p.mrr >= base.mrr
    assert hrr.hit_rate >= base.hit_rate
    assert hrr.mrr - base.mrr >= 0.10
    # Cross-check: with the coverage reranker, a parent-level retrieval hit
    # always reranks to the top, so Base's hit rate equals the brute-force
    # fraction of golds inside the parent-level top-k.
    assert base.hit_rate == pytest.approx(
        1.0 - parent_rank_misses / len(syn.queries), abs=1e-12
    )

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 5 took {elapsed:.1f}s, budget is 60s"
    print(
        "[acceptance] criterion 5 detail: "
        f"HRR {hrr.hit_rate:.6f}/{hrr.mrr:.6f}, S2P {s2p.hit_rate:.6f}/{s2p.mrr:.6f}, "
        f"Base {base.hit_rate:.6f}/{base.mrr:.6f}, MRR gap {hrr.mrr - base.mrr:.3f}"
    )
    report(5, "qualitative ordering on adversarial corpus", elapsed)


# ---------------------------------------------------------------------------
# 6. Determinism of ingest + eval
# ---------------------------------------------------------------------------


def test_criterion_6_determinism(tmp_path, monkeypatch, capsys):
    def run(run_dir: Path) -> dict[str, bytes]:
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        config = {
            "chunking": {"parent_size": 256, "intermediate_size": 64,
                         "sub_intermediate_size": 32},
            "embedding": {"dimension": 96},
        }
        Path("engine.json").write_text(json.dumps(config))
        assert main(
            ["synth", "--seed", "77", "--docs", "6", "--tokens", "1500",
             "--needles", "8", "--out", "synth", "--config", "engine.json"]
        ) == EXIT_OK
        assert main(["ingest", "synth/docs", "--config", "engine.json"]) == EXIT_OK
        assert main(
            ["eval", "--query-set", "synth/queries.jsonl", "--out", "results.json",
             "--config", "engine.json"]
        ) == EXIT_OK
        table = capsys.readouterr().out
        artifacts = {"eval_stdout": table.encode("utf-8")}
        for sub in ("corpus", "indexes"):
            for path in sorted((run_dir / sub).iterdir()):
                artifacts[f"{sub}/{path.name}"] = path.read_bytes()
        artifacts["results.json"] = (run_dir / "results.json").read_bytes()
        return artifacts

    first = run(tmp_path / "run1")
    second = run(tmp_path / "run2")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"artifact {name} differs between runs"
    report(6, "byte-identical ingest + eval reruns")


# ---------------------------------------------------------------------------
# 7. Remote-provider wire contract
# ---------------------------------------------------------------------------


def test_criterion_7_remote_contract():
    chunking = ChunkingConfig(parent_size=64, intermediate_size=24, sub_intermediate_size=12)
    syn = generate(
        CorpusSpec(seed=9, n_docs=4, tokens_per_doc=800, n_needles=6), chunking=chunking
    )
    config = EngineConfig(chunking=chunking)
    dim = 64
    strategies = [Strategy.HRR, Strategy.BASE, Strategy.S2P]

    local = compare(
        context_for(
            syn.corpus, config,
            embedder=HashedBowEmbedder(dimension=dim),
            reranker=LexicalOverlapReranker(),
        ),
        list(syn.queries),
        strategies,
    )

    with StubServices(dimension=dim) as stub:
        remote = compare(
            context_for(
                syn.corpus, config,
                embedder=RemoteEmbedder(stub.base_url, dim, timeout=10.0, retries=1),
                reranker=RemoteReranker(stub.base_url, timeout=10.0, retries=1),
            ),
            list(syn.queries),
            strategies,
        )
    assert remote == local, "stub-backed eval must match the local run"

    with StubServices(dimension=dim, mode=MODE_WRONG_DIMENSION) as stub:
        with pytest.raises(DimensionMismatchError):
            RemoteEmbedder(stub.base_url, dim, timeout=5.0, retries=0).embed_batch(["x"])

    with StubServices(dimension=dim, mode=MODE_HANG, hang_seconds=2.0) as stub:
        with pytest.raises(ProviderUnavailableError):
            RemoteEmbedder(stub.base_url, dim, timeout=0.2, retries=1).embed_batch(["x"])
        request = RerankRequest("q", (("b", "two"), ("a", "one")))
        ranked = rerank(
            RemoteReranker(stub.base_url, timeout=0.2, retries=0),
            request,
            fallback=FALLBACK_PASSTHROUGH,
        )
        assert [c.chunk_id for c in ranked] == ["b", "a"]
        assert all(c.score is None for c in ranked)

    report(7, "remote embed/rerank wire contract")
