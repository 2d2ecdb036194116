"""Retrieval strategies: the hierarchical pipeline and three baselines.

All strategies run one pipeline and differ only in the levels they search
and the level they rerank (the ``_PLANS`` table). Given a query and a
retrieval context (corpus, per-level indices, providers, config) they
return an ordered list of unique parent chunks plus a per-stage trace of
every candidate list, so any run can be audited stage by stage.

  * ``hrr``  searches sentences and intermediates, maps sentence hits to
    their intermediates, dedups, reranks the 512-token pool, takes the top
    k, and maps to unique parents.
  * ``base`` searches parents directly and reranks the 2048-token chunks.
  * ``c2p``  searches parents, intermediates, and the 256-token side tier,
    maps every hit to its 2048-token ancestor, and reranks parents.
  * ``s2p``  searches sentences only, maps to parents, and reranks parents.

Pre-rerank pools order candidates by their best originating similarity
(a mapped candidate inherits its hit's score), ties by chunk id; dedup
keeps the first occurrence under that order. Final parent dedup keeps the
highest-reranked representative's score.

A hit is a corpus row from search to result: search returns rows, hits map
up by walks of the corpus's parent column (``Corpus.ancestor_rows``), and
the pool is deduped on rows and its texts read by row. Ids are derived
from the corpus's tree (``Corpus.ids_of``) only for the trace, the rerank
request and the result, so retrieval never looks an id up (exact engines
keep integer ids inside the same way: Johnson, Douze and Jegou, arXiv
1702.08734).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping

# Retrieval maps rows with ``Corpus.ancestor_rows``; ``resolve_parent``, its
# id lookup, is imported for the benchmark harness, which patches it here.
from .corpus import Corpus, Level, resolve_parent  # noqa: F401
from .embedding import EmbeddingProvider, embed_batch
from .errors import ConfigError, EmptyCorpusError, MissingIndexError
from .index import LevelIndex
from .rerank import (
    RerankProvider,
    RerankProviderConfig,
    RerankRequest,
    ScoredCandidate,
    rerank,
    top_k,
)


class Strategy(str, Enum):
    HRR = "hrr"
    BASE = "base"
    C2P = "c2p"
    S2P = "s2p"


def strategy_named(name: str, where: str) -> Strategy:
    """The strategy called ``name``, or a ``ConfigError`` that says what
    ``where`` (a config key or an option) may name instead."""
    try:
        return Strategy(name)
    except ValueError:
        known = [s.value for s in Strategy]
        raise ConfigError(f"{where} must be one of {known}, got {name!r}") from None


@dataclass(frozen=True)
class RetrieverConfig:
    #: Hits requested from each searched level independently.
    similarity_top_k: int = 10
    rerank_top_k: int = 5
    strategy: Strategy = Strategy.HRR

    def validate(self) -> None:
        if self.similarity_top_k < 1 or self.rerank_top_k < 1:
            raise ConfigError("similarity_top_k and rerank_top_k must be >= 1")


@dataclass(frozen=True)
class StageTrace:
    stage: str
    candidates: tuple[ScoredCandidate, ...]


@dataclass(frozen=True)
class RetrievalResult:
    query: str
    strategy: Strategy
    parents: tuple[ScoredCandidate, ...]
    trace: tuple[StageTrace, ...]
    #: The parents' rows in the corpus they were retrieved from, so that
    #: their texts are read by row (``Corpus.texts_of``); not in ``to_dict``.
    parent_rows: tuple[int, ...] = ()

    def parent_ids(self) -> list[str]:
        return [p.chunk_id for p in self.parents]

    def stage(self, name: str) -> tuple[ScoredCandidate, ...]:
        for entry in self.trace:
            if entry.stage == name:
                return entry.candidates
        raise KeyError(f"no trace stage {name!r}")

    def to_dict(self) -> dict:
        return {
            "query": self.query,
            "strategy": self.strategy.value,
            "parents": [{"chunk_id": p.chunk_id, "score": p.score} for p in self.parents],
            "trace": [
                {
                    "stage": t.stage,
                    "candidates": [
                        {"chunk_id": c.chunk_id, "score": c.score} for c in t.candidates
                    ],
                }
                for t in self.trace
            ],
        }


@dataclass
class RetrievalContext:
    """Everything a strategy needs, read-only during retrieval."""

    corpus: Corpus
    indices: Mapping[Level, LevelIndex]
    embedder: EmbeddingProvider
    reranker: RerankProvider
    config: RetrieverConfig = field(default_factory=RetrieverConfig)
    rerank: RerankProviderConfig = field(default_factory=RerankProviderConfig)

    def index(self, level: Level) -> LevelIndex:
        try:
            return self.indices[level]
        except KeyError:
            raise MissingIndexError(
                f"no index for level {level.value!r}; build it first"
            ) from None


#: Each strategy as (levels searched, in trace order; level reranked). Hits
#: from levels below the rerank level map up to their ancestor there.
_PLANS: dict[Strategy, tuple[tuple[Level, ...], Level]] = {
    Strategy.HRR: ((Level.SENTENCE, Level.INTERMEDIATE), Level.INTERMEDIATE),
    Strategy.BASE: ((Level.PARENT,), Level.PARENT),
    Strategy.C2P: ((Level.PARENT, Level.INTERMEDIATE, Level.SUB_INTERMEDIATE), Level.PARENT),
    Strategy.S2P: ((Level.SENTENCE,), Level.PARENT),
}


def retrieve(query: str, ctx: RetrievalContext) -> RetrievalResult:
    """Run the strategy selected by ``ctx.config.strategy``.

    Embed the query, search each planned level, map hits up to the rerank
    level, dedup, rerank, keep the top k, and map to unique parents. Hits
    are corpus rows from search to result; their ids are read only for the
    trace, the rerank request and the result.
    """
    ctx.config.validate()
    corpus = ctx.corpus
    if len(corpus) == 0:
        raise EmptyCorpusError("corpus has no chunks")
    strategy = ctx.config.strategy
    check_levels(corpus, [strategy])
    search_levels, rerank_level = _PLANS[strategy]
    query_vec = embed_batch(ctx.embedder, [query])[0]

    trace: list[StageTrace] = []
    # Hits below the rerank level, as their ancestors there; and each
    # rerank-level row's best hit score.
    mapped: list[ScoredCandidate] = []
    best: dict[int, float] = {}
    for level in search_levels:
        rows, scores = ctx.index(level).search(query_vec, ctx.config.similarity_top_k)
        trace.append(StageTrace(f"{level.value}_hits", _scored(corpus, rows, scores)))
        if level is not rerank_level:
            rows = corpus.ancestor_rows(rows, rerank_level)
            mapped += _scored(corpus, rows, scores)
        for row, score in zip(rows, scores):
            if score > best.get(row, -math.inf):
                best[row] = score

    # A mid-tier rerank (hrr) shows its sentence mapping and feeds the mapped
    # sentence scores to the reranker's optional score mix.
    sentence_bonus = None
    if rerank_level is Level.INTERMEDIATE:
        trace.append(StageTrace("sentence_to_intermediate", tuple(mapped)))
        sentence_bonus = _best_scores(mapped)

    pool, row_of = _pool(corpus, best)
    texts = corpus.texts_of(row_of[c.chunk_id] for c in pool)
    request = RerankRequest(query, tuple(zip((c.chunk_id for c in pool), texts)))
    reranked = rerank(
        ctx.reranker,
        request,
        fallback=ctx.rerank.fallback,
        mix_lambda=ctx.rerank.mix_lambda,
        sentence_bonus=sentence_bonus,
    )
    reranked_top = top_k(reranked, ctx.config.rerank_top_k)
    parents, parent_rows = _map_to_parents(reranked_top, row_of, corpus)

    trace += [
        StageTrace("rerank_pool", pool),
        StageTrace("reranked", tuple(reranked)),
        StageTrace("rerank_top_k", tuple(reranked_top)),
        StageTrace("parents", parents),
    ]
    return RetrievalResult(query, strategy, parents, tuple(trace), parent_rows)


def check_levels(corpus: Corpus, strategies: Iterable[Strategy]) -> None:
    """Raise ``MissingIndexError`` if a strategy searches a level ``corpus``
    lacks, so that a run stops before its first query. Only the side tier
    can be missing: a corpus holds it when ingested with a side-tier size."""
    levels = corpus.levels
    for strategy in strategies:
        for level in _PLANS[strategy][0]:
            if level not in levels:
                raise MissingIndexError(
                    f"strategy {strategy.value!r} searches the {level.value} level, which this "
                    f"corpus lacks; ingest with chunking.sub_intermediate_size set to build it"
                )


def _scored(corpus: Corpus, rows: list[int], scores: list[float]) -> tuple[ScoredCandidate, ...]:
    """The candidates of ``rows``' ids, each with its score."""
    return tuple(map(ScoredCandidate, corpus.ids_of(rows), scores))


def _best_scores(candidates: list[ScoredCandidate]) -> dict[str, float]:
    best: dict[str, float] = {}
    for cand in candidates:
        if cand.score > best.get(cand.chunk_id, -math.inf):
            best[cand.chunk_id] = cand.score
    return best


def _pool(
    corpus: Corpus, best: Mapping[int, float]
) -> tuple[tuple[ScoredCandidate, ...], dict[str, int]]:
    """The rerank pool, one candidate per row of ``best`` carrying its score,
    sorted (score desc, id); and each candidate's row, by id."""
    row_of = dict(zip(corpus.ids_of(list(best)), best))
    pool = sorted(map(ScoredCandidate, row_of, best.values()),
                  key=lambda c: (-c.score, c.chunk_id))
    return tuple(pool), row_of


def _map_to_parents(
    reranked_top: list[ScoredCandidate], row_of: Mapping[str, int], corpus: Corpus
) -> tuple[tuple[ScoredCandidate, ...], tuple[int, ...]]:
    """Map candidates, whose rows ``row_of`` gives, to parent chunks,
    keeping the first (highest-ranked) representative of each parent: the
    parents' candidates and their rows."""
    parent_rows = corpus.ancestor_rows((row_of[c.chunk_id] for c in reranked_top), Level.PARENT)
    first: dict[int, ScoredCandidate] = {}
    for cand, row, parent_id in zip(reranked_top, parent_rows, corpus.ids_of(parent_rows)):
        if row not in first:
            first[row] = ScoredCandidate(parent_id, cand.score)
    return tuple(first.values()), tuple(first)
