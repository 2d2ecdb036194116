"""Hit Rate and Mean Reciprocal Rank evaluation over labeled query sets.

A labeled query names the parent chunk that answers it. A retrieval run
scores each query by whether that gold parent appears in the returned list
(hit) and at which 1-based position it first shows up. Hit Rate is the hit
fraction; MRR averages 1/rank with misses contributing zero, so
0 <= MRR <= HR <= 1 always. K is the length of the returned list itself
(rerank_top_k, 5 by default).
"""

from __future__ import annotations

import codecs
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import MALFORMED_RECORD_ERRORS, Corpus
from .embedding import encodes_as_utf8
from .errors import EmptyQuerySetError, GoldNotInCorpusError, SnapshotFormatError
from .retrievers import RetrievalContext, RetrievalResult, Strategy, check_levels, retrieve

#: Row labels for the comparison table, matching the published layout.
STRATEGY_LABELS = {
    Strategy.BASE: "Base Retriever + Reranker",
    Strategy.C2P: "C2P Retriever + Reranker",
    Strategy.S2P: "S2P Retriever + Reranker",
    Strategy.HRR: "Results_Chunk_HRR (Proposed)",
}


@dataclass(frozen=True)
class LabeledQuery:
    query: str
    gold_parent: str
    gold_doc: str | None = None
    #: Byte span of the answering text inside gold_doc, when known. Queries
    #: carrying a span serialize span-based, so reloading them against a
    #: corpus chunked with different budgets re-resolves the right parent.
    gold_span: tuple[int, int] | None = None


@dataclass(frozen=True)
class EvalRecord:
    query: str
    gold_parent: str
    hit: bool
    first_rank: int | None  # 1-based; present iff hit


@dataclass(frozen=True)
class EvalSummary:
    strategy: str
    hit_rate: float
    mrr: float
    n: int


def score_query(
    result: RetrievalResult, gold: LabeledQuery, corpus: Corpus | None = None
) -> EvalRecord:
    """Score one retrieval result against its gold parent."""
    if corpus is not None:
        _check_gold(gold, corpus)
    rank = None
    for position, parent in enumerate(result.parents, start=1):
        if parent.chunk_id == gold.gold_parent:
            rank = position
            break
    return EvalRecord(
        query=gold.query, gold_parent=gold.gold_parent, hit=rank is not None, first_rank=rank
    )


def summarize(records: Sequence[EvalRecord], *, strategy: str = "") -> EvalSummary:
    """Aggregate per-query records into Hit Rate and MRR."""
    if len(records) == 0:
        raise EmptyQuerySetError("cannot summarize zero records")
    hits = sum(1 for r in records if r.hit)
    reciprocal = sum(1.0 / r.first_rank for r in records if r.first_rank is not None)
    n = len(records)
    return EvalSummary(strategy=strategy, hit_rate=hits / n, mrr=reciprocal / n, n=n)


def compare(
    ctx: RetrievalContext,
    queries: Sequence[LabeledQuery],
    strategies: Sequence[Strategy],
) -> list[EvalSummary]:
    """Evaluate each strategy over the same query set and providers.

    Every strategy's levels are checked (``check_levels``) before the first
    query runs.
    """
    if len(queries) == 0:
        raise EmptyQuerySetError("query set is empty")
    check_levels(ctx.corpus, strategies)
    for gold in queries:
        _check_gold(gold, ctx.corpus)
    summaries = []
    for strategy in strategies:
        strategy_ctx = replace(ctx, config=replace(ctx.config, strategy=strategy))
        records = [
            score_query(retrieve(gold.query, strategy_ctx), gold) for gold in queries
        ]
        summaries.append(summarize(records, strategy=strategy.value))
    return summaries


def _check_gold(gold: LabeledQuery, corpus: Corpus) -> None:
    """Check ``gold`` against the corpus's parent rows alone, so that no map
    of every chunk id is built (``Corpus.parent_doc``)."""
    doc_id = corpus.parent_doc(gold.gold_parent)
    if doc_id is None:
        raise GoldNotInCorpusError(
            f"gold parent {gold.gold_parent!r} is not a parent-level chunk"
        )
    if gold.gold_doc is not None and gold.gold_doc != doc_id:
        raise GoldNotInCorpusError(
            f"gold parent {gold.gold_parent!r} is in document {doc_id!r}, "
            f"not {gold.gold_doc!r}"
        )


# ---------------------------------------------------------------------------
# Query-set files: one JSON record per line
# ---------------------------------------------------------------------------


def load_query_set(path: str | Path, corpus: Corpus | None = None) -> list[LabeledQuery]:
    """Read labeled queries from a line-delimited record file.

    Records carry either ``gold_parent_id`` directly, or ``gold_doc_id`` plus
    ``gold_char_span`` which is resolved (at its start offset) to the parent
    chunk covering it; resolution requires ``corpus``. When a corpus is given
    every gold parent is validated against it, and so is a ``gold_doc_id``
    beside a ``gold_parent_id``: it must name that parent's document. A
    line that is not a well-formed record raises ``SnapshotFormatError``
    naming the file and line: one that is not UTF-8 or not JSON, one with
    a key other than these four, whose ``query`` is not a string with
    non-whitespace text that UTF-8 can encode, whose gold ids are not
    strings, whose ``gold_char_span`` is not two integers ``[start, end]``
    with ``start < end``, or that has a span beside a ``gold_parent_id``,
    where it would go unused.
    """
    queries: list[LabeledQuery] = []
    problems: list[str] = []
    # Split as text files split lines (at "\n", "\r" and "\r\n"), and
    # decoded line by line, so bytes that are not UTF-8 name their line. A
    # leading UTF-8 byte order mark is dropped, as document reading drops it.
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    for line_no, line in enumerate(data.splitlines(), start=1):
        try:
            line = line.decode("utf-8").strip()
            if not line:
                continue
            gold = _record_to_query(json.loads(line), corpus, line_no)
            if corpus is not None:
                _check_gold(gold, corpus)
        except GoldNotInCorpusError as exc:
            problems.append(str(exc))
            continue
        except MALFORMED_RECORD_ERRORS as exc:
            raise SnapshotFormatError(
                f"{path} line {line_no}: malformed record ({exc})"
            ) from None
        queries.append(gold)
    if problems:
        raise GoldNotInCorpusError(
            f"{len(problems)} bad records in {path}: " + "; ".join(problems)
        )
    return queries


#: The keys a query-set record may hold.
_RECORD_KEYS = frozenset({"query", "gold_parent_id", "gold_doc_id", "gold_char_span"})


def _record_to_query(rec: dict, corpus: Corpus | None, line_no: int) -> LabeledQuery:
    query = rec["query"]
    if not (isinstance(query, str) and query.strip()):
        raise ValueError("query is not a string with non-whitespace text")
    if not encodes_as_utf8(query):
        raise ValueError("query holds a lone surrogate, which UTF-8 cannot encode")
    unknown = sorted(rec.keys() - _RECORD_KEYS)
    if unknown:
        raise ValueError(f"unknown keys {unknown}")
    for key in ("gold_parent_id", "gold_doc_id"):
        if key in rec and not isinstance(rec[key], str):
            raise ValueError(f"{key} {rec[key]!r} is not a string")
    doc_id = rec.get("gold_doc_id")
    span = _gold_span(rec["gold_char_span"]) if "gold_char_span" in rec else None
    if "gold_parent_id" in rec:
        if span is not None:
            raise ValueError("gold_char_span beside a gold_parent_id would go unused")
        return LabeledQuery(query=query, gold_parent=rec["gold_parent_id"], gold_doc=doc_id)
    if doc_id is not None and span is not None:
        if corpus is None:
            raise GoldNotInCorpusError(
                f"line {line_no}: span-based gold needs a corpus to resolve"
            )
        parent_id = corpus.parent_at(doc_id, span[0])
        if parent_id is None:
            raise GoldNotInCorpusError(f"no parent chunk covers byte {span[0]} of {doc_id!r}")
        return LabeledQuery(
            query=query, gold_parent=parent_id, gold_doc=doc_id, gold_span=span
        )
    raise GoldNotInCorpusError(
        f"line {line_no}: record needs gold_parent_id or gold_doc_id + gold_char_span"
    )


def _gold_span(value: object) -> tuple[int, int]:
    """A record's ``gold_char_span``: two integers, start before end."""
    if not (
        isinstance(value, list)
        and len(value) == 2
        and all(type(v) is int for v in value)
        and value[0] < value[1]
    ):
        raise ValueError(
            f"gold_char_span {value!r} is not two integers [start, end] with start < end"
        )
    return value[0], value[1]


def save_query_set(path: str | Path, queries: Iterable[LabeledQuery]) -> None:
    """Write queries as line-delimited records.

    Queries with a known gold span are written span-based (document id plus
    byte span), which survives re-chunking with different budgets; the rest
    pin the gold parent chunk id directly.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for q in queries:
            if q.gold_span is not None and q.gold_doc is not None:
                rec = {
                    "query": q.query,
                    "gold_doc_id": q.gold_doc,
                    "gold_char_span": list(q.gold_span),
                }
            else:
                rec = {"query": q.query, "gold_parent_id": q.gold_parent}
                if q.gold_doc is not None:
                    rec["gold_doc_id"] = q.gold_doc
            fh.write(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------


def format_table(summaries: Sequence[EvalSummary]) -> str:
    """Aligned text table, one row per strategy, metrics to six decimals; a
    summary of no strategy's name is labelled with its own ``strategy``."""
    rows = []
    for summary in summaries:
        # A ``Strategy`` is a ``str``, so its value finds its entry.
        label = STRATEGY_LABELS.get(summary.strategy, summary.strategy)
        rows.append((label, f"{summary.hit_rate:.6f}", f"{summary.mrr:.6f}"))
    width = max(len("Retriever"), *(len(r[0]) for r in rows)) if rows else len("Retriever")
    lines = [f"{'Retriever':<{width}}  {'Hit Rate':>9}  {'MRR':>9}"]
    for label, hit_rate, mrr in rows:
        lines.append(f"{label:<{width}}  {hit_rate:>9}  {mrr:>9}")
    return "\n".join(lines)


def summaries_to_json(summaries: Sequence[EvalSummary]) -> str:
    payload = [
        {"strategy": s.strategy, "hit_rate": s.hit_rate, "mrr": s.mrr, "n": s.n}
        for s in summaries
    ]
    return json.dumps(payload, indent=2, sort_keys=True)
