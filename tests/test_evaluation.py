"""Metric definitions, aggregation oracle, comparison runs, file formats."""

import json
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrr.cli import EXIT_OK, main
from hrr.config import EngineConfig
from hrr.engine import context_for
from hrr.errors import EmptyQuerySetError, GoldNotInCorpusError, SnapshotFormatError
from hrr.evaluation import (
    EvalRecord,
    LabeledQuery,
    compare,
    format_table,
    load_query_set,
    save_query_set,
    score_query,
    summaries_to_json,
    summarize,
)
from hrr.rerank import ScoredCandidate
from hrr.retrievers import RetrievalResult, Strategy
from hrr.synth import CorpusSpec, generate

from reads import level_ids, nodes_of


def result_with(parent_ids, query="q"):
    parents = tuple(ScoredCandidate(pid, 1.0 - i / 10) for i, pid in enumerate(parent_ids))
    return RetrievalResult(query=query, strategy=Strategy.HRR, parents=parents, trace=())


def record(rank):
    return EvalRecord(query="q", gold_parent="g", hit=rank is not None, first_rank=rank)


class TestScoreQuery:
    def test_gold_first(self):
        rec = score_query(result_with(["g", "x", "y"]), LabeledQuery("q", "g"))
        assert rec.hit and rec.first_rank == 1

    def test_gold_absent(self):
        rec = score_query(result_with(["a", "b", "c", "d", "e"]), LabeledQuery("q", "g"))
        assert not rec.hit and rec.first_rank is None

    def test_gold_third_of_five(self):
        rec = score_query(result_with(["a", "b", "g", "d", "e"]), LabeledQuery("q", "g"))
        assert rec.first_rank == 3

    def test_gold_checked_against_corpus(self, toy_corpus):
        with pytest.raises(GoldNotInCorpusError):
            score_query(result_with(["x"]), LabeledQuery("q", "missing:p0"), toy_corpus)
        # an intermediate id is not a valid gold parent either
        inter = next(n.id for n in nodes_of(toy_corpus) if n.parent_id == "alpha:p0")
        with pytest.raises(GoldNotInCorpusError):
            score_query(result_with(["x"]), LabeledQuery("q", inter), toy_corpus)


class TestSummarize:
    def test_hand_case_ranks_1_2_miss(self):
        summary = summarize([record(1), record(2), record(None)])
        assert summary.hit_rate == 2 / 3
        assert summary.mrr == (1 + 0.5 + 0) / 3
        assert summary.mrr == 0.5
        assert summary.n == 3

    def test_all_rank_one(self):
        summary = summarize([record(1)] * 4)
        assert summary.hit_rate == 1.0 and summary.mrr == 1.0

    def test_all_misses(self):
        summary = summarize([record(None)] * 5)
        assert summary.hit_rate == 0.0 and summary.mrr == 0.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyQuerySetError):
            summarize([])

    @given(
        st.lists(
            st.one_of(st.none(), st.integers(min_value=1, max_value=50)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_fraction_reference(self, ranks):
        records = [record(r) for r in ranks]
        summary = summarize(records)
        hr_exact = Fraction(sum(1 for r in ranks if r is not None), len(ranks))
        mrr_exact = sum(
            (Fraction(1, r) for r in ranks if r is not None), Fraction(0)
        ) / len(ranks)
        assert abs(summary.hit_rate - float(hr_exact)) <= 1e-12
        assert abs(summary.mrr - float(mrr_exact)) <= 1e-12
        assert 0.0 <= summary.mrr <= summary.hit_rate <= 1.0


class TestCompare:
    def test_single_query_gold_first(self, toy_context):
        queries = [LabeledQuery("zorblat fenwick grant", "alpha:p0")]
        summaries = compare(toy_context, queries, [Strategy.HRR])
        assert len(summaries) == 1
        assert summaries[0].strategy == "hrr"
        assert summaries[0].hit_rate == 1.0 and summaries[0].mrr == 1.0

    def test_one_summary_per_strategy_same_queries(self, toy_context):
        queries = [
            LabeledQuery("zorblat fenwick grant", "alpha:p0"),
            LabeledQuery("quimbly raxon permit", "beta:p0"),
        ]
        summaries = compare(toy_context, queries, list(Strategy))
        assert [s.strategy for s in summaries] == [s.value for s in Strategy]
        assert all(s.n == 2 for s in summaries)

    def test_rerun_identical(self, toy_context):
        queries = [LabeledQuery("velmor dastin scheme", "gamma:p1")]
        assert compare(toy_context, queries, [Strategy.HRR, Strategy.BASE]) == compare(
            toy_context, queries, [Strategy.HRR, Strategy.BASE]
        )

    def test_bad_gold_aborts(self, toy_context):
        queries = [LabeledQuery("whatever", "nope:p0")]
        with pytest.raises(GoldNotInCorpusError):
            compare(toy_context, queries, [Strategy.HRR])

    def test_empty_query_set_rejected(self, toy_context):
        with pytest.raises(EmptyQuerySetError):
            compare(toy_context, [], [Strategy.HRR])


class TestTableFormat:
    def test_table_rows_and_labels(self):
        from hrr.evaluation import EvalSummary

        table = format_table(
            [
                EvalSummary("hrr", 1.0, 0.961538, 39),
                EvalSummary("base", 0.897436, 0.717521, 39),
            ]
        )
        lines = table.splitlines()
        assert lines[0].split() == ["Retriever", "Hit", "Rate", "MRR"]
        assert "Results_Chunk_HRR (Proposed)" in lines[1]
        assert "1.000000" in lines[1] and "0.961538" in lines[1]
        assert "Base Retriever + Reranker" in lines[2]
        assert "0.897436" in lines[2] and "0.717521" in lines[2]

    def test_a_summary_of_no_strategy_keeps_its_own_label(self):
        """``summarize``'s default strategy, "", and a name that is no
        strategy's are rows labelled as they are, not errors."""
        from hrr.evaluation import EvalRecord, EvalSummary

        unnamed = summarize([EvalRecord("q", "d:p0", True, 1)])
        lines = format_table([unnamed, EvalSummary("mine", 0.5, 0.25, 8)]).splitlines()
        assert lines[1].split() == ["1.000000", "1.000000"]
        assert lines[2].split() == ["mine", "0.500000", "0.250000"]

    def test_machine_output_round_trips(self):
        from hrr.evaluation import EvalSummary

        payload = json.loads(summaries_to_json([EvalSummary("s2p", 0.5, 0.25, 8)]))
        assert payload == [{"strategy": "s2p", "hit_rate": 0.5, "mrr": 0.25, "n": 8}]

    def test_readme_quickstart_table_is_current(self):
        # The README's quickstart shows `hrr eval` on the seed-42 synth corpus
        # at default settings; the table there must be what compare() prints.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = readme.split("```")
        shown = [b.strip() for b in blocks[1::2] if b.strip().startswith("Retriever")]
        assert len(shown) == 1
        synthetic = generate(CorpusSpec(seed=42))
        ctx = context_for(synthetic.corpus, EngineConfig())
        assert shown[0] == format_table(compare(ctx, synthetic.queries, list(Strategy)))


class TestQuerySetFiles:
    def test_round_trip(self, tmp_path, toy_corpus):
        queries = [
            LabeledQuery("zorblat fenwick grant", "alpha:p0", gold_doc="alpha"),
            LabeledQuery("quimbly raxon permit", "beta:p0"),
        ]
        path = tmp_path / "queries.jsonl"
        save_query_set(path, queries)
        loaded = load_query_set(path, toy_corpus)
        assert [(q.query, q.gold_parent) for q in loaded] == [
            (q.query, q.gold_parent) for q in queries
        ]

    def test_span_based_gold_resolution(self, tmp_path, toy_corpus):
        parent = toy_corpus.get("beta:p1")
        rec = {
            "query": "training sessions",
            "gold_doc_id": "beta",
            "gold_char_span": [parent.char_span[0] + 1, parent.char_span[0] + 5],
        }
        path = tmp_path / "q.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        loaded = load_query_set(path, toy_corpus)
        assert loaded[0].gold_parent == "beta:p1"

    @pytest.mark.parametrize("doc_id,start", [("ghost", 0), ("beta", 10**6), ("beta", -1)])
    def test_uncovered_span_rejected(self, tmp_path, toy_corpus, doc_id, start):
        rec = {"query": "x", "gold_doc_id": doc_id, "gold_char_span": [start, start + 4]}
        path = tmp_path / "q.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(GoldNotInCorpusError, match="no parent chunk covers"):
            load_query_set(path, toy_corpus)

    @pytest.mark.parametrize(
        "span",
        [[0, 10, 99], ["3", "9"], [5, 2], [4, 4], [True, 4], [2.0, 9], [0], "0-4", None],
        ids=["three", "strings", "reversed", "empty", "bool", "float", "one", "string", "null"],
    )
    def test_span_not_two_ascending_integers_is_malformed(self, tmp_path, toy_corpus, span):
        path = tmp_path / "q.jsonl"
        good = json.dumps({"query": "y", "gold_parent_id": "beta:p0"})
        message = r"q\.jsonl line 2: malformed record \(gold_char_span"
        # Span-based, and beside a gold parent, whose span would go unused.
        for gold in ({"gold_doc_id": "beta"}, {"gold_parent_id": "beta:p1"}):
            rec = {"query": "x", **gold, "gold_char_span": span}
            path.write_text(f"{good}\n{json.dumps(rec)}\n")
            for corpus in (toy_corpus, None):
                with pytest.raises(SnapshotFormatError, match=message):
                    load_query_set(path, corpus)

    @pytest.mark.parametrize(
        "rec, message",
        [
            ({"query": "x", "gold_parent_id": "alpha:p0", "gold_span_typo": [1, 2]},
             r"unknown keys \['gold_span_typo'\]"),
            ({"query": "x", "gold_doc_id": "beta", "gold_char_span": [0, 4], "note": ""},
             r"unknown keys \['note'\]"),
            ({"query": "x", "gold_parent_id": "alpha:p0", "gold_doc_id": 7},
             "gold_doc_id 7 is not a string"),
            ({"query": "x", "gold_doc_id": ["beta"], "gold_char_span": [0, 4]},
             r"gold_doc_id \['beta'\] is not a string"),
            ({"query": "x", "gold_parent_id": "alpha:p0", "gold_doc_id": None},
             "gold_doc_id None is not a string"),
            ({"query": "x", "gold_parent_id": 3}, "gold_parent_id 3 is not a string"),
            ({"query": "x", "gold_parent_id": "beta:p1", "gold_doc_id": "beta",
              "gold_char_span": [0, 4]}, "gold_char_span beside a gold_parent_id"),
        ],
        ids=["unknown-key", "unknown-key-span-based", "int-doc", "list-doc", "null-doc",
             "int-parent", "span-beside-parent"],
    )
    def test_record_fails_closed(self, tmp_path, toy_corpus, rec, message):
        path = tmp_path / "q.jsonl"
        good = json.dumps({"query": "y", "gold_parent_id": "beta:p0"})
        path.write_text(f"{good}\n{json.dumps(rec)}\n")
        for corpus in (toy_corpus, None):
            with pytest.raises(SnapshotFormatError, match=r"q\.jsonl line 2: malformed record \("):
                load_query_set(path, corpus)
            with pytest.raises(SnapshotFormatError, match=message):
                load_query_set(path, corpus)

    def test_gold_doc_must_hold_the_gold_parent(self, tmp_path, toy_corpus):
        path = tmp_path / "q.jsonl"
        path.write_text(
            '{"query": "x", "gold_parent_id": "alpha:p0", "gold_doc_id": "gamma"}\n'
            '{"query": "y", "gold_parent_id": "alpha:p0", "gold_doc_id": "alpha"}\n'
            '{"query": "z", "gold_parent_id": "ghost:p7"}\n'
        )
        with pytest.raises(GoldNotInCorpusError, match="2 bad records") as exc:
            load_query_set(path, toy_corpus)
        assert "'alpha:p0' is in document 'alpha', not 'gamma'" in str(exc.value)
        assert "ghost:p7" in str(exc.value)
        # Without a corpus there is no document to check against.
        assert [q.gold_doc for q in load_query_set(path)] == ["gamma", "alpha", None]

    def test_saved_and_synth_query_sets_load_unchanged(self, tmp_path, capsys):
        synthetic = generate(CorpusSpec(seed=42))
        assert main(["synth", "--seed", "42", "--out", str(tmp_path / "synth")]) == EXIT_OK
        path = tmp_path / "synth" / "queries.jsonl"
        assert load_query_set(path, synthetic.corpus) == list(synthetic.queries)
        # Parent-based records, each with its gold document.
        by_parent = [replace(q, gold_span=None) for q in synthetic.queries]
        save_query_set(path, by_parent)
        assert load_query_set(path, synthetic.corpus) == by_parent

    def test_span_without_corpus_rejected(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text('{"query": "x", "gold_doc_id": "d", "gold_char_span": [0, 4]}\n')
        with pytest.raises(GoldNotInCorpusError):
            load_query_set(path)

    def test_unknown_gold_rejected_at_load(self, tmp_path, toy_corpus):
        path = tmp_path / "q.jsonl"
        path.write_text('{"query": "x", "gold_parent_id": "ghost:p7"}\n')
        with pytest.raises(GoldNotInCorpusError):
            load_query_set(path, toy_corpus)

    def test_all_bad_records_listed_before_abort(self, tmp_path, toy_corpus):
        path = tmp_path / "q.jsonl"
        path.write_text(
            '{"query": "x", "gold_parent_id": "ghost:p7"}\n'
            '{"query": "y", "gold_parent_id": "alpha:p0"}\n'
            '{"query": "z", "gold_parent_id": "phantom:p1"}\n'
        )
        with pytest.raises(GoldNotInCorpusError, match="2 bad records") as exc:
            load_query_set(path, toy_corpus)
        assert "ghost:p7" in str(exc.value) and "phantom:p1" in str(exc.value)

    def test_malformed_record_rejected(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text('{"query": "x"}\n')
        with pytest.raises(GoldNotInCorpusError):
            load_query_set(path)

    def test_span_too_large_for_an_int_is_malformed(self, tmp_path, toy_corpus):
        path = tmp_path / "q.jsonl"
        path.write_text('{"query": "x", "gold_doc_id": "beta", "gold_char_span": [1e400, 5]}\n')
        with pytest.raises(SnapshotFormatError, match="line 1: malformed record"):
            load_query_set(path, toy_corpus)


    def test_query_with_lone_surrogate_is_malformed(self, tmp_path, toy_corpus):
        path = tmp_path / "q.jsonl"
        path.write_text('{"query": "x\\udc80y", "gold_parent_id": "alpha:p0"}\n')
        with pytest.raises(SnapshotFormatError, match="line 1: malformed record .*surrogate"):
            load_query_set(path, toy_corpus)

    def test_deeply_nested_line_is_malformed(self, tmp_path, toy_corpus):
        path = tmp_path / "q.jsonl"
        path.write_text("[" * 100_000 + "]" * 100_000 + "\n")
        with pytest.raises(SnapshotFormatError, match="line 1: malformed record"):
            load_query_set(path, toy_corpus)


class TestInvariantOnRealRuns:
    def test_mrr_never_exceeds_hit_rate(self, toy_context):
        rng = random.Random(0)
        vocab = ["budget", "depot", "canal", "grant", "permit", "scheme", "training"]
        queries = []
        parents = list(level_ids(toy_context.corpus, __import__("hrr").Level.PARENT))
        for _ in range(12):
            queries.append(
                LabeledQuery(
                    " ".join(rng.sample(vocab, 3)), rng.choice(parents)
                )
            )
        for summary in compare(toy_context, queries, list(Strategy)):
            assert 0.0 <= summary.mrr <= summary.hit_rate <= 1.0
