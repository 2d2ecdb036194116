"""``scripts/bench_pair.py`` summarises alternated pairs by the pair rule and
pins each side's source; checked on hand-made run records, running nothing."""

import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pair.py"
spec = importlib.util.spec_from_file_location("bench_pair", PATH)
bench_pair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pair)


def records(base: list[float], change: list[float]) -> list[dict]:
    """One run record per side and pair, as ``main`` keeps them, whose
    ``setup_s`` is given; the other metrics read null, as unmeasured."""
    return [
        {"workload": "query-200", "pair": pair, "side": side,
         "report": {"env": {"src_sha256": side * 8}},
         "result": {"metrics": {metric: {"value": value if metric == "setup_s" else None}
                                for metric in bench_pair.METRICS}}}
        for pair, values in enumerate(zip(base, change))
        for side, value in zip(("base", "change"), values)
    ]


class TestSummary:
    def test_a_tie_counts_for_neither_side(self):
        base = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        change = [b - 5.0 for b in base[:9]] + [19.0]
        (line,) = bench_pair.summary(records(base, change))
        assert line.startswith("query-200 setup_s: base 14.5 [11.75, 17.25] -> change ")
        assert "change lower in 9/10, base lower in 0, 1 tied" in line
        # The medians are 14.5 and 9.5: a gap of 5, under the base's 5.5.
        assert "the median gap 5 does not exceed the base's quartile distance 5.5" in line
        assert line.endswith("a gain by the pair rule: no")

    def test_a_gain_needs_nine_tenths_and_a_gap_past_the_quartiles(self):
        base = [10.0, 10.2, 10.4, 10.6, 10.8, 11.0, 11.2, 11.4, 11.6, 11.8]
        change = [5.0] * 9 + [12.0]
        (line,) = bench_pair.summary(records(base, change))
        assert "change lower in 9/10, base lower in 1, 0 tied" in line
        assert "the median gap 5.9 exceeds the base's quartile distance 1.1" in line
        assert line.endswith("a gain by the pair rule: yes")
        (line,) = bench_pair.summary(records(base, [5.0] * 8 + [12.0, 12.0]))
        assert "change lower in 8/10, base lower in 2" in line
        assert line.endswith("a gain by the pair rule: no")

    def test_unpaired_runs_are_left_out(self):
        runs = records([10.0, 11.0], [9.0, 10.0])
        (line,) = bench_pair.summary(runs[:-1])
        assert "change lower in 1/1" in line


class TestSourcePins:
    def test_each_side_is_pinned_to_its_first_digest(self):
        pins = {}
        for run in records([1.0, 2.0], [1.0, 2.0]):
            bench_pair.pin_source(pins, run["side"], run["report"])
        assert pins == {"base": "base" * 8, "change": "change" * 8}

    def test_a_run_of_other_source_ends_the_series(self):
        pins = {"base": "a" * 64, "change": "b" * 64}
        with pytest.raises(bench_pair.RunFailed, match="the change side's src_sha256 went from"):
            bench_pair.pin_source(pins, "change", {"env": {"src_sha256": "c" * 64}})
        assert pins == {"base": "a" * 64, "change": "b" * 64}


def digested(runs: list[dict], *digests: str) -> list[dict]:
    """``runs``, each report carrying the next of ``digests`` as its
    ``results_sha256``."""
    return [{**run, "report": {**run["report"], "results_sha256": digest}}
            for run, digest in zip(runs, digests, strict=True)]


class TestResultsPins:
    def test_one_digest_over_both_sides_is_said_so(self):
        runs = digested(records([1.0, 2.0], [1.0, 2.0]), *["a" * 64] * 4)
        (line,) = bench_pair.digests(runs)
        assert line == (f"query-200 results_sha256: every run of both sides carried one: yes; "
                        f"base {'a' * 64}; change {'a' * 64}")

    def test_a_second_digest_is_named_with_its_side(self):
        runs = digested(records([1.0, 2.0], [1.0, 2.0]), "a" * 64, "a" * 64, "a" * 64, "b" * 64)
        (line,) = bench_pair.digests(runs)
        assert line == (f"query-200 results_sha256: every run of both sides carried one: no; "
                        f"base {'a' * 64}; change {'a' * 64}, {'b' * 64}")

    def test_a_run_of_other_results_ends_the_series(self, tmp_path, monkeypatch):
        # Each side's runs in its order; the change's second run differs.
        runs = digested(records([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]), *["a" * 64] * 3, "b" * 64,
                        *["a" * 64] * 2)
        outcomes = {side: iter({"report": r["report"], "result": r["result"]}
                               for r in runs if r["side"] == side) for side in ("base", "change")}
        monkeypatch.setattr(bench_pair, "export", lambda rev, dest: "f" * 40)
        monkeypatch.setattr(bench_pair, "run", lambda checkout, workload, seed: next(
            outcomes["change" if checkout == bench_pair.ROOT else "base"]))
        out = tmp_path / "bench.json"
        argv = ["--base", "HEAD", "--out", str(out), "--workloads", "query-200",
                "--pairs", "3", "--workdir", str(tmp_path)]
        assert bench_pair.main(argv) == 1
        record = json.loads(out.read_text())
        assert record["failure"].startswith(
            f"query-200's results_sha256 went from {'a' * 64} to {'b' * 64}")
        # The run that differs is kept, and no run follows it.
        assert [(r["pair"], r["side"]) for r in record["runs"]] == [
            (0, "base"), (0, "change"), (1, "change")]
        assert record["results_sha256"] == {"query-200": "a" * 64}
        assert record["summary"][0].startswith(
            "query-200 results_sha256: every run of both sides carried one: no")
