"""One measured run of one workload, in a fresh process.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``, thread pools capped
and ``PYTHONHASHSEED`` fixed. Prints two JSON lines: a report (every
end-to-end metric by name, the results digest, failures and the
environment) and, last, the result object ``{"correct", "attempted",
"failed", "metrics"}``.

Every measured op is checked. An op fails when it raises or returns a
malformed result: more than ``rerank_top_k`` parents, a duplicate parent,
an id that is not a parent chunk, scores that increase down the list, or
a result that differs from an earlier run of the same query.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import hrr
from hrr import engine, evaluation, retrievers
from hrr.config import EngineConfig, PathsConfig
from hrr.corpus import Level
from hrr.retrievers import Strategy

from reference import NOMINAL_NS, Sampler, reference_ns
from tracer import Tracer, dir_bytes, per_layer_metrics
from workloads import SETUP_REPEATS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
#: compare() order; it is also the order of the captured retrieve calls.
STRATEGIES = (Strategy.HRR, Strategy.BASE, Strategy.C2P, Strategy.S2P)
#: The synthetic corpus makes every needle findable by sentence-level search.
MUST_FIND_ALL = (Strategy.HRR, Strategy.S2P)
MAX_LOGGED_FAILURES = 5
#: Each setup call keeps loading until this much time is spent.
SETUP_MIN_SECONDS = 0.5
#: Untraced ops a run times at least, however long they take: 100 queries
#: leave 10 beyond hrr.query_ms_p90. One ingest of ~13 s, sampled by the
#: reference every 0.5 s, keeps ingest-200 within the benchmark's time budget.
MIN_OPS = {"query": 100, "eval": 0, "ingest": 1}
#: Cold loads of the freshly ingested artifacts after the ingests.
INGEST_LOADS = 3

clock = time.perf_counter_ns
cpu_clock = time.process_time_ns


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def calibrated(elapsed_ns: float, ref_ns: float) -> float:
    """``elapsed_ns`` rescaled to a host that runs the reference kernel in
    ``reference.NOMINAL_NS``; see ``reference.py``."""
    return elapsed_ns * NOMINAL_NS / ref_ns


def timed(fn, sampler: Sampler | None):
    """Run ``fn()``; return (value, wall ns, CPU ns, references taken during
    it). The times leave out the sampler's handler."""
    with sampler.during() if sampler else nullcontext() as sampling:
        start, cpu_start = clock(), cpu_clock()
        value = fn()
        wall, cpu = clock() - start, cpu_clock() - cpu_start
    if sampling is None:
        return value, wall, cpu, []
    return value, wall - sampling.spent_ns, cpu - sampling.spent_ns, sampling.samples


def artifact_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode("utf-8") + b"\0")
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


class Checker:
    """Validates op results and keeps one canonical result per op key."""

    def __init__(self, top_k: int) -> None:
        self.top_k = top_k
        self.results: dict[tuple[str, str], object] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run_op(self, op, check, sampler: Sampler | None):
        """Time ``op()``, then ``check`` its value. Returns (wall ns, CPU ns,
        references during it), or None when either raised."""
        self.attempted += 1
        try:
            value, *timing = timed(op, sampler)
            check(value)
        except Exception as exc:  # a failing op is counted, not fatal
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return None
        return timing

    def record(self, key: tuple[str, str], value) -> None:
        if self.results.setdefault(key, value) != value:
            raise ValueError(f"{key}: result differs from an earlier run")

    def check_retrieval(self, result, corpus, gold, strategy: Strategy) -> int | None:
        """Raise if ``result`` is malformed; return the gold parent's 1-based rank."""
        ids = [p.chunk_id for p in result.parents]
        scores = [p.score for p in result.parents]
        problem = None
        if result.strategy is not strategy:
            problem = f"strategy {result.strategy.value}"
        elif len(ids) > self.top_k:
            problem = f"{len(ids)} parents > rerank_top_k {self.top_k}"
        elif len(set(ids)) != len(ids):
            problem = "duplicate parent"
        elif any(cid not in corpus.chunks or corpus.chunks[cid].level is not Level.PARENT
                 for cid in ids):
            problem = "non-parent id"
        elif any(not isinstance(s, float) for s in scores):
            problem = "unscored parent"
        elif any(b > a for a, b in zip(scores, scores[1:])):
            problem = "scores increase down the list"
        if problem:
            raise ValueError(f"{strategy.value} {gold.query!r}: {problem}")
        self.record((gold.query, strategy.value), [ids, scores])
        return ids.index(gold.gold_parent) + 1 if gold.gold_parent in ids else None

    def digest(self) -> str:
        payload = json.dumps(sorted(self.results.items()), separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def quality(ranks: dict) -> tuple[float, float]:
    """Hit rate and MRR over the queries run, from {query: rank or None}."""
    n = max(len(ranks), 1)
    hits = [r for r in ranks.values() if r]
    return len(hits) / n, sum(1.0 / r for r in hits) / n


class Run:
    def __init__(self, args) -> None:
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.inputs = Path(args.inputs)
        self.meta = json.loads((self.inputs / "meta.json").read_text())
        self.checker = Checker(EngineConfig().retriever.rerank_top_k)
        self.tracer: Tracer | None = None
        #: Samples the reference inside untraced ops and loads; the traced
        #: phase goes without, so no handler time lands in a span.
        self.sampler = Sampler()
        self.problems: list[str] = []
        #: Cold loads as (wall ns, mean reference ns before, during and after).
        self.setups: list[tuple[int, float]] = []
        #: Timed ops per phase as (input index, wall ns, CPU ns, mean reference ns).
        self.ops: dict[str, list[tuple[int, int, int, float]]] = {"untraced": [], "traced": []}
        #: Timed work outside the ops themselves (query-set loads), per phase.
        self.extra_ns = {"untraced": 0, "traced": 0}

    def config(self, artifacts: Path) -> EngineConfig:
        return EngineConfig(
            paths=PathsConfig(
                corpus_dir=str(artifacts / "corpus"),
                index_dir=str(artifacts / "indexes"),
                query_set=str(self.inputs / "queries.jsonl"),
            )
        )

    def unit(self, phase: str):
        return self.tracer.unit(phase) if self.tracer else nullcontext()

    def setup(self, config: EngineConfig, repeats: int):
        """Cold ``load_context`` at least ``repeats`` times and for at least
        SETUP_MIN_SECONDS, so cheap loads get more samples; return the last
        context."""
        expected = sum(self.meta["chunks_per_level"].values())
        ctx = None
        deadline = clock() + int(SETUP_MIN_SECONDS * 1e9)
        done = 0
        while done < repeats or (repeats > 0 and clock() < deadline):
            done += 1
            ctx = None
            gc.collect()
            ref_before = reference_ns()
            with self.unit("setup"):
                ctx, elapsed, _, during = timed(
                    lambda: engine.load_context(config), None if self.tracer else self.sampler)
            self.setups.append((elapsed, statistics.mean([ref_before, *during, reference_ns()])))
            if len(ctx.corpus) != expected:
                self.problems.append(f"loaded {len(ctx.corpus)} chunks, expected {expected}")
        return ctx

    def loop(self, op, check, n: int, seconds: float, phase: str, prepare=None,
             start: int = 0, min_ops: int = 1) -> int:
        """Closed loop over ops start, start + 1, ... for ``seconds`` and at
        least ``min_ops`` ops; op i uses input i mod n. Returns the next op
        index. The reference kernel is timed between consecutive ops.

        The traced phase stops only at the end of a pass over the n inputs, so
        its per-op counters are the same in every run.
        """
        gc.collect()
        whole_passes = phase == "traced"
        deadline = clock() + int(seconds * 1e9)
        i = start
        ref_before = reference_ns()
        while True:
            with self.unit("op"):
                if prepare is not None:
                    prepare(i, phase)
                timing = self.checker.run_op(
                    lambda: op(i), check, self.sampler if phase == "untraced" else None)
            ref_after = reference_ns()
            if timing is not None:
                wall, cpu, during = timing
                ref = statistics.mean([ref_before, *during, ref_after])
                self.ops[phase].append((i % n, wall, cpu, ref))
            ref_before = ref_after
            i += 1
            if (clock() >= deadline and i - start >= min_ops
                    and (not whole_passes or i % n == 0)):
                return i

    def phases(self, op, check, n: int, reload, prepare=None, windows: int = 1) -> None:
        """Run the ops untraced for --seconds and at least MIN_OPS ops and one
        pass over the n inputs (so ``results_sha256`` covers every input), in
        ``windows`` windows, each after the first starting with ``reload(1)``:
        one more cold load.

        Spreading the loads over the run, like the ops, keeps one slow spell of
        the host from setting every setup sample. With --trace 1, half of the
        time runs untraced in one window; then the tracer is installed,
        ``reload(SETUP_REPEATS)`` makes the traced loads, and traced ops run
        whole passes for the other half.
        """
        seconds = self.args.seconds
        if not self.args.trace:
            min_ops = -(-max(MIN_OPS[self.workload.kind], n) // windows)
            i = 0
            for window in range(windows):
                if window:
                    reload(1)
                i = self.loop(op, check, n, seconds / windows, "untraced", prepare, i, min_ops)
            return
        self.loop(op, check, n, seconds / 2, "untraced", prepare)
        self.tracer = Tracer()
        self.tracer.install()
        reload(SETUP_REPEATS)
        self.loop(op, check, n, seconds / 2, "traced", prepare)

    def stored_ratio(self, artifacts: Path) -> float:
        stored = dir_bytes(artifacts / "corpus") + dir_bytes(artifacts / "indexes")
        return stored / self.meta["doc_bytes"]

    # -- workloads -------------------------------------------------------------

    def run_query(self) -> dict:
        artifacts = Path(self.args.artifacts)
        config = self.config(artifacts)
        state = {"ctx": self.setup(config, 1)}
        queries = evaluation.load_query_set(config.paths.query_set, state["ctx"].corpus)
        ranks: dict[str, int | None] = {}

        def op(i):
            gold = queries[i % len(queries)]
            return gold, retrievers.retrieve(gold.query, state["ctx"])

        def check(value):
            gold, result = value
            ranks[gold.query] = self.checker.check_retrieval(
                result, state["ctx"].corpus, gold, Strategy.HRR)

        def reload(repeats):
            state["ctx"] = None
            state["ctx"] = self.setup(config, repeats)

        self.phases(op, check, len(queries), reload, windows=SETUP_REPEATS)
        hit_rate, mrr = quality(ranks)
        if hit_rate != 1.0:
            self.problems.append(f"hrr hit rate {hit_rate} < 1.0")
        return {
            "hit_rate.hrr": (hit_rate, "ratio"),
            "mrr.hrr": (mrr, "ratio"),
            "bytes_stored_per_input_byte": (self.stored_ratio(artifacts), "ratio"),
        }

    def run_eval(self) -> dict:
        artifacts = Path(self.args.artifacts)
        config = self.config(artifacts)
        state = {"ctx": self.setup(config, 1)}
        reference = evaluation.load_query_set(config.paths.query_set, state["ctx"].corpus)
        n = len(reference)
        ranks: dict[Strategy, dict] = {s: {} for s in STRATEGIES}
        captured: list = []
        original = evaluation.retrieve

        def capture(query, ctx):
            result = original(query, ctx)
            captured.append(result)
            return result

        def prepare(i, phase):
            if i % n == 0:
                start = clock()
                state["queries"] = evaluation.load_query_set(
                    config.paths.query_set, state["ctx"].corpus)
                self.extra_ns[phase] += clock() - start
                if state["queries"] != reference:
                    raise ValueError("query set loaded differently")
            captured.clear()

        def op(i):
            gold = state["queries"][i % n]
            return gold, evaluation.compare(state["ctx"], [gold], STRATEGIES)

        def check(value):
            gold, summaries = value
            if len(captured) != len(STRATEGIES) or len(summaries) != len(STRATEGIES):
                raise ValueError(f"{len(summaries)} summaries, {len(captured)} retrievals")
            for strategy, summary, result in zip(STRATEGIES, summaries, captured):
                rank = self.checker.check_retrieval(result, state["ctx"].corpus, gold, strategy)
                expected = (1.0, 1.0 / rank) if rank else (0.0, 0.0)
                got = (summary.hit_rate, summary.mrr)
                if summary.strategy != strategy.value or summary.n != 1 or got != expected:
                    raise ValueError(
                        f"{strategy.value} {gold.query!r}: summary {got}, gold rank {rank}")
                ranks[strategy][gold.query] = rank

        def reload(repeats):
            state["ctx"] = None
            state["ctx"] = self.setup(config, repeats)

        evaluation.retrieve = capture
        try:
            self.phases(op, check, n, reload, prepare, windows=SETUP_REPEATS)
        finally:
            evaluation.retrieve = original
        metrics = {}
        for strategy in STRATEGIES:
            hit_rate, mrr = quality(ranks[strategy])
            metrics[f"hit_rate.{strategy.value}"] = (hit_rate, "ratio")
            metrics[f"mrr.{strategy.value}"] = (mrr, "ratio")
            if strategy in MUST_FIND_ALL and hit_rate != 1.0:
                self.problems.append(f"{strategy.value} hit rate {hit_rate} < 1.0")
        untraced = self.ops["untraced"]
        timed_s = (sum(wall for _, wall, _, _ in untraced) + self.extra_ns["untraced"]) / 1e9
        pairs = len(untraced) * len(STRATEGIES)
        metrics["eval_pairs_per_s"] = (pairs / timed_s if untraced else 0.0, "1/s")
        metrics["bytes_stored_per_input_byte"] = (self.stored_ratio(artifacts), "ratio")
        return metrics

    def run_ingest(self) -> dict:
        out = Path(self.args.scratch)
        config = self.config(out)
        docs = self.inputs / "docs"
        expected = self.meta["chunks_per_level"]

        def prepare(i, phase):
            shutil.rmtree(out, ignore_errors=True)

        def op(i):
            return engine.ingest(docs, config)

        def check(summary):
            if summary.documents != self.meta["documents"]:
                raise ValueError(f"ingested {summary.documents} documents")
            if summary.chunks_per_level != expected:
                raise ValueError(f"chunks {summary.chunks_per_level} != {expected}")
            self.checker.record(("ingest", "artifacts"), artifact_digest(out))

        self.phases(op, check, 1, lambda repeats: None, prepare)
        self.setup(config, INGEST_LOADS)  # traced with --trace 1, for the load metrics
        return {"bytes_stored_per_input_byte": (self.stored_ratio(out), "ratio")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="One measured benchmark run.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--artifacts")
    parser.add_argument("--scratch")
    parser.add_argument("--spans", help="CSV file for the traced run's spans")
    args = parser.parse_args(argv)

    engine_dir = Path(hrr.__file__).resolve().parent
    if engine_dir != ROOT / "src" / "hrr":
        print(f"worker: imported hrr from {engine_dir}, not this checkout", file=sys.stderr)
        return 2

    run = Run(args)
    kind = run.workload.kind
    named = {"query": run.run_query, "eval": run.run_eval, "ingest": run.run_ingest}[kind]()
    checker = run.checker
    failed = len(checker.failures)
    attempted = max(checker.attempted, 1)
    untraced = run.ops["untraced"] or [(0, 0, 0, 1.0)]
    lat = [wall / 1e6 for _, wall, _, _ in untraced]
    if kind == "query":
        named["hrr.query_ms_p50"] = (statistics.median(lat), "ms")
        named["hrr.query_ms_p90"] = (percentile(lat, 0.9), "ms")
    elif kind == "ingest":
        seconds = statistics.median(lat) / 1e3
        named["ingest_mb_per_s"] = (run.meta["doc_bytes"] / 1e6 / seconds if seconds else 0.0,
                                    "MB/s")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # The gated metrics: the ones every workload has. Times are calibrated
    # against the reference kernel (see reference.py); the raw times are in
    # the report. Each input's median over its passes, averaged over the
    # inputs, weights every query the same.
    by_input: dict[int, list[float]] = {}
    for index, wall, _, ref in untraced:
        by_input.setdefault(index, []).append(calibrated(wall, ref) / 1e6)
    end_to_end = {
        "setup_s": (statistics.median(calibrated(w, r) for w, r in run.setups) / 1e9, "s"),
        "op_ms_calibrated": (statistics.mean(map(statistics.median, by_input.values())), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "bytes_stored_per_input_byte": named["bytes_stored_per_input_byte"],
    }
    named = {
        "setup_s": end_to_end["setup_s"],
        **named,
        "peak_rss_mb": end_to_end["peak_rss_mb"],
        "failed_share": (failed / attempted, "ratio"),
    }
    cpu = [c / 1e6 for _, _, c, _ in untraced]
    report = {
        "workload": run.workload.name,
        "spec": run.meta["spec"],
        "trace": args.trace,
        "ops": {"attempted": checker.attempted, "failed": failed,
                "timed_untraced": len(run.ops["untraced"]),
                "timed_traced": len(run.ops["traced"]),
                "setups": len(run.setups)},
        "op_ms": {f"p{q}": percentile(lat, q / 100) for q in (10, 25, 50, 90)},
        "op_cpu_ms": {f"p{q}": percentile(cpu, q / 100) for q in (10, 50)},
        "reference_ms_p50": statistics.median(r for *_, r in untraced) / 1e6,
        "setup_ms": [wall / 1e6 for wall, _ in run.setups],
        "results_sha256": checker.digest(),
        "failures": checker.failures[:MAX_LOGGED_FAILURES],
        "problems": run.problems,
        "env": {"numpy": np.__version__, "blas": blas_version()},
    }
    if args.trace:
        traced = run.ops["traced"] or [(0, 0, 0, 1.0)]
        untraced_p50 = statistics.median(calibrated(w, r) for _, w, _, r in untraced)
        traced_p50 = statistics.median(calibrated(w, r) for _, w, _, r in traced)
        overhead = (traced_p50 - untraced_p50) / untraced_p50 if untraced_p50 else 0.0
        traced_wall = sum(wall for _, wall, _, _ in traced) + run.extra_ns["traced"]
        metrics = per_layer_metrics(run.tracer, traced_wall, overhead)
        if args.spans:
            run.tracer.write_spans(Path(args.spans))
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
        report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
    result = {
        "correct": failed == 0 and not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
