"""Time the cold path: a fresh process's ``load_context`` and its first
query under each strategy, for one or more source trees.

    python3 scripts/cold_path.py [--src DIR ...] [--docs 200] [--seed 7]
        [--needles 30] [--processes 10]

The synth documents of one spec (``hrr synth``, run by the first tree) are
ingested by each tree (``--src``, the ``src/`` it imports; this checkout's
by default) into a temporary directory of its own. Then, in each of
``--processes`` rounds, each tree, in an order that alternates from round
to round, runs one fresh process that times a cold ``engine.load_context``
and, in the same process, the first query of the synth query set under
each strategy in turn (hrr, base, c2p, s2p): a strategy's query pays for
whatever its levels build when first searched. Each process also reports
its resident set right after the load (``rss_after_load_mb``, read from
``/proc/self/status``) and its peak RSS after those first queries; then it
runs ``hrr`` once more over the whole query set and reports its resident set
after that pass (``rss_after_needles_mb``), which shows what the read path
keeps once a query set has run. Per tree, it prints the file's size and the
median of each figure over the rounds (times in ms, sizes in MB); the times
are wall-clock numbers of the host, taken one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: What each timed process runs: argv[1] is the corpus directory, argv[2]
#: the query set.
CHILD = r"""
import json, resource, sys, time
from dataclasses import replace
from hrr import engine
from hrr.config import EngineConfig, PathsConfig
from hrr.evaluation import load_query_set
from hrr.retrievers import Strategy, retrieve

def rss_mb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) / 1024 for line in status
                    if line.startswith("VmRSS:"))

config = EngineConfig(paths=PathsConfig(corpus_dir=sys.argv[1]))
start = time.perf_counter_ns()
ctx = engine.load_context(config)
times = {"load": (time.perf_counter_ns() - start) / 1e6, "rss_after_load_mb": rss_mb()}
golds = load_query_set(sys.argv[2], ctx.corpus)
for strategy in Strategy:
    strategy_ctx = replace(ctx, config=replace(ctx.config, strategy=strategy))
    start = time.perf_counter_ns()
    retrieve(golds[0].query, strategy_ctx)
    times[f"first {strategy.value}"] = (time.perf_counter_ns() - start) / 1e6
times["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
hrr_ctx = replace(ctx, config=replace(ctx.config, strategy=Strategy.HRR))
for gold in golds:
    retrieve(gold.query, hrr_ctx)
times["rss_after_needles_mb"] = rss_mb()
print(json.dumps(times))
"""


def hrr(src: Path, *args: str) -> None:
    """Run the ``hrr`` CLI of the tree ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-m", "hrr.cli", *args], env=env, check=True,
                   stdout=subprocess.DEVNULL)


def timed(src: Path, corpus: Path, queries: Path) -> dict[str, float]:
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", CHILD, str(corpus), str(queries)], env=env,
                          check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, action="append",
                        help="a src/ directory to time (repeatable; default this checkout's)")
    parser.add_argument("--docs", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--needles", type=int, default=30)
    parser.add_argument("--processes", type=int, default=10)
    args = parser.parse_args(argv)
    trees = [src.resolve() for src in args.src or [ROOT / "src"]]

    with tempfile.TemporaryDirectory(prefix="cold_path_") as directory:
        root = Path(directory)
        hrr(trees[0], "synth", "--seed", str(args.seed), "--docs", str(args.docs),
            "--needles", str(args.needles), "--out", str(root / "synth"))
        corpora = []
        for n, src in enumerate(trees):
            corpora.append(root / f"corpus{n}")
            config = root / f"engine{n}.json"
            config.write_text(json.dumps({"paths": {"corpus_dir": str(corpora[-1])}}))
            hrr(src, "ingest", str(root / "synth" / "docs"), "--config", str(config))
        runs: list[list[dict]] = [[] for _ in trees]
        for round_ in range(args.processes):
            order = range(len(trees)) if round_ % 2 == 0 else reversed(range(len(trees)))
            for n in order:
                runs[n].append(timed(trees[n], corpora[n], root / "synth" / "queries.jsonl"))
        for src, corpus, times in zip(trees, corpora, runs):
            size = (corpus / "nodes.bin").stat().st_size
            medians = ", ".join(f"{name} {statistics.median(t[name] for t in times):.2f}"
                                for name in times[0])
            print(f"{src}: nodes.bin {size} bytes; medians of {len(times)} processes: {medians}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
