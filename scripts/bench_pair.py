"""Run ``perfbench/run.py`` on a base revision and on this checkout, in
alternating pairs, and keep every report.

    python3 scripts/bench_pair.py --base REV --out BENCH.json
        [--workloads W ...] [--seed N] [--pairs 1] [--workdir DIR]

The workloads (all by default) and the end-to-end metrics are the ones
``BENCHMARK.json`` declares, read when the script starts.

The base revision is exported with ``git archive`` into ``DIR/base`` (a
temporary directory, removed at the end, by default), so it runs from its
own committed files and builds its own inputs, as this checkout does from
its working tree. Each pair runs one side and then the other, the side that
goes first alternating from pair to pair. Each run is ``perfbench/run.py
--workload W --trace 0``, untraced and of run.py's own length; its two JSON
lines, the report and the result, are kept as printed. ``--out`` gets every
run, and stdout a summary (``summary``): per workload and end-to-end metric
(each one lower is better, as every one ``BENCHMARK.json`` declares is),
each side's median and quartiles, the change between the medians, the pairs
each side won (a tie counts for neither), the base's quartile distance and
whether the gap between the medians exceeds it; and first, per workload,
whether every run of both sides carried one ``results_sha256`` (``digests``).
A gain holds by the pair rule when this checkout won at least nine tenths of
the pairs and its median is lower by more than that distance.

Each side's code is pinned by the ``src_sha256`` its reports carry, which
the record keeps per side: a run whose digest differs from its side's earlier
runs (a source file edited while the series ran) ends the series. Their
``git_sha`` cannot tell the sides apart: this checkout's reports carry its
HEAD, the base's commit when the change is not committed, and the exported
base has no ``.git``, so its reports carry null. Each workload's
``results_sha256`` is pinned across both sides the same way: a run whose
digest differs from the workload's earlier runs (the two sides, or two runs
of one side, returned different results) is kept, and ends the series. A run
that fails ends the series: the runs before it are still written, with the
failure, and the exit status is 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: The workloads and end-to-end metrics ``BENCHMARK.json`` declares.
_BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(workload["name"] for workload in _BENCHMARK["workloads"])
METRICS = tuple(metric["name"] for metric in _BENCHMARK["end_to_end"])


def export(rev: str, dest: Path) -> str:
    """Write the files of ``rev`` under ``dest``; return its full sha."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    dest.mkdir(parents=True, exist_ok=True)
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return sha


class RunFailed(Exception):
    pass


def run(checkout: Path, workload: str, seed: int | None) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "0"]
    if seed is not None:
        command += ["--seed", str(seed)]
    proc = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RunFailed(f"{checkout}: run.py --workload {workload} exited with {proc.returncode}")
    return {"report": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def pin_source(pins: dict[str, str], side: str, report: dict) -> None:
    """Pin ``side``'s ``src_sha256`` to its first run's; raise ``RunFailed``
    for a run of the side whose digest differs."""
    digest = report["env"]["src_sha256"]
    if pins.setdefault(side, digest) != digest:
        raise RunFailed(f"the {side} side's src_sha256 went from {pins[side]} to {digest}: "
                        f"its source changed during the series")


def pin_results(pins: dict[str, str], workload: str, report: dict) -> None:
    """Pin ``workload``'s ``results_sha256`` to its first run's, of either
    side; raise ``RunFailed`` for a run whose digest differs."""
    digest = report["results_sha256"]
    if pins.setdefault(workload, digest) != digest:
        raise RunFailed(f"{workload}'s results_sha256 went from {pins[workload]} to {digest}: "
                        f"the runs returned different results")


def digests(runs: list[dict]) -> list[str]:
    """One line per workload: whether every run of both sides carried one
    ``results_sha256``, and the digests each side's runs carried."""
    lines = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        carried = {side: sorted({r["report"]["results_sha256"] for r in runs
                                 if r["workload"] == workload and r["side"] == side})
                   for side in ("base", "change")}
        every = {digest for side in carried.values() for digest in side}
        lines.append(
            f"{workload} results_sha256: every run of both sides carried one: "
            f"{'yes' if len(every) == 1 else 'no'}; "
            + "; ".join(f"{side} {', '.join(ds) or 'none'}" for side, ds in carried.items()))
    return lines


def summary(runs: list[dict]) -> list[str]:
    """One line per workload and metric, over the pairs that ran both sides."""
    lines = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
        pairs = {n: p for n, p in pairs.items() if len(p) == 2}
        if not pairs:
            continue
        for metric in METRICS:
            values = {side: [p[side][metric]["value"] for p in pairs.values()]
                      for side in ("base", "change")}
            if any(v is None for vs in values.values() for v in vs):
                continue
            won = sum(c < b for b, c in zip(values["base"], values["change"]))
            lost = sum(c > b for b, c in zip(values["base"], values["change"]))
            shown, quartiles = [], []
            for side in ("base", "change"):
                vs = values[side]
                q1, median, q3 = (statistics.quantiles(vs, n=4) if len(vs) > 1 else vs * 3)
                shown.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}]")
                quartiles.append((q1, median, q3))
            (q1, base_median, q3), change_median = quartiles[0], quartiles[1][1]
            spread, gap = q3 - q1, base_median - change_median
            change = f"{change_median / base_median - 1:+.1%}" if base_median else "n/a"
            holds = won >= 0.9 * len(pairs) and gap > spread
            lines.append(
                f"{workload} {metric}: base {shown[0]} -> change {shown[1]} ({change} between "
                f"the medians); change lower in {won}/{len(pairs)}, base lower in {lost}, "
                f"{len(pairs) - won - lost} tied; the median gap {abs(gap):.6g} "
                f"{'exceeds' if abs(gap) > spread else 'does not exceed'} the base's quartile "
                f"distance {spread:.6g}; a gain by the pair rule: {'yes' if holds else 'no'}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the git revision to compare against")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--seed", type=int, help="synth seed (default: each workload's)")
    parser.add_argument("--pairs", type=int, default=1)
    parser.add_argument("--workdir", type=Path, help="where the base is exported")
    args = parser.parse_args(argv)

    runs, failure, pins, results = [], None, {}, {}
    workdir = nullcontext(args.workdir) if args.workdir else tempfile.TemporaryDirectory(
        prefix="bench_pair_")
    with workdir as directory:
        base = Path(directory) / "base"
        base_sha = export(args.base, base)
        sides = {"base": base, "change": ROOT}
        try:
            for pair in range(args.pairs):
                for workload in args.workloads:
                    order = ("base", "change") if pair % 2 == 0 else ("change", "base")
                    for side in order:
                        outcome = run(sides[side], workload, args.seed)
                        pin_source(pins, side, outcome["report"])
                        runs.append({"workload": workload, "pair": pair, "side": side, **outcome})
                        metrics = outcome["result"]["metrics"]
                        print(f"pair {pair} {workload} {side}: " + ", ".join(
                            f"{m} {metrics[m]['value']:.6g}" for m in METRICS
                            if metrics.get(m, {}).get("value") is not None), file=sys.stderr)
                        pin_results(results, workload, outcome["report"])
        except RunFailed as exc:
            failure = str(exc)
            print(failure, file=sys.stderr)
    lines = digests(runs) + summary(runs)
    record = {"argv": ["python3", "scripts/bench_pair.py", *(argv or sys.argv[1:])],
              "base": base_sha, "change": "the working tree of this checkout",
              "src_sha256": pins, "results_sha256": results,
              "seed": args.seed, "pairs": args.pairs, "failure": failure,
              "summary": lines, "runs": runs}
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("\n".join(lines))
    return 1 if failure else 0


if __name__ == "__main__":
    sys.exit(main())
