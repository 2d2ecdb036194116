"""Run ``perfbench/run.py`` on a base revision and on this checkout, in
alternating pairs, and keep every report.

    python3 scripts/bench_pair.py --base REV --out BENCH.json
        [--workloads query-200 eval-20 ingest-200] [--seed N] [--pairs 1]
        [--workdir DIR]

The base revision is exported with ``git archive`` into ``DIR/base`` (a
temporary directory, removed at the end, by default), so it runs from its
own committed files and builds its own inputs, as this checkout does from
its working tree. Each pair runs one side and then the other, the side that
goes first alternating from pair to pair. Each run is ``perfbench/run.py
--workload W --trace 0``, untraced and of run.py's own length; its two JSON
lines, the report and the result, are kept as printed. ``--out`` gets every
run, and stdout a summary: per workload and end-to-end metric, each side's
median and quartiles, the change between the medians, and in how many pairs
this checkout's value was the lower. A run that fails ends the series: the
runs before it are still written, with the failure, and the exit status is 1.
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
WORKLOADS = ("query-200", "eval-20", "ingest-200")
METRICS = ("setup_s", "op_ms_calibrated", "peak_rss_mb", "bytes_stored_per_input_byte")


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


def summary(runs: list[dict]) -> list[str]:
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
            lower = sum(c < b for b, c in zip(values["base"], values["change"]))
            shown, medians = [], []
            for side in ("base", "change"):
                vs = values[side]
                q1, median, q3 = (statistics.quantiles(vs, n=4) if len(vs) > 1 else vs * 3)
                shown.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}]")
                medians.append(median)
            change = f"{medians[1] / medians[0] - 1:+.1%}" if medians[0] else "n/a"
            lines.append(f"{workload} {metric}: base {shown[0]} -> change {shown[1]} "
                         f"({change} between the medians), change lower in {lower}/{len(pairs)}")
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

    runs, failure = [], None
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
                        runs.append({"workload": workload, "pair": pair, "side": side, **outcome})
                        metrics = outcome["result"]["metrics"]
                        print(f"pair {pair} {workload} {side}: " + ", ".join(
                            f"{m} {metrics[m]['value']:.6g}" for m in METRICS
                            if metrics.get(m, {}).get("value") is not None), file=sys.stderr)
        except RunFailed as exc:
            failure = str(exc)
            print(failure, file=sys.stderr)
    lines = summary(runs)
    # run.py reports the checkout's HEAD as its git sha, so a change run from
    # an uncommitted tree shows the base's; its src_sha256 tells them apart.
    record = {"argv": ["python3", "scripts/bench_pair.py", *(argv or sys.argv[1:])],
              "base": base_sha, "change": "the working tree of this checkout",
              "seed": args.seed, "pairs": args.pairs, "failure": failure,
              "summary": lines, "runs": runs}
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("\n".join(lines))
    return 1 if failure else 0


if __name__ == "__main__":
    sys.exit(main())
