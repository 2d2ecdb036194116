"""Benchmark entry point for the hrr engine.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Inputs for (workload spec, seed) are
generated once, outside timing, into ``.bench_cache/`` by ``inputs.py``;
the measured run then happens in a fresh ``worker.py`` process with
BLAS/OpenMP thread pools capped at the CPU count and ``PYTHONHASHSEED``
fixed. Standard output ends with two JSON lines: a report (every metric by
name with its unit, ``results_sha256``, failures, environment) and the
result object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones. The exit code is 0 only when every op passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, artifact_dir, cache_root, input_dir, source_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: The first run in a checkout generates and ingests inputs; later runs reuse them.
INPUT_TIMEOUT_S = 700
WORKER_TIMEOUT_S = 170
#: Cache entries kept per kind: ten seeds of each workload. An ingested
#: 200-doc corpus takes ~140 MB, a 20-doc one ~14 MB.
CACHE_ENTRIES = 24


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def keep_recent(entry: Path, keep: int) -> None:
    """Mark ``entry`` as used and delete all but the ``keep`` newest entries beside it."""
    os.utime(entry)
    siblings = sorted(entry.parent.iterdir(), key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in siblings[keep:]:
        shutil.rmtree(stale, ignore_errors=True)


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one hrr benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="synth seed (default: the workload's)")
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hrr" / "__init__.py").is_file():
        print(f"run.py: no engine source at {ROOT / 'src' / 'hrr'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    env_record = {
        "git_sha": git_sha(),
        "src_sha256": source_digest(ROOT),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }
    env = worker_env()
    digest = env_record["src_sha256"]
    inputs = input_dir(ROOT, workload, seed, digest)
    artifacts = artifact_dir(ROOT, workload, seed, digest)
    needs_artifacts = workload.kind != "ingest"
    if not (inputs / "meta.json").is_file() or (
        needs_artifacts and not (artifacts / "meta.json").is_file()
    ):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "inputs.py"), "--workload", workload.name,
             "--seed", str(seed)],
            env=env, stdout=sys.stderr, check=True, timeout=INPUT_TIMEOUT_S,
        )
        print(f"run.py: built inputs in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    keep_recent(inputs, CACHE_ENTRIES)
    if needs_artifacts:
        keep_recent(artifacts, CACHE_ENTRIES)

    scratch = cache_root(ROOT) / "runs" / workload.name
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload.name,
        "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--inputs", str(inputs), "--scratch", str(scratch),
        "--spans", str(cache_root(ROOT) / "traces" / f"{workload.name}.csv"),
    ]
    if needs_artifacts:
        command += ["--artifacts", str(artifacts)]
    try:
        proc = subprocess.run(
            command, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print(f"run.py: worker exited with {proc.returncode}", file=sys.stderr)
        print(proc.stdout, file=sys.stderr)
        return 1
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    report["seed"] = seed
    report["env"].update(env_record)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
