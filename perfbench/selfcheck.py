"""Pin the benchmark's deterministic counters and its results digest.

    python3 perfbench/selfcheck.py

For each workload, at its default seed, makes two traced runs and one
untraced run through ``run.py`` and checks that:

* the two traced runs report exactly equal counters (every ``*.calls``,
  rows scored, texts embedded, rerank candidates, tokenizer chars, chunk
  counts, bytes and the ratios between them);
* all three runs print the same ``results_sha256``, so the tracing
  wrappers change no result;
* the counters equal the values known for today's engine.

Wall-clock numbers are never checked here; these counts cannot flake.
Exits 1 on the first workload that fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Short runs: the traced half always finishes a whole pass over the inputs.
SECONDS = {"eval-20": 4, "query-200": 12, "ingest-200": 2}

#: Per-op values of the engine at the default seeds.
KNOWN = {
    "eval-20": {
        "index.search.calls": 7,  # hrr 2 + base 1 + c2p 3 + s2p 1
        "embedding.embed_batch.calls": 4,  # one per strategy
        "embedding.texts": 4,
        "retrievers.retrieve.calls": 4,
        "index.search.distinct_ratio": 4 / 7,  # 4 distinct levels, 1 query text
        "embedding.distinct_ratio": 1 / 4,
        "index.search.rows_scored": 14735,
    },
    "query-200": {
        "index.search.calls": 2,
        "index.search.rows_scored": 70452,  # 68,278 sentences + 2,174 intermediates
        "embedding.embed_batch.calls": 1,
        "retrievers.retrieve.calls": 1,
    },
    "ingest-200": {
        "chunking.chunks.parent": 599,
        "chunking.chunks.intermediate": 2174,
        "chunking.chunks.sentence": 68278,
        "chunking.chunks.sub_intermediate": 4495,
        "embedding.embed_batch.calls": 4,  # one per index level
        "embedding.texts": 75546,
        "sentences.split_sentences.calls": 200,
    },
}


def deterministic(name: str, unit: str) -> bool:
    """Counts, bytes and ratios of counts; not times or the trace shares."""
    return unit in ("count", "bytes") or (unit == "ratio" and not name.startswith("trace."))


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seconds", str(SECONDS[workload]), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload}: run.py --trace {trace} exited with {proc.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def check(workload: str) -> list[str]:
    errors = []
    (report_a, result_a), (report_b, result_b) = run(workload, 1), run(workload, 1)
    report_u, _ = run(workload, 0)
    digests = {report_a["results_sha256"], report_b["results_sha256"], report_u["results_sha256"]}
    if len(digests) != 1:
        errors.append(f"results_sha256 differs between runs: {sorted(digests)}")
    a, b = result_a["metrics"], result_b["metrics"]
    pinned = 0
    for name, entry in a.items():
        if deterministic(name, entry["unit"]):
            pinned += 1
            if entry["value"] != b[name]["value"]:
                errors.append(f"{name}: {entry['value']} != {b[name]['value']}")
    for name, value in KNOWN[workload].items():
        if a[name]["value"] != value:
            errors.append(f"{name}: {a[name]['value']} != known {value}")
    print(f"{workload}: {pinned} counters equal across runs, "
          f"{len(KNOWN[workload])} known values, digest {report_a['results_sha256'][:16]}: "
          f"{'ok' if not errors else 'FAILED'}")
    return errors


def main() -> int:
    for workload in KNOWN:
        errors = check(workload)
        for error in errors:
            print(f"  {error}", file=sys.stderr)
        if errors:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
