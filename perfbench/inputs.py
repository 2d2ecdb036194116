"""Generate and cache a workload's inputs, outside any timed run.

    python3 perfbench/inputs.py --workload NAME --seed N

Writes the synthetic documents and labeled queries for (spec, seed) and,
for the read workloads, the artifacts an untimed ``engine.ingest`` makes
from them. Each entry is built in a temporary directory and renamed into
place, so an interrupted build never leaves a half-written cache entry.
Needs ``src`` on ``PYTHONPATH``; ``run.py`` starts it that way.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

from hrr import engine, evaluation, synth
from hrr.config import EngineConfig, PathsConfig

from workloads import WORKLOADS, artifact_dir, input_dir, source_digest

ROOT = Path(__file__).resolve().parent.parent
META = "meta.json"


def _build_atomically(final: Path, build) -> None:
    if (final / META).is_file():
        return
    tmp = final.with_name(final.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    meta = build(tmp)
    (tmp / META).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    shutil.rmtree(final, ignore_errors=True)
    tmp.rename(final)


def build_inputs(out: Path, spec: dict) -> dict:
    generated = synth.generate(synth.CorpusSpec(**spec))
    docs = out / "docs"
    docs.mkdir()
    doc_bytes = 0
    for doc_id, text in generated.documents.items():
        data = text.encode("utf-8")
        (docs / f"{doc_id}.txt").write_bytes(data)
        doc_bytes += len(data)
    evaluation.save_query_set(out / "queries.jsonl", generated.queries)
    counts: dict[str, int] = {}
    for node in (*generated.corpus.nodes, *generated.corpus.sub_nodes):
        counts[node.level.value] = counts.get(node.level.value, 0) + 1
    return {
        "spec": spec,
        "documents": len(generated.documents),
        "doc_bytes": doc_bytes,
        "queries": len(generated.queries),
        "chunks_per_level": counts,
    }


def build_artifacts(out: Path, inputs: Path) -> dict:
    config = EngineConfig(
        paths=PathsConfig(corpus_dir=str(out / "corpus"), index_dir=str(out / "indexes"))
    )
    summary = engine.ingest(inputs / "docs", config)
    return {"chunks_per_level": summary.chunks_per_level}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    digest = source_digest(ROOT)
    inputs = input_dir(ROOT, workload, args.seed, digest)
    _build_atomically(inputs, lambda out: build_inputs(out, workload.spec(args.seed)))
    if workload.kind != "ingest":
        artifacts = artifact_dir(ROOT, workload, args.seed, digest)
        _build_atomically(artifacts, lambda out: build_artifacts(out, inputs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
