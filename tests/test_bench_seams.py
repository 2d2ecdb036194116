"""The benchmark's tracer patches engine names by module and attribute, the
benchmark reads a corpus through its node views while it runs, and
``scripts/scan_inputs.py`` reads the token memos' counters; each must still
exist, or the benchmark or the script fails only when it runs. The calls
the benchmark's self-check pins per op are counted here too, so a moved
seam fails in seconds."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


#: What the benchmark calls on a corpus while it runs, on a 2-document
#: spec: ``inputs.build_inputs`` and the tracer's chunk count read
#: ``Corpus.nodes`` and ``sub_nodes``, and ``Checker.check_retrieval`` reads
#: ``Corpus.chunks``. Then, with the tracer installed, one ``compare()`` over
#: the four strategies calls ``LevelIndex.search`` 7 times and the embedder
#: and ``retrieve`` 4 times each, and one ``hrr`` retrieve 2, 1 and 1 times.
BENCH_READS = """
import tempfile
from pathlib import Path

from tracer import Tracer, _count_chunks
tracer = Tracer()
tracer.install()
import inputs, worker
from hrr import evaluation, synth
from hrr.config import EngineConfig
from hrr.engine import context_for
from hrr.retrievers import Strategy, retrieve

spec = {"seed": 3, "n_docs": 2, "tokens_per_doc": 600, "n_needles": 2}
with tempfile.TemporaryDirectory() as out:
    meta = inputs.build_inputs(Path(out), spec)
generated = synth.generate(synth.CorpusSpec(**spec))
corpus = generated.corpus
_count_chunks(tracer, "chunking.build_corpus", (), {}, corpus)
counted = {key: n for (_, key), n in tracer.counts.items() if key.startswith("chunking.chunks.")}
expected = {level.value: len(corpus.rows_at(level)) for level in corpus.levels}
assert meta["chunks_per_level"] == expected, meta
assert counted == {f"chunking.chunks.{level}": n for level, n in expected.items()}, counted
gold = generated.queries[0]
ctx = context_for(corpus, EngineConfig())
result = retrieve(gold.query, ctx)
assert worker.Checker(5).check_retrieval(result, corpus, gold, Strategy.HRR) == 1

# The seams perfbench/selfcheck.py pins per op: an eval-20 op, one compare()
# over the four strategies, and a query-200 op, one hrr retrieve.
SEAMS = ("index.search", "embedding.embed_batch", "retrievers.retrieve")
for phase, run, expected in (
    ("compare", lambda: evaluation.compare(ctx, [gold], list(Strategy)), (7, 4, 4)),
    ("query", lambda: retrieve(gold.query, ctx), (2, 1, 1)),
):
    with tracer.unit(phase):
        run()
    calls = tuple(tracer.time[(phase, name)][0] for name in SEAMS)
    assert calls == expected, (phase, calls)
"""


@pytest.mark.skipif(not PERFBENCH.is_dir(), reason="no perfbench/ in this tree")
def test_tracer_installs_and_the_bench_imports():
    path = os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)])
    proc = subprocess.run(
        [sys.executable, "-c", BENCH_READS],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_scan_inputs_stats_reads_the_memos(tmp_path, capsys):
    """``scripts/scan_inputs.py stats`` reads the token memos' counters; a
    memo change that drops one fails here, not only when the script runs."""
    path = ROOT / "scripts" / "scan_inputs.py"
    spec = importlib.util.spec_from_file_location("scan_inputs", path)
    scan_inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scan_inputs)
    (tmp_path / "a.txt").write_text("One cat sat. The cat ran!\n\nA dog, too.\n", encoding="utf-8")
    (tmp_path / "b.txt").write_text("Ünïcode wörds. 東京は大きい。\n", encoding="utf-8")
    scan_inputs.stats(tmp_path)
    count, embed, times = capsys.readouterr().out.splitlines()
    for line, name in ((count, "count"), (embed, "embed")):
        assert line.startswith(f"{name}: ") and line.endswith("of texts rested")
    assert times.startswith("build_corpus ")
