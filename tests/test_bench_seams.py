"""The benchmark's tracer patches engine names by module and attribute, the
benchmark reads a corpus through its node views while it runs, and
``scripts/scan_inputs.py`` calls ``count_each`` and reads the embedder's
piece table's counters; each must still exist, or the benchmark or the
script fails only when it runs. The calls the benchmark's self-check pins
per op are counted here too, so a moved seam fails in seconds."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest
from reference_text import ReferenceTokenizer

from hrr.chunking import build_corpus
from hrr.engine import read_documents

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


#: What the benchmark calls on a corpus while it runs, on a 2-document
#: spec: ``inputs.build_inputs`` and the tracer's chunk count read
#: ``Corpus.nodes`` and ``sub_nodes``, and ``Checker.check_retrieval`` reads
#: ``Corpus.chunks``. With the tracer installed, one ingest embeds each
#: level in one call of all its rows and splits each document once; one
#: ``compare()`` over the four strategies calls ``LevelIndex.search`` 7 times
#: and the embedder and ``retrieve`` 4 times each, and one ``hrr`` retrieve
#: 2, 1 and 1 times.
BENCH_READS = """
import tempfile
from pathlib import Path

from tracer import Tracer, _count_chunks
tracer = Tracer()
tracer.install()
import inputs, worker
from hrr import engine, evaluation, index, synth
from hrr.config import EngineConfig, PathsConfig
from hrr.engine import context_for
from hrr.retrievers import Strategy, retrieve

spec = {"seed": 3, "n_docs": 2, "tokens_per_doc": 600, "n_needles": 2}
# An ingest-200 op, one ingest: one embed per level, of its every row, and
# one sentence split per document.
embedded = []
traced_embed = index.embed_batch
index.embed_batch = lambda provider, texts: embedded.append(len(texts)) or traced_embed(
    provider, texts)
with tempfile.TemporaryDirectory() as out:
    meta = inputs.build_inputs(Path(out), spec)
    config = EngineConfig(paths=PathsConfig(corpus_dir=str(Path(out) / "corpus")))
    with tracer.unit("ingest"):
        engine.ingest(Path(out) / "docs", config)
index.embed_batch = traced_embed
ingested = (tracer.time[("ingest", "embedding.embed_batch")][0],
            tracer.counts[("ingest", "embedding.texts")],
            tracer.time[("ingest", "sentences.split_sentences")][0])
generated = synth.generate(synth.CorpusSpec(**spec))
corpus = generated.corpus
rows = [len(corpus.rows_at(level)) for level in corpus.levels]
assert embedded == rows, (embedded, rows)
assert ingested == (len(rows), sum(rows), spec["n_docs"]), ingested
with tracer.unit("chunks"):
    _count_chunks(tracer, "chunking.build_corpus", (), {}, corpus)
counted = {key: n for (phase, key), n in tracer.counts.items()
           if phase == "chunks" and key.startswith("chunking.chunks.")}
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
    """``scripts/scan_inputs.py stats`` counts every level's texts with
    ``count_each`` and reads the piece table's counters; a change that drops
    one fails here, not only when the script runs."""
    path = ROOT / "scripts" / "scan_inputs.py"
    spec = importlib.util.spec_from_file_location("scan_inputs", path)
    scan_inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scan_inputs)
    (tmp_path / "a.txt").write_text("One cat sat. The cat ran!\n\nA dog, too.\n", encoding="utf-8")
    (tmp_path / "b.txt").write_text("Ünïcode wörds. 東京は大きい。\n", encoding="utf-8")
    scan_inputs.stats(tmp_path)
    count, embed, times = capsys.readouterr().out.splitlines()
    corpus = build_corpus(read_documents(tmp_path))
    texts = [text for level in corpus.levels for text in corpus.texts_at(level)]
    tokens = sum(map(ReferenceTokenizer().count_tokens, texts))
    assert count == f"count: {len(texts)} texts, {sum(map(len, texts))} characters, {tokens} tokens"
    assert embed.startswith("embed: ") and embed.endswith("texts rested")
    # Each document is tokenized once; ``b.txt`` holds no İ or Σ.
    assert ", 2 documents streamed, 0 rows per text, " in embed
    assert times.startswith("build_corpus ")
