"""In-memory span recorder that wraps the engine's seams from outside.

``Tracer.install`` replaces each seam (a module-level name where it is
looked up, or a class method) with a wrapper that records one span per
call: op id, span id, parent span id, name, start and end in
``perf_counter_ns``. Self time is a span's duration minus the time its
child spans cover. Counters (rows scored, texts embedded, candidates
reranked, ...) are taken at the same seams. Nothing inside ``src/`` is
changed; the patches live only in the measuring process.

Spans and counters are kept per phase: "setup" (cold ``load_context``)
and "op" (the workload's measured operation), so each can be normalised
by its own count.
"""

from __future__ import annotations

import array
import functools
import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

_clock = time.perf_counter_ns

#: Layers that call the tokenizer, as named in the per-layer metrics.
TOKEN_CALLERS = ("rerank", "embedding", "chunking", "corpus.validate_corpus")
CHUNK_LEVELS = ("parent", "intermediate", "sentence", "sub_intermediate")


def _caller(parent_name: str | None) -> str:
    if parent_name is None:
        return "other"
    if parent_name.startswith("corpus.validate_corpus"):
        return "corpus.validate_corpus"
    layer = parent_name.split(".", 1)[0]
    return layer if layer in TOKEN_CALLERS else "other"


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


class Tracer:
    def __init__(self) -> None:
        self.phase = "setup"
        self.units: dict[str, int] = defaultdict(int)
        #: (phase, name) -> [calls, total_ns, self_ns]
        self.time: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0, 0])
        #: (phase, counter) -> value
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        #: phase -> time covered by top-level spans
        self.top_ns: dict[str, int] = defaultdict(int)
        self.spans = array.array("q")  # op, span, parent, name code, start, end
        self.names: dict[str, int] = {}
        self._op_id = 0
        self._span_id = 0
        self._stack: list[list] = []  # [span id, name, child ns]
        self._seen: set = set()

    # -- units of work ------------------------------------------------------

    @contextmanager
    def unit(self, phase: str):
        """One setup or one op: spans inside it share an op id."""
        self.phase = phase
        self._op_id += 1
        self.units[phase] += 1
        self._seen.clear()
        yield

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[(self.phase, key)] += value

    def count_distinct(self, key: str, item) -> None:
        """Count ``item`` once per unit of work under ``key``."""
        marker = (key, item)
        if marker not in self._seen:
            self._seen.add(marker)
            self.counts[(self.phase, key)] += 1

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn, *, before=None, after=None, by_caller=False):
        code = self.names.setdefault(name, len(self.names))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            key = f"{name}.{_caller(parent[1] if parent else None)}" if by_caller else name
            if before is not None:
                before(tracer, key, args, kwargs)
            tracer._span_id += 1
            frame = [tracer._span_id, name, 0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                stat = tracer.time[(tracer.phase, key)]
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                else:
                    tracer.top_ns[tracer.phase] += duration
                tracer.spans.extend(
                    (tracer._op_id, frame[0], parent[0] if parent else 0, code, start, end)
                )
            if after is not None:
                after(tracer, key, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **hooks))

    def install(self) -> None:
        chunking = importlib.import_module("hrr.chunking")
        corpus = importlib.import_module("hrr.corpus")
        embedding = importlib.import_module("hrr.embedding")
        engine = importlib.import_module("hrr.engine")
        evaluation = importlib.import_module("hrr.evaluation")
        index = importlib.import_module("hrr.index")
        rerank = importlib.import_module("hrr.rerank")
        retrievers = importlib.import_module("hrr.retrievers")
        tokens = importlib.import_module("hrr.tokens")

        # Entry points the benchmark itself calls.
        self.patch(engine, "ingest", "engine.ingest")
        self.patch(engine, "load_context", "engine.load_context")
        self.patch(evaluation, "compare", "evaluation.compare")
        self.patch(evaluation, "load_query_set", "evaluation.load_query_set")
        self.patch(retrievers, "retrieve", "retrievers.retrieve")
        # Seams inside the engine, patched where the name is looked up.
        self.patch(engine, "build_corpus", "chunking.build_corpus", after=_count_chunks)
        self.patch(engine, "validate_corpus", "corpus.validate_corpus")
        self.patch(engine, "save_corpus", "corpus.save_corpus", after=_count_corpus_bytes)
        self.patch(engine, "load_corpus", "corpus.load_corpus")
        self.patch(engine, "build_index", "index.build_index")
        self.patch(engine, "save_index", "index.save_index", after=_count_index_bytes)
        self.patch(engine, "load_index", "index.load_index")
        self.patch(chunking, "split_sentences", "sentences.split_sentences")
        self.patch(index, "embed_batch", "embedding.embed_batch", before=_count_texts)
        self.patch(retrievers, "embed_batch", "embedding.embed_batch", before=_count_texts)
        self.patch(retrievers, "resolve_parent", "corpus.resolve_parent")
        self.patch(retrievers, "rerank", "rerank.rerank", before=_count_candidates)
        self.patch(retrievers, "top_k", "rerank.top_k", before=_count_kept_in, after=_count_kept)
        self.patch(evaluation, "retrieve", "retrievers.retrieve")
        # Methods, patched on the class so every instance is covered.
        self.patch(index.LevelIndex, "search", "index.search", before=_count_search)
        self.patch(embedding.HashedBowEmbedder, "embed_batch", "embedding.provider")
        self.patch(rerank.LexicalOverlapReranker, "score_pairs", "rerank.score_pairs")
        self.patch(corpus.Corpus, "chunk_text", "corpus.chunk_text", before=_count_chunk_bytes)
        for method in ("token_spans", "count_tokens"):
            self.patch(
                tokens.WordPunctTokenizer, method, f"tokens.{method}",
                before=_count_chars, by_caller=True,
            )

    # -- output -------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """Write every recorded span as CSV: op,span,parent,name,start_ns,end_ns."""
        by_code = {code: name for name, code in self.names.items()}
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        spans = self.spans
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("op,span,parent,name,start_ns,end_ns\n")
            for i in range(0, len(spans), 6):
                op, span, parent, code, start, end = spans[i : i + 6]
                fh.write(f"{op},{span},{parent},{by_code[code]},{start},{end}\n")
        os.replace(tmp, path)


# -- counter hooks: (tracer, key, args, kwargs[, result]) --------------------


def _count_texts(tr: Tracer, key, args, kwargs) -> None:
    texts = args[1]
    tr.count("embedding.texts", len(texts))
    for text in texts:
        tr.count_distinct("embedding.distinct_texts", text)


def _count_search(tr: Tracer, key, args, kwargs) -> None:
    index, query = args[0], args[1]
    tr.count("index.search.rows_scored", len(index))
    tr.count_distinct("index.search.distinct", (index.level, bytes(memoryview(query))))


def _count_candidates(tr: Tracer, key, args, kwargs) -> None:
    candidates = args[1].candidates
    tr.count("rerank.candidates", len(candidates))
    tr.count("rerank.candidate_bytes", sum(len(text.encode("utf-8")) for _, text in candidates))


def _count_kept_in(tr: Tracer, key, args, kwargs) -> None:
    tr.count("rerank.top_k.in", len(args[0]))


def _count_kept(tr: Tracer, key, args, kwargs, result) -> None:
    tr.count("rerank.top_k.out", len(result))


def _count_chunk_bytes(tr: Tracer, key, args, kwargs) -> None:
    start, end = args[0].get(args[1]).char_span
    tr.count("corpus.chunk_text.bytes", end - start)


def _count_chars(tr: Tracer, key, args, kwargs) -> None:
    caller = key.split(".", 2)[2]
    tr.count(f"tokens.chars.{caller}", len(args[1]))


def _count_chunks(tr: Tracer, key, args, kwargs, corpus) -> None:
    for node in (*corpus.nodes, *corpus.sub_nodes):
        tr.count(f"chunking.chunks.{node.level.value}")


def _count_corpus_bytes(tr: Tracer, key, args, kwargs, result) -> None:
    tr.count("corpus.bytes_written", dir_bytes(args[1]))


def _count_index_bytes(tr: Tracer, key, args, kwargs, result) -> None:
    tr.count("engine.index_bytes_written", os.path.getsize(args[1]))


# -- per-layer metrics -------------------------------------------------------


def per_layer_metrics(tr: Tracer, op_wall_ns: int, overhead_share: float) -> dict:
    """Every per-layer metric, per op (or per setup for load-time metrics)."""
    ops = max(tr.units["op"], 1)
    setups = max(tr.units["setup"], 1)

    def calls(name, phase="op"):
        return tr.time[(phase, name)][0] / (ops if phase == "op" else setups)

    def ms(name, phase="op"):
        return tr.time[(phase, name)][1] / 1e6 / (ops if phase == "op" else setups)

    def self_ms(*names, phase="op"):
        total = sum(tr.time[(phase, n)][2] for n in names)
        return total / 1e6 / (ops if phase == "op" else setups)

    def total(key):
        return tr.counts[("op", key)]

    def count(key):
        return total(key) / ops

    def ratio(num, den):
        # Ratios of run totals, so they do not depend on the number of passes.
        return num / den if den else 0.0

    def ncalls(name):
        return tr.time[("op", name)][0]

    m: dict[str, tuple[float, str]] = {}
    m["index.search.calls"] = (calls("index.search"), "count")
    m["index.search.rows_scored"] = (count("index.search.rows_scored"), "count")
    m["index.search.self_ms"] = (self_ms("index.search"), "ms")
    m["index.search.distinct_ratio"] = (
        ratio(total("index.search.distinct"), ncalls("index.search")), "ratio")
    m["index.load_index.ms"] = (ms("index.load_index", "setup"), "ms")
    m["index.save_index.ms"] = (ms("index.save_index"), "ms")
    m["index.build_index.self_ms"] = (self_ms("index.build_index"), "ms")

    m["embedding.embed_batch.calls"] = (calls("embedding.embed_batch"), "count")
    m["embedding.texts"] = (count("embedding.texts"), "count")
    m["embedding.distinct_ratio"] = (
        ratio(total("embedding.distinct_texts"), total("embedding.texts")), "ratio")
    m["embedding.embed_batch.self_ms"] = (
        self_ms("embedding.embed_batch", "embedding.provider"), "ms")

    for caller in TOKEN_CALLERS:
        m[f"tokens.token_spans.calls.{caller}"] = (
            calls(f"tokens.token_spans.{caller}"), "count")
        m[f"tokens.token_spans.self_ms.{caller}"] = (
            self_ms(f"tokens.token_spans.{caller}"), "ms")
        m[f"tokens.chars.{caller}"] = (count(f"tokens.chars.{caller}"), "count")
    for caller in ("chunking", "corpus.validate_corpus"):
        m[f"tokens.count_tokens.calls.{caller}"] = (
            calls(f"tokens.count_tokens.{caller}"), "count")
        m[f"tokens.count_tokens.self_ms.{caller}"] = (
            self_ms(f"tokens.count_tokens.{caller}"), "ms")

    m["sentences.split_sentences.calls"] = (calls("sentences.split_sentences"), "count")
    m["sentences.split_sentences.ms"] = (ms("sentences.split_sentences"), "ms")

    m["chunking.build_corpus.self_ms"] = (self_ms("chunking.build_corpus"), "ms")
    for level in CHUNK_LEVELS:
        m[f"chunking.chunks.{level}"] = (count(f"chunking.chunks.{level}"), "count")

    m["corpus.validate_corpus.ms"] = (ms("corpus.validate_corpus"), "ms")
    m["corpus.save_corpus.ms"] = (ms("corpus.save_corpus"), "ms")
    m["corpus.load_corpus.ms"] = (ms("corpus.load_corpus", "setup"), "ms")
    m["corpus.resolve_parent.calls"] = (calls("corpus.resolve_parent"), "count")
    m["corpus.resolve_parent.self_ms"] = (self_ms("corpus.resolve_parent"), "ms")
    m["corpus.chunk_text.calls"] = (calls("corpus.chunk_text"), "count")
    m["corpus.chunk_text.bytes"] = (count("corpus.chunk_text.bytes"), "bytes")
    m["corpus.chunk_text.self_ms"] = (self_ms("corpus.chunk_text"), "ms")
    m["corpus.bytes_written"] = (count("corpus.bytes_written"), "bytes")

    m["rerank.rerank.calls"] = (calls("rerank.rerank"), "count")
    m["rerank.candidates"] = (count("rerank.candidates"), "count")
    m["rerank.candidate_bytes"] = (count("rerank.candidate_bytes"), "bytes")
    m["rerank.score_pairs.ms"] = (ms("rerank.score_pairs"), "ms")
    m["rerank.rerank.self_ms"] = (self_ms("rerank.rerank", "rerank.top_k"), "ms")
    m["rerank.kept_ratio"] = (
        ratio(total("rerank.top_k.out"), total("rerank.top_k.in")), "ratio")

    m["retrievers.retrieve.calls"] = (calls("retrievers.retrieve"), "count")
    m["retrievers.retrieve.self_ms"] = (self_ms("retrievers.retrieve"), "ms")
    m["retrievers.rerank_pool_size"] = (
        ratio(total("rerank.candidates"), ncalls("rerank.rerank")), "count")

    m["evaluation.load_query_set.ms"] = (ms("evaluation.load_query_set"), "ms")
    m["evaluation.compare.self_ms"] = (self_ms("evaluation.compare"), "ms")

    m["engine.load_context.self_ms"] = (self_ms("engine.load_context", phase="setup"), "ms")
    m["engine.ingest.self_ms"] = (self_ms("engine.ingest"), "ms")
    m["engine.index_bytes_written"] = (count("engine.index_bytes_written"), "bytes")

    m["trace.overhead_share"] = (overhead_share, "ratio")
    m["trace.coverage_share"] = (ratio(tr.top_ns["op"], op_wall_ns), "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}
