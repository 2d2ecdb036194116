"""Reference retriever: every strategy as full scans over plain nodes.

This is the plain version that ``hrr.retrievers.retrieve`` must equal,
output for output (``RetrievalResult.to_dict()``). It reads none of the
engine's corpus, index or retrieval code:

* nodes are plain dicts made from ``reference_text.node_rows``: id, level,
  parent id and text;
* each text's vector is the hashed bag-of-words recipe applied to it alone,
  as a dict of bucket to value;
* each searched level is a full scan with the canonical score (exact
  products added in ascending bucket order from +0.0), sorted by (score
  desc, id asc);
* hits map up by walking parent ids, the pool keeps each id's best score,
  the rerank score is the query's token coverage, and the parents keep the
  first representative of each.
"""

from __future__ import annotations

import functools
import hashlib
import math
from typing import Mapping

import numpy as np

from hrr.chunking import ChunkingConfig
from hrr.corpus import Level

from reference_text import ReferenceTokenizer, node_rows

#: Each strategy as (levels searched, in trace order; level reranked).
PLANS = {
    "hrr": (("sentence", "intermediate"), "intermediate"),
    "base": (("parent",), "parent"),
    "c2p": (("parent", "intermediate", "sub_intermediate"), "parent"),
    "s2p": (("sentence",), "parent"),
}

_TOKENIZER = ReferenceTokenizer()


def plain_nodes(documents: Mapping[str, str], config: ChunkingConfig) -> dict[str, dict]:
    """Every node of ``documents`` chunked under ``config``, by id: a dict of
    its id, level name, parent id (None for a parent chunk) and text."""
    rows = node_rows(documents, config, _TOKENIZER)
    encoded = [text.encode("utf-8") for text in documents.values()]
    levels = [level.value for level in Level]
    return {
        chunk_id: {
            "id": chunk_id,
            "level": levels[level],
            "parent": rows[parent][0] if parent >= 0 else None,
            "text": encoded[doc][start:end].decode("utf-8"),
        }
        for chunk_id, level, doc, parent, start, end, _, _ in rows
    }


@functools.lru_cache(maxsize=4096)
def vector(text: str, dimension: int) -> dict[int, float]:
    """The hashed bag-of-words recipe: each lowercased word-punct token
    counts in bucket ``blake2b(token) mod dimension``, and each count is
    divided by the norm (the root of the exact sum of squared counts) and
    rounded to float32. A text of no token is the first basis vector."""
    counts: dict[int, int] = {}
    for token in _TOKENIZER.tokens(text.lower()):
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        bucket = int.from_bytes(digest, "big") % dimension
        counts[bucket] = counts.get(bucket, 0) + 1
    if not counts:
        return {0: 1.0}
    norm = math.sqrt(sum(n * n for n in counts.values()))
    return {bucket: float(np.float32(n / norm)) for bucket, n in counts.items()}


def score(a: dict[int, float], b: dict[int, float]) -> float:
    """The canonical score: the exact float64 products of float32 values,
    added in ascending bucket order from +0.0 (a zero product adds nothing)."""
    total = 0.0
    for bucket in sorted(a.keys() & b.keys()):
        total += a[bucket] * b[bucket]
    return total


def coverage(query: str, text: str) -> float:
    """The share of the query's distinct lowercased tokens that ``text`` holds."""
    wanted = set(_TOKENIZER.tokens(query.lower()))
    if not wanted:
        return 0.0
    return len(wanted & set(_TOKENIZER.tokens(text.lower()))) / len(wanted)


def ancestor(nodes: dict[str, dict], chunk_id: str, level: str) -> str:
    """The id of ``chunk_id``'s ancestor at ``level``, by parent ids."""
    node = nodes[chunk_id]
    while node["level"] != level:
        node = nodes[node["parent"]]
    return node["id"]


def best_first(scores: Mapping[str, float]) -> list[tuple[str, float]]:
    """(id, score) pairs by score descending, then id ascending."""
    return sorted(scores.items(), key=lambda pair: (-pair[1], pair[0]))


def retrieve(nodes: dict[str, dict], query: str, strategy: str, *, dimension: int,
             similarity_top_k: int, rerank_top_k: int, mix_lambda: float) -> dict:
    """What ``retrieve(query, ctx).to_dict()`` returns for ``strategy``, the
    context's corpus being ``nodes``, its embedder the hashed bag-of-words
    one at ``dimension`` and its reranker the lexical one."""
    search_levels, rerank_level = PLANS[strategy]
    query_vector = vector(query, dimension)
    trace, mapped = [], []
    best: dict[str, float] = {}
    for level in search_levels:
        scanned = {node["id"]: score(vector(node["text"], dimension), query_vector)
                   for node in nodes.values() if node["level"] == level}
        hits = best_first(scanned)[:similarity_top_k]
        trace.append((f"{level}_hits", hits))
        hits = [(ancestor(nodes, chunk_id, rerank_level), s) for chunk_id, s in hits]
        if level != rerank_level:
            mapped += hits
        for chunk_id, s in hits:
            if s > best.get(chunk_id, -math.inf):
                best[chunk_id] = s

    bonus: dict[str, float] = {}
    if rerank_level == "intermediate":
        trace.append(("sentence_to_intermediate", mapped))
        for chunk_id, s in mapped:
            bonus[chunk_id] = max(s, bonus.get(chunk_id, -math.inf))
    pool = best_first(best)
    reranked = {}
    for chunk_id, _ in pool:
        reranked[chunk_id] = coverage(query, nodes[chunk_id]["text"])
        if mix_lambda != 0.0:
            reranked[chunk_id] += mix_lambda * bonus.get(chunk_id, 0.0)
    reranked = best_first(reranked)
    top = reranked[:rerank_top_k]
    parents: dict[str, float] = {}
    for chunk_id, s in top:
        parents.setdefault(ancestor(nodes, chunk_id, "parent"), s)
    parents = list(parents.items())
    trace += [("rerank_pool", pool), ("reranked", reranked), ("rerank_top_k", top),
              ("parents", parents)]

    def candidates(pairs):
        return [{"chunk_id": chunk_id, "score": s} for chunk_id, s in pairs]

    return {
        "query": query,
        "strategy": strategy,
        "parents": candidates(parents),
        "trace": [{"stage": stage, "candidates": candidates(pairs)} for stage, pairs in trace],
    }
