"""Ingest and artifact orchestration shared by the CLI and tests.

Ingest reads plain-text documents, chunks them, validates the hierarchy,
and saves the corpus and one index per level it holds as one file, replaced
by one rename; loading reads them back from that one file. All steps are
pure functions of (config, inputs), so re-running ingest on unchanged
inputs rewrites a byte-identical file.
"""

from __future__ import annotations

import codecs
import os
from dataclasses import dataclass
from pathlib import Path

from .chunking import build_corpus
from .config import PROVIDER_LOCAL_EMBED, EngineConfig
# Ingest and load call ``save_corpus`` and ``load_artifacts``; ``load_corpus``,
# ``save_index`` and ``load_index`` are imported for the benchmark harness,
# which patches them here.
from .corpus import (  # noqa: F401
    Corpus, load_artifacts, load_corpus, save_corpus, validate_corpus,
)
from .embedding import EmbeddingProvider, HashedBowEmbedder, RemoteEmbedder, encodes_as_utf8
from .errors import InvalidCorpusError, NoDocumentsError, UnreadableDocumentError
from .index import build_index, load_index, save_index  # noqa: F401
from .rerank import PROVIDER_LOCAL_RERANK, LexicalOverlapReranker, RemoteReranker, RerankProvider
from .retrievers import RetrievalContext
from .tokens import get_tokenizer


def make_embedder(config: EngineConfig) -> EmbeddingProvider:
    emb = config.embedding
    if emb.provider == PROVIDER_LOCAL_EMBED:
        return HashedBowEmbedder(dimension=emb.dimension)
    return RemoteEmbedder(
        emb.base_url or "",
        emb.dimension,
        timeout=emb.timeout,
        retries=emb.retries,
        batch_size=emb.batch_size,
        max_in_flight=emb.max_in_flight,
        api_key_env=emb.api_key_env,
    )


def make_reranker(config: EngineConfig) -> RerankProvider:
    rr = config.rerank
    if rr.provider == PROVIDER_LOCAL_RERANK:
        return LexicalOverlapReranker()
    return RemoteReranker(
        rr.base_url or "",
        timeout=rr.timeout,
        retries=rr.retries,
        api_key_env=rr.api_key_env,
    )


def read_documents(docs_dir: str | Path) -> dict[str, str]:
    """Read every ``*.txt`` file (sorted by name) as one document.

    A document is its file's bytes decoded, line ends included, after a
    UTF-8 byte order mark if the file starts with one, so its chunks' byte
    spans are offsets into the file's bytes after that mark. A path that is
    not a readable UTF-8 file, whose name is not UTF-8 (the name is the
    document id), or whose text is empty or only whitespace, raises
    ``UnreadableDocumentError`` naming it.
    """
    docs_dir = Path(docs_dir)
    paths = sorted(docs_dir.glob("*.txt"))
    if not paths:
        raise NoDocumentsError(f"no .txt documents in {docs_dir}")
    documents = {}
    for path in paths:
        if not encodes_as_utf8(path.name):
            shown = os.fsencode(path).decode("utf-8", "backslashreplace")
            raise UnreadableDocumentError(f"{shown}: the file name is not valid UTF-8")
        try:
            data = path.read_bytes()
            text = data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            # The decoder counts from after the mark; the message, from the file's start.
            at = exc.start + (3 if data.startswith(codecs.BOM_UTF8) else 0)
            raise UnreadableDocumentError(
                f"{path}: not valid UTF-8 ({exc.reason} at byte {at})"
            ) from None
        except OSError as exc:
            raise UnreadableDocumentError(f"{path}: cannot read ({exc.strerror})") from None
        if not text.strip():
            raise UnreadableDocumentError(f"{path}: no text to chunk, only whitespace")
        documents[path.stem] = text
    return documents


@dataclass(frozen=True)
class IngestSummary:
    documents: int
    chunks_per_level: dict[str, int]
    dimension: int


def ingest(docs_dir: str | Path, config: EngineConfig) -> IngestSummary:
    """Chunk, validate, embed, index, and persist a document directory as
    the one file ``save_corpus`` writes in ``paths.corpus_dir``. Each level
    is built as the save draws it, once the corpus is written, and freed
    before the next; an ingest that stops leaves the earlier file whole."""
    documents = read_documents(docs_dir)
    tokenizer = get_tokenizer(config.tokenizer)
    corpus = build_corpus(documents, config.chunking, tokenizer)

    violations = validate_corpus(corpus)
    if violations:
        details = "; ".join(str(v) for v in violations[:5])
        raise InvalidCorpusError(f"{len(violations)} corpus violations: {details}")

    embedder = make_embedder(config)
    indexes = (build_index(corpus, level, embedder) for level in corpus.levels)
    save_corpus(corpus, config.paths.corpus_dir, indexes, embedder)
    return IngestSummary(
        documents=len(documents),
        chunks_per_level={level.value: len(corpus.rows_at(level)) for level in corpus.levels},
        dimension=embedder.dimension,
    )


def load_context(config: EngineConfig) -> RetrievalContext:
    """Load the file ``ingest`` wrote into a ready-to-query retrieval context.

    The corpus and each level's index are read from the one open file
    (``corpus.load_artifacts``); row ``i`` of an index is the corpus's
    ``i``-th chunk at its level. Loading builds no ``ChunkNode`` and no
    per-level list, tuple or set of ids. Vectors made by another embedding
    provider or at another dimension than the config names raise
    ``SnapshotFormatError``.
    """
    embedder = make_embedder(config)
    corpus, indices = load_artifacts(config.paths.corpus_dir, embedder)
    return RetrievalContext(
        corpus=corpus,
        indices=indices,
        embedder=embedder,
        reranker=make_reranker(config),
        config=config.retriever,
        rerank=config.rerank,
    )


def context_for(
    corpus: Corpus,
    config: EngineConfig,
    *,
    embedder: EmbeddingProvider | None = None,
    reranker: RerankProvider | None = None,
) -> RetrievalContext:
    """Build a context directly from an in-memory corpus (no persistence)."""
    embedder = embedder if embedder is not None else make_embedder(config)
    indices = {level: build_index(corpus, level, embedder) for level in corpus.levels}
    return RetrievalContext(
        corpus=corpus,
        indices=indices,
        embedder=embedder,
        reranker=reranker if reranker is not None else make_reranker(config),
        config=config.retriever,
        rerank=config.rerank,
    )


__all__ = [
    "IngestSummary",
    "context_for",
    "ingest",
    "load_context",
    "make_embedder",
    "make_reranker",
    "read_documents",
]
