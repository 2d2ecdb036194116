"""Ingest and artifact orchestration shared by the CLI and tests.

Ingest reads plain-text documents, chunks them, validates the hierarchy,
builds one index per level the corpus holds, and persists everything,
removing the snapshots of levels an earlier ingest held and this one lacks;
loading reverses it, and the loaded corpus decides which indexes load.
All steps are pure functions of (config, inputs), so re-running ingest on
unchanged inputs rewrites byte-identical artifacts.
"""

from __future__ import annotations

import codecs
import os
from dataclasses import dataclass
from pathlib import Path

from .chunking import build_corpus
from .config import PROVIDER_LOCAL_EMBED, EngineConfig
from .corpus import Corpus, Level, load_corpus, save_corpus, validate_corpus
from .embedding import EmbeddingProvider, HashedBowEmbedder, RemoteEmbedder, encodes_as_utf8
from .errors import (
    InvalidCorpusError,
    MissingIndexError,
    NoDocumentsError,
    UnreadableDocumentError,
)
from .index import build_index, load_index, save_index
from .rerank import PROVIDER_LOCAL_RERANK, LexicalOverlapReranker, RemoteReranker, RerankProvider
from .retrievers import RetrievalContext
from .tokens import get_tokenizer

_INDEX_SUFFIX = ".idx"


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
    """Chunk, validate, embed, index, and persist a document directory."""
    documents = read_documents(docs_dir)
    tokenizer = get_tokenizer(config.tokenizer)
    corpus = build_corpus(documents, config.chunking, tokenizer)

    violations = validate_corpus(corpus)
    if violations:
        details = "; ".join(str(v) for v in violations[:5])
        raise InvalidCorpusError(f"{len(violations)} corpus violations: {details}")

    embedder = make_embedder(config)
    corpus_dir = Path(config.paths.corpus_dir)
    save_corpus(corpus, corpus_dir)

    index_dir = Path(config.paths.index_dir)
    index_dir.mkdir(parents=True, exist_ok=True)
    counts: dict[str, int] = {}
    for level in corpus.levels:
        path = index_dir / f"{level.value}{_INDEX_SUFFIX}"
        index = build_index(corpus, level, embedder)
        save_index(index, path, embedder.name)
        counts[level.value] = len(index)
        del index  # freed before the next level's index is built
    # A snapshot for a level this corpus lacks is left from an earlier ingest.
    for level in Level:
        if level not in corpus.levels:
            (index_dir / f"{level.value}{_INDEX_SUFFIX}").unlink(missing_ok=True)

    return IngestSummary(
        documents=len(documents),
        chunks_per_level=counts,
        dimension=embedder.dimension,
    )


def load_context(config: EngineConfig) -> RetrievalContext:
    """Load persisted artifacts into a ready-to-query retrieval context.

    The corpus decides which indexes load: one per level it holds, and
    snapshots for other levels are ignored. Each index is a level of the
    loaded corpus: row ``i`` is the corpus's ``i``-th chunk at that level,
    and its snapshot must hold the corpus's one ``ids_sha256``. Loading
    builds no ``ChunkNode`` and no per-level list, tuple or set of ids, and
    hashes the ids once, as the corpus checks them. A missing snapshot
    raises ``MissingIndexError``. A snapshot of another level (a renamed
    file), made by another embedding provider or at another dimension than
    the config names, or for another corpus (artifacts from different
    ingests, or a truncated corpus), raises ``SnapshotFormatError``.
    """
    corpus = load_corpus(config.paths.corpus_dir)
    index_dir = Path(config.paths.index_dir)
    embedder = make_embedder(config)
    indices = {}
    for level in corpus.levels:
        path = index_dir / f"{level.value}{_INDEX_SUFFIX}"
        try:
            indices[level] = load_index(path, corpus, level, embedder.name, embedder.dimension)
        except FileNotFoundError:
            raise MissingIndexError(
                f"no index snapshot {path} for the corpus's {level.value} chunks; "
                f"run ingest first"
            ) from None
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
