"""Ingest and artifact orchestration shared by the CLI and tests.

Ingest reads plain-text documents, chunks them, validates the hierarchy,
builds one index per level the corpus holds, and persists everything,
removing the snapshots of levels an earlier ingest held and this one lacks;
loading reverses it, and the loaded corpus decides which indexes load.
All steps are pure functions of (config, inputs), so re-running ingest on
unchanged inputs rewrites byte-identical artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .chunking import build_corpus
from .config import PROVIDER_LOCAL_EMBED, EngineConfig
from .corpus import Corpus, Level, load_corpus, save_corpus, validate_corpus
from .embedding import EmbeddingProvider, HashedBowEmbedder, RemoteEmbedder
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

    A path that is not a readable UTF-8 file raises
    ``UnreadableDocumentError`` naming it.
    """
    docs_dir = Path(docs_dir)
    paths = sorted(docs_dir.glob("*.txt"))
    if not paths:
        raise NoDocumentsError(f"no .txt documents in {docs_dir}")
    documents = {}
    for path in paths:
        try:
            documents[path.stem] = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise UnreadableDocumentError(
                f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})"
            ) from None
        except OSError as exc:
            raise UnreadableDocumentError(f"{path}: cannot read ({exc.strerror})") from None
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
        # Each level's index is freed before the next is built.
        path = index_dir / f"{level.value}{_INDEX_SUFFIX}"
        save_index(build_index(corpus, level, embedder), path, embedder.name)
        counts[level.value] = len(corpus.nodes_at(level))
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
    snapshots for other levels are ignored. Row ``i`` of a level's index is
    ``corpus.nodes_at(level)[i]``. A missing snapshot raises
    ``MissingIndexError``. A snapshot made by another embedding provider or
    at another dimension than the config names, or for other chunk ids
    (artifacts from different ingests, or a truncated corpus), raises
    ``SnapshotFormatError``.
    """
    corpus = load_corpus(config.paths.corpus_dir)
    index_dir = Path(config.paths.index_dir)
    embedder = make_embedder(config)
    indices = {}
    for level in corpus.levels:
        path = index_dir / f"{level.value}{_INDEX_SUFFIX}"
        ids = [node.id for node in corpus.nodes_at(level)]
        try:
            indices[level] = load_index(path, ids, embedder.name, embedder.dimension)
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
