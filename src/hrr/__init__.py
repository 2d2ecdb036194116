"""Hierarchical re-ranker retrieval engine.

Documents are chunked into parent (2048-token), intermediate (512-token),
and sentence tiers; queries retrieve at the sentence and intermediate
levels, a reranker scores the intermediate pool, and the winners map back
to unique parent chunks. Three single-granularity baselines and a
Hit Rate / MRR evaluation harness share the same interfaces.
"""

from .chunking import ChunkingConfig, build_corpus
from .config import EngineConfig, load_config
from .corpus import (
    ChunkNode,
    Corpus,
    Level,
    Violation,
    load_corpus,
    resolve_parent,
    save_corpus,
    validate_corpus,
)
from .embedding import (
    CsrBatch,
    EmbeddingProvider,
    HashedBowEmbedder,
    RemoteEmbedder,
    cosine_similarity,
    embed_batch,
)
from .evaluation import (
    EvalRecord,
    EvalSummary,
    LabeledQuery,
    compare,
    format_table,
    load_query_set,
    save_query_set,
    score_query,
    summarize,
)
from .index import LevelIndex, build_index, load_index, save_index
from .rerank import (
    LexicalOverlapReranker,
    RemoteReranker,
    RerankRequest,
    ScoredCandidate,
    rerank,
    top_k,
)
from .retrievers import (
    RetrievalContext,
    RetrievalResult,
    RetrieverConfig,
    Strategy,
    retrieve,
)
from .sentences import split_sentences
from .synth import CorpusSpec, SyntheticCorpus, generate
from .tokens import Tokenizer, WordPunctTokenizer, get_tokenizer

__version__ = "0.1.0"
