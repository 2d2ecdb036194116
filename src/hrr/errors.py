"""Exception types shared across the package."""


class HrrError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(HrrError):
    """Invalid or unknown configuration."""


class UnknownChunkError(HrrError):
    """A chunk id does not exist in the corpus."""


class LevelViolationError(HrrError):
    """Requested ancestor level is below the chunk's own level."""


class EmptyDocumentError(HrrError):
    """Document has no chunkable content."""


class InvalidInputError(HrrError):
    """Caller violated an operation precondition."""


class DimensionMismatchError(HrrError):
    """Vector dimensions disagree."""


class ProviderUnavailableError(HrrError):
    """A remote embedding or rerank provider failed after retries."""


class InvalidCorpusError(HrrError):
    """Corpus cannot back the requested index."""


class SnapshotFormatError(HrrError):
    """The artifact file is corrupt, of another format version, or made by
    another embedder than the config names."""


class MissingIndexError(HrrError):
    """A retrieval strategy needs an index level that was not built."""


class InvalidRequestError(HrrError):
    """Malformed rerank request."""


class EmptyCorpusError(HrrError):
    """Retrieval attempted over a corpus with no chunks."""


class EmptyQuerySetError(HrrError):
    """Evaluation needs at least one labeled query."""


class GoldNotInCorpusError(HrrError):
    """A labeled query references a parent chunk the corpus does not contain."""


class SpecInfeasibleError(HrrError):
    """Synthetic corpus spec asks for more needles than the corpus can hold."""


class NoDocumentsError(HrrError):
    """Ingest directory contains no documents."""


class UnreadableDocumentError(HrrError):
    """A document file cannot be read as UTF-8 text."""
