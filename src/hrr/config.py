"""Engine configuration: one JSON file, strictly validated.

Defaults follow the reference parameter table (2048/512 chunk budgets, zero
overlap, similarity top-k 10, rerank top-k 5). Unknown keys are rejected so
typos fail loudly instead of silently falling back to defaults.
"""

from __future__ import annotations

import json
import typing
from dataclasses import dataclass, field
from pathlib import Path

from ._http import check_http_settings
from .chunking import ChunkingConfig
from .embedding import MAX_CSR_DIMENSION
from .errors import ConfigError
from .rerank import PROVIDER_REMOTE, RerankProviderConfig
from .retrievers import RetrieverConfig, strategy_named

PROVIDER_LOCAL_EMBED = "hashed-bow"


@dataclass(frozen=True)
class EmbeddingConfig:
    provider: str = PROVIDER_LOCAL_EMBED
    dimension: int = 384
    base_url: str | None = None
    timeout: float = 10.0
    retries: int = 3
    batch_size: int = 64
    max_in_flight: int = 4
    api_key_env: str | None = None

    def validate(self) -> None:
        if self.provider not in (PROVIDER_LOCAL_EMBED, PROVIDER_REMOTE):
            raise ConfigError(f"unknown embedding provider {self.provider!r}")
        if self.provider == PROVIDER_REMOTE and not self.base_url:
            raise ConfigError("embedding.base_url is required for the remote provider")
        # Any larger dimension is one no CSR index can address.
        if not 1 <= self.dimension <= MAX_CSR_DIMENSION:
            raise ConfigError(
                f"embedding.dimension must be between 1 and {MAX_CSR_DIMENSION}, "
                f"got {self.dimension}"
            )
        check_http_settings("embedding", self.base_url, self.timeout, self.retries)
        if self.batch_size < 1:
            raise ConfigError(f"embedding.batch_size must be >= 1, got {self.batch_size}")
        if self.max_in_flight < 1:
            raise ConfigError(f"embedding.max_in_flight must be >= 1, got {self.max_in_flight}")


@dataclass(frozen=True)
class PathsConfig:
    corpus_dir: str = "corpus"
    index_dir: str = "indexes"
    query_set: str = "queries.jsonl"

    def validate(self) -> None:
        for key, path in vars(self).items():
            if "\0" in path:
                raise ConfigError(f"paths.{key} holds a NUL character, which no path can")


@dataclass(frozen=True)
class EngineConfig:
    chunking: ChunkingConfig = field(default_factory=ChunkingConfig)
    tokenizer: str = "word-punct"
    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)
    rerank: RerankProviderConfig = field(default_factory=RerankProviderConfig)
    retriever: RetrieverConfig = field(default_factory=RetrieverConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)

    def validate(self) -> None:
        self.chunking.validate()
        self.embedding.validate()
        self.rerank.validate()
        self.retriever.validate()
        self.paths.validate()


_SECTIONS = {
    "chunking": ChunkingConfig,
    "embedding": EmbeddingConfig,
    "rerank": RerankProviderConfig,
    "retriever": RetrieverConfig,
    "paths": PathsConfig,
}


def config_from_dict(data: dict) -> EngineConfig:
    """Build an ``EngineConfig`` from parsed JSON, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    hints = typing.get_type_hints(EngineConfig)
    kwargs = {}
    for key, value in data.items():
        if key in _SECTIONS:
            kwargs[key] = _section_from_dict(_SECTIONS[key], value, key)
        elif key == "tokenizer":
            kwargs[key] = _typed_value(value, hints[key], key)
        else:
            raise ConfigError(f"unknown config key {key!r}")
    config = EngineConfig(**kwargs)
    config.validate()
    return config


def _section_from_dict(section_type, data, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"config section {path!r} must be an object")
    hints = typing.get_type_hints(section_type)
    kwargs = {}
    for key, value in data.items():
        if key not in hints:
            raise ConfigError(f"unknown config key '{path}.{key}'")
        if section_type is RetrieverConfig and key == "strategy":
            value = strategy_named(value, f"{path}.strategy")
        else:
            value = _typed_value(value, hints[key], f"{path}.{key}")
        kwargs[key] = value
    return section_type(**kwargs)


def _typed_value(value, hint, path: str):
    """Return ``value`` if JSON gave it the field's type, else raise.

    An int field rejects strings, bools and floats; a float field also
    takes an int within float range, stored as a float.
    """
    for allowed in typing.get_args(hint) or (hint,):
        if allowed is type(None) and value is None:
            return value
        if allowed in (int, str) and type(value) is allowed:
            return value
        if allowed is float and type(value) in (int, float):
            try:
                return float(value)
            except OverflowError:
                raise ConfigError(f"{path} is an integer beyond float range") from None
    raise ConfigError(f"{path} must be {_type_name(hint)}, got {json.dumps(value)}")


def _type_name(hint) -> str:
    names = {int: "an integer", float: "a number", str: "a string"}
    return " or ".join(
        "null" if t is type(None) else names[t] for t in typing.get_args(hint) or (hint,)
    )


def load_config(path: str | Path | None) -> EngineConfig:
    """Load the config file, or the full defaults when ``path`` is None."""
    if path is None:
        config = EngineConfig()
        config.validate()
        return config
    try:
        # utf-8-sig drops a leading byte order mark, as document reading does.
        with open(path, encoding="utf-8-sig") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file {path} does not exist") from None
    except OSError as exc:
        raise ConfigError(f"config file {path} cannot be read ({exc.strerror})") from None
    except ValueError as exc:  # a JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)
