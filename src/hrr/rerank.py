"""Second-stage reranking of retrieved candidates.

A rerank provider scores (query, chunk text) pairs; this module validates
requests, applies the provider, and imposes the stable total order (score
descending, chunk id ascending) that the rest of the pipeline depends on.
Ships with a deterministic lexical scorer for offline runs and a client
for a remote cross-encoder service.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Mapping, NamedTuple, Protocol, Sequence, runtime_checkable

from ._http import auth_headers, check_http_settings, new_session, post_json
from .errors import ConfigError, InvalidInputError, InvalidRequestError, ProviderUnavailableError
from .tokens import WordPunctTokenizer

if TYPE_CHECKING:
    import requests

FALLBACK_ERROR = "error"
FALLBACK_PASSTHROUGH = "passthrough"

PROVIDER_LOCAL_RERANK = "lexical-overlap"
PROVIDER_REMOTE = "remote"

#: Distinct candidate texts whose token sets one lexical reranker keeps, and
#: the chunk texts a corpus keeps for ``Corpus.chunk_text``. A four-strategy
#: eval pass over the 20-doc synth corpus (seed 42) touches 263 chunks (243
#: distinct texts); one over the 200-doc corpus (seed 7) touches 913 chunks
#: (841 texts, 5.5 MB), and its 30 ``hrr`` queries 458; so both caches hold
#: a whole 200-doc eval.
TOKEN_SET_CACHE_SIZE = 2048


@dataclass(frozen=True)
class RerankProviderConfig:
    provider: str = PROVIDER_LOCAL_RERANK
    base_url: str | None = None
    timeout: float = 10.0
    retries: int = 3
    fallback: str = FALLBACK_ERROR
    mix_lambda: float = 0.0
    api_key_env: str | None = None

    def validate(self) -> None:
        if self.provider not in (PROVIDER_LOCAL_RERANK, PROVIDER_REMOTE):
            raise ConfigError(f"unknown rerank provider {self.provider!r}")
        if self.provider == PROVIDER_REMOTE and not self.base_url:
            raise ConfigError("rerank.base_url is required for the remote provider")
        if self.fallback not in (FALLBACK_ERROR, FALLBACK_PASSTHROUGH):
            raise ConfigError(
                f"rerank.fallback must be error or passthrough, got {self.fallback!r}"
            )
        check_http_settings("rerank", self.base_url, self.timeout, self.retries)
        if not math.isfinite(self.mix_lambda):
            raise ConfigError(f"rerank.mix_lambda must be finite, got {self.mix_lambda}")


class ScoredCandidate(NamedTuple):
    """A chunk reference with a similarity or rerank score.

    ``score`` is None only in rerank passthrough fallback, where candidates
    keep their retrieval order and scores are unset.

    A named tuple, since a query builds a few hundred and a tuple is built
    faster than a frozen dataclass; like any tuple, it compares equal to a
    plain tuple of the same values, ``("p0", 1.0) == ScoredCandidate("p0", 1.0)``.
    """

    chunk_id: str
    score: float | None


@dataclass(frozen=True)
class RerankRequest:
    query: str
    candidates: tuple[tuple[str, str], ...]  # (chunk_id, text)

    def validate(self) -> None:
        if not self.query.strip():
            raise InvalidRequestError("rerank query is empty")
        if not self.candidates:
            raise InvalidRequestError("rerank request has no candidates")
        ids = [cid for cid, _ in self.candidates]
        if len(set(ids)) != len(ids):
            raise InvalidRequestError("duplicate candidate ids in rerank request")


@runtime_checkable
class RerankProvider(Protocol):
    name: str

    def score_pairs(self, query: str, texts: Sequence[str]) -> list[float]: ...


def _token_set(text: str) -> frozenset[str]:
    """Lowercased token set, interned so cached sets share their strings."""
    return frozenset(map(sys.intern, WordPunctTokenizer.tokens(text.lower())))


class LexicalOverlapReranker:
    """Deterministic lexical relevance scorer.

    score(Q, T) = |tokens(Q) ∩ tokens(T)| / |tokens(Q)| over sets of
    lowercased word-punct tokens: the fraction of query terms the candidate
    covers, in [0, 1], zero when the query has no tokens. Normalizing by the
    query side only keeps the score length-neutral across candidates, so a
    tiny fragment sharing one common word cannot outrank a full passage
    covering the query's rare terms.
    """

    name = "lexical-overlap"

    def __init__(self) -> None:
        # Chunk text never changes, so each distinct candidate text is
        # tokenized once per reranker; the bound caps what a context holds.
        self._candidate_set = lru_cache(maxsize=TOKEN_SET_CACHE_SIZE)(_token_set)

    def score_pairs(self, query: str, texts: Sequence[str]) -> list[float]:
        q = _token_set(query)  # uncached, so ad-hoc queries never evict chunks
        if not q:
            return [0.0] * len(texts)
        candidate_set = self._candidate_set
        return [len(q & candidate_set(text)) / len(q) for text in texts]


class RemoteReranker:
    """Client for a remote cross-encoder service.

    Wire contract: ``POST {base_url}/rerank`` with ``{"query": str,
    "documents": [str, ...]}``; response ``{"scores": [float, ...]}``
    positionally aligned with the documents. Retries with exponential
    backoff, then raises ``ProviderUnavailableError``.
    """

    name = "remote"

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 10.0,
        retries: int = 3,
        api_key_env: str | None = None,
        session: requests.Session | None = None,
    ) -> None:
        self._url = base_url.rstrip("/") + "/rerank"
        self._timeout = timeout
        self._retries = retries
        self._session = session if session is not None else new_session()
        self._headers = auth_headers(api_key_env)

    def score_pairs(self, query: str, texts: Sequence[str]) -> list[float]:
        payload = post_json(
            self._session, self._url, {"query": query, "documents": list(texts)},
            timeout=self._timeout, retries=self._retries, headers=self._headers,
        )
        try:
            scores = payload["scores"]
            # A JSON string iterates as characters and a bool is an int; take neither.
            if not isinstance(scores, list) or any(type(s) not in (int, float) for s in scores):
                raise TypeError(f"scores are not a list of numbers: {scores!r:.80}")
            scores = [float(s) for s in scores]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ProviderUnavailableError(f"malformed rerank response: {exc}") from exc
        # requests parses the non-JSON tokens NaN and Infinity as floats.
        if not all(map(math.isfinite, scores)):
            raise ProviderUnavailableError("malformed rerank response: a score is not finite")
        if len(scores) != len(texts):
            raise ProviderUnavailableError(
                f"rerank response has {len(scores)} scores for {len(texts)} documents"
            )
        return scores


def rerank(
    provider: RerankProvider,
    request: RerankRequest,
    *,
    fallback: str = FALLBACK_ERROR,
    mix_lambda: float = 0.0,
    sentence_bonus: Mapping[str, float] | None = None,
) -> list[ScoredCandidate]:
    """Score all candidates as one batch and sort them.

    Returns a permutation of the request's candidates ordered by (score
    descending, chunk id ascending); nothing is dropped or invented. When
    ``mix_lambda`` is nonzero, each score is mixed with
    ``mix_lambda * sentence_bonus[chunk_id]`` (an aggregated similarity
    signal from contained sentence chunks; default off). On provider
    failure, ``fallback`` selects between propagating the error and passing
    candidates through in request order with scores unset.
    """
    request.validate()
    if fallback not in (FALLBACK_ERROR, FALLBACK_PASSTHROUGH):
        raise InvalidInputError(f"unknown rerank fallback {fallback!r}")
    try:
        scores = provider.score_pairs(request.query, [text for _, text in request.candidates])
    except ProviderUnavailableError:
        if fallback == FALLBACK_ERROR:
            raise
        return [ScoredCandidate(cid, None) for cid, _ in request.candidates]
    if len(scores) != len(request.candidates):
        raise ProviderUnavailableError(
            f"provider {provider.name!r} returned {len(scores)} scores "
            f"for {len(request.candidates)} candidates"
        )
    if mix_lambda != 0.0:
        bonus = sentence_bonus or {}
        scores = [
            s + mix_lambda * bonus.get(cid, 0.0)
            for s, (cid, _) in zip(scores, request.candidates)
        ]
    ranked = [
        ScoredCandidate(cid, float(score))
        for (cid, _), score in zip(request.candidates, scores)
    ]
    ranked.sort(key=lambda c: (-c.score, c.chunk_id))
    return ranked


def top_k(reranked: Sequence[ScoredCandidate], k: int) -> list[ScoredCandidate]:
    """First min(k, len) candidates, order preserved."""
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    return list(reranked[:k])
