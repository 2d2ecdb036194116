"""Shared HTTP plumbing for the remote embed and rerank clients.

``requests`` is imported only when a remote client is built or called, so
that the local pipeline never pays for loading it.
"""

from __future__ import annotations

import math
import os
import time
from typing import TYPE_CHECKING
from urllib.parse import urlsplit

from .errors import ConfigError, ProviderUnavailableError

if TYPE_CHECKING:
    import requests


def auth_headers(api_key_env: str | None) -> dict[str, str]:
    """Bearer-token header from the environment variable named in config."""
    if api_key_env is None:
        return {}
    key = os.environ.get(api_key_env)
    if key is None:
        raise ConfigError(f"credential environment variable {api_key_env!r} is not set")
    return {"Authorization": f"Bearer {key}"}


def check_http_settings(section: str, base_url: str | None, timeout: float, retries: int) -> None:
    """Reject a base URL that is not an absolute http(s) URL, a timeout that
    is not a positive, finite number of seconds, and a negative retry count,
    which would never send a request."""
    if base_url is not None:
        url = urlsplit(base_url)
        if url.scheme not in ("http", "https") or not url.netloc:
            raise ConfigError(f"{section}.base_url must be an http:// or https:// URL, got {base_url!r}")
    if not (timeout > 0 and math.isfinite(timeout)):
        raise ConfigError(f"{section}.timeout must be a positive number, got {timeout}")
    if retries < 0:
        raise ConfigError(f"{section}.retries must be >= 0, got {retries}")


def new_session() -> requests.Session:
    """A ``requests.Session`` for a remote client."""
    import requests

    return requests.Session()


def post_json(
    session: requests.Session,
    url: str,
    body: dict,
    *,
    timeout: float,
    retries: int,
    headers: dict[str, str],
    backoff: float = 0.1,
) -> dict:
    """POST with exponential-backoff retries on transport errors (any
    ``requests.RequestException``: timeouts, refused connections, a body cut
    off mid-stream) and 5xx responses. 4xx responses fail immediately."""
    import requests

    last: Exception | None = None
    for attempt in range(retries + 1):
        try:
            resp = session.post(url, json=body, timeout=timeout, headers=headers)
        except requests.RequestException as exc:
            last = exc
        else:
            if resp.status_code < 400:
                try:
                    return resp.json()
                except ValueError as exc:
                    raise ProviderUnavailableError(f"non-JSON response from {url}") from exc
            if resp.status_code < 500:
                raise ProviderUnavailableError(f"{url} answered {resp.status_code}")
            last = ProviderUnavailableError(f"{url} answered {resp.status_code}")
        if attempt < retries:
            time.sleep(backoff * (2**attempt))
    raise ProviderUnavailableError(f"{url} unreachable after {retries + 1} attempts: {last}")
