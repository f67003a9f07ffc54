"""HTTP embedding gateway and token counting.

The engine never runs model inference in-process. Embeddings come from any
service speaking the common embeddings wire shape:

    POST {endpoint_url}  {"model": <name>, "input": [<text>, ...]}
    -> 200 {"data": [{"index": 0, "embedding": [...]}, ...]}

Requests are batched and issued with bounded parallelism; callers observe a
synchronous, order-preserving call.

Every service request, embedding, chat and tokenizer alike, goes through
``post_json``, which holds the one failure policy. Its transport is the
standard library's ``http.client``, straight to the configured endpoint.
"""

from __future__ import annotations

import json
import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPException, HTTPSConnection
from urllib.parse import urlsplit

from .errors import DimensionMismatch, InvalidParams, LitragError, PartialFailure, ServiceUnreachable

logger = logging.getLogger(__name__)

_RETRY_BASE_S = 0.5  # pause before the one retry of a transient failure
_REQUEST_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class EmbeddingVector:
    """Fixed-dimension real vector. All values are finite."""

    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(map(float, self.values)))
        if not all(map(math.isfinite, self.values)):
            raise ValueError("embedding values must be finite (no NaN/Inf)")

    @property
    def dim(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class EmbeddingConfig:
    endpoint_url: str
    model_name: str = "bge-base-en-v1.5"
    expected_dim: int = 768
    em_token_limit: int = 768
    batch_size: int = 32
    max_parallel_requests: int = 4

    def __post_init__(self):
        check_endpoint_url(self.endpoint_url, "endpoint_url")
        if self.expected_dim <= 0:
            raise InvalidParams("expected_dim must be positive")
        if self.em_token_limit <= 0:
            raise InvalidParams("em_token_limit must be positive")
        if self.batch_size <= 0:
            raise InvalidParams("batch_size must be positive")
        if self.max_parallel_requests <= 0:
            raise InvalidParams("max_parallel_requests must be positive")


@dataclass(frozen=True)
class TokenizerConfig:
    """Token accounting: a chars-per-token heuristic or an external endpoint."""

    mode: str = "heuristic"  # "heuristic" | "external"
    chars_per_token: float = 4.0
    external_url: str | None = None

    def __post_init__(self):
        if self.mode not in ("heuristic", "external"):
            raise InvalidParams(f"unknown tokenizer mode {self.mode!r}")
        if not (0 < self.chars_per_token < math.inf):
            raise InvalidParams(f"chars_per_token must be finite and > 0, got {self.chars_per_token}")
        if self.mode == "external":
            if not self.external_url:
                raise InvalidParams("external tokenizer mode requires external_url")
            check_endpoint_url(self.external_url, "external_url")


def check_endpoint_url(url: str, name: str) -> None:
    """Raise InvalidParams unless ``url`` is an http(s) URL with a host and a valid port."""
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise InvalidParams(f"{name} must be an http:// or https:// URL with a host, got {url!r}")
    try:
        parts.port
    except ValueError as exc:  # a port that is not a number in 0..65535
        raise InvalidParams(f"{name} has a bad port, got {url!r}: {exc}") from exc


def post_json(url: str, payload: dict, error: type[LitragError], timeout: float):
    """POST ``payload`` as JSON to ``url`` and return the decoded reply.

    Each attempt opens a fresh ``http.client`` connection, whose ``timeout``
    bounds every socket operation. A failed connect, a connection dropped
    before the status line, a 5xx and a 429 are retried once, after
    ``_RETRY_BASE_S``. Everything else fails at once: another status >= 300
    cannot clear (a 3xx is not followed; only a 2xx is a reply), and after a
    read timeout, or a reply cut off in its body, the service already has the
    request, so a retry would double the wait. Every failure raises
    ``error``; checking the reply's shape is left to the caller.
    """
    parts = urlsplit(url)
    connection = HTTPSConnection if parts.scheme == "https" else HTTPConnection
    target = f"{parts.path or '/'}?{parts.query}" if parts.query else parts.path or "/"
    body = json.dumps(payload).encode()
    for last_try in (False, True):
        conn = connection(parts.hostname, parts.port, timeout=timeout)
        try:
            return _exchange(conn, target, body, url, error)
        except _Transient as exc:
            cause = str(exc)
        finally:
            conn.close()
        if last_try:
            raise error(f"{url} failed after one retry: {cause}")
        logger.warning("%s failed (%s); retrying in %.1fs", url, cause, _RETRY_BASE_S)
        time.sleep(_RETRY_BASE_S)


class _Transient(Exception):
    """A failed attempt that ``post_json`` retries once."""


def _exchange(conn: HTTPConnection, target: str, body: bytes, url: str, error):
    """One attempt of ``post_json`` on the fresh connection ``conn``."""
    try:
        conn.connect()
    except OSError as exc:  # refused, unreachable, or a connect timeout
        raise _Transient(f"connection failed: {exc!r}") from exc
    try:
        conn.request("POST", target, body, {"Content-Type": "application/json"})
        resp = conn.getresponse()
    except ConnectionError as exc:  # closed, reset or a broken pipe before the status line
        raise _Transient(f"connection dropped: {exc!r}") from exc
    except (OSError, HTTPException) as exc:  # a read timeout: the service has the request
        raise error(f"request to {url} failed: {exc!r}") from exc
    try:
        data = resp.read()
    except (OSError, HTTPException) as exc:  # a timeout or a cut-off inside the body
        raise error(f"reading the reply from {url} failed: {exc!r}") from exc
    if resp.status < 300:
        try:
            return json.loads(data)
        except ValueError as exc:
            raise error(f"{url} replied with malformed JSON: {exc}") from exc
    cause = f"status {resp.status}: {data[:200].decode(errors='replace')}"
    if resp.status < 500 and resp.status != 429:
        raise error(f"{url} returned {cause}")
    raise _Transient(cause)


def token_count(text: str, tok: TokenizerConfig) -> int:
    """Number of tokens in ``text`` under the configured tokenizer."""
    if tok.mode == "heuristic":
        return math.ceil(len(text) / tok.chars_per_token)
    reply = post_json(tok.external_url, {"input": text}, ServiceUnreachable, _REQUEST_TIMEOUT_S)
    count = reply.get("count") if isinstance(reply, dict) else None
    if type(count) is not int or count < 0:
        raise ServiceUnreachable(f"tokenizer reply has no non-negative integer count: {reply!r:.200}")
    return count


def _post_batch(config: EmbeddingConfig, batch: list[str]) -> list[EmbeddingVector]:
    payload = {"model": config.model_name, "input": batch}
    reply = post_json(config.endpoint_url, payload, ServiceUnreachable, _REQUEST_TIMEOUT_S)
    try:
        items = sorted(reply["data"], key=lambda item: item["index"])
        vectors = [EmbeddingVector(tuple(item["embedding"])) for item in items]
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceUnreachable(f"malformed embedding reply: {exc!r}") from exc
    # any other numbering leaves no way to tell which input a vector embeds
    indexes = [item["index"] for item in items]
    if indexes != list(range(len(batch))):
        raise ServiceUnreachable(
            f"malformed embedding reply: {len(items)} vectors for {len(batch)} inputs, "
            f"indexed {indexes[:8]} instead of 0..{len(batch) - 1}"
        )
    return vectors


def embed_texts(
    texts: list[str],
    config: EmbeddingConfig,
    tokenizer: TokenizerConfig | None = None,
) -> list[EmbeddingVector]:
    """Embed ``texts`` in input order.

    Texts are grouped into batches of ``config.batch_size`` and issued with
    at most ``config.max_parallel_requests`` concurrent requests. Inputs
    whose estimated token count (``chars_per_token``, whatever the tokenizer
    mode) exceeds the embedding model's token limit are still sent (services
    truncate) but logged as a warning, since oversize inputs lose precision.

    Raises PartialFailure (with failed input indexes) when some batches fail
    (``post_json`` retries a transient cause once), ServiceUnreachable when
    all of them do, and DimensionMismatch, after all batches and without a
    retry, when the service returns vectors of an unexpected dimension.
    """
    if not texts:
        raise ValueError("texts must be non-empty")

    tok = tokenizer or TokenizerConfig()
    # estimated: an external tokenizer counts for the chat model, not this one
    oversize = sum(math.ceil(len(t) / tok.chars_per_token) > config.em_token_limit for t in texts)
    if oversize:
        logger.warning(
            "%d of %d inputs exceed the embedding token limit (%d); "
            "they will be sent anyway and may lose precision",
            oversize,
            len(texts),
            config.em_token_limit,
        )

    batches = [
        texts[i : i + config.batch_size] for i in range(0, len(texts), config.batch_size)
    ]

    def attempt(batch: list[str]) -> list[EmbeddingVector] | ServiceUnreachable:
        try:
            return _post_batch(config, batch)
        except ServiceUnreachable as exc:
            return exc

    if len(batches) == 1:  # a lone batch, as in every query, starts no worker thread
        outcomes = [attempt(batches[0])]
    else:
        with ThreadPoolExecutor(max_workers=config.max_parallel_requests) as pool:
            outcomes = list(pool.map(attempt, batches))

    failed = [i for i, out in enumerate(outcomes) if isinstance(out, ServiceUnreachable)]
    if len(failed) == len(batches):
        raise ServiceUnreachable(f"all {len(batches)} embedding batches failed: {outcomes[0]}")
    if failed:
        failed_inputs = [i * config.batch_size + j for i in failed for j in range(len(batches[i]))]
        raise PartialFailure(
            f"{len(failed)} of {len(batches)} embedding batches failed", failed_inputs
        )

    vectors = [v for batch in outcomes for v in batch]
    for i, vec in enumerate(vectors):
        if vec.dim != config.expected_dim:
            raise DimensionMismatch(
                f"service returned dimension {vec.dim} for input {i}, "
                f"expected {config.expected_dim} (misconfigured model?)"
            )
    return vectors
