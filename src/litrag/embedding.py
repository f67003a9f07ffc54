"""HTTP embedding gateway and token counting.

The engine never runs model inference in-process. Embeddings come from any
service speaking the common embeddings wire shape:

    POST {endpoint_url}  {"model": <name>, "input": [<text>, ...]}
    -> 200 {"data": [{"index": 0, "embedding": [...]}, ...]}

Requests are batched and issued with bounded parallelism; callers observe a
synchronous, order-preserving call.

Every service request, embedding, chat and tokenizer alike, goes through
``post_json``, which holds the one failure policy.
"""

from __future__ import annotations

import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import requests
from urllib3.exceptions import ReadTimeoutError

from .errors import DimensionMismatch, LitragError, PartialFailure, ServiceUnreachable

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
        if self.expected_dim <= 0:
            raise ValueError("expected_dim must be positive")
        if self.em_token_limit <= 0:
            raise ValueError("em_token_limit must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.max_parallel_requests <= 0:
            raise ValueError("max_parallel_requests must be positive")


@dataclass(frozen=True)
class TokenizerConfig:
    """Token accounting: a chars-per-token heuristic or an external endpoint."""

    mode: str = "heuristic"  # "heuristic" | "external"
    chars_per_token: float = 4.0
    external_url: str | None = None

    def __post_init__(self):
        if self.mode not in ("heuristic", "external"):
            raise ValueError(f"unknown tokenizer mode {self.mode!r}")
        if self.mode == "heuristic" and self.chars_per_token <= 0:
            raise ValueError("chars_per_token must be positive")
        if self.mode == "external" and not self.external_url:
            raise ValueError("external tokenizer mode requires external_url")


def post_json(url: str, payload: dict, error: type[LitragError], timeout: float):
    """POST ``payload`` as JSON to ``url`` and return the decoded reply.

    A refused or timed-out connection, a 5xx and a 429 are retried once,
    after ``_RETRY_BASE_S``. Everything else fails at once: another 4xx
    cannot clear, and after a read timeout the service already has the
    request, so a retry would double the wait. Every failure raises
    ``error``; checking the reply's shape is left to the caller.
    """
    for last_try in (False, True):
        try:
            resp = requests.post(url, json=payload, timeout=timeout)
        except requests.ConnectionError as exc:  # refused, dropped, or a ConnectTimeout
            # requests reports a read timeout inside the reply body as one too
            if exc.args and isinstance(exc.args[0], ReadTimeoutError):
                raise error(f"request to {url} failed: {exc}") from exc
            cause = f"connection failed: {exc}"
        except requests.RequestException as exc:
            raise error(f"request to {url} failed: {exc}") from exc
        else:
            if resp.status_code < 400:
                try:
                    return resp.json()
                except ValueError as exc:
                    raise error(f"{url} replied with malformed JSON: {exc}") from exc
            cause = f"status {resp.status_code}: {resp.text[:200]}"
            if resp.status_code < 500 and resp.status_code != 429:
                raise error(f"{url} returned {cause}")
        if last_try:
            raise error(f"{url} failed after one retry: {cause}")
        logger.warning("%s failed (%s); retrying in %.1fs", url, cause, _RETRY_BASE_S)
        time.sleep(_RETRY_BASE_S)


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
    whose token count exceeds the embedding model's token limit are still
    sent (services truncate) but logged as a warning, since oversize inputs
    lose precision.

    Raises PartialFailure (with failed input indexes) when some batches fail
    (``post_json`` retries a transient cause once), ServiceUnreachable when
    all of them do, and DimensionMismatch, after all batches and without a
    retry, when the service returns vectors of an unexpected dimension.
    """
    if not texts:
        raise ValueError("texts must be non-empty")

    tok = tokenizer or TokenizerConfig()
    oversize = [i for i, t in enumerate(texts) if token_count(t, tok) > config.em_token_limit]
    if oversize:
        logger.warning(
            "%d of %d inputs exceed the embedding token limit (%d); "
            "they will be sent anyway and may lose precision",
            len(oversize),
            len(texts),
            config.em_token_limit,
        )

    batches = [
        texts[i : i + config.batch_size] for i in range(0, len(texts), config.batch_size)
    ]
    results: list[list[EmbeddingVector] | None] = [None] * len(batches)
    errors: dict[int, ServiceUnreachable] = {}

    def collect(i: int, call) -> None:
        try:
            results[i] = call()
        except ServiceUnreachable as exc:
            errors[i] = exc

    if len(batches) == 1:  # a lone batch, as in every query, starts no worker thread
        collect(0, lambda: _post_batch(config, batches[0]))
    else:
        with ThreadPoolExecutor(max_workers=config.max_parallel_requests) as pool:
            futures = [pool.submit(_post_batch, config, batch) for batch in batches]
            for i, fut in enumerate(futures):
                collect(i, fut.result)

    if errors:
        if len(errors) == len(batches):
            raise ServiceUnreachable(
                f"all {len(batches)} embedding batches failed: {next(iter(errors.values()))}"
            )
        failed_inputs = []
        for i in sorted(errors):
            start = i * config.batch_size
            failed_inputs.extend(range(start, min(start + config.batch_size, len(texts))))
        raise PartialFailure(
            f"{len(errors)} of {len(batches)} embedding batches failed", failed_inputs
        )

    vectors = [v for batch in results for v in batch]  # type: ignore[union-attr]
    for i, vec in enumerate(vectors):
        if vec.dim != config.expected_dim:
            raise DimensionMismatch(
                f"service returned dimension {vec.dim} for input {i}, "
                f"expected {config.expected_dim} (misconfigured model?)"
            )
    return vectors
