"""Engine configuration: one JSON document configures every module.

The config file (conventionally ``engine.conf``) is plain JSON. A minimal
file only needs the two service endpoints; everything else has defaults:

    {
      "embedding": {"endpoint_url": "http://127.0.0.1:8810/embeddings"},
      "chat": {"endpoint_url": "http://127.0.0.1:8820/chat"}
    }

Environment variables LITRAG_EMBEDDING_URL, LITRAG_CHAT_URL and
LITRAG_TOKENIZER_URL override the corresponding endpoint URLs (and only
those); a tokenizer URL from the environment also selects the external
tokenizer, whatever mode the file names. A config's advisories are
non-fatal notes derived from its split parameters: the chunk overlap falls
outside 20-40% of the chunk size, the operating range that keeps retrieval
quality stable. Loading logs each one.

Loading checks each value against its field's type first (an integer field
takes neither a bool nor a float), then builds the section, whose own checks
refuse a value out of range. Either failure is a ValidationError naming the
section ("config" for the top-level keys).
"""

from __future__ import annotations

import inspect
import json
import logging
import math
import os
import types
import typing
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from .embedding import EmbeddingConfig, TokenizerConfig, check_endpoint_url
from .errors import InvalidParams, ParseError, ValidationError
from .ingest import SplitParams
from .store import Metric, MMRParams

logger = logging.getLogger(__name__)

ENV_EMBEDDING_URL = "LITRAG_EMBEDDING_URL"
ENV_CHAT_URL = "LITRAG_CHAT_URL"
ENV_TOKENIZER_URL = "LITRAG_TOKENIZER_URL"

OVERLAP_RATIO_LOW = 0.20
OVERLAP_RATIO_HIGH = 0.40

MODES = ("mode1", "mode2", "plain")


@dataclass(frozen=True)
class ChatConfig:
    endpoint_url: str
    model_name: str = "llama-2-7b-chat"
    llm_token_limit: int = 4096
    temperature: float = 0.1
    reserved_for_answer: int = 1024

    def __post_init__(self):
        check_endpoint_url(self.endpoint_url, "endpoint_url")
        if self.llm_token_limit <= 0:
            raise InvalidParams("llm_token_limit must be positive")
        if not (0 <= self.temperature < math.inf):
            raise InvalidParams(f"temperature must be finite and >= 0, got {self.temperature}")
        if not (0 <= self.reserved_for_answer < self.llm_token_limit):
            raise InvalidParams("reserved_for_answer must be in [0, llm_token_limit)")


@dataclass(frozen=True)
class RetrievalConfig(MMRParams):
    """MMR's parameters with the engine's defaults, and whether to use MMR
    at all (best-first ``top_k`` under ``sim1`` when not)."""

    lambda_: float = 0.7
    k: int = 4
    use_mmr: bool = True

    def _check_pool(self) -> None:
        if self.use_mmr:  # best-first retrieval never reads fetch_n
            super()._check_pool()


@dataclass(frozen=True)
class EngineConfig:
    embedding: EmbeddingConfig
    chat: ChatConfig
    tokenizer: TokenizerConfig = TokenizerConfig()
    split: SplitParams = SplitParams(chunk_size=700, chunk_overlap=200)
    retrieval: RetrievalConfig = RetrievalConfig()
    store_path: str = "./kb"
    template_name: str = "custom_citation"
    mode: str = "mode2"

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidParams(f"mode must be one of {MODES}, got {self.mode!r}")
        if "\0" in self.store_path:  # no file system takes it in a path
            raise InvalidParams(f"store_path must not hold a NUL, got {self.store_path!r}")

    @property
    def advisories(self) -> tuple[str, ...]:
        ratio = self.split.chunk_overlap / self.split.chunk_size
        if OVERLAP_RATIO_LOW <= ratio <= OVERLAP_RATIO_HIGH:
            return ()
        return (
            f"split.chunk_overlap is {ratio:.0%} of chunk_size; the recommended "
            f"operating range is {OVERLAP_RATIO_LOW:.0%} to {OVERLAP_RATIO_HIGH:.0%}",
        )


def default_config(embedding_url: str, chat_url: str, **overrides) -> EngineConfig:
    """An EngineConfig with every default applied."""
    cfg = EngineConfig(
        embedding=EmbeddingConfig(endpoint_url=embedding_url),
        chat=ChatConfig(endpoint_url=chat_url),
    )
    return replace(cfg, **overrides)


def _section(data: dict, name: str) -> dict:
    value = data.get(name, {})
    if not isinstance(value, dict):
        raise ValidationError(name, f"must be an object, got {type(value).__name__}")
    return dict(value)


_EXPECTED = {
    int: "an integer",
    float: "a number",
    bool: "true or false",
    str: "a string",
    Metric: 'a metric spec string, e.g. "cosine" or "minkowski:3"',
}


def _typed(section: str, key: str, value, hint):
    """``value`` as the config field ``key``, of type ``hint``, takes it:
    a list of strings as a tuple, a metric spec string as a Metric. A value
    of any other type is refused here; its range is the dataclass's check."""
    if isinstance(hint, types.UnionType):  # X | None
        if value is None:
            return None
        (hint,) = set(typing.get_args(hint)) - {type(None)}
    if typing.get_origin(hint) is tuple:  # tuple[str, ...]
        if isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value):
            return tuple(value)
        raise ValidationError(section, f"{key} must be a list of strings, got {value!r}")
    if hint is Metric and isinstance(value, str):
        return Metric.parse(value)
    # a bool is an int to isinstance, and an int is a number to a float field
    if isinstance(value, (int, float) if hint is float else hint) and (
        hint is bool or not isinstance(value, bool)
    ):
        return value
    expected = _EXPECTED.get(hint, hint.__name__)
    raise ValidationError(section, f"{key} must be {expected}, got {value!r}")


def _build(section: str, cls, kwargs: dict):
    """``cls(**kwargs)`` for a config dataclass ``cls``; a key it does not
    take or a field it needs and lacks is told apart from a value of the
    wrong type, and both from one its check refuses."""
    try:
        inspect.signature(cls).bind(**kwargs)
    except TypeError as exc:
        raise ValidationError(section, f"unknown or missing field ({exc})") from exc
    hints = typing.get_type_hints(cls)
    try:  # a metric spec is parsed as it is typed
        return cls(**{key: _typed(section, key, value, hints[key]) for key, value in kwargs.items()})
    except InvalidParams as exc:
        raise ValidationError(section, str(exc)) from exc


def config_from_dict(data: dict, env: dict | None = None) -> EngineConfig:
    """Build a validated EngineConfig from parsed JSON data."""
    env = os.environ if env is None else env

    emb = _section(data, "embedding")
    if env.get(ENV_EMBEDDING_URL):
        emb["endpoint_url"] = env[ENV_EMBEDDING_URL]
    if "endpoint_url" not in emb:
        raise ValidationError("embedding.endpoint_url", "required (or set LITRAG_EMBEDDING_URL)")

    chat = _section(data, "chat")
    if env.get(ENV_CHAT_URL):
        chat["endpoint_url"] = env[ENV_CHAT_URL]
    if "endpoint_url" not in chat:
        raise ValidationError("chat.endpoint_url", "required (or set LITRAG_CHAT_URL)")

    tok = _section(data, "tokenizer")
    if env.get(ENV_TOKENIZER_URL):
        tok["external_url"] = env[ENV_TOKENIZER_URL]
        tok["mode"] = "external"

    retrieval = _section(data, "retrieval")
    mmr = retrieval.pop("mmr", {})
    if not isinstance(mmr, dict):
        raise ValidationError("retrieval.mmr", "must be an object")
    for name in ("lambda", "fetch_n", "sim1", "sim2"):
        if name in mmr:
            retrieval["lambda_" if name == "lambda" else name] = mmr.pop(name)
    if mmr:
        raise ValidationError("retrieval.mmr", f"unknown fields: {sorted(mmr)}")

    sections = {
        "embedding": _build("embedding", EmbeddingConfig, emb),
        "chat": _build("chat", ChatConfig, chat),
        "tokenizer": _build("tokenizer", TokenizerConfig, tok),
        "split": _build("split", SplitParams, {**vars(EngineConfig.split), **_section(data, "split")}),
        "retrieval": _build("retrieval", RetrievalConfig, retrieval),
    }
    top = {key: data[key] for key in ("store_path", "template_name", "mode") if key in data}
    cfg = _build("config", EngineConfig, {**sections, **top})
    for advisory in cfg.advisories:
        logger.warning("config advisory: %s", advisory)
    return cfg


def config_to_dict(cfg: EngineConfig) -> dict:
    return {
        "embedding": asdict(cfg.embedding),
        "chat": asdict(cfg.chat),
        "tokenizer": asdict(cfg.tokenizer),
        "split": {**asdict(cfg.split), "separators": list(cfg.split.separators)},
        "retrieval": {
            "k": cfg.retrieval.k,
            "use_mmr": cfg.retrieval.use_mmr,
            "mmr": {
                "lambda": cfg.retrieval.lambda_,
                "fetch_n": cfg.retrieval.fetch_n,
                "sim1": cfg.retrieval.sim1.spec(),
                "sim2": cfg.retrieval.sim2.spec(),
            },
        },
        "store_path": cfg.store_path,
        "template_name": cfg.template_name,
        "mode": cfg.mode,
    }


def load_config(path: str | Path, env: dict | None = None) -> EngineConfig:
    """Load and validate the engine config file at ``path``."""
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"config file {path} must hold a JSON object")
    return config_from_dict(data, env=env)


def save_config(cfg: EngineConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(cfg), indent=2) + "\n", encoding="utf-8")
