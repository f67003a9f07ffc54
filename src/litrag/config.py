"""Engine configuration: one JSON document configures every module.

The config file (conventionally ``engine.conf``) is plain JSON. A minimal
file only needs the two service endpoints; everything else has defaults:

    {
      "embedding": {"endpoint_url": "http://127.0.0.1:8810/embeddings"},
      "chat": {"endpoint_url": "http://127.0.0.1:8820/chat"}
    }

Environment variables LITRAG_EMBEDDING_URL, LITRAG_CHAT_URL and
LITRAG_TOKENIZER_URL override the corresponding endpoint URLs (and only
those). Loading collects non-fatal advisories, e.g. when the chunk overlap
falls outside 20-40% of the chunk size, the operating range that keeps
retrieval quality stable.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .embedding import EmbeddingConfig, TokenizerConfig, check_endpoint_url
from .errors import InvalidLambda, InvalidParams, ParseError, ValidationError
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
            raise ValueError("llm_token_limit must be positive")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if not (0 <= self.reserved_for_answer < self.llm_token_limit):
            raise ValueError("reserved_for_answer must be in [0, llm_token_limit)")


@dataclass(frozen=True)
class RetrievalConfig:
    k: int = 4
    use_mmr: bool = True
    lambda_: float = 0.7
    fetch_n: int | None = None
    sim1: Metric = Metric("cosine")
    sim2: Metric = Metric("cosine")

    def __post_init__(self):
        self.mmr_params()  # MMRParams validates k, lambda_ and fetch_n

    def mmr_params(self, k: int | None = None) -> MMRParams:
        return MMRParams(
            lambda_=self.lambda_,
            k=k if k is not None else self.k,
            fetch_n=self.fetch_n,
            sim1=self.sim1,
            sim2=self.sim2,
        )


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
    advisories: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


def default_config(embedding_url: str, chat_url: str, **overrides) -> EngineConfig:
    """An EngineConfig with every default applied."""
    cfg = EngineConfig(
        embedding=EmbeddingConfig(endpoint_url=embedding_url),
        chat=ChatConfig(endpoint_url=chat_url),
    )
    cfg = replace(cfg, **overrides) if overrides else cfg
    return replace(cfg, advisories=tuple(compute_advisories(cfg)))


def compute_advisories(cfg: EngineConfig) -> list[str]:
    advisories = []
    ratio = cfg.split.chunk_overlap / cfg.split.chunk_size
    if not (OVERLAP_RATIO_LOW <= ratio <= OVERLAP_RATIO_HIGH):
        advisories.append(
            f"split.chunk_overlap is {ratio:.0%} of chunk_size; the recommended "
            f"operating range is {OVERLAP_RATIO_LOW:.0%} to {OVERLAP_RATIO_HIGH:.0%}"
        )
    return advisories


def _section(data: dict, name: str) -> dict:
    value = data.get(name, {})
    if not isinstance(value, dict):
        raise ValidationError(name, f"must be an object, got {type(value).__name__}")
    return dict(value)


def _build(section: str, factory, kwargs: dict):
    try:
        return factory(**kwargs)
    except (TypeError,) as exc:
        raise ValidationError(section, f"unknown or missing field ({exc})") from exc
    except (ValueError, InvalidParams, InvalidLambda) as exc:
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
        tok.setdefault("mode", "external")

    split = _section(data, "split")
    split.setdefault("chunk_size", 700)
    split.setdefault("chunk_overlap", 200)
    if "separators" in split:
        split["separators"] = tuple(split["separators"])

    retrieval = _section(data, "retrieval")
    mmr = retrieval.pop("mmr", {})
    if not isinstance(mmr, dict):
        raise ValidationError("retrieval.mmr", "must be an object")
    if "lambda" in mmr:
        retrieval["lambda_"] = mmr.pop("lambda")
    if "fetch_n" in mmr:
        retrieval["fetch_n"] = mmr.pop("fetch_n")
    for key in ("sim1", "sim2"):
        if key in mmr:
            try:
                retrieval[key] = Metric.parse(mmr.pop(key))
            except ValueError as exc:
                raise ValidationError(f"retrieval.mmr.{key}", str(exc)) from exc
    if mmr:
        raise ValidationError("retrieval.mmr", f"unknown fields: {sorted(mmr)}")

    try:
        cfg = EngineConfig(
            embedding=_build("embedding", EmbeddingConfig, emb),
            chat=_build("chat", ChatConfig, chat),
            tokenizer=_build("tokenizer", TokenizerConfig, tok),
            split=_build("split", SplitParams, split),
            retrieval=_build("retrieval", RetrievalConfig, retrieval),
            store_path=str(data.get("store_path", "./kb")),
            template_name=str(data.get("template_name", "custom_citation")),
            mode=str(data.get("mode", "mode2")),
        )
    except ValueError as exc:
        raise ValidationError("mode", str(exc)) from exc
    advisories = compute_advisories(cfg)
    for advisory in advisories:
        logger.warning("config advisory: %s", advisory)
    return replace(cfg, advisories=tuple(advisories))


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
