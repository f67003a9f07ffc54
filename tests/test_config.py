import json
from dataclasses import replace

import pytest

from litrag.config import (
    config_from_dict,
    config_to_dict,
    default_config,
    load_config,
)
from litrag.errors import ParseError, ValidationError
from litrag.ingest import SplitParams
from litrag.store import Metric

MINIMAL = {
    "embedding": {"endpoint_url": "http://127.0.0.1:8810/embeddings"},
    "chat": {"endpoint_url": "http://127.0.0.1:8820/chat"},
}


def _write(tmp_path, data):
    path = tmp_path / "engine.conf"
    path.write_text(json.dumps(data))
    return path


def test_minimal_file_gets_all_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, MINIMAL), env={})

    assert cfg.split.chunk_size == 700
    assert cfg.split.chunk_overlap == 200
    assert cfg.retrieval.k == 4
    assert cfg.retrieval.use_mmr is True
    assert cfg.retrieval.lambda_ == 0.7
    assert cfg.retrieval.sim1 == Metric.cosine()
    assert cfg.chat.temperature == 0.1
    assert cfg.chat.llm_token_limit == 4096
    assert cfg.chat.reserved_for_answer == 1024
    assert cfg.embedding.expected_dim == 768
    assert cfg.embedding.em_token_limit == 768
    assert cfg.embedding.model_name == "bge-base-en-v1.5"
    assert cfg.tokenizer.mode == "heuristic"
    assert cfg.tokenizer.chars_per_token == 4.0
    assert cfg.template_name == "custom_citation"
    assert cfg.mode == "mode2"
    assert cfg.advisories == ()  # 200/700 is inside the 20-40% band


def test_low_overlap_ratio_collects_advisory(tmp_path):
    data = dict(MINIMAL)
    data["split"] = {"chunk_size": 1000, "chunk_overlap": 100}
    cfg = load_config(_write(tmp_path, data), env={})
    assert len(cfg.advisories) == 1
    assert "20%" in cfg.advisories[0] and "40%" in cfg.advisories[0]


def test_overlap_in_band_silent(tmp_path):
    data = dict(MINIMAL)
    data["split"] = {"chunk_size": 1000, "chunk_overlap": 350}
    cfg = load_config(_write(tmp_path, data), env={})
    assert cfg.advisories == ()


def test_advisories_follow_the_split_under_replace():
    cfg = default_config("http://e/", "http://c/")
    assert cfg.advisories == ()
    # the sweep builds each row's config this way: 10% overlap is outside the band
    swept = replace(cfg, split=SplitParams(chunk_size=1000, chunk_overlap=100))
    assert len(swept.advisories) == 1 and "10%" in swept.advisories[0]
    assert replace(swept, split=cfg.split).advisories == ()


def test_overlap_not_below_size_rejected(tmp_path):
    data = dict(MINIMAL)
    data["split"] = {"chunk_size": 500, "chunk_overlap": 500}
    with pytest.raises(ValidationError) as err:
        load_config(_write(tmp_path, data), env={})
    assert err.value.field.startswith("split")


def test_missing_endpoints_rejected(tmp_path):
    with pytest.raises(ValidationError) as err:
        load_config(_write(tmp_path, {"chat": {"endpoint_url": "http://c"}}), env={})
    assert "embedding.endpoint_url" in str(err.value)


def test_env_overrides_endpoints_only(tmp_path):
    env = {
        "LITRAG_EMBEDDING_URL": "http://env-embed/",
        "LITRAG_CHAT_URL": "http://env-chat/",
    }
    cfg = load_config(_write(tmp_path, MINIMAL), env=env)
    assert cfg.embedding.endpoint_url == "http://env-embed/"
    assert cfg.chat.endpoint_url == "http://env-chat/"
    # nothing else picked up from env
    assert cfg.embedding.model_name == "bge-base-en-v1.5"


def test_env_provides_missing_endpoint(tmp_path):
    env = {"LITRAG_EMBEDDING_URL": "http://env-embed/", "LITRAG_CHAT_URL": "http://env-chat/"}
    cfg = load_config(_write(tmp_path, {}), env=env)
    assert cfg.embedding.endpoint_url == "http://env-embed/"


def test_parse_error_on_bad_json(tmp_path):
    path = tmp_path / "engine.conf"
    path.write_text("{nope")
    with pytest.raises(ParseError):
        load_config(path)
    with pytest.raises(ParseError):
        load_config(tmp_path / "missing.conf")


def test_validation_error_paths(tmp_path):
    data = dict(MINIMAL)
    data["retrieval"] = {"k": 0}
    with pytest.raises(ValidationError) as err:
        load_config(_write(tmp_path, data), env={})
    assert err.value.field == "retrieval"

    for retrieval, message in [
        ({"mmr": {"lambda": 1.5}}, "lambda must be within [0, 1], got 1.5"),
        ({"k": 0}, "k must be positive"),
        ({"k": 4, "mmr": {"fetch_n": 3}}, "fetch_n must be >= k"),
    ]:
        data = dict(MINIMAL)
        data["retrieval"] = retrieval
        with pytest.raises(ValidationError) as err:
            load_config(_write(tmp_path, data), env={})
        assert err.value.field == "retrieval"
        assert str(err.value) == f"retrieval: {message}"

    data = dict(MINIMAL)
    data["retrieval"] = {"mmr": {"bogus_field": 1}}
    with pytest.raises(ValidationError) as err:
        load_config(_write(tmp_path, data), env={})
    assert "bogus_field" in str(err.value)

    data = dict(MINIMAL)
    data["embedding"] = {"endpoint_url": "http://e", "mystery": 3}
    with pytest.raises(ValidationError):
        load_config(_write(tmp_path, data), env={})


@pytest.mark.parametrize(
    "section, fields",
    [("split", {"chunk_size": "900"}), ("retrieval", {"k": "4"})],
)
def test_a_mistyped_value_is_not_an_unknown_field(section, fields):
    with pytest.raises(ValidationError) as err:
        config_from_dict({**MINIMAL, section: fields}, env={})
    assert err.value.field == section
    assert "unknown or missing field" not in str(err.value)


def test_an_unknown_key_is_an_unknown_field():
    with pytest.raises(ValidationError) as err:
        config_from_dict({**MINIMAL, "split": {"bogus": 1}}, env={})
    assert err.value.field == "split"
    assert "unknown or missing field" in str(err.value)
    assert "bogus" in str(err.value)


def test_save_load_round_trip(tmp_path):
    data = {
        "embedding": {"endpoint_url": "http://e/", "expected_dim": 48, "batch_size": 7},
        "chat": {"endpoint_url": "http://c/", "temperature": 0.25},
        "split": {"chunk_size": 900, "chunk_overlap": 300},
        "retrieval": {"k": 6, "use_mmr": False, "mmr": {"lambda": 0.4, "sim1": "minkowski:3"}},
        "store_path": "/data/kb",
        "template_name": "qa_context",
        "mode": "mode1",
    }
    cfg = load_config(_write(tmp_path, data), env={})
    out = tmp_path / "saved.conf"
    out.write_text(json.dumps(config_to_dict(cfg)))
    reloaded = load_config(out, env={})
    assert reloaded == cfg
    assert reloaded.retrieval.sim1 == Metric.minkowski(3)


def test_round_trip_of_defaults(tmp_path):
    cfg = default_config("http://e/", "http://c/")
    out = tmp_path / "d.conf"
    out.write_text(json.dumps(config_to_dict(cfg)))
    assert load_config(out, env={}) == cfg


def test_config_dict_form_is_json_stable():
    cfg = default_config("http://e/", "http://c/")
    d = config_to_dict(cfg)
    assert config_from_dict(json.loads(json.dumps(d)), env={}) == cfg


NON_DEFAULT = {
    "embedding": {"endpoint_url": "http://e/", "expected_dim": 48, "batch_size": 7, "model_name": "m"},
    "chat": {
        "endpoint_url": "http://c/",
        "temperature": 0.25,
        "llm_token_limit": 2048,
        "reserved_for_answer": 512,
    },
    "tokenizer": {"mode": "external", "external_url": "http://t/count", "chars_per_token": 3.5},
    "split": {"chunk_size": 900, "chunk_overlap": 300, "separators": ["\n\n", "; ", ""]},
    "retrieval": {"k": 6, "use_mmr": False, "mmr": {"lambda": 0.4, "fetch_n": 30, "sim1": "minkowski:3"}},
    "store_path": "/data/kb",
    "template_name": "qa_context",
    "mode": "mode1",
}


@pytest.mark.parametrize(
    "cfg, expected",
    [
        (
            default_config("http://e/", "http://c/"),
            {
                "embedding": {
                    "endpoint_url": "http://e/",
                    "model_name": "bge-base-en-v1.5",
                    "expected_dim": 768,
                    "em_token_limit": 768,
                    "batch_size": 32,
                    "max_parallel_requests": 4,
                },
                "chat": {
                    "endpoint_url": "http://c/",
                    "model_name": "llama-2-7b-chat",
                    "llm_token_limit": 4096,
                    "temperature": 0.1,
                    "reserved_for_answer": 1024,
                },
                "tokenizer": {"mode": "heuristic", "chars_per_token": 4.0, "external_url": None},
                "split": {"chunk_size": 700, "chunk_overlap": 200, "separators": ["\n\n", "\n", ". ", " ", ""]},
                "retrieval": {
                    "k": 4,
                    "use_mmr": True,
                    "mmr": {"lambda": 0.7, "fetch_n": None, "sim1": "cosine", "sim2": "cosine"},
                },
                "store_path": "./kb",
                "template_name": "custom_citation",
                "mode": "mode2",
            },
        ),
        (
            config_from_dict(NON_DEFAULT, env={}),
            {
                "embedding": {
                    "endpoint_url": "http://e/",
                    "model_name": "m",
                    "expected_dim": 48,
                    "em_token_limit": 768,
                    "batch_size": 7,
                    "max_parallel_requests": 4,
                },
                "chat": {
                    "endpoint_url": "http://c/",
                    "model_name": "llama-2-7b-chat",
                    "llm_token_limit": 2048,
                    "temperature": 0.25,
                    "reserved_for_answer": 512,
                },
                "tokenizer": {"mode": "external", "chars_per_token": 3.5, "external_url": "http://t/count"},
                "split": {"chunk_size": 900, "chunk_overlap": 300, "separators": ["\n\n", "; ", ""]},
                "retrieval": {
                    "k": 6,
                    "use_mmr": False,
                    "mmr": {"lambda": 0.4, "fetch_n": 30, "sim1": "minkowski:3", "sim2": "cosine"},
                },
                "store_path": "/data/kb",
                "template_name": "qa_context",
                "mode": "mode1",
            },
        ),
    ],
    ids=["defaults", "non-default"],
)
def test_config_dict_form_is_the_saved_file_layout(cfg, expected):
    # the JSON text, so key order (the saved file's layout) is checked too
    assert json.dumps(config_to_dict(cfg)) == json.dumps(expected)


def test_bad_mode_rejected():
    with pytest.raises(ValidationError):
        config_from_dict({**MINIMAL, "mode": "mode3"}, env={})


def test_separators_preserved(tmp_path):
    data = dict(MINIMAL)
    data["split"] = {"chunk_size": 400, "chunk_overlap": 100, "separators": ["\n", " ", ""]}
    cfg = load_config(_write(tmp_path, data), env={})
    assert cfg.split.separators == ("\n", " ", "")
    (tmp_path / "s.conf").write_text(json.dumps(config_to_dict(cfg)))
    assert load_config(tmp_path / "s.conf", env={}).split.separators == ("\n", " ", "")


ENDPOINT_FIELDS = [
    ("embedding", "endpoint_url", "LITRAG_EMBEDDING_URL"),
    ("chat", "endpoint_url", "LITRAG_CHAT_URL"),
    ("tokenizer", "external_url", "LITRAG_TOKENIZER_URL"),
]


@pytest.mark.parametrize("section, key, env_name", ENDPOINT_FIELDS)
@pytest.mark.parametrize(
    "url", ["localhost:8810/embeddings", "ftp://h/x", "http:///x", "", "http://h:port/x"]
)
def test_malformed_endpoint_url_rejected(tmp_path, section, key, env_name, url):
    data = json.loads(json.dumps(MINIMAL))
    data[section] = {key: url, **({"mode": "external"} if section == "tokenizer" else {})}
    with pytest.raises(ValidationError) as err:
        load_config(_write(tmp_path, data), env={})
    assert err.value.field == section
    if url:  # an empty override is not applied
        with pytest.raises(ValidationError) as err:
            load_config(_write(tmp_path, MINIMAL), env={env_name: url})
        assert err.value.field == section


@pytest.mark.parametrize("section, key, env_name", ENDPOINT_FIELDS)
@pytest.mark.parametrize("url", ["http://x", "http://127.0.0.1:1/none", "https://[::1]:8443/v1?a=b"])
def test_well_formed_endpoint_url_accepted(tmp_path, section, key, env_name, url):
    cfg = load_config(_write(tmp_path, MINIMAL), env={env_name: url})
    assert config_to_dict(cfg)[section][key] == url


def test_environment_tokenizer_url_selects_the_external_tokenizer(tmp_path):
    data = {**MINIMAL, "tokenizer": {"mode": "heuristic", "chars_per_token": 3.0}}
    cfg = load_config(_write(tmp_path, data), env={"LITRAG_TOKENIZER_URL": "http://tok:9/"})
    assert cfg.tokenizer.mode == "external"
    assert cfg.tokenizer.external_url == "http://tok:9/"
    assert cfg.tokenizer.chars_per_token == 3.0
    # without the variable the file's mode stands
    assert load_config(_write(tmp_path, data), env={}).tokenizer.mode == "heuristic"
