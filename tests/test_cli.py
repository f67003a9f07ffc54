import csv
import json
import math
import os
import shutil
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from litrag.chain import BUILTIN_TEMPLATES
from litrag.cli import main
from litrag.config import config_to_dict, default_config
from litrag.harness import cluster_stats
from litrag.kb import build_knowledge_base
from litrag.store import Metric, VectorStore
from litrag.testing import (
    FABRICATED_CITATION,
    StubChatService,
    StubEmbeddingService,
    echo_citations_responder,
    make_corpus,
    question_for,
)

DIM = 32


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus_dir = root / "corpus"
    truths = make_corpus(corpus_dir, n_docs=4, seed=31, paragraphs_per_doc=12)
    store_root = root / "kb"

    embed = StubEmbeddingService(dim=DIM)
    cfg = default_config(embed.url, "http://unused.invalid/")
    cfg = replace(
        cfg,
        embedding=replace(cfg.embedding, expected_dim=DIM, batch_size=128),
        store_path=str(store_root),
    )
    report = build_knowledge_base(corpus_dir, cfg)
    assert report.failures == []

    yield {
        "root": root,
        "corpus_dir": corpus_dir,
        "store_root": store_root,
        "truths": truths,
        "embed": embed,
    }
    embed.close()


def _write_config(cli_env, chat_url, **overrides):
    cfg = default_config(cli_env["embed"].url, chat_url)
    overrides.setdefault("store_path", str(cli_env["store_root"]))
    cfg = replace(
        cfg,
        embedding=replace(cfg.embedding, expected_dim=DIM, batch_size=128),
        **overrides,
    )
    path = cli_env["root"] / "engine.conf"
    path.write_text(json.dumps(config_to_dict(cfg)))
    return str(path)


# --- usage errors -------------------------------------------------------------


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 64
    assert "usage error" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["tokens", "--bogus-flag", "1"]) == 64


def test_query_k_zero_is_usage_error(cli_env, capsys):
    with StubChatService() as chat:
        config = _write_config(cli_env, chat.url)
        code = main(["--config", config, "query", "--question", "q", "--k", "0"])
    assert code == 64


def test_query_k_above_the_mmr_pool_is_usage_error(cli_env, tmp_path, capsys):
    # the store path does not exist: the --k is refused before the KB is opened
    sent = len(cli_env["embed"].requests)
    with StubChatService() as chat:
        cfg = default_config(cli_env["embed"].url, chat.url)
        config = _write_config(
            cli_env,
            chat.url,
            retrieval=replace(cfg.retrieval, fetch_n=10),
            store_path=str(tmp_path / "no-kb"),
        )
        code = main(["--config", config, "query", "--question", "q", "--k", "12"])
        assert chat.requests == []
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert captured.err == "usage error: --k 12: fetch_n must be >= k\n"
    assert len(cli_env["embed"].requests) == sent


def test_missing_config_is_runtime_error(capsys, tmp_path):
    code = main(["--config", str(tmp_path / "none.conf"), "tokens"])
    assert code == 1
    assert "error" in capsys.readouterr().err


# an over-large number written as JSON text: it parses to inf
OVERSIZE = "__1e400__"


def _write_config_with(cli_env, chat_url, field, value, **overrides):
    """The ``_write_config`` file with the value at the key path ``field`` replaced."""
    path = Path(_write_config(cli_env, chat_url, **overrides))
    data = json.loads(path.read_text())
    *parents, last = field
    node = data
    for key in parents:
        node = node[key]
    node[last] = value
    path.write_text(json.dumps(data).replace(f'"{OVERSIZE}"', "1e400"))
    return str(path)


@pytest.mark.parametrize(
    "field, value",
    [
        (("retrieval", "k"), 2.5),
        (("retrieval", "k"), True),
        (("retrieval", "use_mmr"), 0),
        (("retrieval", "mmr", "fetch_n"), 10.5),
        (("retrieval", "mmr", "sim1"), 5),
        (("embedding", "batch_size"), 2.5),
        (("embedding", "expected_dim"), 32.0),
        (("embedding", "max_parallel_requests"), 33),
        (("split", "separators"), ["\n", 5, ""]),
        (("tokenizer", "chars_per_token"), math.nan),
        (("chat", "temperature"), OVERSIZE),
        (("store_path",), "kb\u0000x"),
    ],
    ids=lambda v: ".".join(v) if isinstance(v, tuple) else repr(v),
)
def test_a_bad_config_value_is_a_runtime_error_for_every_command(cli_env, tmp_path, capsys, field, value):
    with StubChatService() as chat:
        config = _write_config_with(cli_env, chat.url, field, value, store_path=str(tmp_path / "kb"))
        for args in (["ingest", "--dir", str(cli_env["corpus_dir"])], ["query", "--question", "q"], ["stats"]):
            assert main(["--config", config, *args]) == 1, args
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {field[0] if len(field) > 1 else 'config'}: ")
            assert captured.err.count("\n") == 1, captured.err
        assert chat.requests == []
    assert not (tmp_path / "kb").exists()


@pytest.mark.parametrize("temperature", ["nan", "inf"])
def test_query_bad_temperature_is_usage_error(cli_env, tmp_path, capsys, temperature):
    # the store path does not exist: the flag is refused before the KB is opened
    with StubChatService() as chat:
        config = _write_config(cli_env, chat.url, store_path=str(tmp_path / "no-kb"))
        code = main(["--config", config, "query", "--question", "q", "--temperature", temperature])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert captured.err == f"usage error: temperature must be finite and >= 0, got {float(temperature)}\n"


# --- ingest -----------------------------------------------------------------------


def test_ingest_happy_path(cli_env, tmp_path, capsys):
    with StubChatService() as chat:
        config = _write_config(cli_env, chat.url, store_path=str(tmp_path / "kb2"))
        code = main(["--config", config, "ingest", "--dir", str(cli_env["corpus_dir"])])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["document_count"] == 4
    assert report["failures"] == []


def test_ingest_missing_dir(cli_env, tmp_path, capsys):
    with StubChatService() as chat:
        config = _write_config(cli_env, chat.url, store_path=str(tmp_path / "kb3"))
        code = main(["--config", config, "ingest", "--dir", str(tmp_path / "missing")])
    assert code == 1
    assert capsys.readouterr().err


def test_ingest_partial_failure_exits_one_with_its_report(cli_env, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    make_corpus(corpus, n_docs=2, seed=5, paragraphs_per_doc=6)
    (corpus / "broken.txt").write_bytes(b"\xff\xfe broken")
    with StubChatService() as chat:
        config = _write_config(cli_env, chat.url, store_path=str(tmp_path / "kb4"))
        code = main(["--config", config, "ingest", "--dir", str(corpus)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert len(out["failures"]) == 1
    assert out["document_count"] == 2


# --- query --------------------------------------------------------------------------


def test_query_clean_answer_exits_zero(cli_env, capsys):
    question = question_for(cli_env["truths"]["paper-00"])
    with StubChatService(echo_citations_responder()) as chat:
        config = _write_config(cli_env, chat.url)
        code = main(["--config", config, "query", "--question", question])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["verification"]["pass"] is True
    assert out["retrieved"]
    assert out["citation_list"]
    assert out["answer_text"]


def test_query_fabrication_exits_two(cli_env, capsys):
    question = question_for(cli_env["truths"]["paper-01"])
    with StubChatService(echo_citations_responder(fabricate=FABRICATED_CITATION)) as chat:
        config = _write_config(cli_env, chat.url)
        code = main(["--config", config, "query", "--question", question])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    flagged = out["verification"]["flagged"]
    assert len(flagged) == 1
    assert flagged[0]["reason"] == "not_in_list"


def test_query_no_verify_gates_exit_only(cli_env, capsys):
    question = question_for(cli_env["truths"]["paper-01"])
    with StubChatService(echo_citations_responder(fabricate=FABRICATED_CITATION)) as chat:
        config = _write_config(cli_env, chat.url)
        code = main(["--config", config, "query", "--question", question, "--no-verify"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["verification"]["pass"] is False  # still computed and reported


def test_query_on_a_damaged_snapshot_is_a_runtime_error(cli_env, tmp_path, capsys):
    damages = {
        "truncated": lambda text: "{",
        "body a number": lambda text: json.dumps({**json.loads(text), "body": 5}),
    }
    question = question_for(cli_env["truths"]["paper-00"])
    for case, damage in damages.items():
        store_root = tmp_path / case
        shutil.copytree(cli_env["store_root"], store_root)
        for snapshot in (store_root / "docs").glob("*.json"):
            snapshot.write_text(damage(snapshot.read_text(encoding="utf-8")), encoding="utf-8")
        with StubChatService(echo_citations_responder()) as chat:
            config = _write_config(cli_env, chat.url, store_path=str(store_root))
            code = main(["--config", config, "query", "--question", question])
        err = capsys.readouterr().err
        assert code == 1, case
        assert "error:" in err and "damaged document snapshot" in err, case
        assert chat.requests == [], case


def test_query_mode_flag(cli_env, capsys):
    question = question_for(cli_env["truths"]["paper-02"])
    with StubChatService() as chat:
        config = _write_config(cli_env, chat.url)
        code = main(["--config", config, "query", "--question", question, "--mode", "plain"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["verification"] is None


def test_query_with_a_template_that_does_not_fit_the_mode_is_a_runtime_error(cli_env, capsys):
    question = question_for(cli_env["truths"]["paper-00"])
    sent = len(cli_env["embed"].requests)
    with StubChatService(echo_citations_responder()) as chat:
        config = _write_config(cli_env, chat.url)  # mode2, the default
        code = main(["--config", config, "query", "--question", question, "--template", "qa_context"])
        assert chat.requests == []
    err = capsys.readouterr().err
    assert code == 1
    assert "'qa_context'" in err and "{citation-list}" in err
    assert len(cli_env["embed"].requests) == sent


def test_query_temperature_flag_reaches_the_wire(cli_env, capsys):
    question = question_for(cli_env["truths"]["paper-02"])
    with StubChatService(echo_citations_responder()) as chat:
        config = _write_config(cli_env, chat.url)
        code = main(
            ["--config", config, "query", "--question", question, "--temperature", "0.7"]
        )
        assert chat.requests[0]["temperature"] == 0.7
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["temperature"] == 0.7
    assert main(["--config", config, "query", "--question", "q", "--temperature", "-1"]) == 64


# --- sweep / tokens -------------------------------------------------------------------


def test_sweep_overlap_axis_csv(cli_env, tmp_path, capsys):
    with StubChatService() as chat:
        config = _write_config(cli_env, chat.url)
        code = main(
            [
                "--config", config, "sweep",
                "--axis", "chunk_overlap",
                "--values", "0,175,350,525,700",
                "--fixed", "1000",
                "--dir", str(cli_env["corpus_dir"]),
                "--workdir", str(tmp_path / "sweeps"),
            ]
        )
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0][0] == "chunk_overlap"
    assert len(rows) == 6
    counts = [int(r[1]) for r in rows[1:]]
    assert counts == sorted(counts)


def _sweep_args(config, corpus_dir, workdir):
    return [
        "--config", config, "sweep",
        "--axis", "chunk_size",
        "--values", "900,1200",
        "--fixed", "200",
        "--format", "json",
        "--dir", str(corpus_dir),
        "--workdir", str(workdir),
    ]


def test_a_sweep_that_lost_a_document_exits_one_with_its_report(cli_env, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    make_corpus(corpus, n_docs=2, seed=5, paragraphs_per_doc=6)
    (corpus / "zz-broken.txt").write_bytes(b"\xff\xfe broken")
    with StubChatService() as chat:
        config = _write_config(cli_env, chat.url)
        code = main(_sweep_args(config, corpus, tmp_path / "sweeps"))
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert code == 1
    assert [(r["error"], r["failed_documents"]) for r in rows] == [(None, 1), (None, 1)]
    assert all(r["chunk_count"] > 0 for r in rows)


def test_a_sweep_over_a_missing_dir_exits_one_with_its_report(cli_env, tmp_path, capsys):
    with StubChatService() as chat:
        config = _write_config(cli_env, chat.url)
        code = main(_sweep_args(config, tmp_path / "missing", tmp_path / "sweeps"))
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert code == 1
    assert len(rows) == 2 and all(r["error"] for r in rows)


def test_sweep_bad_values_usage_error(cli_env, tmp_path):
    with StubChatService() as chat:
        config = _write_config(cli_env, chat.url)
        code = main(
            [
                "--config", config, "sweep",
                "--axis", "chunk_overlap",
                "--values", "0,abc",
                "--fixed", "1000",
                "--dir", str(cli_env["corpus_dir"]),
                "--workdir", str(tmp_path / "s"),
            ]
        )
    assert code == 64


def test_tokens_default_rows_include_study_row(cli_env, capsys):
    with StubChatService() as chat:
        config = _write_config(cli_env, chat.url)
        code = main(["--config", config, "tokens"])
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert any(r["chunk_size_chars"] == "700" and r["chunk_overlap_chars"] == "200" for r in rows)
    for row in rows:
        assert float(row["pct_of_llm_limit"]) >= 0


def test_tokens_explicit_rows(cli_env, capsys):
    with StubChatService() as chat:
        config = _write_config(cli_env, chat.url)
        code = main(["--config", config, "tokens", "--rows", "1600:500"])
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert code == 0
    assert len(rows) == 1
    assert rows[0]["tokens_per_chunk"] == "400"  # 1600 chars at 4 chars/token
    with StubChatService() as chat:
        config = _write_config(cli_env, chat.url)
        assert main(["--config", config, "tokens", "--rows=-700:-200"]) == 64
        assert main(["--config", config, "tokens", "--rows", "10000000000:0"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "may not exceed 1000000, got 10000000000" in captured.err


def test_csv_output_ends_lines_with_a_newline_alone(cli_env, tmp_path, capsys):
    with StubChatService() as chat:
        config = _write_config(cli_env, chat.url)
        out_path = tmp_path / "emb.csv"
        runs = [
            ["tokens"],
            ["sweep", "--axis", "chunk_size", "--values", "900", "--fixed", "200",
             "--format", "csv", "--dir", str(cli_env["corpus_dir"]),
             "--workdir", str(tmp_path / "sweeps")],
            ["export"],
            ["export", "--out", str(out_path)],
        ]
        for args in runs:
            assert main(["--config", config, *args]) == 0, args
            out = capsys.readouterr().out
            if "--out" not in args:
                assert "\r" not in out and out.endswith("\n"), args
    assert b"\r" not in out_path.read_bytes()


# --- verify ------------------------------------------------------------------------------


def test_verify_flags_fabricated_answer(cli_env, tmp_path, capsys):
    answer = tmp_path / "answer.txt"
    answer.write_text(
        "The study is summarized.\n\nReferences:\n" + FABRICATED_CITATION + "\n"
    )
    with StubChatService() as chat:
        config = _write_config(cli_env, chat.url)
        code = main(
            ["--config", config, "verify", "--answer-file", str(answer), "--doc-id", "paper-00"]
        )
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["pass"] is False


def test_verify_clean_answer(cli_env, tmp_path, capsys):
    truth = cli_env["truths"]["paper-00"]
    entry = truth.entries[0]
    answer = tmp_path / "answer.txt"
    answer.write_text(f"Findings hold.\n\nReferences:\n{entry.text}\n")
    with StubChatService() as chat:
        config = _write_config(cli_env, chat.url)
        code = main(
            ["--config", config, "verify", "--answer-file", str(answer), "--doc-id", "paper-00"]
        )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["pass"] is True
    assert len(out["verified"]) == 1


@pytest.mark.parametrize("answer", ["missing", "a directory", "not UTF-8"])
def test_verify_unreadable_answer_file_is_a_runtime_error(cli_env, tmp_path, capsys, answer):
    path = tmp_path / "answer.txt"
    if answer == "a directory":
        path.mkdir()
    elif answer == "not UTF-8":
        path.write_bytes(b"\xff\xfe References: [1]")
    with StubChatService() as chat:
        config = _write_config(cli_env, chat.url)
        code = main(["--config", config, "verify", "--answer-file", str(path), "--doc-id", "paper-00"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read answer file {path}: ")
    assert captured.err.count("\n") == 1


# --- stats / export -----------------------------------------------------------------------


def test_stats_json(cli_env, capsys):
    with StubChatService() as chat:
        config = _write_config(cli_env, chat.url)
        code = main(["--config", config, "stats", "--label-by", "doc_id"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert set(out["labels"]) == set(cli_env["truths"])
    assert out["mean_inter_centroid_distance"] > 0


def test_stats_with_centroids_prints_each_centroid_as_the_tuple_did(cli_env, capsys):
    with StubChatService() as chat:
        config = _write_config(cli_env, chat.url)
        code = main(["--config", config, "stats", "--include-centroids"])
    assert code == 0
    stats = cluster_stats(VectorStore.open(cli_env["store_root"]), "doc_id", Metric.euclidean())
    # to_dict as it was when each centroid was a tuple of Python floats
    expected = stats.to_dict(include_centroids=False)
    for label, entry in expected["per_label"].items():
        entry["centroid"] = list(tuple(float(x) for x in stats.per_label[label].centroid))
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


@pytest.mark.parametrize(
    "kind, name", [("kb", "header.json"), ("bare", "records.json"), ("kb", "records.json")]
)
def test_stats_on_a_store_file_that_is_not_utf8_exits_one_with_one_error_line(
    cli_env, tmp_path, capsys, kind, name
):
    # a bare store's records.json holds each chunk's text; a knowledge base's does not
    store_root = tmp_path / "kb"
    if kind == "kb":
        shutil.copytree(cli_env["store_root"], store_root)
    else:
        bare = VectorStore(DIM)
        bare.upsert(VectorStore.open(cli_env["store_root"]).records())
        bare.persist(store_root)
    raw = (store_root / name).read_bytes()
    (store_root / name).write_bytes(raw[:1] + b"\xff" + raw[1:])
    with StubChatService() as chat:
        config = _write_config(cli_env, chat.url, store_path=str(store_root))
        code = main(["--config", config, "stats"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and name in captured.err
    assert captured.err.count("\n") == 1, captured.err


def test_stats_on_a_store_whose_header_says_version_2_exits_one_naming_the_version(
    cli_env, tmp_path, capsys
):
    store_root = tmp_path / "kb"
    shutil.copytree(cli_env["store_root"], store_root)
    header = json.loads((store_root / "header.json").read_text())
    (store_root / "header.json").write_text(json.dumps({**header, "format_version": 2}))
    with StubChatService() as chat:
        config = _write_config(cli_env, chat.url, store_path=str(store_root))
        code = main(["--config", config, "stats"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: unsupported format_version 2: this litrag reads format 3")
    assert captured.err.count("\n") == 1, captured.err


@pytest.mark.parametrize("metric", ["inner_product", "minkowski:0"])
def test_stats_with_a_metric_it_cannot_use_is_usage_error(cli_env, capsys, metric):
    with StubChatService() as chat:
        config = _write_config(cli_env, chat.url)
        code = main(["--config", config, "stats", "--metric", metric])
    assert code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")


def test_export_to_file_and_stdout(cli_env, tmp_path, capsys):
    with StubChatService() as chat:
        config = _write_config(cli_env, chat.url)
        out_path = tmp_path / "emb.csv"
        code = main(["--config", config, "export", "--out", str(out_path)])
        assert code == 0
        status = json.loads(capsys.readouterr().out)
        assert status["written"] == str(out_path)
        with out_path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["chunk_id", "doc_id"]
        assert len(rows) == status["records"] + 1

        code = main(["--config", config, "export"])
        assert code == 0
        stdout = capsys.readouterr().out
        stdout_rows = list(csv.reader(stdout.splitlines()))
        assert stdout_rows[0][:2] == ["chunk_id", "doc_id"]
        assert stdout.encode("utf-8") == out_path.read_bytes()


# --- no input ends in a traceback -----------------------------------------------------------


def _key_paths(node, prefix=()):
    """Every key path of a config dict, its sections as well as its fields."""
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


HOSTILE_VALUES = [
    {"a": 1}, [], ["\n", ""], None, True, False, 0, -1, 2.5, 4.0,
    math.nan, math.inf, -math.inf, OVERSIZE, "x", "kb\u0000x",
]
# argv strings: an execve argument cannot carry a NUL, nor a lone surrogate
ARG_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=12)
# integer flags, bounded so that no --rows size allocates much, and text that is no integer
NUMBERS = st.integers(-3, 10**5).map(str) | st.sampled_from(["", "x", "2.5", "nan", "1e3", "\u0663"])


def _csv(items):
    return st.lists(items, max_size=3).map(",".join)


def _flag(flag, values, optional=True):
    flagged = values.map(lambda value: [flag, value])
    return flagged | st.just([]) if optional else flagged


def _argv(cli_env, root):
    """A command and its flags, paths into ``root`` among them."""
    corpus = str(cli_env["corpus_dir"])
    question = question_for(cli_env["truths"]["paper-00"])
    commands = [
        [st.just(["ingest", "--dir", corpus])],
        [
            st.just(["query"]),
            _flag("--question", st.just(question) | ARG_TEXT, optional=False),
            _flag("--k", NUMBERS),
            _flag("--temperature", st.sampled_from(["0", "0.5", "-1", "nan", "inf", "-inf", "1e400"]) | ARG_TEXT),
            _flag("--mode", st.sampled_from(["mode1", "mode2", "plain", "x"])),
            _flag("--template", st.sampled_from([*BUILTIN_TEMPLATES, "x"])),
            st.sampled_from([[], ["--no-verify"], ["--include-prompt"]]),
        ],
        [
            st.just(["sweep", "--dir", corpus, "--workdir", str(root / "sweeps")]),
            _flag("--axis", st.sampled_from(["chunk_size", "chunk_overlap", "x"]), optional=False),
            _flag("--values", _csv(st.sampled_from(["-1", "0", "200", "700", "900", "x", ""])), optional=False),
            _flag("--fixed", st.sampled_from(["-1", "0", "100", "800", "x"]), optional=False),
            _flag("--format", st.sampled_from(["csv", "json"])),
        ],
        [st.just(["tokens"]), _flag("--rows", _csv(st.tuples(NUMBERS, NUMBERS).map(":".join) | NUMBERS))],
        [
            st.just(["verify"]),
            _flag("--answer-file", st.sampled_from(["answer.txt", "missing.txt", ".", "latin1.txt"]), optional=False),
            _flag("--doc-id", st.sampled_from(["paper-00", "x", "../kb"]) | ARG_TEXT, optional=False),
        ],
        [
            st.just(["stats"]),
            _flag("--label-by", st.sampled_from(["doc_id", "source"]) | ARG_TEXT),
            _flag("--metric", st.sampled_from(["cosine", "inner_product", "minkowski:3", "minkowski:0",
                                               "minkowski:nan", "minkowski:inf", "minkowski"]) | ARG_TEXT),
            st.sampled_from([[], ["--include-centroids"]]),
        ],
        [st.just(["export"]), _flag("--out", st.sampled_from(["out.csv", ".", "missing/out.csv"]))],
    ]
    return st.one_of(st.tuples(*parts) for parts in commands).map(lambda parts: sum(parts, []))


@pytest.fixture(scope="module")
def hostile_env(cli_env, tmp_path_factory):
    root = tmp_path_factory.mktemp("hostile")
    (root / "answer.txt").write_text("Prose.\n\nReferences:\n[1]\n")
    (root / "latin1.txt").write_bytes(b"\xff\xfe [1]")
    with StubChatService(echo_citations_responder()) as chat:
        yield root, chat.url


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_no_config_value_or_flag_ends_in_a_traceback(cli_env, hostile_env, data):
    root, chat_url = hostile_env
    argv = data.draw(_argv(cli_env, root), label="argv")
    store_path = str(root / "rebuilt") if argv[0] == "ingest" else str(cli_env["store_root"])
    config = _write_config(cli_env, chat_url, store_path=store_path)
    if data.draw(st.booleans(), label="hostile config"):
        field = data.draw(st.sampled_from(list(_key_paths(json.loads(Path(config).read_text())))), label="field")
        value = data.draw(st.sampled_from(HOSTILE_VALUES), label="value")
        config = _write_config_with(cli_env, chat_url, field, value, store_path=store_path)
    cwd = os.getcwd()
    os.chdir(root)  # a relative store_path or output lands here
    try:
        assert main(["--config", config, *argv]) in (0, 1, 2, 64)
    finally:
        os.chdir(cwd)

