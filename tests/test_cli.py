import csv
import json
from dataclasses import replace

import pytest

from litrag.cli import main
from litrag.config import config_to_dict, default_config
from litrag.kb import build_knowledge_base
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


def test_missing_config_is_runtime_error(capsys, tmp_path):
    code = main(["--config", str(tmp_path / "none.conf"), "tokens"])
    assert code == 1
    assert "error" in capsys.readouterr().err


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


def test_ingest_partial_failure_still_succeeds(cli_env, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    make_corpus(corpus, n_docs=2, seed=5, paragraphs_per_doc=6)
    (corpus / "broken.txt").write_bytes(b"\xff\xfe broken")
    with StubChatService() as chat:
        config = _write_config(cli_env, chat.url, store_path=str(tmp_path / "kb4"))
        code = main(["--config", config, "ingest", "--dir", str(corpus)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(out["failures"]) == 1


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


def test_query_mode_flag(cli_env, capsys):
    question = question_for(cli_env["truths"]["paper-02"])
    with StubChatService() as chat:
        config = _write_config(cli_env, chat.url)
        code = main(["--config", config, "query", "--question", question, "--mode", "plain"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["verification"] is None


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


# --- stats / export -----------------------------------------------------------------------


def test_stats_json(cli_env, capsys):
    with StubChatService() as chat:
        config = _write_config(cli_env, chat.url)
        code = main(["--config", config, "stats", "--label-by", "doc_id"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert set(out["labels"]) == set(cli_env["truths"])
    assert out["mean_inter_centroid_distance"] > 0


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
