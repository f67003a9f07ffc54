import csv
import hashlib
import importlib.util
import json
import math
import random
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from litrag import harness
from litrag.chain import QueryChain
from litrag.config import default_config
from litrag.embedding import EmbeddingVector, TokenizerConfig
from litrag.errors import CorruptStore, EmptyStore, InvalidParams, IoFailure, MissingLabel
from litrag.harness import (
    DEFAULT_RATIO_ROWS,
    OVERLAP_SWEEP_VALUES,
    SIZE_SWEEP_VALUES,
    SweepSpec,
    cluster_stats,
    export_embeddings,
    ratio_table_csv,
    representative_chunk,
    sweep_chunking,
    token_ratio_table,
)
from litrag.kb import KnowledgeBase, build_knowledge_base
from litrag.store import ChunkRecord, Metric, VectorStore, score_rows
from litrag.testing import (
    StubChatService,
    StubEmbeddingService,
    echo_citations_responder,
    make_corpus,
    question_for,
)
from reference_impls import brute_force_cluster_stats

DIM = 32


# --- SweepSpec validation ---------------------------------------------------


def test_sweep_spec_validation(tmp_path):
    with pytest.raises(ValueError):
        SweepSpec(axis="bogus", values=(1,), fixed=0, corpus_dir=str(tmp_path))
    with pytest.raises(ValueError):
        SweepSpec(axis="chunk_size", values=(), fixed=0, corpus_dir=str(tmp_path))
    with pytest.raises(ValueError):
        SweepSpec(axis="chunk_size", values=(800, 700), fixed=100, corpus_dir=str(tmp_path))
    with pytest.raises(ValueError):
        SweepSpec(axis="chunk_overlap", values=(0, 1000), fixed=1000, corpus_dir=str(tmp_path))
    with pytest.raises(ValueError):
        SweepSpec(axis="chunk_size", values=(400, 800), fixed=500, corpus_dir=str(tmp_path))


# --- sweeps -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_corpus(tmp_path_factory):
    corpus_dir = tmp_path_factory.mktemp("sweep_corpus")
    make_corpus(corpus_dir, n_docs=5, seed=909, paragraphs_per_doc=18)
    return corpus_dir


def _config(svc, tmp_path):
    cfg = default_config(svc.url, "http://unused.invalid/")
    return replace(
        cfg,
        embedding=replace(cfg.embedding, expected_dim=DIM, batch_size=128),
        store_path=str(tmp_path / "kb"),
    )


def test_size_sweep_counts_non_increasing(sweep_corpus, tmp_path):
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        spec = SweepSpec(
            axis="chunk_size",
            values=SIZE_SWEEP_VALUES,
            fixed=500,
            corpus_dir=str(sweep_corpus),
        )
        report = sweep_chunking(spec, cfg, tmp_path / "sweep")
    counts = [row.chunk_count for row in report.rows]
    assert len(counts) == 5
    assert all(c > 0 for c in counts)
    assert counts == sorted(counts, reverse=True)
    assert all(row.error is None and not row.failed for row in report.rows)


def test_overlap_sweep_counts_non_decreasing(sweep_corpus, tmp_path):
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        spec = SweepSpec(
            axis="chunk_overlap",
            values=OVERLAP_SWEEP_VALUES,
            fixed=1000,
            corpus_dir=str(sweep_corpus),
        )
        report = sweep_chunking(spec, cfg, tmp_path / "sweep")
    counts = [row.chunk_count for row in report.rows]
    assert counts == sorted(counts)
    csv_text = report.to_csv()
    parsed = list(csv.reader(csv_text.splitlines()))
    assert parsed[0][0] == "chunk_overlap"
    assert len(parsed) == 6


def test_failed_sweep_row_recorded_not_fatal(tmp_path, caplog):
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        spec = SweepSpec(
            axis="chunk_size",
            values=(300, 600),
            fixed=100,
            corpus_dir=str(tmp_path / "missing-dir"),
        )
        caplog.clear()
        report = sweep_chunking(spec, cfg, tmp_path / "sweep")
    assert len(report.rows) == 2
    assert all(row.error and row.failed for row in report.rows)
    # every row fails with the directory's one error, which is logged once
    assert {row.error for row in report.rows} == {f"{tmp_path / 'missing-dir'} is not a readable directory"}
    assert caplog.text.count("not a readable directory") == 1


def test_a_fault_in_a_sweep_row_propagates(monkeypatch, tmp_path):
    # only LitragErrors fail a row; a programming fault is not data
    def broken(*args, **kwargs):
        raise TypeError("a programming fault")

    monkeypatch.setattr(harness, "build_knowledge_base", broken)
    spec = SweepSpec(axis="chunk_size", values=(300, 600), fixed=100, corpus_dir=str(tmp_path))
    cfg = default_config("http://unused.invalid/", "http://unused.invalid/")
    with pytest.raises(TypeError, match="a programming fault"):
        sweep_chunking(spec, cfg, tmp_path / "sweep")


def test_single_value_sweep(sweep_corpus, tmp_path):
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        spec = SweepSpec(
            axis="chunk_size", values=(700,), fixed=200, corpus_dir=str(sweep_corpus)
        )
        report = sweep_chunking(spec, cfg, tmp_path / "sweep")
    assert len(report.rows) == 1
    assert report.rows[0].mean_chunk_length <= 700


def test_sweep_rows_come_from_the_build_report_not_the_written_stores(
    sweep_corpus, tmp_path, monkeypatch
):
    spec = SweepSpec(axis="chunk_size", values=(700, 1400), fixed=200, corpus_dir=str(sweep_corpus))
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        first = sweep_chunking(spec, cfg, tmp_path / "first")

        def no_open(*args, **kwargs):
            raise AssertionError("sweep_chunking reopened a store")

        monkeypatch.setattr(VectorStore, "open", no_open)
        second = sweep_chunking(spec, cfg, tmp_path / "second")
    monkeypatch.undo()
    rows = [(r.value, r.chunk_count, r.mean_chunk_length, r.error) for r in second.rows]
    assert rows == [(r.value, r.chunk_count, r.mean_chunk_length, r.error) for r in first.rows]
    for row in first.rows:
        records, _ = VectorStore.open(row.store_path).rows()
        assert row.error is None
        assert row.chunk_count == len(records)
        assert row.mean_chunk_length == float(np.mean([len(r.text) for r in records]))


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _as_sweep_row(tree: dict[str, bytes]) -> dict[str, bytes]:
    """The files of a knowledge base as a sweep row holds them: the same
    matrix.bin, no docs/, records.json naming "../docs" as its snapshot
    directory, and header.json with the checksum of that records.json."""
    records = tree["records.json"][:-1] + b', "snapshots": "../docs"}'
    header = json.loads(tree["header.json"])
    header["records_checksum"] = "sha256:" + hashlib.sha256(records).hexdigest()
    header_bytes = json.dumps(header, indent=2).encode("utf-8")
    return {"header.json": header_bytes, "matrix.bin": tree["matrix.bin"], "records.json": records}


def test_a_sweep_embeds_each_distinct_chunk_text_once(sweep_corpus, tmp_path):
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        for axis, values, fixed in (
            ("chunk_size", SIZE_SWEEP_VALUES, 500),
            ("chunk_overlap", OVERLAP_SWEEP_VALUES, 1000),
        ):
            spec = SweepSpec(axis=axis, values=values, fixed=fixed, corpus_dir=str(sweep_corpus))
            before = len(svc.requests)
            report = sweep_chunking(spec, cfg, tmp_path / "sweep")
            sent = Counter(t for r in svc.requests[before:] for t in r["input"])
            stored = [VectorStore.open(row.store_path).rows()[0] for row in report.rows]
            texts = {rec.text for records in stored for rec in records}
            assert set(sent) == texts and set(sent.values()) == {1}, axis
            assert sum(map(len, stored)) > len(texts), axis  # the rows share chunk texts
            for row in report.rows:
                alone = tmp_path / "alone" / Path(row.store_path).name
                row_cfg = replace(cfg, split=spec.split_params(row.value, cfg.split))
                build_knowledge_base(sweep_corpus, row_cfg, store_root=alone)
                assert _tree(Path(row.store_path)) == _as_sweep_row(_tree(alone)), row.store_path
                shared = {f"docs/{name}": data for name, data in _tree(tmp_path / "sweep" / "docs").items()}
                own = {name: data for name, data in _tree(alone).items() if name.startswith("docs/")}
                assert shared == own


def test_a_row_that_lost_a_document_says_so(tmp_path):
    corpus_dir = tmp_path / "corpus"
    make_corpus(corpus_dir, n_docs=2, seed=31, paragraphs_per_doc=6)
    (corpus_dir / "zz-broken.txt").write_bytes(b"\xff\xfe bad")
    with StubEmbeddingService(dim=DIM) as svc:
        spec = SweepSpec(axis="chunk_size", values=(700, 1400), fixed=200, corpus_dir=str(corpus_dir))
        report = sweep_chunking(spec, _config(svc, tmp_path), tmp_path / "sweep")
    assert [(row.error, row.failed_documents) for row in report.rows] == [(None, 1), (None, 1)]
    assert all(row.failed for row in report.rows)
    rows = list(csv.DictReader(report.to_csv().splitlines()))
    assert list(rows[0])[-1] == "failed_documents"
    assert [(row["error"], row["failed_documents"]) for row in rows] == [("", "1"), ("", "1")]
    # and the demo script exits 1 on that corpus
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_chunk_sweeps.py"
    script_spec = importlib.util.spec_from_file_location("run_chunk_sweeps", path)
    script = importlib.util.module_from_spec(script_spec)
    script_spec.loader.exec_module(script)
    assert script.main(["--out", str(tmp_path / "demo"), "--corpus", str(corpus_dir)]) == 1


def test_sweep_row_answers_mode2(tmp_path):
    corpus_dir = tmp_path / "corpus"
    truths = make_corpus(corpus_dir, n_docs=3, seed=515, paragraphs_per_doc=12)
    with StubEmbeddingService(dim=DIM) as emb, StubChatService(
        echo_citations_responder()
    ) as chat:
        cfg = _config(emb, tmp_path)
        cfg = replace(cfg, chat=replace(cfg.chat, endpoint_url=chat.url))
        spec = SweepSpec(axis="chunk_size", values=(700,), fixed=200, corpus_dir=str(corpus_dir))
        row = sweep_chunking(spec, cfg, tmp_path / "sweep").rows[0]
        chain = QueryChain(KnowledgeBase.open(row.store_path), cfg)
        bundle = chain.answer(question_for(truths["paper-01"], random.Random(3)), mode="mode2")
    assert row.error is None
    assert bundle.citation_list
    assert bundle.verification.flagged == []


def test_a_sweep_keeps_one_snapshot_directory_in_its_workdir(sweep_corpus, tmp_path):
    spec = SweepSpec(axis="chunk_size", values=(700, 1400, 2000), fixed=200, corpus_dir=str(sweep_corpus))
    with StubEmbeddingService(dim=DIM) as svc:
        report = sweep_chunking(spec, _config(svc, tmp_path), tmp_path / "sweep")
    workdir = tmp_path / "sweep"
    assert sorted(p.name for p in workdir.iterdir()) == [
        "chunk_size_1400", "chunk_size_2000", "chunk_size_700", "docs"
    ]
    for row in report.rows:
        files = sorted(p.name for p in Path(row.store_path).iterdir())
        assert files == ["header.json", "matrix.bin", "records.json"]
        assert VectorStore.open(row.store_path).records()  # every snapshot read through its checksum
    assert sorted(p.name for p in (workdir / "docs").iterdir()) == sorted(
        f"{p.stem}.body" for p in sweep_corpus.iterdir()
    )


def _answer_all_modes(kb: KnowledgeBase, cfg, questions) -> list[dict]:
    chain = QueryChain(kb, cfg)
    return [chain.answer(q, mode=mode).to_dict() for q in questions for mode in ("plain", "mode1", "mode2")]


def test_each_sweep_row_answers_as_the_knowledge_base_built_alone(tmp_path):
    # the layout of a row before rows shared their snapshots is that of a
    # knowledge base built alone into its root
    corpus_dir = tmp_path / "corpus"
    truths = make_corpus(corpus_dir, n_docs=3, seed=516, paragraphs_per_doc=12)
    questions = [question_for(truths[doc_id], random.Random(i)) for i, doc_id in enumerate(sorted(truths))]
    with StubEmbeddingService(dim=DIM) as emb, StubChatService(echo_citations_responder()) as chat:
        cfg = _config(emb, tmp_path)
        cfg = replace(cfg, chat=replace(cfg.chat, endpoint_url=chat.url))
        spec = SweepSpec(axis="chunk_overlap", values=(0, 200), fixed=700, corpus_dir=str(corpus_dir))
        report = sweep_chunking(spec, cfg, tmp_path / "sweep")
        for row in report.rows:
            row_cfg = replace(cfg, split=spec.split_params(row.value, cfg.split))
            alone = tmp_path / "alone" / Path(row.store_path).name
            build_knowledge_base(corpus_dir, row_cfg, store_root=alone)
            by_open = KnowledgeBase(row.store_path, VectorStore.open(row.store_path))
            expected = _answer_all_modes(KnowledgeBase.open(alone), row_cfg, questions)
            assert _answer_all_modes(by_open, row_cfg, questions) == expected
            assert _answer_all_modes(KnowledgeBase.open(row.store_path), row_cfg, questions) == expected
            stores = [VectorStore.open(path) for path in (row.store_path, alone)]
            stats = [cluster_stats(store, "doc_id", Metric.euclidean()).to_dict() for store in stores]
            assert stats[0] == stats[1]
            exports = [tmp_path / "row.csv", tmp_path / "alone.csv"]
            for store, out in zip(stores, exports):
                export_embeddings(store, out)
            assert exports[0].read_bytes() == exports[1].read_bytes()


@pytest.mark.parametrize("damage", ["delete", "edit"])
def test_a_missing_or_altered_shared_snapshot_fails_the_row_answer(tmp_path, damage):
    corpus_dir = tmp_path / "corpus"
    truths = make_corpus(corpus_dir, n_docs=3, seed=517, paragraphs_per_doc=12)
    with StubEmbeddingService(dim=DIM) as emb, StubChatService(echo_citations_responder()) as chat:
        cfg = _config(emb, tmp_path)
        cfg = replace(cfg, chat=replace(cfg.chat, endpoint_url=chat.url))
        spec = SweepSpec(axis="chunk_size", values=(700, 1400), fixed=200, corpus_dir=str(corpus_dir))
        report = sweep_chunking(spec, cfg, tmp_path / "sweep")
        snapshot = tmp_path / "sweep" / "docs" / "paper-01.body"
        if damage == "delete":
            snapshot.unlink()
        else:
            snapshot.write_bytes(snapshot.read_bytes().replace(b"e", b"E", 1))
        question = question_for(truths["paper-01"], random.Random(5))
        for row in report.rows:
            chain = QueryChain(KnowledgeBase.open(row.store_path), cfg)
            error = IoFailure if damage == "delete" else CorruptStore
            path = Path(row.store_path) / ".." / "docs" / "paper-01.body"
            with pytest.raises(error, match=re.escape(str(path))):
                chain.answer(question, mode="mode2")


def test_a_sweep_prunes_the_snapshots_no_row_names_and_an_older_row_fails_closed(tmp_path):
    corpus_dir = tmp_path / "corpus"
    make_corpus(corpus_dir, n_docs=3, seed=518, paragraphs_per_doc=10)
    workdir = tmp_path / "sweep"
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        spec = SweepSpec(axis="chunk_size", values=(700, 1400), fixed=200, corpus_dir=str(corpus_dir))
        first = sweep_chunking(spec, cfg, workdir)
        body = VectorStore.open(first.rows[0].store_path).document("paper-00").body
        (corpus_dir / "paper-01.txt").unlink()
        (corpus_dir / "paper-02.txt").write_text(
            (corpus_dir / "paper-02.txt").read_text(encoding="utf-8") + "\nA later line.\n", encoding="utf-8"
        )
        sweep_chunking(replace(spec, values=(1400,)), cfg, workdir)
    assert sorted(p.name for p in (workdir / "docs").iterdir()) == ["paper-00.body", "paper-02.body"]
    stale = VectorStore.open(first.rows[0].store_path)  # chunk_size_700, left by the first sweep
    assert stale.document("paper-00").body == body
    with pytest.raises(IoFailure, match="paper-01.body"):
        stale.document("paper-01")
    with pytest.raises(CorruptStore, match="paper-02.body: checksum mismatch"):
        stale.document("paper-02")


def test_a_sweep_over_a_format_3_workdir_leaves_its_json_snapshots_unread(sweep_corpus, tmp_path):
    # a format-3 sweep left one JSON-wrapped snapshot per document in <workdir>/docs
    docs = tmp_path / "sweep" / "docs"
    docs.mkdir(parents=True)
    legacy = {}
    for path in sorted(sweep_corpus.iterdir()):
        wrapped = {"doc_id": path.stem, "body": "An older body.", "source_path": path.name}
        legacy[f"{path.stem}.json"] = json.dumps(wrapped).encode("utf-8")
        (docs / f"{path.stem}.json").write_bytes(legacy[f"{path.stem}.json"])
    spec = SweepSpec(axis="chunk_size", values=(700, 1400), fixed=200, corpus_dir=str(sweep_corpus))
    with StubEmbeddingService(dim=DIM) as svc:
        report = sweep_chunking(spec, _config(svc, tmp_path), tmp_path / "sweep")
    assert [row.failed for row in report.rows] == [False, False]
    assert {p.name: p.read_bytes() for p in docs.glob("*.json")} == legacy
    for row in report.rows:
        store = VectorStore.open(row.store_path)
        assert store.records()  # every snapshot read through its checksum
        for path in sweep_corpus.iterdir():
            assert store.document(path.stem).body == path.read_text(encoding="utf-8")


@pytest.mark.parametrize("service", ["up", "down"])
def test_a_sweep_whose_snapshot_directory_is_its_corpus_keeps_every_corpus_file(tmp_path, monkeypatch, service):
    # `litrag sweep --dir docs --workdir .`: the rows share <workdir>/docs, the
    # corpus itself, which also holds a blank and an undecodable file
    monkeypatch.setattr("litrag.embedding._RETRY_BASE_S", 0.01)
    corpus_dir = tmp_path / "docs"
    truths = make_corpus(corpus_dir, n_docs=3, seed=523, paragraphs_per_doc=8)
    (corpus_dir / "empty.txt").write_text("  \n", encoding="utf-8")
    (corpus_dir / "zz-broken.txt").write_bytes(b"\xff\xfe bad")
    before = {p.name: p.read_bytes() for p in corpus_dir.iterdir()}
    spec = SweepSpec(axis="chunk_size", values=(700, 1400), fixed=200, corpus_dir=str(corpus_dir))
    fault = {} if service == "up" else {"fail_when": lambda texts: True}
    with StubEmbeddingService(dim=DIM, **fault) as svc:
        report = sweep_chunking(spec, _config(svc, tmp_path), tmp_path)
    assert {p.name: p.read_bytes() for p in corpus_dir.iterdir() if p.suffix != ".body"} == before
    indexed = sorted(truths) if service == "up" else []
    assert sorted(p.stem for p in corpus_dir.glob("*.body")) == indexed
    # the blank and the undecodable file fail each row, and with the service down so does every document
    assert [row.failed_documents for row in report.rows] == [2 + len(truths) - len(indexed)] * 2


def test_a_sweep_that_cannot_prune_logs_it_and_reports_its_rows(sweep_corpus, tmp_path, monkeypatch, caplog):
    def failing_prune(docs, keep):
        raise IoFailure(f"cannot delete document snapshots under {docs}: read-only")

    monkeypatch.setattr(harness, "prune_snapshots", failing_prune)
    spec = SweepSpec(axis="chunk_size", values=(700,), fixed=200, corpus_dir=str(sweep_corpus))
    with StubEmbeddingService(dim=DIM) as svc:
        report = sweep_chunking(spec, _config(svc, tmp_path), tmp_path / "sweep")
    assert [row.failed for row in report.rows] == [False]
    assert "sweep left stale snapshots: cannot delete document snapshots" in caplog.text


def test_a_corpus_edited_during_a_sweep_leaves_every_row_on_the_one_load(tmp_path, monkeypatch):
    corpus_dir = tmp_path / "corpus"
    truths = make_corpus(corpus_dir, n_docs=3, seed=519, paragraphs_per_doc=10)
    edited = corpus_dir / "paper-01.txt"
    loaded = {path.stem: path.read_text(encoding="utf-8") for path in corpus_dir.iterdir()}
    build, builds = harness.build_knowledge_base, []

    def editing_build(*args, **kwargs):
        if builds:  # between the first row and the second
            edited.write_text(loaded["paper-01"] + "\nAn edit made during the sweep.\n", encoding="utf-8")
        builds.append(args[1].split)
        return build(*args, **kwargs)

    monkeypatch.setattr(harness, "build_knowledge_base", editing_build)
    workdir = tmp_path / "sweep"
    with StubEmbeddingService(dim=DIM) as emb, StubChatService(echo_citations_responder()) as chat:
        cfg = _config(emb, tmp_path)
        cfg = replace(cfg, chat=replace(cfg.chat, endpoint_url=chat.url))
        spec = SweepSpec(axis="chunk_size", values=(700, 1400, 2000), fixed=200, corpus_dir=str(corpus_dir))
        report = sweep_chunking(spec, cfg, workdir)
        assert len(builds) == 3 and "An edit" in edited.read_text(encoding="utf-8")
        question = question_for(truths["paper-01"], random.Random(6))
        for row in report.rows:
            assert not row.failed
            store = VectorStore.open(row.store_path)
            assert store.records()  # every snapshot read through its checksum
            assert {doc_id: store.document(doc_id).body for doc_id in loaded} == loaded
            bundle = QueryChain(KnowledgeBase.open(row.store_path), cfg).answer(question, mode="mode2")
            assert bundle.citation_list and bundle.verification.flagged == []
    snapshots = {p.stem: p.read_text(encoding="utf-8") for p in (workdir / "docs").iterdir()}
    assert snapshots == loaded


def test_every_sweep_row_reports_the_load_failures_of_a_build_alone(tmp_path, monkeypatch, caplog):
    corpus_dir = tmp_path / "corpus"
    make_corpus(corpus_dir, n_docs=3, seed=520, paragraphs_per_doc=8)
    (corpus_dir / "zz-broken.txt").write_bytes(b"\xff\xfe bad")
    (corpus_dir / "empty.txt").write_text("  \n\n ", encoding="utf-8")
    (corpus_dir / "paper-01.md").write_text("Same stem as paper-01.txt\n\nA body.\n", encoding="utf-8")
    build, reports = harness.build_knowledge_base, []
    monkeypatch.setattr(
        harness, "build_knowledge_base", lambda *a, **kw: reports.append(build(*a, **kw)) or reports[-1]
    )
    spec = SweepSpec(axis="chunk_overlap", values=(0, 150), fixed=600, corpus_dir=str(corpus_dir))
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        caplog.clear()
        report = sweep_chunking(spec, cfg, tmp_path / "sweep")
        swept = caplog.text
        for row, got in zip(report.rows, reports, strict=True):
            row_cfg = replace(cfg, split=spec.split_params(row.value, cfg.split))
            alone = build_knowledge_base(corpus_dir, row_cfg, store_root=tmp_path / "alone" / str(row.value))
            assert got.to_dict() == alone.to_dict()
            assert (row.error, row.failed_documents) == (None, len(alone.failures))
    assert [Path(f.path).name for f in reports[0].failures] == ["empty.txt", "paper-01.txt", "zz-broken.txt"]
    # each failure is logged once per sweep, not once per row
    for f in reports[0].failures:
        assert swept.count(f"failed to ingest {f.path}: {f.error}") == 1, f.path


def test_a_sweep_loads_each_corpus_file_once(sweep_corpus, tmp_path, monkeypatch):
    from litrag import ingest

    load, loads = ingest.load_document, Counter()
    monkeypatch.setattr(ingest, "load_document", lambda path, *a, **kw: loads.update([path.name]) or load(path, *a, **kw))
    spec = SweepSpec(axis="chunk_size", values=SIZE_SWEEP_VALUES, fixed=500, corpus_dir=str(sweep_corpus))
    with StubEmbeddingService(dim=DIM) as svc:
        report = sweep_chunking(spec, _config(svc, tmp_path), tmp_path / "sweep")
    assert not any(row.failed for row in report.rows)
    assert loads == Counter(p.name for p in sweep_corpus.iterdir())
    assert set(loads.values()) == {1}


# --- token ratio table ---------------------------------------------------------------


def test_ratio_row_1600_chars_at_one_char_per_token():
    rows = token_ratio_table([(1600, 500)], TokenizerConfig(chars_per_token=1.0), 4096, 768)
    row = rows[0]
    assert row.tokens_per_chunk == 1600
    assert row.pct_of_llm_limit == pytest.approx(39.0625, abs=1e-9)
    assert row.pct_of_em_limit == pytest.approx(100 * 1600 / 768, abs=1e-9)


def test_ratio_row_defaults_and_exactness():
    tok = TokenizerConfig(chars_per_token=4.0)
    rows = token_ratio_table(list(DEFAULT_RATIO_ROWS), tok, 4096, 768)
    by_config = {(r.chunk_size_chars, r.chunk_overlap_chars): r for r in rows}
    study = by_config[(700, 200)]
    assert study.tokens_per_chunk == 175
    assert study.pct_of_llm_limit == pytest.approx(100 * 175 / 4096, abs=1e-12)
    assert study.pct_of_em_limit == pytest.approx(100 * 175 / 768, abs=1e-12)
    for row in rows:
        assert row.pct_of_llm_limit == 100.0 * row.tokens_per_chunk / 4096
        assert row.pct_of_em_limit == 100.0 * row.tokens_per_chunk / 768
        assert row.pct_chars_of_em_limit == 100.0 * row.chunk_size_chars / 768


def test_ratio_zero_size_row():
    rows = token_ratio_table([(0, 0)], TokenizerConfig(), 4096, 768)
    assert rows[0].tokens_per_chunk == 0
    assert rows[0].pct_of_llm_limit == 0.0


def test_ratio_csv_is_parseable():
    rows = token_ratio_table([(700, 200), (1000, 350)], TokenizerConfig(), 4096, 768)
    parsed = list(csv.reader(ratio_table_csv(rows).splitlines()))
    assert parsed[0][0] == "chunk_size_chars"
    assert len(parsed) == 3
    assert float(parsed[1][3]) == rows[0].pct_of_llm_limit


def test_representative_chunk_is_exact_length():
    for size in (1, 63, 700, 1600):
        assert len(representative_chunk(size)) == size


def test_ratio_limits_validated():
    with pytest.raises(ValueError):
        token_ratio_table([(700, 200)], TokenizerConfig(), 0, 768)
    for row in ((-700, -200), (-1, 0), (700, -1)):
        with pytest.raises(InvalidParams, match="non-negative"):
            token_ratio_table([(700, 200), row], TokenizerConfig(), 4096, 768)
    assert token_ratio_table([(1_000_000, 0)], TokenizerConfig(), 4096, 768)[0].tokens_per_chunk
    with pytest.raises(InvalidParams, match="may not exceed"):
        token_ratio_table([(700, 200), (1_000_001, 0)], TokenizerConfig(), 4096, 768)


# --- cluster stats ---------------------------------------------------------------------


def _store_with(labeled_vectors, batch=None):
    """A store of the vectors, labeled by doc_id: upserted at once, or, with
    ``batch``, in alternating batches of that many rows per label, so that
    no label's rows with more than ``batch`` of them form one run."""
    dim = len(next(iter(labeled_vectors.values()))[0])
    store = VectorStore(dim)
    records = {label: [] for label in labeled_vectors}
    i = 0
    for label, vectors in labeled_vectors.items():
        for vec in vectors:
            records[label].append(
                ChunkRecord(
                    chunk_id=f"c{i:03d}",
                    doc_id=label,
                    text="t",
                    start_offset=0,
                    end_offset=1,
                    embedding=EmbeddingVector(tuple(vec)),
                    metadata={"source": f"{label}.txt", "doc_id": label},
                )
            )
            i += 1
    if batch is None:
        store.upsert([rec for recs in records.values() for rec in recs])
        return store
    for start in range(0, max(map(len, records.values())), batch):
        for recs in records.values():
            if recs[start : start + batch]:
                store.upsert(recs[start : start + batch])
    return store


def test_cluster_stats_degenerate_identical_vectors():
    store = _store_with({"a": [[1.0, 0.0]] * 3, "b": [[0.0, 1.0]] * 4})
    stats = cluster_stats(store, "doc_id", Metric.euclidean())
    assert stats.per_label["a"].count == 3
    assert stats.per_label["a"].mean_intra_distance == pytest.approx(0.0)
    assert stats.per_label["b"].mean_intra_distance == pytest.approx(0.0)
    assert stats.inter_centroid_distances[0][1] == pytest.approx(math.sqrt(2))
    assert stats.inter_centroid_distances[0][0] == 0.0


def test_cluster_stats_single_label():
    store = _store_with({"only": [[1.0, 2.0], [3.0, 4.0]]})
    stats = cluster_stats(store, "doc_id", Metric.euclidean())
    assert stats.inter_centroid_distances == [[0.0]]
    assert stats.mean_inter_centroid_distance == 0.0


def test_cluster_stats_matches_brute_force():
    import random

    rng = random.Random(64)
    labeled = {
        f"doc{j}": [[rng.uniform(-1, 1) for _ in range(6)] for _ in range(rng.randint(3, 100))]
        for j in range(5)
    }
    store = _store_with(labeled)
    # the store quantizes to float32; feed the oracle the quantized values
    quantized = {}
    for rec in store.records():
        quantized.setdefault(rec.doc_id, []).append(list(rec.embedding.values))

    for metric in ("euclidean", "manhattan", "chebyshev", "minkowski:3", "cosine"):
        m = Metric.parse(metric)
        stats = cluster_stats(store, "doc_id", m)
        expected_stats, expected_matrix = brute_force_cluster_stats(quantized, m.kind, m.p)

        for label, exp in expected_stats.items():
            got = stats.per_label[label]
            assert got.count == exp["count"]
            assert got.mean_intra_distance == pytest.approx(exp["mean_intra_distance"], rel=1e-9)
            assert list(got.centroid) == pytest.approx(exp["centroid"], rel=1e-9)
        for (a, b), expected in expected_matrix.items():
            i, j = stats.labels.index(a), stats.labels.index(b)
            assert stats.inter_centroid_distances[i][j] == pytest.approx(expected, rel=1e-9)
        distances = stats.inter_centroid_distances
        n = len(stats.labels)
        assert all(distances[i][i] == 0.0 for i in range(n))
        assert all(distances[i][j] == distances[j][i] for i in range(n) for j in range(n))


def test_cluster_stats_cosine_maps_to_distance():
    store = _store_with({"a": [[1.0, 0.0], [1.0, 0.1]], "b": [[0.0, 1.0]]})
    stats = cluster_stats(store, "doc_id", Metric.cosine())
    assert stats.per_label["a"].mean_intra_distance >= 0
    with pytest.raises(ValueError):
        cluster_stats(store, "doc_id", Metric.inner_product())


def test_cluster_stats_missing_label():
    store = _store_with({"a": [[1.0, 0.0]]})
    with pytest.raises(MissingLabel):
        cluster_stats(store, "no_such_key", Metric.euclidean())


def test_cluster_stats_empty_store():
    with pytest.raises(EmptyStore):
        cluster_stats(VectorStore(4), "doc_id", Metric.euclidean())


CLUSTER_METRICS = ("euclidean", "manhattan", "chebyshev", "minkowski:3", "cosine")


def _loop_cluster_stats(store, m):
    """The row loop ``cluster_stats`` replaced, kept as its oracle: each
    label's rows upcast to float64, and one ``score_rows`` call per centroid
    for the inter-centroid distances. Returns the labels, (count, centroid,
    mean intra distance) per label, and the distance matrix."""

    def distance(matrix, vec):
        scores = score_rows(matrix, vec, m)
        return scores if m.is_distance else 1.0 - scores

    records, matrix = store.rows()
    groups = {}
    for i, rec in enumerate(records):
        groups.setdefault(rec.metadata["doc_id"], []).append(i)
    labels = sorted(groups)
    centroids = np.empty((len(labels), matrix.shape[1]))
    per_label = {}
    for i, label in enumerate(labels):
        vectors = matrix[groups[label]].astype(np.float64)
        centroids[i] = vectors.mean(axis=0)
        intra = float(np.mean(distance(vectors, centroids[i])))
        per_label[label] = (len(vectors), tuple(centroids[i].tolist()), intra)
    n = len(labels)
    distances = np.zeros((n, n))
    for i in range(n - 1):
        distances[i, i + 1 :] = distances[i + 1 :, i] = distance(centroids[i + 1 :], centroids[i])
    return labels, per_label, distances


@pytest.mark.parametrize("layout", ["contiguous", "interleaved"])
def test_cluster_stats_equals_the_row_loop_bit_for_bit(layout):
    rng = np.random.default_rng(18)
    labeled = {
        f"doc{j}": (rng.standard_normal((int(rng.integers(4, 40)), 24)) * 10.0**j).tolist()
        for j in range(-2, 4)
    }
    store = _store_with(labeled, batch=None if layout == "contiguous" else 3)
    runs = [rec.doc_id for rec in store.rows()[0]]
    runs = [label for k, label in enumerate(runs) if k == 0 or runs[k - 1] != label]
    assert (len(runs) == len(labeled)) == (layout == "contiguous")

    for spec in CLUSTER_METRICS:
        m = Metric.parse(spec)
        stats = cluster_stats(store, "doc_id", m)
        labels, per_label, distances = _loop_cluster_stats(store, m)
        assert stats.labels == labels
        for label, (count, centroid, intra) in per_label.items():
            got = stats.per_label[label]
            assert (got.count, tuple(got.centroid.tolist()), got.mean_intra_distance) == (count, centroid, intra)
        got = np.array(stats.inter_centroid_distances)
        if m.kind == "euclidean":
            # from the Gram matrix: within a few ulps of the pairwise values
            assert np.all(np.abs(got - distances) <= 1e-14 * distances)
        else:
            assert stats.inter_centroid_distances == distances.tolist()


def test_centroids_are_read_only_float64_rows_that_serialise_as_the_tuples_did():
    rng = np.random.default_rng(19)
    store = _store_with(
        {f"doc{j}": rng.standard_normal((int(rng.integers(2, 30)), 16)).tolist() for j in range(5)},
        batch=4,
    )
    for spec in CLUSTER_METRICS:
        m = Metric.parse(spec)
        stats = cluster_stats(store, "doc_id", m)
        _, per_label, _ = _loop_cluster_stats(store, m)
        for label in stats.labels:
            centroid = stats.per_label[label].centroid
            assert centroid.dtype == np.float64 and centroid.shape == (16,)
            assert not centroid.flags.writeable and not centroid.base.flags.writeable
            with pytest.raises(ValueError):
                centroid[0] = 0.0
        # to_dict as it was when each centroid was a tuple of Python floats
        expected = stats.to_dict(include_centroids=False)
        for label, entry in expected["per_label"].items():
            entry["centroid"] = list(per_label[label][1])
        for indent in (None, 2):
            got = json.dumps(stats.to_dict(include_centroids=True), indent=indent)
            assert got == json.dumps(expected, indent=indent)


def test_near_coincident_centroids_take_the_direct_distance():
    dim = 784
    base = np.full(dim, 100.0)
    base[0] = 0.0  # |base| = 100 sqrt(783), about 2,800
    near = base.copy()
    near[0] = 1e-6
    store = _store_with({"a": [base.tolist()], "b": [near.tolist()], "c": [base.tolist()]})
    _, matrix = store.rows()
    centroids = matrix.astype(np.float64)
    sq = np.einsum("ij,ij->i", centroids, centroids)
    assert sq[0] + sq[1] - 2.0 * (centroids @ centroids.T)[0, 1] == 0.0  # the Gram form cancels

    stats = cluster_stats(store, "doc_id", Metric.euclidean())
    d = stats.inter_centroid_distances
    step = float(np.float32(1e-6))  # 9.9999999748e-07
    assert d[0][1] == d[1][0] == d[1][2] == d[2][1] == step
    assert d[0][2] == d[2][0] == 0.0
    assert d == _loop_cluster_stats(store, Metric.euclidean())[2].tolist()


@st.composite
def _labeled_vectors(draw):
    """Labels with random sizes at one random scale; some are near or exact
    duplicates of an earlier label, shifted by a fixed relative step."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 24))
    scale = 10.0 ** draw(st.sampled_from([-20, -3, 0, 3, 20]))
    labeled = []
    for _ in range(draw(st.integers(1, 8))):
        if labeled and draw(st.booleans()):
            src = labeled[int(rng.integers(len(labeled)))]
            step = draw(st.sampled_from([0.0, 1e-4, 1e-3, 1e-2]))
            rows = src + step * scale * rng.choice([-1.0, 1.0], size=dim)
        else:
            rows = rng.standard_normal((int(rng.integers(1, 10)), dim)) * scale
        rows[~rows.any(axis=1), 0] = scale  # the store rejects a zero row
        labeled.append(rows)
    return {f"label{j}": rows.tolist() for j, rows in enumerate(labeled)}


@settings(max_examples=150, deadline=None)
@given(labeled=_labeled_vectors(), interleaved=st.booleans())
def test_euclidean_inter_distances_match_the_plain_loop(labeled, interleaved):
    store = _store_with(labeled, batch=2 if interleaved else None)
    quantized = {}
    for rec in store.records():
        quantized.setdefault(rec.doc_id, []).append(list(rec.embedding.values))
    stats = cluster_stats(store, "doc_id", Metric.euclidean())
    _, expected = brute_force_cluster_stats(quantized, "euclidean")
    d = stats.inter_centroid_distances
    for (a, b), value in expected.items():
        i, j = stats.labels.index(a), stats.labels.index(b)
        assert abs(d[i][j] - value) <= 1e-9 * value
    n = len(stats.labels)
    assert all(d[i][i] == 0.0 for i in range(n))
    assert all(d[i][j] == d[j][i] for i in range(n) for j in range(n))


# --- export ------------------------------------------------------------------------


def test_export_structure_and_round_trip(tmp_path):
    store = _store_with({"a": [[0.1, 0.2, 0.3, 0.4]], "b": [[1.5, -2.5, 3.25, 0.0], [9, 8, 7, 6]]})
    out = tmp_path / "emb.csv"
    export_embeddings(store, out)

    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["chunk_id", "doc_id", "e0", "e1", "e2", "e3"]
    assert len(rows) == 4

    by_id = {r.chunk_id: r for r in store.records()}
    for row in rows[1:]:
        stored = by_id[row[0]]
        parsed = np.array([float(v) for v in row[2:]], dtype=np.float32)
        assert parsed.tolist() == pytest.approx(list(stored.embedding.values))


def test_export_empty_store(tmp_path):
    with pytest.raises(EmptyStore):
        export_embeddings(VectorStore(4), tmp_path / "x.csv")
