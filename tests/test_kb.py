import hashlib
import json
import os
import re
import shutil
from collections import Counter
from dataclasses import replace
from functools import cached_property
from pathlib import Path

import pytest

import litrag.embedding as embedding_mod
import litrag.ingest as ingest_mod
import litrag.kb as kb_mod
from litrag.chain import QueryChain
from litrag.config import default_config
from litrag.embedding import EmbeddingVector
from litrag.errors import CorruptStore, InvalidParams, IoFailure
from litrag.harness import cluster_stats
from litrag.ingest import Document, ingest_corpus
from litrag.kb import KnowledgeBase, build_knowledge_base
from litrag.store import Metric, VectorStore
from litrag.testing import (
    StubChatService,
    StubEmbeddingService,
    _doc_tag,
    echo_citations_responder,
    make_corpus,
    question_for,
)

DIM = 32


@pytest.fixture()
def small_corpus(tmp_path):
    corpus_dir = tmp_path / "corpus"
    truths = make_corpus(corpus_dir, n_docs=4, seed=77, paragraphs_per_doc=10)
    return corpus_dir, truths


def _config(svc, tmp_path):
    cfg = default_config(svc.url, "http://127.0.0.1:1/chat")
    return replace(
        cfg,
        embedding=replace(cfg.embedding, expected_dim=DIM, batch_size=64),
        store_path=str(tmp_path / "kb"),
    )


def test_build_and_open_knowledge_base(small_corpus, tmp_path):
    corpus_dir, truths = small_corpus
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        report = build_knowledge_base(corpus_dir, cfg)

    assert report.document_count == len(truths)
    assert report.failures == []
    assert report.chunk_count > 0

    kb = KnowledgeBase.open(cfg.store_path)
    assert len(kb.store) == report.chunk_count
    assert set(kb.doc_ids()) == set(truths)

    doc = kb.document("paper-00")
    assert doc.reference_section is not None
    assert doc.body

    aux = kb.aux_index("paper-00")
    assert aux.expanded_chunks
    for chunk in aux.expanded_chunks:
        assert chunk.text == doc.body[chunk.start_offset : chunk.end_offset]

    record = kb.store.records()[0]
    assert record.metadata["source"].endswith(".txt")
    assert record.metadata["doc_id"] == record.doc_id


def test_layout_on_disk(small_corpus, tmp_path):
    corpus_dir, truths = small_corpus
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        build_knowledge_base(corpus_dir, cfg)

    root = Path(cfg.store_path)
    assert (root / "header.json").is_file()
    assert (root / "records.json").is_file()
    assert (root / "matrix.bin").is_file()
    for doc_id in truths:
        assert (root / "docs" / f"{doc_id}.json").is_file()
    assert not (root / "aux").exists()


def test_snapshots_hold_the_id_the_body_and_the_file_name(small_corpus, tmp_path):
    corpus_dir, truths = small_corpus
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        build_knowledge_base(corpus_dir, cfg)
    for doc_id in truths:
        data = json.loads((Path(cfg.store_path) / "docs" / f"{doc_id}.json").read_text("utf-8"))
        assert sorted(data) == ["body", "doc_id", "source_path"]
        assert data["source_path"] == f"{doc_id}.txt"


def test_each_title_and_reference_section_is_derived_at_most_once(
    small_corpus, tmp_path, monkeypatch
):
    corpus_dir, truths = small_corpus
    located = []
    locate = ingest_mod.locate_reference_section
    monkeypatch.setattr(
        ingest_mod, "locate_reference_section", lambda body: located.append(body) or locate(body)
    )
    titled = []
    title = Document.title.func
    counting = cached_property(lambda doc: titled.append(doc.doc_id) or title(doc))
    counting.__set_name__(Document, "title")
    monkeypatch.setattr(Document, "title", counting)
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        build_knowledge_base(corpus_dir, cfg)
    assert located == []
    assert sorted(titled) == sorted(truths)

    kb = KnowledgeBase.open(cfg.store_path)
    kb.aux_index("paper-00").entries
    assert len(located) == 1
    assert kb.document("paper-00").reference_text() is not None
    assert len(located) == 1


def test_build_records_per_document_failures(small_corpus, tmp_path):
    corpus_dir, truths = small_corpus
    (corpus_dir / "broken.txt").write_bytes(b"\xff\xfe bad")
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        report = build_knowledge_base(corpus_dir, cfg)
    assert report.document_count == len(truths)
    assert len(report.failures) == 1


def test_missing_document_snapshot(small_corpus, tmp_path):
    corpus_dir, _ = small_corpus
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        build_knowledge_base(corpus_dir, cfg)
    kb = KnowledgeBase.open(cfg.store_path)
    with pytest.raises(IoFailure):
        kb.document("no-such-doc")


# snapshot bytes that hold no document "paper-00", from the good snapshot's text and data
_NOT_A_DOCUMENT = {
    "truncated": lambda good, data: good[: len(good) // 2].encode("utf-8"),
    "not utf-8": lambda good, data: b"\xff\xfe" + good.encode("utf-8"),
    "missing field": lambda good, data: json.dumps({k: v for k, v in data.items() if k != "body"}).encode(),
    "not an object": lambda good, data: json.dumps([data]).encode(),
    "body a number": lambda good, data: json.dumps({**data, "body": 5}).encode(),
    "empty body": lambda good, data: json.dumps({**data, "body": ""}).encode(),
    "blank body": lambda good, data: json.dumps({**data, "body": "  \n\t ", "reference_section": None}).encode(),
    "doc_id a number": lambda good, data: json.dumps({**data, "doc_id": 7}).encode(),
    "doc_id of another document": lambda good, data: json.dumps({**data, "doc_id": "paper-01"}).encode(),
}


def _reseal(root: Path, doc_id: str, raw: bytes) -> None:
    """Write ``raw`` as ``doc_id``'s snapshot and record its sha256 in
    records.json, keeping the header's checksum of records.json valid: a
    knowledge base whose writer wrote these bytes, so only the checks after
    the sha256 can object."""
    (root / "docs" / f"{doc_id}.json").write_bytes(raw)
    cols = json.loads((root / "records.json").read_text(encoding="utf-8"))
    cols["documents"][doc_id]["sha256"] = "sha256:" + hashlib.sha256(raw).hexdigest()
    records = json.dumps(cols, ensure_ascii=False).encode("utf-8")
    (root / "records.json").write_bytes(records)
    header = json.loads((root / "header.json").read_text())
    header["records_checksum"] = "sha256:" + hashlib.sha256(records).hexdigest()
    (root / "header.json").write_text(json.dumps(header, indent=2))


def test_a_damaged_snapshot_is_a_corrupt_store(small_corpus, tmp_path):
    corpus_dir, _ = small_corpus
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        build_knowledge_base(corpus_dir, cfg)
    snapshot = Path(cfg.store_path) / "docs" / "paper-00.json"
    good = snapshot.read_text(encoding="utf-8")
    data = json.loads(good)
    for case, damage in _NOT_A_DOCUMENT.items():
        snapshot.write_bytes(damage(good, data))
        kb = KnowledgeBase.open(cfg.store_path)
        with pytest.raises(CorruptStore, match="paper-00.json"):
            kb.aux_index("paper-00")
        assert kb.document("paper-01").doc_id == "paper-01", case


@pytest.mark.parametrize("case", list(_NOT_A_DOCUMENT))
def test_a_snapshot_under_a_valid_checksum_that_holds_no_such_document_is_corrupt(
    small_corpus, tmp_path, case
):
    corpus_dir, _ = small_corpus
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        build_knowledge_base(corpus_dir, cfg)
    root = Path(cfg.store_path)
    good = (root / "docs" / "paper-00.json").read_text(encoding="utf-8")
    _reseal(root, "paper-00", _NOT_A_DOCUMENT[case](good, json.loads(good)))
    kb = KnowledgeBase.open(root)
    with pytest.raises(CorruptStore, match=r"damaged document snapshot at .*paper-00\.json: (?!checksum)"):
        kb.aux_index("paper-00")
    assert kb.document("paper-01").doc_id == "paper-01"


def test_a_snapshot_with_a_stored_title_and_span_derives_both(small_corpus, tmp_path):
    # a snapshot in the layout of earlier versions, holding a wrong title and a
    # wrong span under a valid checksum: a document is its id, body and file name
    corpus_dir, _ = small_corpus
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        build_knowledge_base(corpus_dir, cfg)
    root = Path(cfg.store_path)
    fresh = KnowledgeBase.open(root)
    doc, aux = fresh.document("paper-00"), fresh.aux_index("paper-00")
    data = json.loads((root / "docs" / "paper-00.json").read_text(encoding="utf-8"))
    _reseal(root, "paper-00", json.dumps({**data, "title": "Another title", "reference_section": [0, 3]}).encode())
    kb = KnowledgeBase.open(root)
    old = kb.document("paper-00")
    assert old is not doc
    assert old.title == doc.title == doc.body.lstrip().splitlines()[0].strip()
    assert old.reference_section == doc.reference_section != (0, 3)
    assert kb.aux_index("paper-00") == aux and kb.aux_index("paper-00").entries == aux.entries != ()


def test_a_rebuild_deletes_snapshots_of_documents_it_did_not_index(small_corpus, tmp_path):
    corpus_dir, truths = small_corpus
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        build_knowledge_base(corpus_dir, cfg)
        (corpus_dir / "paper-01.txt").unlink()
        (Path(cfg.store_path) / "docs" / "notes.txt").write_text("kept", encoding="utf-8")
        build_knowledge_base(corpus_dir, cfg)
    kb = KnowledgeBase.open(cfg.store_path)
    assert kb.doc_ids() == sorted(set(truths) - {"paper-01"})
    assert {record.doc_id for record in kb.store.records()} == set(kb.doc_ids())
    assert (Path(cfg.store_path) / "docs" / "notes.txt").read_text(encoding="utf-8") == "kept"


def test_a_rebuild_rewrites_only_the_snapshots_whose_documents_changed(small_corpus, tmp_path):
    corpus_dir, _ = small_corpus
    docs = tmp_path / "kb" / "docs"
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        build_knowledge_base(corpus_dir, cfg)
        for snapshot in docs.iterdir():  # an old time, which any write would move
            os.utime(snapshot, ns=(10**18, 10**18))
        before = {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in docs.iterdir()}
        source = corpus_dir / "paper-01.txt"
        source.write_text(source.read_text(encoding="utf-8") + "\nA later line.\n", encoding="utf-8")
        build_knowledge_base(corpus_dir, cfg)
    after = {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in docs.iterdir()}
    assert sorted(after) == sorted(before)
    assert {name for name in after if after[name] != before[name]} == {"paper-01.json"}
    kb = KnowledgeBase.open(cfg.store_path)
    assert kb.document("paper-01").body.endswith("A later line.\n")
    assert [record.text for record in kb.store.records()]  # every snapshot matches its checksum


def test_doc_ids_are_the_documents_the_store_indexes(small_corpus, tmp_path):
    corpus_dir, truths = small_corpus
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        build_knowledge_base(corpus_dir, cfg)
    docs = Path(cfg.store_path) / "docs"
    (docs / "stray.json").write_text((docs / "paper-00.json").read_text(encoding="utf-8"), encoding="utf-8")
    (docs / "paper-01.json").unlink()
    kb = KnowledgeBase.open(cfg.store_path)
    assert kb.doc_ids() == sorted(truths)
    assert kb.doc_ids() == sorted(set(kb.store.columns("doc_id")[0]))


def test_unwritable_snapshots_raise_io_failure(small_corpus, tmp_path):
    corpus_dir, _ = small_corpus
    (tmp_path / "kb").mkdir()
    (tmp_path / "kb" / "docs").write_text("a file where the directory goes", encoding="utf-8")
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        with pytest.raises(IoFailure, match="snapshots"):
            build_knowledge_base(corpus_dir, cfg)


def test_build_without_aux(small_corpus, tmp_path):
    # expanded chunks are cut from the document snapshots at query time, so
    # ingest embeds the main chunks and nothing else
    corpus_dir, _ = small_corpus
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        report = build_knowledge_base(corpus_dir, cfg)
        sent = sum(len(r["input"]) for r in svc.requests)
    assert report.chunk_count > 0
    assert sent == report.chunk_count
    assert not (Path(cfg.store_path) / "aux").exists()


def test_a_build_sends_full_batches_across_documents(small_corpus, tmp_path, monkeypatch):
    corpus_dir, _ = small_corpus
    calls = []
    embed = kb_mod.embed_texts
    monkeypatch.setattr(
        kb_mod,
        "embed_texts",
        lambda texts, *a, **kw: calls.append(list(texts)) or embed(texts, *a, **kw),
    )
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        cfg = replace(cfg, embedding=replace(cfg.embedding, batch_size=10, max_parallel_requests=3))
        _, loaded = ingest_corpus(corpus_dir, cfg.split)
        chunks = [c for _, cs in loaded for c in cs]
        report = build_knowledge_base(corpus_dir, cfg)
        sizes = sorted(len(r["input"]) for r in svc.requests)
    assert report.failures == [] and sum(sizes) == report.chunk_count  # no chunk text repeats
    # one call over the distinct texts, in the order ingest first meets them
    assert calls == [list(dict.fromkeys(c.text for c in chunks))]
    # every request but one holds batch_size texts
    n = report.chunk_count
    assert sizes == sorted([10] * (n // 10) + ([n % 10] if n % 10 else []))


def test_a_failed_batch_fails_exactly_the_documents_with_a_chunk_in_it(
    small_corpus, tmp_path, monkeypatch
):
    monkeypatch.setattr(embedding_mod, "_RETRY_BASE_S", 0.01)
    corpus_dir, truths = small_corpus
    (corpus_dir / "a-broken.txt").write_bytes(b"\xff\xfe bad")
    (corpus_dir / "zz-broken.txt").write_bytes(b"\xff\xfe bad")
    memo = {}
    with StubEmbeddingService(dim=DIM, fail_when=lambda texts: target in texts) as svc:
        cfg = _config(svc, tmp_path)
        cfg = replace(cfg, embedding=replace(cfg.embedding, batch_size=10, max_parallel_requests=3))
        _, loaded = ingest_corpus(corpus_dir, cfg.split)
        chunks = {doc.doc_id: cs for doc, cs in loaded}
        target = chunks["paper-01"][0].text  # mid-build: the second document's first chunk
        report = build_knowledge_base(corpus_dir, cfg, memo=memo)
    failing = [r["input"] for r in svc.requests if target in r["input"]]
    assert len(failing) == 2 and failing[0] == failing[1]  # the request and its one retry
    lost = {doc_id for doc_id, cs in chunks.items() if any(c.text in failing[0] for c in cs)}
    assert lost == {"paper-00", "paper-01"}  # the batch spans a document boundary
    names = [Path(f.path).name for f in report.failures]
    assert names == ["a-broken.txt", "paper-00.txt", "paper-01.txt", "zz-broken.txt"]
    assert "1 of " in report.failures[1].error and "batches failed" in report.failures[1].error
    assert {d.doc_id for d in report.documents} == set(truths) - lost
    sent = Counter(t for r in svc.requests for t in r["input"])
    assert all(n == (2 if t in failing[0] else 1) for t, n in sent.items())
    assert set(memo) == set(sent) - set(failing[0])
    kb = KnowledgeBase.open(cfg.store_path)
    assert kb.doc_ids() == sorted(set(truths) - lost)
    assert {r.doc_id for r in kb.store.rows()[0]} == set(truths) - lost
    assert len(kb.store) == report.chunk_count


def test_doc_id_collision_is_a_failure_not_silent_loss(small_corpus, tmp_path):
    corpus_dir, truths = small_corpus
    body = (corpus_dir / "paper-00.txt").read_text(encoding="utf-8")
    (corpus_dir / "a.md").write_text(body, encoding="utf-8")
    (corpus_dir / "a.txt").write_text(body, encoding="utf-8")
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        report = build_knowledge_base(corpus_dir, cfg)
    assert report.document_count == len(truths) + 1
    assert len(report.failures) == 1
    assert report.failures[0].path.endswith("a.txt")
    assert "a.md" in report.failures[0].error
    assert report.chunk_count == len(KnowledgeBase.open(cfg.store_path).store)


class _BadFirstEmbedding(StubEmbeddingService):
    """Answers each text that opens with a word of the first document,
    paper-00, with ``[value] * dim``. ``make_corpus`` ends every word of a
    document's vocabulary in that document's tag, so the texts are picked by
    content and the same document fails whichever request arrives first."""

    def __init__(self, value: float, **kwargs):
        super().__init__(**kwargs)
        self.value = value

    def handle_payload(self, payload):
        status, body = super().handle_payload(payload)
        for text, item in zip(payload["input"], body["data"]):
            if re.match(rf"\w+{_doc_tag(0)}\b", text):
                item["embedding"] = [self.value] * self.dim
        return status, body


def test_zero_embedding_fails_its_document_not_the_kb(small_corpus, tmp_path):
    corpus_dir, truths = small_corpus
    # 1e39 is finite in the reply but overflows float32 in the store
    for value, error in ((0.0, "zero embedding"), (1e39, "overflows float32")):
        with _BadFirstEmbedding(value, dim=DIM) as svc:
            cfg = _config(svc, tmp_path / repr(value))
            report = build_knowledge_base(corpus_dir, cfg)
        assert len(report.failures) == 1
        assert error in report.failures[0].error
        assert report.document_count == len(truths) - 1
        kb = KnowledgeBase.open(cfg.store_path)
        assert len(kb.store) == report.chunk_count
        assert kb.store.top_k([1.0] * DIM, 3, Metric.cosine())


def test_a_row_beyond_float32_is_sent_once_and_fails_its_document_in_every_build(
    small_corpus, tmp_path
):
    # two builds sharing a memo, as a sweep's rows do: the memo keeps every row that
    # came back, so the second build sends nothing, and the store fails paper-00 again
    corpus_dir, truths = small_corpus
    memo = {}
    with _BadFirstEmbedding(1e39, dim=DIM) as svc:
        for build in ("first", "second"):
            report = build_knowledge_base(corpus_dir, _config(svc, tmp_path / build), memo=memo)
            assert [Path(f.path).name for f in report.failures] == ["paper-00.txt"]
            assert "overflows float32" in report.failures[0].error
            assert report.document_count == len(truths) - 1
        sent = Counter(t for r in svc.requests for t in r["input"])
    assert any(re.match(rf"\w+{_doc_tag(0)}\b", t) for t in sent)  # an overflowing text
    assert set(sent.values()) == {1}
    assert set(memo) == set(sent)


def test_a_sweep_builds_no_embedding_vector(small_corpus, tmp_path, monkeypatch):
    # a reply is decoded into one matrix and a memo row goes to the store as it is
    corpus_dir, _ = small_corpus
    built = []
    post_init = EmbeddingVector.__post_init__
    monkeypatch.setattr(
        EmbeddingVector, "__post_init__", lambda self: built.append(self) or post_init(self)
    )
    memo, stored = {}, 0
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        for size in (900, 1200):
            split = replace(cfg.split, chunk_size=size)
            report = build_knowledge_base(
                corpus_dir, replace(cfg, split=split), store_root=tmp_path / str(size), memo=memo
            )
            assert report.failures == []
            stored += report.chunk_count
        sent = [t for r in svc.requests for t in r["input"]]
    assert len(sent) < stored  # the second build took some rows from the memo
    assert built == []
    assert len(sent) == len(set(sent)) == len(memo)


def test_failures_are_listed_in_path_order(small_corpus, tmp_path):
    # paper-00 fails while indexing, after zz-broken.txt was loaded and failed
    corpus_dir, truths = small_corpus
    (corpus_dir / "zz-broken.txt").write_bytes(b"\xff\xfe bad")
    with _BadFirstEmbedding(0.0, dim=DIM) as svc:
        report = build_knowledge_base(corpus_dir, _config(svc, tmp_path))
    assert [Path(f.path).name for f in report.failures] == ["paper-00.txt", "zz-broken.txt"]
    assert report.document_count == len(truths) - 1
    assert sorted(KnowledgeBase.open(tmp_path / "kb").doc_ids()) == sorted(set(truths) - {"paper-00"})


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_kb_bytes_do_not_depend_on_where_the_corpus_sits(small_corpus, tmp_path):
    corpus_dir, truths = small_corpus
    moved = tmp_path / "elsewhere" / "at" / "a" / "deeper" / "path"
    shutil.copytree(corpus_dir, moved)
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        build_knowledge_base(corpus_dir, cfg, store_root=tmp_path / "kb-a")
        build_knowledge_base(moved, cfg, store_root=tmp_path / "kb-b")
    first, second = _tree(tmp_path / "kb-a"), _tree(tmp_path / "kb-b")
    assert len(first) == 3 + len(truths)
    assert first == second
    kb = KnowledgeBase.open(tmp_path / "kb-b")
    assert kb.document("paper-00").source_path == "paper-00.txt"


def test_snapshot_holding_an_absolute_source_path_still_opens(small_corpus, tmp_path):
    # a snapshot written before the file name replaced the path, under a valid checksum
    corpus_dir, _ = small_corpus
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        build_knowledge_base(corpus_dir, cfg)
    root = Path(cfg.store_path)
    fresh = KnowledgeBase.open(root).aux_index("paper-00")
    data = json.loads((root / "docs" / "paper-00.json").read_text(encoding="utf-8"))
    data["source_path"] = str((corpus_dir / "paper-00.txt").resolve())
    _reseal(root, "paper-00", json.dumps(data, ensure_ascii=False).encode("utf-8"))
    kb = KnowledgeBase.open(root)
    assert kb.document("paper-00").source_path == data["source_path"]
    assert kb.aux_index("paper-00") == fresh and kb.aux_index("paper-00").entries == fresh.entries != ()


def test_a_body_holding_a_unicode_line_separator_builds_a_kb_that_opens(tmp_path):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    body = "Flame speed\n\nLaminar flames\u2028propagate at a speed set by the mixture.\n"
    (corpus_dir / "note.txt").write_text(body, encoding="utf-8")
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        report = build_knowledge_base(corpus_dir, cfg)
    assert report.failures == []
    kb = KnowledgeBase.open(cfg.store_path)
    assert len(kb.store) == report.chunk_count
    assert any("\u2028" in rec.text for rec in kb.store.records())


@pytest.mark.parametrize(
    "fault, match",
    [(dict(fail_when=lambda texts: True), "status 500"), (dict(wrong_dim=DIM + 1), "dimension")],
    ids=["status-500", "wrong-dim"],
)
def test_a_build_whose_every_batch_fails_fails_every_document_and_writes_nothing(
    small_corpus, tmp_path, monkeypatch, fault, match
):
    monkeypatch.setattr(embedding_mod, "_RETRY_BASE_S", 0.01)
    corpus_dir, truths = small_corpus
    with StubEmbeddingService(dim=DIM, **fault) as svc:
        report = build_knowledge_base(corpus_dir, _config(svc, tmp_path))
    assert report.document_count == 0
    assert [Path(f.path).stem for f in report.failures] == sorted(truths)
    assert all(re.search(match, f.error) for f in report.failures)
    assert not (tmp_path / "kb").exists()


def test_a_rebuild_with_the_embedding_service_down_keeps_the_knowledge_base(
    small_corpus, tmp_path, monkeypatch
):
    monkeypatch.setattr(embedding_mod, "_RETRY_BASE_S", 0.01)
    corpus_dir, truths = small_corpus
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        first = build_knowledge_base(corpus_dir, cfg)
    before = _tree(tmp_path / "kb")
    with StubEmbeddingService(dim=DIM, fail_when=lambda texts: True) as down:
        report = build_knowledge_base(corpus_dir, _config(down, tmp_path))
    assert len(report.failures) == len(truths)
    assert _tree(tmp_path / "kb") == before
    kb = KnowledgeBase.open(cfg.store_path)
    assert kb.doc_ids() == sorted(truths)
    assert len(kb.store) == first.chunk_count > 0


def test_an_empty_corpus_still_writes_an_empty_knowledge_base(tmp_path):
    (tmp_path / "corpus").mkdir()
    with StubEmbeddingService(dim=DIM) as svc:
        report = build_knowledge_base(tmp_path / "corpus", _config(svc, tmp_path))
        assert svc.requests == []
    assert report.failures == [] and report.document_count == 0
    kb = KnowledgeBase.open(tmp_path / "kb")
    assert len(kb.store) == 0 and kb.doc_ids() == []


# --- store format version 3: each chunk's text is a span of a checksummed snapshot ----------


def _chain(root, emb_url, chat_url, dim=DIM):
    cfg = default_config(emb_url, chat_url)
    cfg = replace(cfg, embedding=replace(cfg.embedding, expected_dim=dim), store_path=str(root))
    return QueryChain(KnowledgeBase.open(root), cfg)


def test_an_open_kb_refuses_a_snapshot_rebuilt_under_it(small_corpus, tmp_path):
    corpus_dir, truths = small_corpus
    question = question_for(truths["paper-00"])
    with StubEmbeddingService(dim=DIM) as svc, StubChatService(echo_citations_responder()) as chat:
        cfg = _config(svc, tmp_path)
        build_knowledge_base(corpus_dir, cfg)
        chain = _chain(cfg.store_path, svc.url, chat.url)
        for path in corpus_dir.glob("*.txt"):
            path.write_text("Preface\n\n" + "A prefix. " * 940 + "\n\n" + path.read_text("utf-8"), "utf-8")
        assert build_knowledge_base(corpus_dir, cfg).failures == []
        with pytest.raises(CorruptStore, match=r"paper-\d\d\.json: checksum mismatch"):
            chain.answer(question, mode="mode2")
        assert chat.requests == []
        # a fresh open reads the rebuilt knowledge base whole
        assert _chain(cfg.store_path, svc.url, chat.url).answer(question, mode="mode2").verification.passed


def test_a_snapshot_edited_to_another_body_is_a_corrupt_store_and_a_missing_one_io_failure(
    small_corpus, tmp_path
):
    corpus_dir, _ = small_corpus
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        build_knowledge_base(corpus_dir, cfg)
    docs = Path(cfg.store_path) / "docs"
    data = json.loads((docs / "paper-00.json").read_text(encoding="utf-8"))
    # valid JSON of the same document, with one character of its body changed
    edited = {**data, "body": data["body"].replace("e", "E", 1)}
    (docs / "paper-00.json").write_text(json.dumps(edited, ensure_ascii=False), encoding="utf-8")
    (docs / "paper-01.json").unlink()
    kb = KnowledgeBase.open(cfg.store_path)
    with pytest.raises(CorruptStore, match="paper-00.json: checksum mismatch"):
        kb.document("paper-00")
    with pytest.raises(CorruptStore, match="paper-00.json"):
        kb.store.records()
    with pytest.raises(IoFailure, match="no document snapshot for 'paper-01'"):
        kb.aux_index("paper-01")
    assert kb.document("paper-02").doc_id == "paper-02"


def test_upsert_refuses_a_chunk_whose_text_is_not_its_body_slice(small_corpus, tmp_path):
    corpus_dir, _ = small_corpus
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        build_knowledge_base(corpus_dir, cfg)
    store = VectorStore.open(cfg.store_path)
    before = store.rows()
    doc = store.document("paper-00")
    records, rows = zip(*[(r, row) for r, row in zip(*before) if r.doc_id == "paper-00"])
    changes = {
        "text": replace(records[1], text=records[1].text + "!"),
        "offset": replace(records[1], end_offset=records[1].end_offset - 1),
        "past the body": replace(records[-1], end_offset=len(doc.body) + 5),
        "document": replace(records[1], doc_id="paper-01"),
        "metadata": replace(records[1], metadata={**records[1].metadata, "title": "Another"}),
    }
    for case, changed in changes.items():
        batch = [records[0], changed, *records[2:]]
        with pytest.raises(ValueError, match="record .* (is not|names|metadata)"):
            store.upsert(batch, rows, document=doc)
        assert store.rows() == before, case
    other = replace(doc, body=doc.body + " more")
    with pytest.raises(ValueError, match="another body"):
        store.upsert(list(records), rows, document=other)
    with pytest.raises(InvalidParams, match="with their document"):
        store.upsert(list(records), rows)
    assert store.rows() == before
    assert store.upsert(list(records), rows, document=doc) == len(records)  # the same chunks again
    assert store.rows()[0] == before[0]


def test_a_kb_store_and_a_bare_store_round_trip_records_alike(small_corpus, tmp_path):
    corpus_dir, _ = small_corpus
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        build_knowledge_base(corpus_dir, cfg)
    kb_store = VectorStore.open(cfg.store_path)
    records = kb_store.records()
    bare = VectorStore(DIM)
    bare.upsert(records)
    bare.persist(tmp_path / "bare")
    kb_store.persist(tmp_path / "again")
    for path in (tmp_path / "bare", tmp_path / "again"):
        assert VectorStore.open(path).records() == records
    assert _tree(tmp_path / "again") == _tree(Path(cfg.store_path))
    columns = json.loads((Path(cfg.store_path) / "records.json").read_text(encoding="utf-8"))
    assert sorted(columns) == ["chunk_id", "doc_id", "documents", "end_offset", "start_offset"]
    bare_columns = json.loads((tmp_path / "bare" / "records.json").read_text(encoding="utf-8"))
    assert "text" in bare_columns and "documents" not in bare_columns


def test_metadata_and_cluster_stats_read_no_snapshot(small_corpus, tmp_path, monkeypatch):
    corpus_dir, truths = small_corpus
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        build_knowledge_base(corpus_dir, cfg)
    store = VectorStore.open(cfg.store_path)
    expected = [dict(r.metadata) for r in VectorStore.open(cfg.store_path).records()]
    monkeypatch.setattr(VectorStore, "_load", None)
    metadata, _ = store.columns("metadata")
    assert [dict(m) for m in metadata] == expected
    assert {m["doc_id"]: m["source"] for m in expected} == {d: f"{d}.txt" for d in truths}
    stats = cluster_stats(store, "title", Metric.euclidean())
    assert len(stats.labels) == len(truths)


def test_a_kb_whose_header_says_version_2_is_refused_at_open_and_a_build_rewrites_it(
    small_corpus, tmp_path
):
    # a version-2 store read its snapshots unchecked, so it would answer from a
    # rebuilt snapshot: only version 3 opens
    corpus_dir, truths = small_corpus
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        build_knowledge_base(corpus_dir, cfg)
        header_path = Path(cfg.store_path) / "header.json"
        header = json.loads(header_path.read_text())
        header_path.write_text(json.dumps({**header, "format_version": 2}))
        with pytest.raises(CorruptStore, match="format_version 2: this litrag reads format 3; rebuild"):
            KnowledgeBase.open(cfg.store_path)
        assert build_knowledge_base(corpus_dir, cfg).failures == []
    assert json.loads(header_path.read_text()) == header
    assert KnowledgeBase.open(cfg.store_path).doc_ids() == sorted(truths)


def test_stores_opened_on_equal_snapshots_share_each_document_but_check_their_own(
    small_corpus, tmp_path
):
    corpus_dir, _ = small_corpus
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        build_knowledge_base(corpus_dir, cfg, store_root=tmp_path / "a")
        build_knowledge_base(corpus_dir, cfg, store_root=tmp_path / "b")
    first = KnowledgeBase.open(tmp_path / "a")
    doc = first.document("paper-00")
    assert KnowledgeBase.open(tmp_path / "b").document("paper-00") is doc  # parsed once
    (tmp_path / "b" / "docs" / "paper-00.json").write_bytes(_snapshot_of(doc, body=doc.body + "!"))
    (tmp_path / "b" / "docs" / "paper-01.json").unlink()
    first.document("paper-01")
    second = KnowledgeBase.open(tmp_path / "b")
    with pytest.raises(CorruptStore, match="checksum mismatch"):
        second.document("paper-00")
    with pytest.raises(IoFailure):
        second.document("paper-01")


def _snapshot_of(doc: Document, **changes) -> bytes:
    return json.dumps({**doc.to_dict(), **changes}, ensure_ascii=False).encode("utf-8")
