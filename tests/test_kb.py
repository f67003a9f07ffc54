import json
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from litrag.config import default_config
from litrag.errors import IoFailure
from litrag.kb import KnowledgeBase, build_knowledge_base
from litrag.store import Metric
from litrag.testing import StubEmbeddingService, make_corpus

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
    assert (root / "records.jsonl").is_file()
    assert (root / "matrix.bin").is_file()
    for doc_id in truths:
        assert (root / "docs" / f"{doc_id}.json").is_file()
    assert not (root / "aux").exists()


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


class _ZeroFirstEmbedding(StubEmbeddingService):
    """Answers the first text of its first request with a zero vector."""

    def handle_payload(self, payload):
        status, body = super().handle_payload(payload)
        if len(self.requests) == 1:
            body["data"][0]["embedding"] = [0.0] * self.dim
        return status, body


def test_zero_embedding_fails_its_document_not_the_kb(small_corpus, tmp_path):
    corpus_dir, truths = small_corpus
    with _ZeroFirstEmbedding(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        report = build_knowledge_base(corpus_dir, cfg)
    assert len(report.failures) == 1
    assert "zero embedding" in report.failures[0].error
    kb = KnowledgeBase.open(cfg.store_path)
    assert len(kb.store) == report.chunk_count
    assert kb.store.top_k([1.0] * DIM, 3, Metric.cosine())


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
    # snapshots written before the file name replaced the path
    corpus_dir, _ = small_corpus
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        build_knowledge_base(corpus_dir, cfg)
    snapshot = Path(cfg.store_path) / "docs" / "paper-00.json"
    fresh = KnowledgeBase.open(cfg.store_path).aux_index("paper-00")
    data = json.loads(snapshot.read_text(encoding="utf-8"))
    data["source_path"] = str((corpus_dir / "paper-00.txt").resolve())
    snapshot.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
    kb = KnowledgeBase.open(cfg.store_path)
    assert kb.document("paper-00").source_path == data["source_path"]
    assert kb.aux_index("paper-00") == fresh
