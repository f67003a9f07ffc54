"""Knowledge base assembly and access.

A knowledge base is a directory:

    <root>/header.json, records.jsonl, matrix.bin   chunk store
    <root>/docs/<doc_id>.json                       document snapshot (body, title,
                                                    reference-section span, file name)

Document snapshots keep the citation guard exact at query time: on a
document's first use, its reference section is parsed and its expanded
chunks are cut from the same text the chunks were cut from, and the result
(``aux_index``) is kept for the life of the ``KnowledgeBase``.
"""

from __future__ import annotations

import json
from pathlib import Path

from .citations import AuxIndex, build_auxiliary_index
from .config import EngineConfig
from .embedding import embed_texts
from .errors import IoFailure
from .ingest import Chunk, Document, IngestReport, ingest_corpus
from .store import ChunkRecord, VectorStore


class KnowledgeBase:
    """Read access to a persisted knowledge base."""

    def __init__(self, root: str | Path, store: VectorStore):
        self.root = Path(root)
        self.store = store
        self._docs: dict[str, Document] = {}
        self._aux: dict[str, AuxIndex] = {}

    @classmethod
    def open(cls, root: str | Path) -> "KnowledgeBase":
        root = Path(root)
        store = VectorStore.open(root)
        return cls(root, store)

    def doc_ids(self) -> list[str]:
        docs_dir = self.root / "docs"
        if not docs_dir.is_dir():
            return []
        return sorted(p.stem for p in docs_dir.glob("*.json"))

    def document(self, doc_id: str) -> Document:
        if doc_id not in self._docs:
            path = self.root / "docs" / f"{doc_id}.json"
            try:
                self._docs[doc_id] = Document.from_dict(json.loads(path.read_text(encoding="utf-8")))
            except OSError as exc:
                raise IoFailure(f"no document snapshot for {doc_id!r} at {path}") from exc
        return self._docs[doc_id]

    def aux_index(self, doc_id: str) -> AuxIndex:
        if doc_id not in self._aux:
            self._aux[doc_id] = build_auxiliary_index(self.document(doc_id))
        return self._aux[doc_id]


def build_knowledge_base(
    corpus_dir: str | Path,
    config: EngineConfig,
    *,
    store_root: str | Path | None = None,
    extractor: str | None = None,
    max_workers: int = 4,
) -> IngestReport:
    """Ingest, embed and persist a corpus into a knowledge base directory.

    Each document is embedded and upserted as ``ingest_corpus`` streams it
    past, inside ingest's per-file isolation: a LitragError while loading,
    embedding or storing a document fails that document alone, and the
    returned report is ingest's own. Once ingest returns, ``docs/`` is
    created and holds a snapshot of each indexed document, and the store is
    persisted.
    """
    root = Path(store_root if store_root is not None else config.store_path)
    store = VectorStore(config.embedding.expected_dim)
    indexed: list[Document] = []

    def index(doc: Document, chunks: list[Chunk]) -> None:
        source = Path(doc.source_path).name
        vectors = embed_texts(
            [c.text for c in chunks], config.embedding, tokenizer=config.tokenizer
        )
        store.upsert(
            [
                ChunkRecord(
                    chunk_id=chunk.chunk_id,
                    doc_id=chunk.doc_id,
                    text=chunk.text,
                    start_offset=chunk.start_offset,
                    end_offset=chunk.end_offset,
                    embedding=vectors[i],
                    metadata={"source": source, "doc_id": doc.doc_id, "title": doc.title},
                )
                for i, chunk in enumerate(chunks)
            ]
        )
        indexed.append(doc)

    report = ingest_corpus(
        corpus_dir,
        config.split,
        extractor=extractor,
        on_document=index,
        max_workers=max_workers,
    )
    (root / "docs").mkdir(parents=True, exist_ok=True)
    for doc in indexed:
        snapshot = {**doc.to_dict(), "source_path": Path(doc.source_path).name}
        (root / "docs" / f"{doc.doc_id}.json").write_text(
            json.dumps(snapshot, ensure_ascii=False), encoding="utf-8"
        )
    store.persist(root)
    return report
