"""Knowledge base assembly and access.

A knowledge base is a directory:

    <root>/header.json, records.jsonl, matrix.bin   chunk store
    <root>/docs/<doc_id>.json                       document snapshot (id, body, file name)

Document snapshots keep the citation guard exact at query time: on a
document's first use, its reference section is located and parsed and its
expanded chunks are cut from the same text the chunks were cut from, and
the result (``aux_index``) is kept for the life of the ``KnowledgeBase``.

A build (``build_knowledge_base``) queues documents as ingest loads them
and embeds them in flushes across documents: each distinct chunk text it
needs goes to the embedding service once, in full batches, and a memo of
float32 rows, handed to the store as they are, lets the builds of one sweep
share what was sent. A failure still fails only the documents it touches.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .citations import AuxIndex, build_auxiliary_index
from .config import EngineConfig
from .embedding import embed_texts
from .errors import (
    CorruptStore,
    EmptyDocument,
    IoFailure,
    LitragError,
    PartialFailure,
)
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
                doc = Document.from_dict(json.loads(path.read_text(encoding="utf-8")))
            except OSError as exc:
                raise IoFailure(f"no document snapshot for {doc_id!r} at {path}") from exc
            except (ValueError, KeyError, TypeError, EmptyDocument) as exc:
                raise CorruptStore(f"damaged document snapshot at {path}: {exc!r}") from exc
            if doc.doc_id != doc_id:
                raise CorruptStore(
                    f"damaged document snapshot at {path}: it holds document {doc.doc_id!r}"
                )
            self._docs[doc_id] = doc
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
    memo: dict[str, np.ndarray] | None = None,
) -> IngestReport:
    """Ingest, embed and persist a corpus into a knowledge base directory.

    ``ingest_corpus`` hands each loaded document to a queue. The queue is
    flushed once the distinct queued texts not yet embedded reach
    ``batch_size * max_parallel_requests``, and once more after ingest
    returns. A flush makes one ``embed_texts`` call over those texts, in
    first-seen order, so requests hold full batches across documents; then
    it makes one ``store.upsert`` per queued document, in path order.

    ``memo`` maps a chunk text to its embedding as a float32 row, the
    store's own precision, and each document's upsert takes its chunks' memo
    rows as they are. A text in it is not sent again: ``sweep_chunking``
    passes one memo to all the builds of a sweep. A build without one starts
    from an empty memo. Every row that comes back enters the memo, a zero or
    overflowing one too: the store fails each document holding it, in every
    build that uses the memo. A text whose batch failed does not enter the
    memo, and is not sent again in this build.

    Failures stay per document. A document with a chunk in a failed batch
    (a ``PartialFailure``, or a flush that raises ServiceUnreachable or
    DimensionMismatch, which fails every queued document) fails with that
    error, and a zero or overflowing row fails its own document at its
    upsert. Each is recorded with ``IngestReport.fail``, which moves it
    from the report's ``documents`` to its ``failures``, kept in path order;
    any other LitragError while loading a document fails it inside
    ingest's per-file isolation. Once
    the last flush is done, ``docs/`` is created and holds a snapshot of
    each indexed document and of no other (snapshots left by an earlier
    build into ``root`` are deleted), and the store is persisted. A
    snapshot that cannot be written or deleted raises IoFailure.
    """
    root = Path(store_root if store_root is not None else config.store_path)
    emb = config.embedding
    store = VectorStore(emb.expected_dim)
    memo = {} if memo is None else memo
    queued: list[tuple[Document, list[Chunk]]] = []
    unembedded: dict[str, None] = {}  # queued texts in neither memo nor lost, first-seen order
    lost: dict[str, str] = {}  # a text whose batch failed in this build: the error
    failed: dict[str, str] = {}  # source path -> error: listed by ingest, not indexed
    indexed: list[Document] = []

    def index(doc: Document, chunks: list[Chunk]) -> None:
        queued.append((doc, chunks))
        unembedded.update(
            dict.fromkeys(c.text for c in chunks if c.text not in memo and c.text not in lost)
        )
        if len(unembedded) >= emb.batch_size * emb.max_parallel_requests:
            flush()

    def flush() -> None:
        texts = list(unembedded)
        unembedded.clear()
        if texts:
            try:
                vectors = embed_texts(texts, emb, tokenizer=config.tokenizer)
            except PartialFailure as exc:
                vectors, error = exc.vectors, str(exc)
            except LitragError as exc:  # nothing came back
                vectors, error = [None] * len(texts), str(exc)
            lost.update((t, error) for t, v in zip(texts, vectors) if v is None)
            back = {t: v.values for t, v in zip(texts, vectors) if v is not None}
            with np.errstate(over="ignore"):  # the store fails an overflowing row's document
                memo.update(zip(back, np.array(list(back.values()), dtype=np.float32)))
        for doc, chunks in queued:
            error = next((lost[c.text] for c in chunks if c.text in lost), None)
            if error is None:
                try:
                    store.upsert(_records(doc, chunks), [memo[c.text] for c in chunks])
                except LitragError as exc:  # a zero or overflowing row
                    error = str(exc)
            if error is None:
                indexed.append(doc)
            else:
                failed[doc.source_path] = error
        queued.clear()

    report = ingest_corpus(
        corpus_dir,
        config.split,
        extractor=extractor,
        on_document=index,
        max_workers=max_workers,
    )
    flush()
    for path, error in failed.items():
        report.fail(path, error)
    docs = root / "docs"
    written = {f"{doc.doc_id}.json" for doc in indexed}
    try:
        docs.mkdir(parents=True, exist_ok=True)
        for doc in indexed:
            snapshot = {**doc.to_dict(), "source_path": Path(doc.source_path).name}
            (docs / f"{doc.doc_id}.json").write_text(
                json.dumps(snapshot, ensure_ascii=False), encoding="utf-8"
            )
        for path in docs.glob("*.json"):
            if path.name not in written:
                path.unlink()  # a document this build did not index
    except OSError as exc:
        raise IoFailure(f"cannot write document snapshots under {docs}: {exc}") from exc
    store.persist(root)
    return report


def _records(doc: Document, chunks: list[Chunk]) -> list[ChunkRecord]:
    """The records of ``doc``'s chunks, with ``embedding=None``: a flush
    hands their memo rows to ``upsert`` beside them."""
    metadata = {"source": Path(doc.source_path).name, "doc_id": doc.doc_id, "title": doc.title}
    return [ChunkRecord(**vars(chunk), embedding=None, metadata=metadata) for chunk in chunks]
