"""Knowledge base assembly and access.

A knowledge base is a directory:

    <root>/header.json, records.json, matrix.bin   chunk store
    <root>/docs/<doc_id>.body                      document snapshot: its body

or, for a row of a sweep, the chunk store alone, its records.json naming
``"../docs"`` as its snapshot directory, which the sweep's rows share.

The chunk store is a store of documents in format version 4 (see
:mod:`litrag.store`), which owns the snapshots. Its records.json holds each
chunk as its id, its document and its offsets, and a table of the documents
with each one's file name, title and the sha256 of its snapshot; its header
holds a sha256 of matrix.bin and one of records.json. So a chunk's text is
stored once, in its document's body, a document's id and file name once, in
the table, and a snapshot that was rebuilt or modified after the store was
written raises CorruptStore when it is first read. Only version 4 opens: a
knowledge base of an earlier version raises CorruptStore at ``open``, and a
build into its root (which never reads the store it replaces) rewrites it
in version 4, leaving a version-3 root's ``docs/*.json`` in place, unread.
A build into its own ``docs/`` leaves its ``*.body`` files a snapshot of
exactly the documents the store indexes, and no other file there touched,
so a corpus kept in that directory survives; it writes only the snapshots
whose files do not already hold their bytes; ``doc_ids`` reads the
documents from the store.

Document snapshots keep the citation guard exact at query time: a
document's aux index (``aux_index``), kept for the life of the
``KnowledgeBase``, cuts its expanded chunks from the same text the chunks
were cut from on the document's first use, and parses its reference section
when its citations are first needed. The store reads each snapshot once,
for the text of the records it hands out and for the aux index alike.

A build (``build_knowledge_base``) loads a corpus directory, or takes a
``Corpus`` already loaded, splits its documents and makes one embedding call
over the distinct chunk texts they hold: each goes to the embedding service
once, in full batches. The builds of one sweep share one load, so every row
indexes the same documents, and one memo of float32 rows, handed to the store
as they are, so each text is sent once per sweep. A failure still fails only
the documents it touches.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .citations import AuxIndex, build_auxiliary_index
from .config import EngineConfig
from .embedding import embed_texts
from .errors import LitragError, PartialFailure
from .ingest import Corpus, Document, IngestReport, load_corpus, split_corpus
from .store import VectorStore


class KnowledgeBase:
    """Read access to a persisted knowledge base: its store, and each
    document's snapshot and aux index, loaded on first use and kept."""

    def __init__(self, root: str | Path, store: VectorStore):
        self.root = Path(root)
        self.store = store
        self._aux: dict[str, AuxIndex] = {}

    @classmethod
    def open(cls, root: str | Path) -> "KnowledgeBase":
        root = Path(root)
        store = VectorStore.open(root)
        return cls(root, store)

    def doc_ids(self) -> list[str]:
        """The sorted ids of the documents the store indexes."""
        doc_ids, _ = self.store.columns("doc_id")
        return sorted(set(doc_ids))

    def document(self, doc_id: str) -> Document:
        """The document ``doc_id``, as ``VectorStore.document`` reads it."""
        return self.store.document(doc_id)

    def aux_index(self, doc_id: str) -> AuxIndex:
        """The citation material of ``doc_id``: its expanded chunks, cut on
        the first call, and its reference section, parsed when ``entries`` is
        first read."""
        if doc_id not in self._aux:
            self._aux[doc_id] = build_auxiliary_index(self.document(doc_id))
        return self._aux[doc_id]


def build_knowledge_base(
    corpus: str | Path | Corpus,
    config: EngineConfig,
    *,
    store_root: str | Path | None = None,
    extractor: str | None = None,
    max_workers: int = 4,
    memo: dict[str, np.ndarray] | None = None,
    snapshots: str = "docs",
) -> IngestReport:
    """Load, split, embed and persist a corpus into a knowledge base directory.

    ``corpus`` is a corpus directory, which ``load_corpus`` loads with
    ``extractor`` and ``max_workers``, or a ``Corpus`` it already loaded:
    ``sweep_chunking`` loads once and hands every row the same documents and
    load failures, so each row reports what a build of its own directory
    would. ``split_corpus`` splits the documents with ``config.split``; then
    one ``embed_texts`` call embeds the distinct chunk texts not in
    ``memo``, in first-seen order, so requests hold full batches across
    documents, and each document is upserted, in path order.

    ``memo`` maps a chunk text to its float32 row, the store's own
    precision, which the upsert takes as it is. A text in it is not sent
    again: ``sweep_chunking`` passes one memo to all the builds of a sweep.
    Every row that comes back enters the memo, a zero or overflowing one
    too, so the store fails each document holding it in every build that
    uses the memo; a text whose batch failed does not enter it.

    Failures stay per document. A document with a chunk in a failed batch
    (a ``PartialFailure``, or a ServiceUnreachable or DimensionMismatch,
    which fails every document with a text sent) fails with that error, and
    a zero or overflowing row fails its own document at its upsert; each is
    recorded with ``IngestReport.fail``, which keeps failures in path order.
    A LitragError while loading a document fails it inside the load's
    per-file isolation. A build that failed documents and indexed none
    leaves ``root`` as it was. Otherwise the store, given each indexed
    document with its chunks, is persisted with its snapshots in
    ``snapshots``, a directory relative to ``root`` (``VectorStore.persist``).
    Its own ``docs/`` then holds a snapshot of each indexed document and of
    no other (snapshots left by an earlier build into ``root`` are deleted);
    a directory the rows of a sweep share, such as ``"../docs"``, gains
    this build's snapshots and loses none. A snapshot that cannot be written
    or deleted raises IoFailure.
    """
    root = Path(store_root if store_root is not None else config.store_path)
    emb = config.embedding
    store = VectorStore(emb.expected_dim, documents=True)
    memo = {} if memo is None else memo
    if not isinstance(corpus, Corpus):
        corpus = load_corpus(corpus, extractor=extractor, max_workers=max_workers)
    report, loaded = split_corpus(corpus, config.split)
    texts = list(dict.fromkeys(c.text for _, cs in loaded for c in cs if c.text not in memo))
    lost: dict[str, str] = {}  # a text whose batch failed: the error
    if texts:
        try:
            rows = embed_texts(texts, emb, tokenizer=config.tokenizer)
        except PartialFailure as exc:
            rows, lost = exc.rows, dict.fromkeys([texts[i] for i in exc.failed_indexes], str(exc))
        except LitragError as exc:  # nothing came back
            rows, lost = np.empty((0, emb.expected_dim)), dict.fromkeys(texts, str(exc))
        with np.errstate(over="ignore"):  # the store fails an overflowing row's document
            rows = rows.astype(np.float32)
        memo.update((t, row) for t, row in zip(texts, rows) if t not in lost)
    indexed = False
    for doc, chunks in loaded:
        error = next((lost[c.text] for c in chunks if c.text in lost), None)
        if error is None:
            try:
                store.upsert(chunks, [memo[c.text] for c in chunks], document=doc)
                indexed = True
            except LitragError as exc:  # a zero or overflowing row
                error = str(exc)
        if error is not None:
            report.fail(doc.source_path, error)
    if report.failures and not indexed:
        return report  # nothing to replace what ``root`` holds with
    store.persist(root, snapshots)
    return report
