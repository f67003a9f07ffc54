"""In-memory vector store with exact similarity search and MMR selection.

The store is an exhaustive exact index (no approximate structures): the
corpus scale this engine targets is small enough that a full scan is both
fast and trivially verifiable. Each embedding is held once, as its row of a
read-only float32 matrix that matches the on-disk format, so a persist/open
round trip is bit-exact. The other record fields are held as columns, one
list per field in row order, as they are on disk, with an index from
chunk_id to row. A :class:`ChunkRecord` is built only for a row the store
hands out: retrieval (``top_k``, ``mmr_select``) and ``rows`` return records
with ``embedding=None``, and only ``records`` and ``get`` attach a vector
rebuilt from the row; ``columns`` reads fields without building any. Each
record's ``metadata`` is a read-only mapping over the store's private copy,
so a record handed out cannot change the store; serialise it with
``dict(rec.metadata)``.

A store is one of two kinds. A *bare* store (``VectorStore(dim)``) holds
records that carry their own text and metadata, in columns. A store of
documents (``VectorStore(dim, documents=True)``, what a knowledge-base build
makes) holds each chunk as its id, its document and its offsets: ``upsert``
takes a document with its chunks and refuses a chunk whose text is not
``body[start:end]``, so a record's text is derived, when the store hands the
record out, from the one copy of the body, and its metadata ("source",
"doc_id", "title") from the document. The store owns those documents'
snapshots: ``persist`` writes them and ``document`` reads one back, checked.

Every score comes from one row scorer, :func:`score_rows` (a matrix and a
vector in, one float64 score per row out): ``similarity`` is a one-row call,
top-k is one call on the rows that can still make the top k, and MMR makes
one call per pick on its candidate pool.

The inner product is ``np.einsum('ij,j->i')`` on the float32 matrix and a
float64 vector: einsum casts each row to float64 as it goes, so a query needs
no N x dim float64 copy, and it reduces each row on its own, so a row's score
does not depend on where the row sits. Every returned score is that einsum.
BLAS gemv (``matrix @ vec``) only pre-filters, for cosine and inner_product:
one float32 gemv scores every row, and an error bound certifies which rows
can still make the top k. By Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., sec. 3.1, with u = 2^-24 and gamma_n = n u / (1 - n u)
for dim n, row r's gemv value is within

    (gamma_n (1 + u) + u) ||r|| ||q|| + 2^-149 n (1 + ||r||)

of the exact inner product under any summation order, blocking or FMA use,
rounding q to float32 and float32 underflow included. The store doubles that
band to also cover the einsum's own rounding and the cosine division, keeps
every row whose upper bound reaches the k-th largest lower bound, and
re-scores only those with the einsum; a query that is not finite, or large
enough that the gemv might overflow, keeps every row, as does a gemv that
comes back not finite. Since a row's einsum value is the same in any subset,
the ranking is exact: the same ids and score bits as an einsum over every
row. The distance metrics score every row. The store keeps each row's
float64 norm next to the matrix (computed per upsert batch and once at
``open``, never persisted), so cosine needs no per-query norm pass, and
ranking partitions to the k best rows before sorting.

On-disk layout (one directory per store), format version 4:
    header.json   {"dimension", "record_count", "format_version", "checksum",
                   "records_checksum"}
    records.json  one JSON object of per-field arrays (no embedding values):
                  a bare store's chunk_id, doc_id, text, start_offset,
                  end_offset and metadata; a store of documents' chunk_id,
                  doc_id, start_offset and end_offset, and "documents", a
                  table {doc_id: {"source", "title", "sha256"}} of the
                  documents the records name
    matrix.bin    row-major little-endian float32, row i = record i
    docs/<doc_id>.body  a store of documents' snapshot of each document:
                  its body's UTF-8 bytes; its id is the file's stem and
                  the table key, and its file name the table's "source".
                  No corpus file is a .body, so a snapshot directory that
                  is also a corpus directory loses none of its files
A store of documents may keep its snapshots in another directory, which
records.json then names, relative to the store's, as "snapshots": each row
of a sweep names ``"../docs"``, one directory all the rows share, so a
sweep writes each snapshot once and every store checks each read against
its own table. Without the key the directory is ``docs``; a value that is
not a nonempty str, or is an absolute path, is CorruptStore.
"checksum" is the sha256 of matrix.bin and "records_checksum" that of
records.json, whose table holds each snapshot's sha256, so ``open`` takes
only the bytes the header was written with, and a snapshot is checked when
it is first read, wherever it lies. ``persist`` writes each snapshot whose
file does not already hold its bytes (deleting any other ``*.body`` of its
own ``docs/`` only), then matrix.bin, records.json and the header. ``open``
reads version 4 only: a store written in an earlier version raises
CorruptStore naming its version, and a rebuild (``litrag ingest``) rewrites
it; a version-3 root's ``docs/*.json`` is left in place and never read. A
bare store holds no documents, so it reads no snapshot.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os
import threading
import weakref
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .embedding import EmbeddingVector
from .errors import (
    CorruptStore,
    DimensionHeaderMismatch,
    DimensionMismatch,
    EmptyDocument,
    EmptyStore,
    InvalidLambda,
    InvalidParams,
    IoFailure,
    LitragError,
    NonFiniteVector,
    ZeroVector,
)
from .ingest import Chunk, Document

FORMAT_VERSION = 4

# The record fields other than the embedding: a bare store's columns, in the order
# persist writes them.
_RECORD_FIELDS = ("chunk_id", "doc_id", "text", "start_offset", "end_offset", "metadata")
# A store of documents' columns: a record's text and metadata are its document's.
_SPAN_FIELDS = ("chunk_id", "doc_id", "start_offset", "end_offset")
# The keys of an entry of a store of documents' table, all strings.
_TABLE_KEYS = ("source", "title", "sha256")
# Each document read from a checked snapshot, by the snapshot's sha256, its id and
# its file name, while a store holds it: the stores of one process (the rows of a
# sweep, a knowledge base reopened) share its body. Two documents with equal
# bodies share a sha256, so the key holds all three.
_PARSED: weakref.WeakValueDictionary[tuple[str, str, str], Document] = weakref.WeakValueDictionary()
# Each document's snapshot bytes and their sha256, encoded on its first persist
# while the document lives: they depend only on its fields, so the rows of a
# sweep, which persist the same documents, encode and hash each once.
_ENCODED: weakref.WeakKeyDictionary[Document, tuple[bytes, str]] = weakref.WeakKeyDictionary()

_DISTANCE_KINDS = {"minkowski", "euclidean", "manhattan", "chebyshev"}
_SIMILARITY_KINDS = {"cosine", "inner_product"}

# float32 unit roundoff, and the absolute error of one float32 operation that
# underflows (half the smallest subnormal)
_U32 = 2.0**-24
_ETA32 = 2.0**-150


@dataclass(frozen=True)
class Metric:
    """A vector similarity or distance measure.

    Distance kinds (minkowski family) score lower-is-better; cosine and
    inner_product score higher-is-better.
    """

    kind: str
    p: float | None = None

    def __post_init__(self):
        if self.kind not in _DISTANCE_KINDS | _SIMILARITY_KINDS:
            raise InvalidParams(f"unknown metric kind {self.kind!r}")
        if self.kind == "minkowski":
            if self.p is None or not (1 <= self.p < math.inf):
                raise InvalidParams(f"minkowski metric requires a finite p >= 1, got {self.p}")
        elif self.p is not None:
            raise InvalidParams(f"metric {self.kind!r} does not take a p parameter")

    @property
    def is_distance(self) -> bool:
        return self.kind in _DISTANCE_KINDS

    @classmethod
    def minkowski(cls, p: float) -> "Metric":
        return cls("minkowski", p)

    @classmethod
    def euclidean(cls) -> "Metric":
        return cls("euclidean")

    @classmethod
    def manhattan(cls) -> "Metric":
        return cls("manhattan")

    @classmethod
    def chebyshev(cls) -> "Metric":
        return cls("chebyshev")

    @classmethod
    def cosine(cls) -> "Metric":
        return cls("cosine")

    @classmethod
    def inner_product(cls) -> "Metric":
        return cls("inner_product")

    def spec(self) -> str:
        """Compact string form, e.g. "cosine" or "minkowski:3"."""
        if self.kind == "minkowski":
            p = self.p
            return f"minkowski:{int(p) if p == int(p) else p}"
        return self.kind

    @classmethod
    def parse(cls, spec: str) -> "Metric":
        """The metric ``spec()`` names, e.g. "cosine" or "minkowski:3"."""
        if not isinstance(spec, str):
            raise InvalidParams(f"a metric spec must be a string, got {spec!r}")
        spec = spec.strip()
        if spec.startswith("minkowski"):
            _, _, p = spec.partition(":")
            try:
                p = float(p)
            except ValueError:
                raise InvalidParams(
                    f"minkowski metric spec needs a number p, e.g. minkowski:2, got {spec!r}"
                ) from None
            return cls.minkowski(p)
        return cls(spec)


def _as_array(vec) -> np.ndarray:
    if isinstance(vec, EmbeddingVector):
        return np.asarray(vec.values, dtype=np.float64)
    return np.asarray(vec, dtype=np.float64)


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    """The float64 L2 norm of each row of a float32 or float64 matrix; equal
    bit for bit whether a row is normed alone or with others."""
    return np.sqrt(np.einsum("ij,ij->i", matrix, matrix, dtype=np.float64))


def score_rows(
    matrix: np.ndarray, vec, m: Metric, norms: np.ndarray | None = None, qnorm: float | None = None
) -> np.ndarray:
    """Score each row of ``matrix`` (float32 or float64) against ``vec``
    under metric ``m``, in float64: one value per row, lower-is-more-similar
    for distances and higher-is-more-similar for cosine and inner_product.

    ``norms``, if given, must be ``_row_norms(matrix)`` of rows already
    proved nonzero, as the store's own are (``upsert`` and ``open`` reject
    zero rows); cosine uses it instead of norming every row again, and
    checks rows for zero only when it norms them itself. ``qnorm``, if
    given, must be the ``_row_norms`` value of ``vec``, such as the store's
    norm of a row scored against the others; cosine uses it instead of
    norming ``vec``.

    The one per-row scorer. Cluster statistics take euclidean inter-centroid
    distances from a Gram matrix instead, which falls back to this function
    where its error bound is loose. Shapes are the caller's to check.
    """
    vec = np.asarray(vec, dtype=np.float64)
    if m.kind in _SIMILARITY_KINDS:
        dots = np.einsum("ij,j->i", matrix, vec)
        if m.kind == "inner_product":
            return dots
        qn = float(_row_norms(vec[np.newaxis])[0]) if qnorm is None else qnorm
        own = norms is None
        norms = _row_norms(matrix) if own else norms
        if qn == 0.0 or (own and np.any(norms == 0.0)):
            raise ZeroVector("cosine similarity is undefined for a zero vector")
        return dots / (norms * qn)
    diff = matrix - vec  # a fresh float64 array, worked on in place
    if m.kind == "euclidean":
        return np.sqrt(np.square(diff, out=diff).sum(axis=1))  # x*x == |x|*|x| exactly
    np.abs(diff, out=diff)
    if m.kind == "manhattan":
        return diff.sum(axis=1)
    if m.kind == "chebyshev":
        return diff.max(axis=1, initial=0.0)
    p = float(m.p)  # type: ignore[arg-type]
    return np.power(np.power(diff, p).sum(axis=1), 1.0 / p)


def similarity(x, y, m: Metric) -> float:
    """Score two vectors under metric ``m``.

    Accepts EmbeddingVectors or plain float sequences. Distances return
    lower-is-more-similar values; cosine and inner_product return
    higher-is-more-similar values.
    """
    a = _as_array(x)
    b = _as_array(y)
    if a.shape != b.shape:
        raise DimensionMismatch(f"vector dimensions differ: {a.shape[0]} vs {b.shape[0]}")
    return float(score_rows(a[np.newaxis], b, m)[0])


@dataclass(frozen=True)
class ChunkRecord(Chunk):
    """A stored chunk: a :class:`~litrag.ingest.Chunk`, whose span maps it
    onto its expanded chunk, with an embedding and provenance metadata.

    ``upsert`` takes records with an embedding, or with ``embedding=None``
    and their rows beside them. Once stored, the embedding lives only as the
    record's matrix row: the store keeps the record with ``embedding=None``
    and hands it out that way; only ``records`` and ``get`` rebuild it.
    ``metadata`` must include a "source" key naming the source document.
    The store keeps it as a read-only mapping (``types.MappingProxyType``)
    over its own copy; ``dict(rec.metadata)`` gives a plain dict.
    """

    embedding: EmbeddingVector | None
    metadata: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class ScoredRecord:
    record: ChunkRecord
    score: float

    def __post_init__(self):
        if not math.isfinite(self.score):
            raise ValueError("score must be finite")


@dataclass(frozen=True)
class MMRParams:
    """Parameters of maximal-marginal-relevance selection.

    ``lambda_`` weighs relevance against redundancy: 1.0 reduces to plain
    best-first retrieval under ``sim1``, 0.0 selects purely for diversity.
    ``fetch_n`` is the candidate pool size; None means 4 * k.
    """

    lambda_: float
    k: int
    fetch_n: int | None = None
    sim1: Metric = Metric("cosine")
    sim2: Metric = Metric("cosine")

    def __post_init__(self):
        if not (0.0 <= self.lambda_ <= 1.0):
            raise InvalidLambda(f"lambda must be within [0, 1], got {self.lambda_}")
        if self.k <= 0:
            raise InvalidParams("k must be positive")
        self._check_pool()

    def _check_pool(self) -> None:
        if self.fetch_n is not None and self.fetch_n < self.k:
            raise InvalidParams("fetch_n must be >= k")

    def pool_size(self) -> int:
        return self.fetch_n if self.fetch_n is not None else 4 * self.k


def _fault(cols: dict[str, list]) -> tuple[int, str] | None:
    """The first row of ``cols`` (a list per stored record field, metadata
    as dicts) that no store may hold, and why; None if every row may be held.

    A chunk_id, doc_id and text must be a str, offsets an int (a bool is
    not) with 0 <= start <= end, and metadata a dict with a "source" entry.
    A store of documents has no text or metadata column to check.
    ``upsert`` and ``open`` both check their rows here, before any change.
    """
    strs = [key for key in ("chunk_id", "doc_id", "text") if key in cols]
    starts, ends, metas = cols["start_offset"], cols["end_offset"], cols.get("metadata", [])
    if (  # one pass per check over whole columns; the loop below names a fault
        {str}.issuperset(map(type, chain.from_iterable(cols[key] for key in strs)))
        and {int}.issuperset(map(type, chain(starts, ends)))
        and {dict}.issuperset(map(type, metas))
        and min(starts, default=0) >= 0
        and all(map(operator.le, starts, ends))
        and all("source" in meta for meta in metas)
    ):
        return None
    for i, cid in enumerate(cols["chunk_id"]):
        for key in strs:
            if not isinstance(cols[key][i], str):
                return i, f"record {cid!r} needs a str {key}, got {type(cols[key][i]).__name__}"
        start, end = starts[i], ends[i]
        if not (type(start) is int and type(end) is int and 0 <= start <= end):
            return i, (
                f"record {cid!r} needs int offsets with 0 <= start <= end, "
                f"got [{start!r}, {end!r})"
            )
        if metas and not (isinstance(metas[i], dict) and "source" in metas[i]):
            return i, f"record {cid!r} metadata must include a 'source' entry"
    return None


def _span_fault(doc: Document, meta: dict, records: Sequence, cols: dict[str, list]) -> str | None:
    """Why the first of ``records`` (a document upsert's, with ``cols`` the
    columns ``_fault`` passed) is not a chunk of ``doc``; None if all are.
    Each must name ``doc``, its text must be ``doc.body[start:end]`` within
    the body, and metadata it carries must be ``meta``, the document's."""
    body = doc.body
    spans = zip(records, *(cols[key] for key in _RECORD_FIELDS[:5]))
    for rec, cid, doc_id, text, start, end in spans:
        if doc_id != doc.doc_id:
            return f"record {cid!r} names document {doc_id!r}, not {doc.doc_id!r}"
        if end > len(body) or text != body[start:end]:
            return f"record {cid!r} text is not the body of {doc_id!r} at [{start}, {end})"
        if getattr(rec, "metadata", None) and dict(rec.metadata) != meta:
            return f"record {cid!r} metadata is not that of its document {doc_id!r}"
    return None


def _snapshot(doc: Document) -> tuple[bytes, str]:
    """The bytes of ``doc``'s snapshot (its body in UTF-8) and their
    sha256, encoded once per document (``_ENCODED``)."""
    encoded = _ENCODED.get(doc)
    if encoded is None:
        data = doc.body.encode("utf-8")
        encoded = _ENCODED[doc] = (data, _sha256(data))
    return encoded


def _unconvertible(records: list[ChunkRecord], rows: Sequence, dim: int) -> LitragError:
    """The refusal naming the first record whose row is not ``dim`` numbers."""
    for rec, row in zip(records, rows):
        try:
            if np.array(row, dtype=np.float64).shape == (dim,):
                continue
        except OverflowError:  # an integer beyond every float
            return NonFiniteVector(f"record {rec.chunk_id!r} is not finite")
        except (TypeError, ValueError):
            pass
        return InvalidParams(f"record {rec.chunk_id!r} holds a value that is not a number")
    return InvalidParams("upsert rows do not convert to float32")


class VectorStore:
    """Exhaustive exact vector index over ChunkRecords.

    Row i of the read-only matrix is record i's embedding, and entry i of
    each column is one of its other fields. The matrix is the first N rows
    of a buffer with spare capacity, and a published row is never written:
    an upsert that only appends writes past the published end, of the buffer
    and of the columns, and one that replaces a row copies both into fresh
    ones. So concurrent readers are safe against a single writer and never
    observe a partially applied upsert, even through a matrix taken before
    it. The buffer grows by doubling, so a build by per-document upserts
    copies each row a constant number of times on average. Persisting
    requires quiescence (no in-flight writes), which the internal lock
    enforces.
    """

    def __init__(self, dim: int, *, documents: bool = False):
        if dim <= 0:
            raise InvalidParams("dimension must be positive")
        self._dim = dim
        self._lock = threading.RLock()
        self._cols: dict[str, list] = {
            key: [] for key in (_SPAN_FIELDS if documents else _RECORD_FIELDS)
        }
        self._index: dict[str, int] = {}
        # a store of documents: each document's read-only metadata; the documents
        # held, as upsert took them or as first read; and, once opened, the
        # directory their snapshots are read from and each snapshot's sha256
        self._meta: dict[str, Mapping[str, object]] | None = {} if documents else None
        self._docs: dict[str, Document] = {}
        self._snapshots: str | None = None
        self._sums: dict[str, str] = {}
        self._publish(np.empty((0, dim), dtype=np.float32), np.empty(0), 0)

    def _publish(self, buf: np.ndarray, nbuf: np.ndarray, n: int) -> None:
        """Make rows ``buf[:n]`` the matrix and ``nbuf[:n]``, their
        ``_row_norms``, its norms; the rows past n are spare capacity."""
        self._buf, self._nbuf = buf, nbuf
        self._matrix, self._norms = buf[:n], nbuf[:n]
        self._matrix.flags.writeable = self._norms.flags.writeable = False

    @property
    def dim(self) -> int:
        return self._dim

    def __len__(self) -> int:
        with self._lock:
            return len(self._matrix)

    def _record_at(self, cols: dict[str, list], i: int, row: np.ndarray | None = None) -> ChunkRecord:
        """Row i of ``cols`` (the store's columns) as a record:
        ``embedding=None``, or ``row`` rebuilt as its embedding. A store of
        documents derives its text and metadata from its document."""
        embedding = None if row is None else EmbeddingVector(tuple(row.tolist()))
        fields = {key: col[i] for key, col in cols.items()}
        if self._meta is not None:
            doc_id = fields["doc_id"]
            body = self.document(doc_id).body
            fields["text"] = body[fields["start_offset"] : fields["end_offset"]]
            fields["metadata"] = self._meta[doc_id]
        return ChunkRecord(embedding=embedding, **fields)

    def _column(self, name: str) -> list:
        """Record field ``name`` of every row; the caller holds the lock.
        Only the text of a store of documents reads its snapshots."""
        if self._meta is None or name in self._cols:
            return list(self._cols[name])
        doc_ids = self._cols["doc_id"]
        if name == "metadata":
            return [self._meta[doc_id] for doc_id in doc_ids]
        if name != "text":
            raise KeyError(name)
        spans = zip(doc_ids, self._cols["start_offset"], self._cols["end_offset"])
        return [self.document(doc_id).body[start:end] for doc_id, start, end in spans]

    def columns(self, *names: str) -> tuple[list, ...]:
        """One consistent snapshot: a list of each named record field
        (``"chunk_id"``, ``"doc_id"``, ``"text"``, ``"start_offset"``,
        ``"end_offset"``, ``"metadata"``) in row order, then the read-only
        float32 matrix. Builds no record; each metadata is read-only."""
        with self._lock:
            return (*map(self._column, names), self._matrix)

    def rows(self) -> tuple[list[ChunkRecord], np.ndarray]:
        """One consistent snapshot: every record, with ``embedding=None`` and
        read-only ``metadata``, and the read-only float32 matrix whose row i
        is record i's embedding."""
        with self._lock:
            cols, matrix = self._cols, self._matrix
            return [self._record_at(cols, i) for i in range(len(matrix))], matrix

    def records(self) -> list[ChunkRecord]:
        """Every record with its embedding rebuilt from its row (N * dim
        Python floats; :meth:`rows` is the cheaper read)."""
        with self._lock:
            cols, matrix = self._cols, self._matrix
            return [self._record_at(cols, i, row) for i, row in enumerate(matrix)]

    def get(self, chunk_id: str) -> ChunkRecord | None:
        with self._lock:
            i = self._index.get(chunk_id)
            return self._record_at(self._cols, i, self._matrix[i]) if i is not None else None

    def document(self, doc_id: str) -> Document:
        """Document ``doc_id`` of a store of documents: as ``upsert`` took
        it, or read from its snapshot on first use and kept.

        The document is the table's doc_id and file name ("source") and
        the snapshot's body. A snapshot whose sha256 is not the one
        records.json holds for it (a rebuilt or modified file), or whose
        bytes are not UTF-8 or a blank body, raises CorruptStore naming the
        file; a missing one, or a document the store does not hold, raises
        IoFailure; a bare store holds none.
        """
        with self._lock:
            if doc_id not in self._docs:
                self._docs[doc_id] = self._load(doc_id)
            return self._docs[doc_id]

    def _load(self, doc_id: str) -> Document:
        digest = self._sums.get(doc_id)  # held by a store of documents opened from disk
        if digest is None:
            raise IoFailure(f"no document snapshot for {doc_id!r}: the store holds no such document")
        # a str path and an unbuffered read: a cold answer pays for each load
        path = os.path.join(self._snapshots, f"{doc_id}.body")
        try:
            with open(path, "rb", buffering=0) as fh:
                data = fh.readall()
        except OSError as exc:
            raise IoFailure(f"no document snapshot for {doc_id!r} at {path}: {exc}") from exc
        if _sha256(data) != digest:
            raise CorruptStore(
                f"damaged document snapshot at {path}: checksum mismatch "
                "(rebuilt or modified since the store was written)"
            )
        source = self._meta[doc_id]["source"]
        key = (digest, doc_id, source)
        doc = _PARSED.get(key)
        if doc is None:
            try:
                doc = Document(doc_id, data.decode("utf-8"), source)
            except (UnicodeDecodeError, EmptyDocument) as exc:
                raise CorruptStore(f"damaged document snapshot at {path}: {exc!r}") from exc
            _PARSED[key] = doc
        return doc

    def upsert(
        self,
        records: Sequence[Chunk],
        rows: Sequence | None = None,
        *,
        document: Document | None = None,
    ) -> int:
        """Insert or replace records by chunk_id. Returns the count applied.

        Each record carries its embedding, or, given ``rows`` (such as float32
        matrix rows), row i embeds record i and every record carries
        ``embedding=None``. All records are validated before any mutation, so
        a failed upsert leaves the store unchanged. A record's chunk_id,
        doc_id and text must be str, its offsets int with 0 <= start <= end
        and its metadata hold "source" (else ``ValueError``). A batch may
        name each chunk_id once, and no row may round to zero (cosine is
        undefined for it) or be other than finite in float32: one holding a
        NaN, an infinity not given as float32 or an integer beyond every
        float "is not finite"; any other, a float32 infinity included (a
        cast's overflow), "overflows float32". A row holding a value that is
        not a number is refused with ``InvalidParams``.

        A store of documents takes one ``document`` per call, and a bare
        store none (else ``InvalidParams``). Its records may be plain
        :class:`~litrag.ingest.Chunk` objects: each must name the document,
        and its text must be ``document.body[start:end]`` (else
        ``ValueError``); its metadata, if it carries any, must be the
        document's, ``{"source": <file name>, "doc_id", "title"}``. A
        document the store already holds must come with the same body.
        """
        carried = [getattr(rec, "embedding", None) is not None for rec in records]
        if rows is None and all(carried):
            rows = [rec.embedding.values for rec in records]
        elif rows is None or len(rows) != len(records) or any(carried):
            raise InvalidParams("upsert takes records with embeddings, or one row per bare record")
        if (document is None) != (self._meta is None):
            raise InvalidParams(
                "a store of documents takes records with their document, a bare store without"
            )
        if not records:  # nothing to write; the buffer choice below needs a slot
            return 0
        for rec, row in zip(records, rows):
            if len(row) != self._dim:
                raise DimensionMismatch(
                    f"record {rec.chunk_id!r} has dimension {len(row)}, store expects {self._dim}"
                )
        batch_cols = {key: [getattr(rec, key) for rec in records] for key in _RECORD_FIELDS[:5]}
        if document is None:  # a store of documents has no metadata column
            batch_cols["metadata"] = [dict(rec.metadata) for rec in records]
        else:
            meta = {"source": Path(document.source_path).name, "doc_id": document.doc_id,
                    "title": document.title}
        fault = _fault(batch_cols)
        if fault is not None:
            raise ValueError(fault[1])
        if document is not None:
            problem = _span_fault(document, meta, records, batch_cols)
            if problem is None and document.doc_id in self._meta:
                if self.document(document.doc_id).body != document.body:
                    problem = f"the store holds document {document.doc_id!r} with another body"
            if problem is not None:
                raise ValueError(problem)
        if len(set(batch_cols["chunk_id"])) != len(records):
            raise ValueError("an upsert batch names the same chunk_id twice")
        try:
            with np.errstate(over="ignore"):  # an overflowing row is reported just below
                batch = np.array(rows, dtype=np.float32)
        except (OverflowError, TypeError, ValueError):
            batch = None
        if batch is None or batch.shape != (len(records), self._dim):
            raise _unconvertible(records, rows, self._dim)
        bad = np.flatnonzero(~np.isfinite(batch).all(axis=1))
        if bad.size:
            row = rows[bad[0]]
            if getattr(row, "dtype", None) == np.float32:  # an infinity here is an overflow's
                finite_as_given = not np.isnan(row).any()
            else:
                finite_as_given = np.isfinite(np.asarray(row, dtype=np.float64)).all()
            cause = "overflows float32" if finite_as_given else "is not finite"
            raise NonFiniteVector(f"record {records[bad[0]].chunk_id!r} {cause}")
        zero = np.flatnonzero(~batch.any(axis=1))
        if zero.size:
            raise ZeroVector(f"record {records[zero[0]].chunk_id!r} has a zero embedding")
        batch_norms = _row_norms(batch)
        if document is None:
            batch_cols["metadata"] = list(map(MappingProxyType, batch_cols["metadata"]))
        with self._lock:
            if document is not None:  # a held document's body is the same: see above
                self._meta.setdefault(document.doc_id, MappingProxyType(meta))
                self._docs.setdefault(document.doc_id, document)
            published = len(self._matrix)
            index = self._index
            slots = [index.setdefault(cid, len(index)) for cid in batch_cols["chunk_id"]]
            n, capacity = len(self._index), len(self._buf)
            cols, buf, nbuf = self._cols, self._buf, self._nbuf
            # only an append writes in place, past the published rows; a replace copies
            # the columns, and a replace or an overflow the buffer, so no row a reader
            # may hold is ever written
            if min(slots) < published:
                cols = {key: list(col) for key, col in cols.items()}
            for key, col in cols.items():
                for i, value in zip(slots, batch_cols[key]):
                    if i < len(col):
                        col[i] = value
                    else:  # i is one past the end: new ids take the next slots in order
                        col.append(value)
            if min(slots) < published or n > capacity:
                if n > capacity:
                    capacity = max(64, 2 * capacity, n)
                buf = np.empty((capacity, self._dim), dtype=np.float32)
                buf[:published] = self._matrix
                nbuf = np.empty(capacity)
                nbuf[:published] = self._norms
            buf[slots] = batch
            nbuf[slots] = batch_norms
            self._cols = cols
            self._publish(buf, nbuf, n)
            return len(records)

    # --- retrieval -------------------------------------------------------

    def _in_band(self, query: np.ndarray, k: int, m: Metric) -> np.ndarray:
        """The rows that can still make the top k under cosine or
        inner_product, ascending: every row of the exact top k and its ties.
        The band is the module docstring's bound, doubled. A query that is
        not finite, or that the float32 gemv might overflow on, keeps every
        row, so that :func:`score_rows` meets it as it would in a full scan;
        so does a gemv value that is not finite.
        """
        n = self._dim
        qn = float(_row_norms(query[np.newaxis])[0])
        # below 2^127 neither q's float32 rounding nor any product or partial sum overflows
        if not qn * max(1.0, float(self._norms.max())) < 2.0**127:
            return np.arange(len(self._norms))
        gamma = n * _U32 / (1.0 - n * _U32)
        tiny = 4.0 * _ETA32 * n  # the doubled underflow term: band = wide ||r|| + tiny
        wide = 2.0 * (gamma * (1.0 + _U32) + _U32) * qn + tiny
        # under that guard and bound no flag the gemv raises is the arithmetic's (a
        # BLAS kernel may leave one); a value not finite keeps every row, not a NaN band
        with np.errstate(invalid="ignore", over="ignore"):
            approx = self._matrix @ query.astype(np.float32)
        if not np.isfinite(approx).all():
            return np.arange(len(self._norms))
        if m.kind == "cosine":  # cosine times ||q||, which ranks the same
            approx = approx / self._norms
            band = wide + tiny / self._norms
        else:
            band = wide * self._norms + tiny
        kth = max(len(approx) - k, 0)
        floor = np.partition(approx - band, kth)[kth]
        return np.flatnonzero(approx + band >= floor)

    def _rank(self, query_vec, k: int, m: Metric) -> tuple[np.ndarray, np.ndarray]:
        """Indices of the k best rows, best first with ties to the lowest
        chunk_id, and their scores. The caller holds the lock."""
        if k <= 0:
            raise InvalidParams("k must be positive")
        if not len(self._matrix):
            raise EmptyStore("cannot search an empty store")
        query = _as_array(query_vec)
        if query.shape[0] != self._dim:
            raise DimensionMismatch(
                f"query dimension {query.shape[0]} != store dimension {self._dim}"
            )
        if m.is_distance:
            rows = np.arange(len(self._matrix))
            scores = score_rows(self._matrix, query, m, self._norms)
        else:
            rows = self._in_band(query, k, m)
            scores = score_rows(self._matrix[rows], query, m, self._norms[rows])
        keys = scores if m.is_distance else -scores
        # every row that ties the k-th best key is a candidate, so the
        # chunk_id tie-break sees all of them
        last = min(k, len(keys)) - 1
        kth = np.partition(keys, last)[last]
        if np.isnan(kth):
            raise ValueError("the query scores NaN against the store")
        candidates = np.flatnonzero(keys <= kth).tolist()
        ids = self._cols["chunk_id"]
        candidates.sort(key=lambda j: (keys[j], ids[rows[j]]))
        chosen = candidates[:k]
        return rows[chosen], scores[chosen]

    def top_k(self, query_vec, k: int, m: Metric) -> list[ScoredRecord]:
        """The k most similar records, best first. Exhaustive exact scan.

        Ordering is descending for cosine/inner_product and ascending for
        distance metrics; ties break toward the lowest chunk_id. The records
        carry ``embedding=None``.
        """
        with self._lock:
            order, scores = self._rank(query_vec, k, m)
            return [
                ScoredRecord(self._record_at(self._cols, i), s)
                for i, s in zip(order.tolist(), scores.tolist())
            ]

    def mmr_select(self, query_vec, params: MMRParams) -> list[ScoredRecord]:
        """Greedy maximal-marginal-relevance selection.

        A candidate pool of ``fetch_n`` records is retrieved best-first
        under ``sim1``; then k records are picked greedily, each maximizing

            lambda * sim1(candidate, query)
              - (1 - lambda) * max over selected of sim2(candidate, selected)

        with the max over an empty selection defined as 0. Distance metrics
        enter the objective negated so that "similar" is consistently high.
        The returned scores are the objective values at selection time, and
        the records carry ``embedding=None``.
        """
        with self._lock:
            order, scores = self._rank(query_vec, params.pool_size(), params.sim1)
            # chunk_id order, so argmax's first maximum is the lowest chunk_id
            ids = self._cols["chunk_id"]
            by_id = sorted(range(len(order)), key=lambda j: ids[order[j]])
            pool = order[by_id]
            cols = self._cols  # an upsert writes none of the rows it holds now: see the class
            rows, norms = self._matrix[pool], self._norms[pool]
        sign1 = -1.0 if params.sim1.is_distance else 1.0
        sign2 = -1.0 if params.sim2.is_distance else 1.0
        relevance = sign1 * scores[by_id]
        lam = params.lambda_

        penalty = np.zeros(len(pool))
        taken = np.zeros(len(pool), dtype=bool)
        selected: list[ScoredRecord] = []
        for _ in range(min(params.k, len(pool))):
            objective = lam * relevance - (1.0 - lam) * penalty
            objective[taken] = -np.inf
            j = int(np.argmax(objective))
            taken[j] = True
            selected.append(ScoredRecord(self._record_at(cols, int(pool[j])), float(objective[j])))
            redundancy = sign2 * score_rows(rows, rows[j], params.sim2, norms, float(norms[j]))
            penalty = redundancy if len(selected) == 1 else np.maximum(penalty, redundancy)
        return selected

    # --- persistence ---------------------------------------------------------

    def persist(self, path: str | Path, snapshots: str = "docs") -> None:
        """Write the store to ``path`` (a directory, created if needed) in
        format version 4. A store of documents first writes the snapshot of
        each document its records name, its body as ``<doc_id>.body`` in
        ``snapshots``, a directory named relative to ``path`` (else
        InvalidParams): its own ``docs``, or one the rows of a sweep share,
        which records.json then names. A snapshot whose file already holds
        exactly its bytes is not written again. Only the store's own
        ``docs/`` loses its other ``*.body`` files; a shared directory loses
        nothing. Then matrix.bin, records.json and the header that checksums
        both. Every byte is encoded before the first file is written; a
        document's snapshot bytes and their sha256 are encoded once while
        the document lives, however many stores persist it. A snapshot that
        cannot be written or deleted raises IoFailure."""
        path = Path(path)
        if not _names_a_relative_dir(snapshots):
            raise InvalidParams(
                f"snapshots must name a directory relative to the store's, got {snapshots!r}"
            )
        with self._lock:
            matrix_bytes = np.ascontiguousarray(self._matrix, dtype="<f4").data  # no copy
            encoded = None
            if self._meta is None:
                columns = {**self._cols, "metadata": [dict(meta) for meta in self._cols["metadata"]]}
            else:
                named = dict.fromkeys(self._cols["doc_id"])
                encoded = {doc_id: _snapshot(self.document(doc_id)) for doc_id in named}
                table = {
                    doc_id: {"source": self._meta[doc_id]["source"],
                             "title": self._meta[doc_id]["title"], "sha256": digest}
                    for doc_id, (_, digest) in encoded.items()
                }
                columns = {**self._cols, "documents": table}
                if snapshots != "docs":
                    columns["snapshots"] = snapshots
            records_bytes = json.dumps(columns, ensure_ascii=False).encode("utf-8")
            header = {
                "dimension": self._dim,
                "record_count": len(self._matrix),
                "format_version": FORMAT_VERSION,
                "checksum": _sha256(matrix_bytes),
                "records_checksum": _sha256(records_bytes),
            }
            if encoded is not None:
                _write_snapshots(path / snapshots, encoded)
                if snapshots == "docs":  # a shared directory is its sweep's to prune
                    prune_snapshots(path / snapshots, encoded)
            try:
                path.mkdir(parents=True, exist_ok=True)
                (path / "matrix.bin").write_bytes(matrix_bytes)
                (path / "records.json").write_bytes(records_bytes)
                (path / "header.json").write_bytes(json.dumps(header, indent=2).encode("utf-8"))
            except OSError as exc:
                raise IoFailure(f"cannot persist store to {path}: {exc}") from exc

    @classmethod
    def open(cls, path: str | Path) -> "VectorStore":
        """Load a store persisted with :meth:`persist`. Round trip is
        bit-exact. Only format version 4 opens: any other version, an
        earlier one included, raises CorruptStore naming it. A store of
        documents reads no snapshot here: ``document`` reads each on first
        use."""
        path = Path(path)
        try:
            header_bytes = (path / "header.json").read_bytes()
        except OSError as exc:
            raise IoFailure(f"cannot open store at {path}: {exc}") from exc
        try:
            header = json.loads(header_bytes.decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
            raise CorruptStore(f"header.json is not valid UTF-8 JSON: {exc}") from exc
        if not isinstance(header, dict):
            raise CorruptStore(f"header.json holds {type(header).__name__}, not an object")

        for key in ("dimension", "record_count", "format_version", "checksum"):
            if key not in header:
                raise CorruptStore(f"header.json is missing {key!r}")
        version = header["format_version"]
        if type(version) is not int or version != FORMAT_VERSION:
            raise CorruptStore(
                f"unsupported format_version {version!r}: this litrag reads format "
                f"{FORMAT_VERSION}; rebuild it, `litrag ingest` rewrites a knowledge base"
            )
        if "records_checksum" not in header:
            raise CorruptStore("header.json is missing 'records_checksum'")
        dim, count = header["dimension"], header["record_count"]
        for key, value, least in (("dimension", dim, 1), ("record_count", count, 0)):
            if type(value) is not int or value < least:
                raise CorruptStore(
                    f"header.json {key} must be an integer >= {least}, got {value!r}"
                )

        records_bytes = _read(path, "records.json")
        if _sha256(records_bytes) != header["records_checksum"]:
            raise CorruptStore("records.json checksum mismatch (truncated or modified file)")
        cols, table, snapshots = _json_columns(records_bytes, count)
        del records_bytes  # before matrix.bin is read, so the two never add up in the peak
        fault = _fault(cols)
        if fault is None and table is not None:
            i = next((i for i, doc_id in enumerate(cols["doc_id"]) if doc_id not in table), None)
            fault = None if i is None else (i, f"its document {cols['doc_id'][i]!r} is not in the table")
        if fault is not None:
            raise CorruptStore(f"records.json record {fault[0] + 1} is invalid: {fault[1]}")
        ids = cols["chunk_id"]
        index = dict(zip(ids, range(count)))
        if len(index) != count:
            seen: set[str] = set()
            i = next(i for i, cid in enumerate(ids) if cid in seen or seen.add(cid))
            raise CorruptStore(
                f"records.json record {i + 1} is invalid: chunk_id {ids[i]!r} is repeated"
            )

        matrix_bytes = _read(path, "matrix.bin")
        if _sha256(matrix_bytes) != header["checksum"]:
            raise CorruptStore("matrix checksum mismatch (truncated or modified file)")
        if len(matrix_bytes) != dim * count * 4:
            raise DimensionHeaderMismatch(
                f"matrix.bin holds {len(matrix_bytes)} bytes, header implies {dim * count * 4}"
            )

        store = cls(dim, documents=table is not None)
        if table is None:
            cols["metadata"] = list(map(MappingProxyType, cols["metadata"]))
        else:
            store._meta = {
                doc_id: MappingProxyType({"source": entry["source"], "doc_id": doc_id,
                                          "title": entry["title"]})
                for doc_id, entry in table.items()
            }
            store._sums = {doc_id: entry["sha256"] for doc_id, entry in table.items()}
            store._snapshots = os.path.join(path, snapshots)
        store._cols, store._index = cols, index
        matrix = np.frombuffer(matrix_bytes, dtype="<f4").reshape(count, dim)
        store._publish(matrix, _row_norms(matrix), count)
        bad = np.flatnonzero(~(np.isfinite(store._norms) & (store._norms > 0.0)))
        if bad.size:
            raise CorruptStore(
                f"matrix.bin row {bad[0]} ({ids[bad[0]]!r}) is zero or not finite"
            )
        return store


def _write_snapshots(docs: Path, snapshots: dict[str, tuple[bytes, str]]) -> None:
    """Write each snapshot (its ``_snapshot`` bytes) as ``docs/<doc_id>.body``
    unless its file already holds exactly those bytes: a read and compare
    costs a small fraction of a file create."""
    try:
        docs.mkdir(parents=True, exist_ok=True)
        for doc_id, (data, _) in snapshots.items():
            target = docs / f"{doc_id}.body"
            if not _holds(target, data):
                target.write_bytes(data)
    except OSError as exc:
        raise IoFailure(f"cannot write document snapshots under {docs}: {exc}") from exc


def prune_snapshots(docs: str | Path, keep: Iterable[str]) -> None:
    """Delete each ``<doc_id>.body`` in the directory ``docs`` whose doc_id
    is not in ``keep``; a missing directory holds none. A file that cannot
    be deleted raises IoFailure."""
    names = {f"{doc_id}.body" for doc_id in keep}
    try:
        for stale in Path(docs).glob("*.body"):
            if stale.name not in names:
                stale.unlink()  # a document no store written here holds
    except OSError as exc:
        raise IoFailure(f"cannot delete document snapshots under {docs}: {exc}") from exc


def _holds(path: Path, data: bytes) -> bool:
    """Whether the file at ``path`` exists and holds exactly ``data``."""
    try:
        with open(path, "rb", buffering=0) as fh:
            return fh.read(len(data) + 1) == data
    except FileNotFoundError:
        return False


def _names_a_relative_dir(value) -> bool:
    """Whether ``value`` may name a store's snapshot directory: a nonempty
    str path that is not absolute."""
    return type(value) is str and value != "" and not os.path.isabs(value)


def _sha256(data) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _read(path: Path, name: str) -> bytes:
    try:
        return (path / name).read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read store files at {path}: {exc}") from exc


def _json_columns(data: bytes, count: int) -> tuple[dict[str, list], dict | None, str]:
    """The columns of a records.json: one object of ``count``-long arrays,
    one per stored record field; a store of documents' table, which maps
    each doc_id to the strings "source", "title" and "sha256" (None for a
    bare store); and its snapshot directory, relative to the store's:
    "snapshots" if it names one, else "docs"."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise CorruptStore(f"records.json is not valid UTF-8 JSON: {exc}") from exc
    table = obj.pop("documents", None) if isinstance(obj, dict) else None
    snapshots = obj.pop("snapshots", "docs") if table is not None else "docs"
    if not _names_a_relative_dir(snapshots):
        raise CorruptStore(
            "records.json snapshots must name a directory relative to the store's, "
            f"got {snapshots!r}"
        )
    fields = _RECORD_FIELDS if table is None else _SPAN_FIELDS
    if not isinstance(obj, dict) or set(obj) != set(fields):
        raise CorruptStore(
            f"records.json must hold one object of the arrays {', '.join(fields)}"
            + ("" if table is None else " and the documents table")
        )
    for key in fields:
        if type(obj[key]) is not list:
            raise CorruptStore(f"records.json {key} is not an array")
        if len(obj[key]) != count:
            raise DimensionHeaderMismatch(
                f"records.json holds {len(obj[key])} {key} values, header says {count}"
            )
    if table is not None and not (
        type(table) is dict
        and all(
            type(entry) is dict and set(entry) == set(_TABLE_KEYS)
            and {str}.issuperset(map(type, entry.values()))
            for entry in table.values()
        )
    ):
        raise CorruptStore(
            "records.json documents must map each doc_id to its source, title and sha256 strings"
        )
    return {key: obj[key] for key in fields}, table, snapshots

