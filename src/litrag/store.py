"""In-memory vector store with exact similarity search and MMR selection.

The store is an exhaustive exact index (no approximate structures): the
corpus scale this engine targets is small enough that a full scan is both
fast and trivially verifiable. Each embedding is held once, as its row of a
read-only float32 matrix that matches the on-disk format, so a persist/open
round trip is bit-exact. The store hands out its own records, which carry
``embedding=None``: retrieval (``top_k``, ``mmr_select``) and ``rows`` return
them as they are, and only ``records`` and ``get`` attach a vector rebuilt
from the record's row. Each record's ``metadata`` is a read-only mapping over
the store's private copy, so a record handed out cannot change the store;
serialise it with ``dict(rec.metadata)``.

Every score comes from one row scorer, :func:`score_rows` (a matrix and a
vector in, one float64 score per row out): ``similarity`` is a one-row call,
top-k is one call on the whole matrix, and MMR makes one call per pick on
its candidate pool.

The inner product is ``np.einsum('ij,j->i')`` on the float32 matrix and a
float64 vector: einsum casts each row to float64 as it goes, so a query needs
no N x dim float64 copy, and it reduces each row on its own, so a row's score
does not depend on where the row sits. BLAS gemv (``matrix @ vec``) is not
used because it does: rows in its kernel's tail can come out one ulp apart
from equal rows elsewhere, which breaks the lowest-chunk_id tie-break. The
store keeps each row's float64 norm next to the matrix (computed per upsert
batch and once at ``open``, never persisted), so cosine needs no per-query
norm pass, and ranking partitions to the k best rows before sorting.

On-disk layout (one directory per store):
    header.json   {"dimension", "record_count", "format_version", "checksum"}
    records.jsonl one JSON object per record, embedding values excluded
    matrix.bin    row-major little-endian float32, row i = record i
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .embedding import EmbeddingVector
from .errors import (
    CorruptStore,
    DimensionHeaderMismatch,
    DimensionMismatch,
    EmptyStore,
    InvalidLambda,
    IoFailure,
    NonFiniteVector,
    ZeroVector,
)

FORMAT_VERSION = 1

# The keys of a records.jsonl object, in the order persist writes them.
_RECORD_FIELDS = ("chunk_id", "doc_id", "text", "start_offset", "end_offset", "metadata")

_DISTANCE_KINDS = {"minkowski", "euclidean", "manhattan", "chebyshev"}
_SIMILARITY_KINDS = {"cosine", "inner_product"}


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
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.kind == "minkowski":
            if self.p is None or self.p < 1:
                raise ValueError("minkowski metric requires p >= 1")
        elif self.p is not None:
            raise ValueError(f"metric {self.kind!r} does not take a p parameter")

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
        spec = spec.strip()
        if spec.startswith("minkowski"):
            _, _, p = spec.partition(":")
            if not p:
                raise ValueError("minkowski metric spec requires a p value, e.g. minkowski:2")
            return cls.minkowski(float(p))
        return cls(spec)


def _as_array(vec) -> np.ndarray:
    if isinstance(vec, EmbeddingVector):
        return np.asarray(vec.values, dtype=np.float64)
    return np.asarray(vec, dtype=np.float64)


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    """The float64 L2 norm of each row of a float32 or float64 matrix; equal
    bit for bit whether a row is normed alone or with others."""
    return np.sqrt(np.einsum("ij,ij->i", matrix, matrix, dtype=np.float64))


def score_rows(matrix: np.ndarray, vec, m: Metric, norms: np.ndarray | None = None) -> np.ndarray:
    """Score each row of ``matrix`` (float32 or float64) against ``vec``
    under metric ``m``, in float64: one value per row, lower-is-more-similar
    for distances and higher-is-more-similar for cosine and inner_product.

    ``norms``, if given, must be ``_row_norms(matrix)``; cosine uses it
    instead of norming every row again.

    The only implementation of the metric formulas; every other score in
    litrag comes from here. Shapes are the caller's to check.
    """
    vec = np.asarray(vec, dtype=np.float64)
    if m.kind in _SIMILARITY_KINDS:
        dots = np.einsum("ij,j->i", matrix, vec)
        if m.kind == "inner_product":
            return dots
        qn = float(_row_norms(vec[np.newaxis])[0])
        norms = _row_norms(matrix) if norms is None else norms
        if qn == 0.0 or np.any(norms == 0.0):
            raise ZeroVector("cosine similarity is undefined for a zero vector")
        return dots / (norms * qn)
    diff = np.abs(matrix - vec)
    if m.kind == "manhattan":
        return diff.sum(axis=1)
    if m.kind == "euclidean":
        return np.sqrt(np.square(diff).sum(axis=1))
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
class ChunkRecord:
    """A stored chunk: text span, embedding and provenance metadata.

    ``upsert`` takes records with an embedding. Once stored, the embedding
    lives only as the record's matrix row: the store keeps the record with
    ``embedding=None`` and hands it out that way; only ``records`` and
    ``get`` rebuild the vector from the row.
    ``metadata`` must include a "source" key naming the source document.
    The store keeps it as a read-only mapping (``types.MappingProxyType``)
    over its own copy; ``dict(rec.metadata)`` gives a plain dict.
    The offsets are required: ``[start_offset, end_offset)`` is the chunk's
    span in the document body, and the citation guard maps a chunk onto its
    expanded chunk by that span alone.
    """

    chunk_id: str
    doc_id: str
    text: str
    start_offset: int
    end_offset: int
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
            raise ValueError("k must be positive")
        if self.fetch_n is not None and self.fetch_n < self.k:
            raise ValueError("fetch_n must be >= k")

    def pool_size(self) -> int:
        return self.fetch_n if self.fetch_n is not None else 4 * self.k


def _with_row(rec: ChunkRecord, row: np.ndarray) -> ChunkRecord:
    """A stored record with its embedding rebuilt from its matrix row."""
    return replace(rec, embedding=EmbeddingVector(tuple(row.tolist())))


def _check_record(rec: ChunkRecord) -> None:
    """The per-record checks shared by ``upsert`` and ``open``."""
    if "source" not in rec.metadata:
        raise ValueError(f"record {rec.chunk_id!r} metadata must include a 'source' entry")
    start, end = rec.start_offset, rec.end_offset
    if not (isinstance(start, int) and isinstance(end, int) and 0 <= start <= end):
        raise ValueError(
            f"record {rec.chunk_id!r} needs int offsets with 0 <= start <= end, "
            f"got [{start!r}, {end!r})"
        )


class VectorStore:
    """Exhaustive exact vector index over ChunkRecords.

    Row i of the read-only matrix is record i's embedding. An upsert swaps in
    a new matrix instead of writing the old one, so concurrent readers are
    safe against a single writer and never observe a partially applied
    upsert, even through a matrix taken before it. Persisting requires
    quiescence (no in-flight writes), which the internal lock enforces.
    """

    def __init__(self, dim: int):
        if dim <= 0:
            raise ValueError("dimension must be positive")
        self._dim = dim
        self._lock = threading.RLock()
        self._records: list[ChunkRecord] = []
        self._index: dict[str, int] = {}
        self._matrix = np.empty((0, dim), dtype=np.float32)
        self._matrix.flags.writeable = False
        self._norms = np.empty(0)  # _row_norms(self._matrix), swapped in with it

    @property
    def dim(self) -> int:
        return self._dim

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def rows(self) -> tuple[list[ChunkRecord], np.ndarray]:
        """One consistent snapshot: the store's own records, each with
        ``embedding=None`` and read-only ``metadata``, and the read-only
        float32 matrix whose row i is record i's embedding."""
        with self._lock:
            return list(self._records), self._matrix

    def records(self) -> list[ChunkRecord]:
        """Every record with its embedding rebuilt from its row (N * dim
        Python floats; :meth:`rows` is the cheap read)."""
        records, matrix = self.rows()
        return [_with_row(rec, row) for rec, row in zip(records, matrix)]

    def get(self, chunk_id: str) -> ChunkRecord | None:
        with self._lock:
            i = self._index.get(chunk_id)
            return _with_row(self._records[i], self._matrix[i]) if i is not None else None

    def upsert(self, records: list[ChunkRecord]) -> int:
        """Insert or replace records by chunk_id. Returns the count applied.

        All records are validated before any mutation, so a failed upsert
        leaves the store unchanged. A batch may name each chunk_id once, and
        no embedding may overflow float32 or round to zero in it (cosine is
        undefined for a zero row).
        """
        for rec in records:
            if rec.embedding.dim != self._dim:
                raise DimensionMismatch(
                    f"record {rec.chunk_id!r} has dimension {rec.embedding.dim}, "
                    f"store expects {self._dim}"
                )
            _check_record(rec)
        if len({rec.chunk_id for rec in records}) != len(records):
            raise ValueError("an upsert batch names the same chunk_id twice")
        with np.errstate(over="ignore"):  # an overflowing row is reported just below
            batch = np.array([rec.embedding.values for rec in records], dtype=np.float32)
        batch = batch.reshape(len(records), self._dim)
        overflow = np.flatnonzero(~np.isfinite(batch).all(axis=1))
        if overflow.size:
            raise NonFiniteVector(f"record {records[overflow[0]].chunk_id!r} overflows float32")
        zero = np.flatnonzero(~batch.any(axis=1))
        if zero.size:
            raise ZeroVector(f"record {records[zero[0]].chunk_id!r} has a zero embedding")
        batch_norms = _row_norms(batch)
        with self._lock:
            slots = [self._index.setdefault(rec.chunk_id, len(self._index)) for rec in records]
            for i, rec in zip(slots, records):
                # replaces record i, or appends when i is one past the end
                self._records[i : i + 1] = [
                    replace(rec, embedding=None, metadata=MappingProxyType(dict(rec.metadata)))
                ]
            matrix = np.empty((len(self._records), self._dim), dtype=np.float32)
            matrix[: len(self._matrix)] = self._matrix
            matrix[slots] = batch
            matrix.flags.writeable = False
            norms = np.empty(len(self._records))
            norms[: len(self._norms)] = self._norms
            norms[slots] = batch_norms
            self._matrix, self._norms = matrix, norms
            return len(records)

    # --- retrieval -------------------------------------------------------

    def _rank(self, query_vec, k: int, m: Metric) -> tuple[list[int], np.ndarray]:
        """Indices of the k best rows, best first with ties to the lowest
        chunk_id, and the scores of all rows. The caller holds the lock."""
        if k <= 0:
            raise ValueError("k must be positive")
        if not self._records:
            raise EmptyStore("cannot search an empty store")
        query = _as_array(query_vec)
        if query.shape[0] != self._dim:
            raise DimensionMismatch(
                f"query dimension {query.shape[0]} != store dimension {self._dim}"
            )
        scores = score_rows(self._matrix, query, m, self._norms)
        keys = scores if m.is_distance else -scores
        # every row that ties the k-th best key is a candidate, so the
        # chunk_id tie-break sees all of them
        last = min(k, len(keys)) - 1
        kth = np.partition(keys, last)[last]
        if np.isnan(kth):
            raise ValueError("the query scores NaN against the store")
        candidates = np.flatnonzero(keys <= kth).tolist()
        candidates.sort(key=lambda i: (keys[i], self._records[i].chunk_id))
        return candidates[:k], scores

    def top_k(self, query_vec, k: int, m: Metric) -> list[ScoredRecord]:
        """The k most similar records, best first. Exhaustive exact scan.

        Ordering is descending for cosine/inner_product and ascending for
        distance metrics; ties break toward the lowest chunk_id. The records
        carry ``embedding=None``.
        """
        with self._lock:
            order, scores = self._rank(query_vec, k, m)
            return [ScoredRecord(self._records[i], float(scores[i])) for i in order]

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
            pool = sorted(order, key=lambda i: self._records[i].chunk_id)
            records = [self._records[i] for i in pool]
            rows, norms = self._matrix[pool], self._norms[pool]
        sign1 = -1.0 if params.sim1.is_distance else 1.0
        sign2 = -1.0 if params.sim2.is_distance else 1.0
        relevance = sign1 * scores[pool]
        lam = params.lambda_

        penalty = np.zeros(len(pool))
        taken = np.zeros(len(pool), dtype=bool)
        selected: list[ScoredRecord] = []
        for _ in range(min(params.k, len(pool))):
            objective = lam * relevance - (1.0 - lam) * penalty
            objective[taken] = -np.inf
            j = int(np.argmax(objective))
            taken[j] = True
            selected.append(ScoredRecord(records[j], float(objective[j])))
            redundancy = sign2 * score_rows(rows, rows[j], params.sim2, norms)
            penalty = redundancy if len(selected) == 1 else np.maximum(penalty, redundancy)
        return selected

    # --- persistence ---------------------------------------------------------

    def persist(self, path: str | Path) -> None:
        """Write the store to ``path`` (a directory, created if needed)."""
        path = Path(path)
        with self._lock:
            try:
                path.mkdir(parents=True, exist_ok=True)
                matrix_bytes = np.ascontiguousarray(self._matrix, dtype="<f4").tobytes()
                (path / "matrix.bin").write_bytes(matrix_bytes)
                with (path / "records.jsonl").open("w", encoding="utf-8") as fh:
                    for rec in self._records:
                        obj = {key: getattr(rec, key) for key in _RECORD_FIELDS}
                        obj["metadata"] = dict(rec.metadata)
                        fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
                header = {
                    "dimension": self._dim,
                    "record_count": len(self._records),
                    "format_version": FORMAT_VERSION,
                    "checksum": "sha256:" + hashlib.sha256(matrix_bytes).hexdigest(),
                }
                (path / "header.json").write_text(json.dumps(header, indent=2))
            except OSError as exc:
                raise IoFailure(f"cannot persist store to {path}: {exc}") from exc

    @classmethod
    def open(cls, path: str | Path) -> "VectorStore":
        """Load a store persisted with :meth:`persist`. Round trip is bit-exact."""
        path = Path(path)
        try:
            header = json.loads((path / "header.json").read_text())
        except OSError as exc:
            raise IoFailure(f"cannot open store at {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CorruptStore(f"header.json is not valid JSON: {exc}") from exc

        for key in ("dimension", "record_count", "format_version", "checksum"):
            if key not in header:
                raise CorruptStore(f"header.json is missing {key!r}")
        if header["format_version"] != FORMAT_VERSION:
            raise CorruptStore(
                f"unsupported format_version {header['format_version']}"
            )
        dim, count = header["dimension"], header["record_count"]
        for key, value, least in (("dimension", dim, 1), ("record_count", count, 0)):
            if type(value) is not int or value < least:
                raise CorruptStore(
                    f"header.json {key} must be an integer >= {least}, got {value!r}"
                )

        try:
            matrix_bytes = (path / "matrix.bin").read_bytes()
            record_lines = (path / "records.jsonl").read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            raise IoFailure(f"cannot read store files at {path}: {exc}") from exc

        digest = "sha256:" + hashlib.sha256(matrix_bytes).hexdigest()
        if digest != header["checksum"]:
            raise CorruptStore("matrix checksum mismatch (truncated or modified file)")

        if len(matrix_bytes) != dim * count * 4:
            raise DimensionHeaderMismatch(
                f"matrix.bin holds {len(matrix_bytes)} bytes, header implies {dim * count * 4}"
            )
        if len(record_lines) != count:
            raise DimensionHeaderMismatch(
                f"records.jsonl holds {len(record_lines)} records, header says {count}"
            )

        store = cls(dim)
        for i, line in enumerate(record_lines):
            try:
                obj = json.loads(line)
                obj["metadata"] = MappingProxyType(obj["metadata"])
                rec = ChunkRecord(embedding=None, **{key: obj[key] for key in _RECORD_FIELDS})
                _check_record(rec)
                if store._index.setdefault(rec.chunk_id, i) != i:
                    raise ValueError(f"chunk_id {rec.chunk_id!r} is repeated")
            except (ValueError, KeyError, TypeError) as exc:
                raise CorruptStore(f"records.jsonl line {i + 1} is invalid: {exc!r}") from exc
            store._records.append(rec)
        store._matrix = np.frombuffer(matrix_bytes, dtype="<f4").reshape(count, dim)
        store._norms = _row_norms(store._matrix)
        bad = np.flatnonzero(~(np.isfinite(store._norms) & (store._norms > 0.0)))
        if bad.size:
            raise CorruptStore(
                f"matrix.bin row {bad[0]} ({store._records[bad[0]].chunk_id!r}) "
                "is zero or not finite"
            )
        return store
