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
    InvalidParams,
    IoFailure,
    NonFiniteVector,
    ZeroVector,
)
from .ingest import Chunk

FORMAT_VERSION = 1

# The keys of a records.jsonl object, in the order persist writes them.
_RECORD_FIELDS = ("chunk_id", "doc_id", "text", "start_offset", "end_offset", "metadata")

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


def score_rows(matrix: np.ndarray, vec, m: Metric, norms: np.ndarray | None = None) -> np.ndarray:
    """Score each row of ``matrix`` (float32 or float64) against ``vec``
    under metric ``m``, in float64: one value per row, lower-is-more-similar
    for distances and higher-is-more-similar for cosine and inner_product.

    ``norms``, if given, must be ``_row_norms(matrix)`` of rows already
    proved nonzero, as the store's own are (``upsert`` and ``open`` reject
    zero rows); cosine uses it instead of norming every row again, and
    checks rows for zero only when it norms them itself.

    The one per-row scorer. Cluster statistics take euclidean inter-centroid
    distances from a Gram matrix instead, which falls back to this function
    where its error bound is loose. Shapes are the caller's to check.
    """
    vec = np.asarray(vec, dtype=np.float64)
    if m.kind in _SIMILARITY_KINDS:
        dots = np.einsum("ij,j->i", matrix, vec)
        if m.kind == "inner_product":
            return dots
        qn = float(_row_norms(vec[np.newaxis])[0])
        own = norms is None
        norms = _row_norms(matrix) if own else norms
        if qn == 0.0 or (own and np.any(norms == 0.0)):
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
class ChunkRecord(Chunk):
    """A stored chunk: a :class:`~litrag.ingest.Chunk`, whose span maps it
    onto its expanded chunk, with an embedding and provenance metadata.

    ``upsert`` takes records with an embedding. Once stored, the embedding
    lives only as the record's matrix row: the store keeps the record with
    ``embedding=None`` and hands it out that way; only ``records`` and
    ``get`` rebuild the vector from the row.
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

    Row i of the read-only matrix is record i's embedding. The matrix is the
    first N rows of a buffer with spare capacity, and a published row is
    never written: an upsert that only appends writes past the published end,
    and one that replaces a row copies into a fresh buffer. So concurrent
    readers are safe against a single writer and never observe a partially
    applied upsert, even through a matrix taken before it. The buffer grows
    by doubling, so a build by per-document upserts copies each row a
    constant number of times on average. Persisting requires quiescence (no
    in-flight writes), which the internal lock enforces.
    """

    def __init__(self, dim: int):
        if dim <= 0:
            raise InvalidParams("dimension must be positive")
        self._dim = dim
        self._lock = threading.RLock()
        self._records: list[ChunkRecord] = []
        self._index: dict[str, int] = {}
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
        if not records:  # nothing to write; the buffer choice below needs a slot
            return 0
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
            published = len(self._records)
            slots = [self._index.setdefault(rec.chunk_id, len(self._index)) for rec in records]
            for i, rec in zip(slots, records):
                # replaces record i, or appends when i is one past the end
                self._records[i : i + 1] = [
                    replace(rec, embedding=None, metadata=MappingProxyType(dict(rec.metadata)))
                ]
            n, capacity = len(self._records), len(self._buf)
            buf, nbuf = self._buf, self._nbuf
            # only an append that fits writes in place, past the published rows; a replace
            # or an overflow copies, so no row a reader may hold is ever written
            if min(slots) < published or n > capacity:
                if n > capacity:
                    capacity = max(64, 2 * capacity, n)
                buf = np.empty((capacity, self._dim), dtype=np.float32)
                buf[:published] = self._matrix
                nbuf = np.empty(capacity)
                nbuf[:published] = self._norms
            buf[slots] = batch
            nbuf[slots] = batch_norms
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
        if not self._records:
            raise EmptyStore("cannot search an empty store")
        query = _as_array(query_vec)
        if query.shape[0] != self._dim:
            raise DimensionMismatch(
                f"query dimension {query.shape[0]} != store dimension {self._dim}"
            )
        if m.is_distance:
            rows = np.arange(len(self._records))
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
        candidates.sort(key=lambda j: (keys[j], self._records[rows[j]].chunk_id))
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
                ScoredRecord(self._records[i], s) for i, s in zip(order.tolist(), scores.tolist())
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
            by_id = sorted(range(len(order)), key=lambda j: self._records[order[j]].chunk_id)
            pool = order[by_id]
            records = [self._records[i] for i in pool]
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
        matrix = np.frombuffer(matrix_bytes, dtype="<f4").reshape(count, dim)
        store._publish(matrix, _row_norms(matrix), count)
        bad = np.flatnonzero(~(np.isfinite(store._norms) & (store._norms > 0.0)))
        if bad.size:
            raise CorruptStore(
                f"matrix.bin row {bad[0]} ({store._records[bad[0]].chunk_id!r}) "
                "is zero or not finite"
            )
        return store
