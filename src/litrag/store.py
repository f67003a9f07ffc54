"""In-memory vector store with exact similarity search and MMR selection.

The store is an exhaustive exact index (no approximate structures): the
corpus scale this engine targets is small enough that a full scan is both
fast and trivially verifiable. Embeddings are quantized to float32 on
insert, matching the on-disk matrix format, so a persist/open round trip is
bit-exact.

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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .embedding import EmbeddingVector
from .errors import (
    CorruptStore,
    DimensionHeaderMismatch,
    DimensionMismatch,
    EmptyStore,
    InvalidLambda,
    IoFailure,
    ZeroVector,
)

FORMAT_VERSION = 1

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

    if m.kind == "cosine":
        na = float(np.linalg.norm(a))
        nb = float(np.linalg.norm(b))
        if na == 0.0 or nb == 0.0:
            raise ZeroVector("cosine similarity is undefined for a zero vector")
        return float(np.dot(a, b) / (na * nb))
    if m.kind == "inner_product":
        return float(np.dot(a, b))

    diff = np.abs(a - b)
    if m.kind == "manhattan":
        return float(diff.sum())
    if m.kind == "euclidean":
        return float(np.sqrt(np.square(diff).sum()))
    if m.kind == "chebyshev":
        return float(diff.max()) if diff.size else 0.0
    # minkowski, general p
    p = float(m.p)  # type: ignore[arg-type]
    return float(np.power(np.power(diff, p).sum(), 1.0 / p))


def signed_similarity(value: float, m: Metric) -> float:
    """Map a metric value onto a consistent higher-is-more-similar scale."""
    return -value if m.is_distance else value


@dataclass(frozen=True)
class ChunkRecord:
    """A stored chunk: text span, embedding and provenance metadata.

    ``metadata`` must include a "source" key naming the source document.
    The offsets are required: ``[start_offset, end_offset)`` is the chunk's
    span in the document body, and the citation guard maps a chunk onto its
    expanded chunk by that span alone.
    """

    chunk_id: str
    doc_id: str
    text: str
    start_offset: int
    end_offset: int
    embedding: EmbeddingVector
    metadata: dict = field(default_factory=dict)


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


def _quantize(vec: EmbeddingVector) -> EmbeddingVector:
    """Round values to float32, the store's native precision."""
    return EmbeddingVector(tuple(float(v) for v in np.asarray(vec.values, dtype=np.float32)))


class VectorStore:
    """Exhaustive exact vector index over ChunkRecords.

    Thread safety: concurrent readers are safe against a single writer;
    reads never observe a partially applied upsert. Persisting requires
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

    @property
    def dim(self) -> int:
        return self._dim

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def records(self) -> list[ChunkRecord]:
        with self._lock:
            return list(self._records)

    def get(self, chunk_id: str) -> ChunkRecord | None:
        with self._lock:
            i = self._index.get(chunk_id)
            return self._records[i] if i is not None else None

    def upsert(self, records: list[ChunkRecord]) -> int:
        """Insert or replace records by chunk_id. Returns the count applied.

        All records are validated before any mutation, so a failed upsert
        leaves the store unchanged.
        """
        for rec in records:
            if rec.embedding.dim != self._dim:
                raise DimensionMismatch(
                    f"record {rec.chunk_id!r} has dimension {rec.embedding.dim}, "
                    f"store expects {self._dim}"
                )
            if "source" not in rec.metadata:
                raise ValueError(
                    f"record {rec.chunk_id!r} metadata must include a 'source' entry"
                )
            start, end = rec.start_offset, rec.end_offset
            if not (isinstance(start, int) and isinstance(end, int) and 0 <= start <= end):
                raise ValueError(
                    f"record {rec.chunk_id!r} needs int offsets with 0 <= start <= end, "
                    f"got [{start!r}, {end!r})"
                )
        with self._lock:
            new_rows = []
            for rec in records:
                stored = ChunkRecord(
                    chunk_id=rec.chunk_id,
                    doc_id=rec.doc_id,
                    text=rec.text,
                    start_offset=rec.start_offset,
                    end_offset=rec.end_offset,
                    embedding=_quantize(rec.embedding),
                    metadata=dict(rec.metadata),
                )
                row = np.asarray(stored.embedding.values, dtype=np.float32)
                i = self._index.get(rec.chunk_id)
                if i is None:
                    self._index[rec.chunk_id] = len(self._records)
                    self._records.append(stored)
                    new_rows.append(row)
                else:
                    self._records[i] = stored
                    self._matrix[i] = row
            if new_rows:
                self._matrix = np.vstack([self._matrix, np.array(new_rows, dtype=np.float32)])
            return len(records)

    # --- retrieval -------------------------------------------------------

    def _scores(self, query: np.ndarray, m: Metric) -> np.ndarray:
        mat = self._matrix.astype(np.float64)
        if m.kind == "cosine":
            qn = float(np.linalg.norm(query))
            if qn == 0.0:
                raise ZeroVector("cosine similarity is undefined for a zero query")
            norms = np.linalg.norm(mat, axis=1)
            if np.any(norms == 0.0):
                raise ZeroVector("store contains a zero vector; cosine is undefined")
            return (mat @ query) / (norms * qn)
        if m.kind == "inner_product":
            return mat @ query
        diff = np.abs(mat - query)
        if m.kind == "manhattan":
            return diff.sum(axis=1)
        if m.kind == "euclidean":
            return np.sqrt(np.square(diff).sum(axis=1))
        if m.kind == "chebyshev":
            return diff.max(axis=1)
        p = float(m.p)  # type: ignore[arg-type]
        return np.power(np.power(diff, p).sum(axis=1), 1.0 / p)

    def top_k(self, query_vec, k: int, m: Metric) -> list[ScoredRecord]:
        """The k most similar records, best first. Exhaustive exact scan.

        Ordering is descending for cosine/inner_product and ascending for
        distance metrics; ties break toward the lowest chunk_id.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        with self._lock:
            if not self._records:
                raise EmptyStore("cannot search an empty store")
            query = _as_array(query_vec)
            if query.shape[0] != self._dim:
                raise DimensionMismatch(
                    f"query dimension {query.shape[0]} != store dimension {self._dim}"
                )
            scores = self._scores(query, m)
            order = sorted(
                range(len(self._records)),
                key=lambda i: (
                    scores[i] if m.is_distance else -scores[i],
                    self._records[i].chunk_id,
                ),
            )
            return [
                ScoredRecord(self._records[i], float(scores[i])) for i in order[:k]
            ]

    def mmr_select(self, query_vec, params: MMRParams) -> list[ScoredRecord]:
        """Greedy maximal-marginal-relevance selection.

        A candidate pool of ``fetch_n`` records is retrieved best-first
        under ``sim1``; then k records are picked greedily, each maximizing

            lambda * sim1(candidate, query)
              - (1 - lambda) * max over selected of sim2(candidate, selected)

        with the max over an empty selection defined as 0. Distance metrics
        enter the objective negated so that "similar" is consistently high.
        The returned scores are the objective values at selection time.
        """
        pool = self.top_k(query_vec, params.pool_size(), params.sim1)
        query = _as_array(query_vec)

        relevance = {
            sr.record.chunk_id: signed_similarity(
                similarity(query, sr.record.embedding, params.sim1), params.sim1
            )
            for sr in pool
        }
        remaining = {sr.record.chunk_id: sr.record for sr in pool}
        selected: list[ScoredRecord] = []
        lam = params.lambda_

        while remaining and len(selected) < params.k:
            best_id = None
            best_score = -math.inf
            for cid in sorted(remaining):
                rec = remaining[cid]
                penalty = 0.0
                if selected:
                    penalty = max(
                        signed_similarity(
                            similarity(rec.embedding, sel.record.embedding, params.sim2),
                            params.sim2,
                        )
                        for sel in selected
                    )
                score = lam * relevance[cid] - (1.0 - lam) * penalty
                if score > best_score:
                    best_id, best_score = cid, score
            selected.append(ScoredRecord(remaining.pop(best_id), best_score))
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
                        fh.write(
                            json.dumps(
                                {
                                    "chunk_id": rec.chunk_id,
                                    "doc_id": rec.doc_id,
                                    "text": rec.text,
                                    "start_offset": rec.start_offset,
                                    "end_offset": rec.end_offset,
                                    "metadata": rec.metadata,
                                },
                                ensure_ascii=False,
                            )
                            + "\n"
                        )
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

        try:
            matrix_bytes = (path / "matrix.bin").read_bytes()
            record_lines = (path / "records.jsonl").read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            raise IoFailure(f"cannot read store files at {path}: {exc}") from exc

        digest = "sha256:" + hashlib.sha256(matrix_bytes).hexdigest()
        if digest != header["checksum"]:
            raise CorruptStore("matrix checksum mismatch (truncated or modified file)")

        dim = int(header["dimension"])
        count = int(header["record_count"])
        if len(matrix_bytes) != dim * count * 4:
            raise DimensionHeaderMismatch(
                f"matrix.bin holds {len(matrix_bytes)} bytes, header implies {dim * count * 4}"
            )
        if len(record_lines) != count:
            raise DimensionHeaderMismatch(
                f"records.jsonl holds {len(record_lines)} records, header says {count}"
            )

        matrix = np.frombuffer(matrix_bytes, dtype="<f4").reshape(count, dim)
        store = cls(dim)
        records = []
        for i, line in enumerate(record_lines):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorruptStore(f"records.jsonl line {i + 1} is not valid JSON") from exc
            records.append(
                ChunkRecord(
                    chunk_id=obj["chunk_id"],
                    doc_id=obj["doc_id"],
                    text=obj["text"],
                    start_offset=obj["start_offset"],
                    end_offset=obj["end_offset"],
                    embedding=EmbeddingVector(tuple(float(v) for v in matrix[i])),
                    metadata=obj.get("metadata", {}),
                )
            )
        if records:
            store.upsert(records)
        return store
