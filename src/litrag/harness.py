"""Desk-scale quantitative studies: chunking sweeps, token-limit ratio
tables, embedding cluster statistics and embedding export for external
projection tools.

Cluster statistics stand in for 2-D projections of the embedding space:
per-label point counts, intra-cluster spread around the centroid and the
inter-centroid distance matrix capture the trends a projection would show
(clusters shrinking as chunks grow, separating as overlap grows) in a
directly testable form.
"""

from __future__ import annotations

import csv
import io
import json
import logging
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TextIO

import numpy as np

from .config import EngineConfig
from .embedding import TokenizerConfig, token_count
from .errors import EmptyStore, InvalidParams, IoFailure, LitragError, MissingLabel
from .ingest import SplitParams, load_corpus
from .kb import build_knowledge_base
from .store import Metric, VectorStore, prune_snapshots, score_rows

logger = logging.getLogger(__name__)

# Sweep ranges of the chunking studies: sizes 800..2000 step 300 at a fixed
# overlap of 500, overlaps 0..700 step 175 at a fixed size of 1000.
SIZE_SWEEP_VALUES = (800, 1100, 1400, 1700, 2000)
SIZE_SWEEP_FIXED_OVERLAP = 500
OVERLAP_SWEEP_VALUES = (0, 175, 350, 525, 700)
OVERLAP_SWEEP_FIXED_SIZE = 1000

SWEEP_AXES = ("chunk_size", "chunk_overlap")
MAX_RATIO_CHUNK_CHARS = 1_000_000  # the longest chunk a token-ratio row builds in memory


@dataclass(frozen=True)
class SweepSpec:
    """One chunking-parameter sweep: vary one axis, hold the other fixed."""

    axis: str
    values: tuple[int, ...]
    fixed: int
    corpus_dir: str

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise InvalidParams(f"axis must be one of {SWEEP_AXES}")
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        if not values:
            raise InvalidParams("values must be non-empty")
        if any(v < 0 for v in values):
            raise InvalidParams("values must be non-negative")
        if list(values) != sorted(set(values)):
            raise InvalidParams("values must be strictly increasing")
        if self.axis == "chunk_overlap" and any(v >= self.fixed for v in values):
            raise InvalidParams("overlap values must stay below the fixed chunk_size")
        if self.axis == "chunk_size" and any(self.fixed >= v for v in values):
            raise InvalidParams("fixed overlap must stay below every chunk_size value")

    def split_params(self, value: int, base: SplitParams) -> SplitParams:
        if self.axis == "chunk_size":
            return replace(base, chunk_size=value, chunk_overlap=self.fixed)
        return replace(base, chunk_size=self.fixed, chunk_overlap=value)


@dataclass
class SweepRow:
    """One sweep value's build: chunk statistics of the documents it indexed,
    the build's error if it raised, and how many documents it failed."""

    value: int
    chunk_count: int
    mean_chunk_length: float
    store_path: str
    error: str | None = None
    failed_documents: int = 0

    @property
    def failed(self) -> bool:
        """The build raised, or lost a document."""
        return self.error is not None or self.failed_documents > 0


@dataclass
class SweepReport:
    axis: str
    fixed: int
    rows: list[SweepRow] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"axis": self.axis, "fixed": self.fixed, "rows": [vars(r) for r in self.rows]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            [self.axis, "chunk_count", "mean_chunk_length", "store_path", "error", "failed_documents"]
        )
        for row in self.rows:
            writer.writerow(
                [
                    row.value,
                    row.chunk_count,
                    f"{row.mean_chunk_length:.2f}",
                    row.store_path,
                    row.error or "",
                    row.failed_documents,
                ]
            )
        return buf.getvalue()


def sweep_chunking(
    spec: SweepSpec,
    config: EngineConfig,
    workdir: str | Path,
) -> SweepReport:
    """Build one knowledge base per axis value and report chunk statistics.

    The sweep loads the corpus once (``load_corpus``), and every row's
    build splits those same documents with its own split parameters: a
    file edited during the sweep changes no row, each load failure is logged
    once, and each row's build reports the load failures a build of its own
    would. A corpus directory that cannot be read fails every row with
    the same error, logged once.

    Row ``v`` is the chunk store ``<workdir>/<axis>_<v>``. The rows share
    one directory of document snapshots, ``<workdir>/docs``, which each
    row's records.json names as ``"../docs"``: the first row to index a
    document writes its snapshot, unless the file already holds its bytes
    (see ``VectorStore.persist``), and each snapshot is encoded once per
    sweep. Each row's table holds each snapshot's sha256, so a missing or
    altered snapshot fails that row's answers. After the last row, the
    sweep deletes from ``<workdir>/docs`` every snapshot that no row it
    persisted indexes; a row left in ``workdir`` by an earlier sweep may
    name one, and then fails closed (IoFailure or CorruptStore) rather than
    answer from another snapshot. A snapshot that cannot be deleted is
    logged and left.

    The builds share one memo of chunk embeddings (see
    ``build_knowledge_base``), so a chunk text that several values cut alike
    is sent to the embedding service once per sweep; the memo lives only as
    long as this call. A row counts the documents its build failed in
    ``failed_documents``. A row whose build raises a LitragError is recorded
    as failed and the sweep continues; any other exception is a fault and
    propagates.
    """
    workdir = Path(workdir)
    report = SweepReport(axis=spec.axis, fixed=spec.fixed)
    memo: dict[str, np.ndarray] = {}
    indexed: set[str] = set()  # the documents of every row persisted
    try:
        corpus, load_error = load_corpus(spec.corpus_dir), None
    except LitragError as exc:  # the directory: every row fails with it, logged once
        corpus, load_error = None, str(exc)
        logger.warning("every sweep row failed: %s", load_error)
    for value in spec.values:
        store_path = workdir / f"{spec.axis}_{value}"
        error = load_error
        if error is None:
            try:
                params = spec.split_params(value, config.split)
                row_config = replace(config, split=params)
                build_report = build_knowledge_base(
                    corpus, row_config, store_root=store_path, memo=memo, snapshots="../docs"
                )
            except LitragError as exc:
                error = str(exc)
                logger.warning("sweep row %s=%d failed: %s", spec.axis, value, error)
        if error is not None:
            report.rows.append(SweepRow(value, 0, 0.0, str(store_path), error=error))
            continue
        indexed.update(d.doc_id for d in build_report.documents)
        count = build_report.chunk_count
        chars = sum(d.chunk_chars for d in build_report.documents)
        report.rows.append(
            SweepRow(
                value=value,
                chunk_count=count,
                mean_chunk_length=chars / count if count else 0.0,
                store_path=str(store_path),
                failed_documents=len(build_report.failures),
            )
        )
    try:
        prune_snapshots(workdir / "docs", indexed)
    except IoFailure as exc:  # no row names what is left: it costs disk, not answers
        logger.warning("sweep left stale snapshots: %s", exc)
    return report


# --- token ratio table ------------------------------------------------------


@dataclass(frozen=True)
class RatioRow:
    """Token accounting of one (chunk_size, overlap) configuration.

    Percentages are exact: pct_of_llm_limit == 100 * tokens_per_chunk /
    llm_limit, and analogously for the embedding-model limit. The
    chars-vs-embedding-limit column reports the alternative reading of the
    chunk-size guidance (character length against model dimension).
    """

    chunk_size_chars: int
    chunk_overlap_chars: int
    tokens_per_chunk: int
    pct_of_llm_limit: float
    pct_of_em_limit: float
    pct_chars_of_em_limit: float


RATIO_CSV_HEADER = (
    "chunk_size_chars,chunk_overlap_chars,tokens_per_chunk,"
    "pct_of_llm_limit,pct_of_em_limit,pct_chars_of_em_limit"
)

DEFAULT_RATIO_ROWS: tuple[tuple[int, int], ...] = (
    tuple((size, SIZE_SWEEP_FIXED_OVERLAP) for size in SIZE_SWEEP_VALUES)
    + tuple((OVERLAP_SWEEP_FIXED_SIZE, ov) for ov in OVERLAP_SWEEP_VALUES)
    + ((700, 200),)
)


def representative_chunk(size: int) -> str:
    """A synthetic chunk of exactly ``size`` characters."""
    filler = "lorem ipsum dolor sit amet consectetur adipiscing elit sed do "
    reps = size // len(filler) + 1
    return (filler * reps)[:size]


def token_ratio_table(
    rows: list[tuple[int, int]],
    tok: TokenizerConfig,
    llm_limit: int,
    em_limit: int,
) -> list[RatioRow]:
    """Token counts and limit percentages for each configuration row."""
    if llm_limit <= 0 or em_limit <= 0:
        raise InvalidParams("token limits must be positive")
    for size, overlap in rows:
        if size < 0 or overlap < 0:
            raise InvalidParams(f"chunk sizes and overlaps must be non-negative, got {size}:{overlap}")
        if size > MAX_RATIO_CHUNK_CHARS:
            raise InvalidParams(f"chunk sizes may not exceed {MAX_RATIO_CHUNK_CHARS}, got {size}")
    out = []
    for size, overlap in rows:
        tokens = token_count(representative_chunk(size), tok) if size > 0 else 0
        out.append(
            RatioRow(
                chunk_size_chars=size,
                chunk_overlap_chars=overlap,
                tokens_per_chunk=tokens,
                pct_of_llm_limit=100.0 * tokens / llm_limit,
                pct_of_em_limit=100.0 * tokens / em_limit,
                pct_chars_of_em_limit=100.0 * size / em_limit,
            )
        )
    return out


def ratio_table_csv(rows: list[RatioRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RATIO_CSV_HEADER.split(","))
    for r in rows:
        writer.writerow(
            [
                r.chunk_size_chars,
                r.chunk_overlap_chars,
                r.tokens_per_chunk,
                repr(r.pct_of_llm_limit),
                repr(r.pct_of_em_limit),
                repr(r.pct_chars_of_em_limit),
            ]
        )
    return buf.getvalue()


# --- cluster statistics ----------------------------------------------------------


@dataclass
class LabelStats:
    """One label's point count, centroid and mean distance to its centroid.
    ``centroid`` is a read-only float64 row of the centroid matrix that
    :func:`cluster_stats` computed."""

    count: int
    centroid: np.ndarray
    mean_intra_distance: float


@dataclass
class ClusterStats:
    metric: Metric
    labels: list[str]
    per_label: dict[str, LabelStats]
    inter_centroid_distances: list[list[float]]

    @property
    def mean_inter_centroid_distance(self) -> float:
        n = len(self.labels)
        if n < 2:
            return 0.0
        total = sum(
            self.inter_centroid_distances[i][j]
            for i in range(n)
            for j in range(i + 1, n)
        )
        return total / (n * (n - 1) / 2)

    def to_dict(self, include_centroids: bool = True) -> dict:
        per_label = {}
        for label, stats in self.per_label.items():
            entry = {
                "count": stats.count,
                "mean_intra_distance": stats.mean_intra_distance,
            }
            if include_centroids:
                entry["centroid"] = stats.centroid.tolist()
            per_label[label] = entry
        return {
            "metric": self.metric.spec(),
            "labels": self.labels,
            "per_label": per_label,
            "inter_centroid_distances": self.inter_centroid_distances,
            "mean_inter_centroid_distance": self.mean_inter_centroid_distance,
        }


def check_cluster_metric(m: Metric) -> None:
    """Raise InvalidParams unless ``m`` is a distance metric or cosine, the
    metrics cluster statistics are defined for."""
    if not (m.is_distance or m.kind == "cosine"):
        raise InvalidParams(f"cluster statistics need a distance metric or cosine, got {m.spec()!r}")


def _cluster_distance(matrix, vec, m: Metric) -> np.ndarray:
    """The distance of each row of ``matrix`` from ``vec``; cosine maps to 1 - cos."""
    scores = score_rows(matrix, vec, m)
    return scores if m.is_distance else 1.0 - scores


# unit roundoff of float64
_U64 = 2.0**-53


def _euclidean_distances(centroids: np.ndarray) -> np.ndarray:
    """Euclidean distances of every pair of ``centroids`` whose row index
    is below the column index, from one Gram matrix: d^2 = |a|^2 + |b|^2 - 2 a.b.

    Whatever order BLAS sums in, |fl(d^2) - d^2| <= gamma_{dim+3} (|a| + |b|)^2
    with gamma_n = n u / (1 - n u) and u = 2^-53 (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., sec. 3.1). Wherever that
    bound is not below 1e-10 fl(d^2), which includes every fl(d^2) <= 0,
    the pair is recomputed directly by ``score_rows``. Centroids are means of
    float32 rows, so no product underflows. Entries on and below the
    diagonal are not meaningful.
    """
    sq = np.einsum("ij,ij->i", centroids, centroids)
    d2 = sq[:, np.newaxis] + sq - 2.0 * (centroids @ centroids.T)
    k = centroids.shape[1] + 3
    gamma = k * _U64 / (1.0 - k * _U64)
    norms = np.sqrt(sq)
    loose = np.triu(gamma * np.square(norms[:, np.newaxis] + norms) >= 1e-10 * d2, 1)
    distances = np.sqrt(np.maximum(d2, 0.0))
    for i in np.flatnonzero(loose.any(axis=1)):
        cols = np.flatnonzero(loose[i])
        distances[i, cols] = score_rows(centroids[cols], centroids[i], Metric.euclidean())
    return distances


def cluster_stats(store: VectorStore, label_by: str, m: Metric) -> ClusterStats:
    """Per-label centroids, intra-cluster spread, inter-centroid distances.

    Records are grouped by the metadata key ``label_by``. Distance metrics
    are used directly; cosine is mapped to the cosine distance (1 - cos);
    any other metric is InvalidParams, raised before any work.

    Counts, centroids (float64 means of each label's float32 rows, taken
    in store order; each label's is a read-only row of one centroid
    matrix) and mean intra distances are the same bits whether a
    label's rows form one run or not, and the same as those of the rows
    upcast to float64 first. Inter-centroid distances are computed by
    ``score_rows``, one centroid against the rest, except euclidean ones:
    those come from one Gram matrix and may differ from the ``score_rows``
    values by a few ulps (far below 1e-9 relative; see
    ``_euclidean_distances``). The distance matrix is exactly symmetric
    with a 0.0 diagonal.
    """
    check_cluster_metric(m)
    ids, metadata, matrix = store.columns("chunk_id", "metadata")
    if not ids:
        raise EmptyStore("cannot compute cluster statistics of an empty store")

    groups: dict[str, list[int]] = {}
    for i, meta in enumerate(metadata):
        label = meta.get(label_by)
        if label is None:
            raise MissingLabel(f"record {ids[i]!r} has no metadata key {label_by!r}")
        groups.setdefault(str(label), []).append(i)

    labels = sorted(groups)
    centroids = np.empty((len(labels), matrix.shape[1]))
    intra = []
    for i, label in enumerate(labels):
        rows = groups[label]
        # ascending indices; one run of them (a per-document upsert) is sliced in place
        if rows[-1] - rows[0] == len(rows) - 1:
            vectors = matrix[rows[0] : rows[-1] + 1]
        else:
            vectors = matrix[rows]
        centroids[i] = vectors.mean(axis=0, dtype=np.float64)
        intra.append(float(np.mean(_cluster_distance(vectors, centroids[i], m))))
    # before any row is handed out: a view taken earlier would stay writeable
    centroids.flags.writeable = False
    per_label = {
        label: LabelStats(len(groups[label]), centroids[i], intra[i])
        for i, label in enumerate(labels)
    }

    n = len(labels)
    if m.kind == "euclidean":
        distances = _euclidean_distances(centroids)
    else:
        distances = np.zeros((n, n))
        for i in range(n - 1):
            distances[i, i + 1 :] = _cluster_distance(centroids[i + 1 :], centroids[i], m)
    # the upper triangle, mirrored: an exactly symmetric matrix with a 0.0 diagonal
    distances = np.triu(distances, 1)
    distances += distances.T

    return ClusterStats(
        metric=m, labels=labels, per_label=per_label, inter_centroid_distances=distances.tolist()
    )


# --- embedding export ---------------------------------------------------------


def export_embeddings(store: VectorStore, out: str | Path | TextIO) -> None:
    """Write chunk_id, doc_id and embedding columns as CSV to ``out``, a
    file path or an open text stream.

    Values are written with full float32 round-trip precision so external
    projection tools see exactly the stored matrix.
    """
    ids, doc_ids, matrix = store.columns("chunk_id", "doc_id")
    if not ids:
        raise EmptyStore("cannot export an empty store")
    is_path = isinstance(out, (str, Path))
    try:
        with open(out, "w", encoding="utf-8", newline="") if is_path else nullcontext(out) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["chunk_id", "doc_id"] + [f"e{i}" for i in range(store.dim)])
            for chunk_id, doc_id, row in zip(ids, doc_ids, matrix):
                writer.writerow([chunk_id, doc_id] + [repr(v) for v in row.tolist()])
    except OSError as exc:
        raise IoFailure(f"cannot write embeddings to {out}: {exc}") from exc
