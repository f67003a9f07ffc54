import csv
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from litrag import harness
from litrag.chain import QueryChain
from litrag.config import default_config
from litrag.embedding import EmbeddingVector, TokenizerConfig
from litrag.errors import EmptyStore, MissingLabel
from litrag.harness import (
    DEFAULT_RATIO_ROWS,
    OVERLAP_SWEEP_VALUES,
    SIZE_SWEEP_VALUES,
    SweepSpec,
    cluster_stats,
    export_embeddings,
    ratio_table_csv,
    representative_chunk,
    sweep_chunking,
    token_ratio_table,
)
from litrag.kb import KnowledgeBase
from litrag.store import ChunkRecord, Metric, VectorStore, score_rows
from litrag.testing import (
    StubChatService,
    StubEmbeddingService,
    echo_citations_responder,
    make_corpus,
    question_for,
)
from reference_impls import brute_force_cluster_stats

DIM = 32


# --- SweepSpec validation ---------------------------------------------------


def test_sweep_spec_validation(tmp_path):
    with pytest.raises(ValueError):
        SweepSpec(axis="bogus", values=(1,), fixed=0, corpus_dir=str(tmp_path))
    with pytest.raises(ValueError):
        SweepSpec(axis="chunk_size", values=(), fixed=0, corpus_dir=str(tmp_path))
    with pytest.raises(ValueError):
        SweepSpec(axis="chunk_size", values=(800, 700), fixed=100, corpus_dir=str(tmp_path))
    with pytest.raises(ValueError):
        SweepSpec(axis="chunk_overlap", values=(0, 1000), fixed=1000, corpus_dir=str(tmp_path))
    with pytest.raises(ValueError):
        SweepSpec(axis="chunk_size", values=(400, 800), fixed=500, corpus_dir=str(tmp_path))


# --- sweeps -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_corpus(tmp_path_factory):
    corpus_dir = tmp_path_factory.mktemp("sweep_corpus")
    make_corpus(corpus_dir, n_docs=5, seed=909, paragraphs_per_doc=18)
    return corpus_dir


def _config(svc, tmp_path):
    cfg = default_config(svc.url, "http://unused.invalid/")
    return replace(
        cfg,
        embedding=replace(cfg.embedding, expected_dim=DIM, batch_size=128),
        store_path=str(tmp_path / "kb"),
    )


def test_size_sweep_counts_non_increasing(sweep_corpus, tmp_path):
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        spec = SweepSpec(
            axis="chunk_size",
            values=SIZE_SWEEP_VALUES,
            fixed=500,
            corpus_dir=str(sweep_corpus),
        )
        report = sweep_chunking(spec, cfg, tmp_path / "sweep")
    counts = [row.chunk_count for row in report.rows]
    assert len(counts) == 5
    assert all(c > 0 for c in counts)
    assert counts == sorted(counts, reverse=True)
    assert all(row.error is None for row in report.rows)


def test_overlap_sweep_counts_non_decreasing(sweep_corpus, tmp_path):
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        spec = SweepSpec(
            axis="chunk_overlap",
            values=OVERLAP_SWEEP_VALUES,
            fixed=1000,
            corpus_dir=str(sweep_corpus),
        )
        report = sweep_chunking(spec, cfg, tmp_path / "sweep")
    counts = [row.chunk_count for row in report.rows]
    assert counts == sorted(counts)
    csv_text = report.to_csv()
    parsed = list(csv.reader(csv_text.splitlines()))
    assert parsed[0][0] == "chunk_overlap"
    assert len(parsed) == 6


def test_failed_sweep_row_recorded_not_fatal(tmp_path):
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        spec = SweepSpec(
            axis="chunk_size",
            values=(300, 600),
            fixed=100,
            corpus_dir=str(tmp_path / "missing-dir"),
        )
        report = sweep_chunking(spec, cfg, tmp_path / "sweep")
    assert len(report.rows) == 2
    assert all(row.error for row in report.rows)


def test_a_fault_in_a_sweep_row_propagates(monkeypatch, tmp_path):
    # only LitragErrors fail a row; a programming fault is not data
    def broken(*args, **kwargs):
        raise TypeError("a programming fault")

    monkeypatch.setattr(harness, "build_knowledge_base", broken)
    spec = SweepSpec(axis="chunk_size", values=(300, 600), fixed=100, corpus_dir=str(tmp_path))
    cfg = default_config("http://unused.invalid/", "http://unused.invalid/")
    with pytest.raises(TypeError, match="a programming fault"):
        sweep_chunking(spec, cfg, tmp_path / "sweep")


def test_single_value_sweep(sweep_corpus, tmp_path):
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        spec = SweepSpec(
            axis="chunk_size", values=(700,), fixed=200, corpus_dir=str(sweep_corpus)
        )
        report = sweep_chunking(spec, cfg, tmp_path / "sweep")
    assert len(report.rows) == 1
    assert report.rows[0].mean_chunk_length <= 700


def test_sweep_rows_come_from_the_build_report_not_the_written_stores(
    sweep_corpus, tmp_path, monkeypatch
):
    spec = SweepSpec(axis="chunk_size", values=(700, 1400), fixed=200, corpus_dir=str(sweep_corpus))
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = _config(svc, tmp_path)
        first = sweep_chunking(spec, cfg, tmp_path / "first")

        def no_open(*args, **kwargs):
            raise AssertionError("sweep_chunking reopened a store")

        monkeypatch.setattr(VectorStore, "open", no_open)
        second = sweep_chunking(spec, cfg, tmp_path / "second")
    monkeypatch.undo()
    rows = [(r.value, r.chunk_count, r.mean_chunk_length, r.error) for r in second.rows]
    assert rows == [(r.value, r.chunk_count, r.mean_chunk_length, r.error) for r in first.rows]
    for row in first.rows:
        records, _ = VectorStore.open(row.store_path).rows()
        assert row.error is None
        assert row.chunk_count == len(records)
        assert row.mean_chunk_length == float(np.mean([len(r.text) for r in records]))


def test_sweep_row_answers_mode2(tmp_path):
    corpus_dir = tmp_path / "corpus"
    truths = make_corpus(corpus_dir, n_docs=3, seed=515, paragraphs_per_doc=12)
    with StubEmbeddingService(dim=DIM) as emb, StubChatService(
        echo_citations_responder()
    ) as chat:
        cfg = _config(emb, tmp_path)
        cfg = replace(cfg, chat=replace(cfg.chat, endpoint_url=chat.url))
        spec = SweepSpec(axis="chunk_size", values=(700,), fixed=200, corpus_dir=str(corpus_dir))
        row = sweep_chunking(spec, cfg, tmp_path / "sweep").rows[0]
        chain = QueryChain(KnowledgeBase.open(row.store_path), cfg)
        bundle = chain.answer(question_for(truths["paper-01"], random.Random(3)), mode="mode2")
    assert row.error is None
    assert bundle.citation_list
    assert bundle.verification.flagged == []


# --- token ratio table ---------------------------------------------------------------


def test_ratio_row_1600_chars_at_one_char_per_token():
    rows = token_ratio_table([(1600, 500)], TokenizerConfig(chars_per_token=1.0), 4096, 768)
    row = rows[0]
    assert row.tokens_per_chunk == 1600
    assert row.pct_of_llm_limit == pytest.approx(39.0625, abs=1e-9)
    assert row.pct_of_em_limit == pytest.approx(100 * 1600 / 768, abs=1e-9)


def test_ratio_row_defaults_and_exactness():
    tok = TokenizerConfig(chars_per_token=4.0)
    rows = token_ratio_table(list(DEFAULT_RATIO_ROWS), tok, 4096, 768)
    by_config = {(r.chunk_size_chars, r.chunk_overlap_chars): r for r in rows}
    study = by_config[(700, 200)]
    assert study.tokens_per_chunk == 175
    assert study.pct_of_llm_limit == pytest.approx(100 * 175 / 4096, abs=1e-12)
    assert study.pct_of_em_limit == pytest.approx(100 * 175 / 768, abs=1e-12)
    for row in rows:
        assert row.pct_of_llm_limit == 100.0 * row.tokens_per_chunk / 4096
        assert row.pct_of_em_limit == 100.0 * row.tokens_per_chunk / 768
        assert row.pct_chars_of_em_limit == 100.0 * row.chunk_size_chars / 768


def test_ratio_zero_size_row():
    rows = token_ratio_table([(0, 0)], TokenizerConfig(), 4096, 768)
    assert rows[0].tokens_per_chunk == 0
    assert rows[0].pct_of_llm_limit == 0.0


def test_ratio_csv_is_parseable():
    rows = token_ratio_table([(700, 200), (1000, 350)], TokenizerConfig(), 4096, 768)
    parsed = list(csv.reader(ratio_table_csv(rows).splitlines()))
    assert parsed[0][0] == "chunk_size_chars"
    assert len(parsed) == 3
    assert float(parsed[1][3]) == rows[0].pct_of_llm_limit


def test_representative_chunk_is_exact_length():
    for size in (1, 63, 700, 1600):
        assert len(representative_chunk(size)) == size


def test_ratio_limits_validated():
    with pytest.raises(ValueError):
        token_ratio_table([(700, 200)], TokenizerConfig(), 0, 768)


# --- cluster stats ---------------------------------------------------------------------


def _store_with(labeled_vectors, batch=None):
    """A store of the vectors, labeled by doc_id: upserted at once, or, with
    ``batch``, in alternating batches of that many rows per label, so that
    no label's rows with more than ``batch`` of them form one run."""
    dim = len(next(iter(labeled_vectors.values()))[0])
    store = VectorStore(dim)
    records = {label: [] for label in labeled_vectors}
    i = 0
    for label, vectors in labeled_vectors.items():
        for vec in vectors:
            records[label].append(
                ChunkRecord(
                    chunk_id=f"c{i:03d}",
                    doc_id=label,
                    text="t",
                    start_offset=0,
                    end_offset=1,
                    embedding=EmbeddingVector(tuple(vec)),
                    metadata={"source": f"{label}.txt", "doc_id": label},
                )
            )
            i += 1
    if batch is None:
        store.upsert([rec for recs in records.values() for rec in recs])
        return store
    for start in range(0, max(map(len, records.values())), batch):
        for recs in records.values():
            if recs[start : start + batch]:
                store.upsert(recs[start : start + batch])
    return store


def test_cluster_stats_degenerate_identical_vectors():
    store = _store_with({"a": [[1.0, 0.0]] * 3, "b": [[0.0, 1.0]] * 4})
    stats = cluster_stats(store, "doc_id", Metric.euclidean())
    assert stats.per_label["a"].count == 3
    assert stats.per_label["a"].mean_intra_distance == pytest.approx(0.0)
    assert stats.per_label["b"].mean_intra_distance == pytest.approx(0.0)
    assert stats.inter_centroid_distances[0][1] == pytest.approx(math.sqrt(2))
    assert stats.inter_centroid_distances[0][0] == 0.0


def test_cluster_stats_single_label():
    store = _store_with({"only": [[1.0, 2.0], [3.0, 4.0]]})
    stats = cluster_stats(store, "doc_id", Metric.euclidean())
    assert stats.inter_centroid_distances == [[0.0]]
    assert stats.mean_inter_centroid_distance == 0.0


def test_cluster_stats_matches_brute_force():
    import random

    rng = random.Random(64)
    labeled = {
        f"doc{j}": [[rng.uniform(-1, 1) for _ in range(6)] for _ in range(rng.randint(3, 100))]
        for j in range(5)
    }
    store = _store_with(labeled)
    # the store quantizes to float32; feed the oracle the quantized values
    quantized = {}
    for rec in store.records():
        quantized.setdefault(rec.doc_id, []).append(list(rec.embedding.values))

    for metric in ("euclidean", "manhattan", "chebyshev", "minkowski:3", "cosine"):
        m = Metric.parse(metric)
        stats = cluster_stats(store, "doc_id", m)
        expected_stats, expected_matrix = brute_force_cluster_stats(quantized, m.kind, m.p)

        for label, exp in expected_stats.items():
            got = stats.per_label[label]
            assert got.count == exp["count"]
            assert got.mean_intra_distance == pytest.approx(exp["mean_intra_distance"], rel=1e-9)
            assert list(got.centroid) == pytest.approx(exp["centroid"], rel=1e-9)
        for (a, b), expected in expected_matrix.items():
            i, j = stats.labels.index(a), stats.labels.index(b)
            assert stats.inter_centroid_distances[i][j] == pytest.approx(expected, rel=1e-9)
        distances = stats.inter_centroid_distances
        n = len(stats.labels)
        assert all(distances[i][i] == 0.0 for i in range(n))
        assert all(distances[i][j] == distances[j][i] for i in range(n) for j in range(n))


def test_cluster_stats_cosine_maps_to_distance():
    store = _store_with({"a": [[1.0, 0.0], [1.0, 0.1]], "b": [[0.0, 1.0]]})
    stats = cluster_stats(store, "doc_id", Metric.cosine())
    assert stats.per_label["a"].mean_intra_distance >= 0
    with pytest.raises(ValueError):
        cluster_stats(store, "doc_id", Metric.inner_product())


def test_cluster_stats_missing_label():
    store = _store_with({"a": [[1.0, 0.0]]})
    with pytest.raises(MissingLabel):
        cluster_stats(store, "no_such_key", Metric.euclidean())


def test_cluster_stats_empty_store():
    with pytest.raises(EmptyStore):
        cluster_stats(VectorStore(4), "doc_id", Metric.euclidean())


CLUSTER_METRICS = ("euclidean", "manhattan", "chebyshev", "minkowski:3", "cosine")


def _loop_cluster_stats(store, m):
    """The row loop ``cluster_stats`` replaced, kept as its oracle: each
    label's rows upcast to float64, and one ``score_rows`` call per centroid
    for the inter-centroid distances. Returns the labels, (count, centroid,
    mean intra distance) per label, and the distance matrix."""

    def distance(matrix, vec):
        scores = score_rows(matrix, vec, m)
        return scores if m.is_distance else 1.0 - scores

    records, matrix = store.rows()
    groups = {}
    for i, rec in enumerate(records):
        groups.setdefault(rec.metadata["doc_id"], []).append(i)
    labels = sorted(groups)
    centroids = np.empty((len(labels), matrix.shape[1]))
    per_label = {}
    for i, label in enumerate(labels):
        vectors = matrix[groups[label]].astype(np.float64)
        centroids[i] = vectors.mean(axis=0)
        intra = float(np.mean(distance(vectors, centroids[i])))
        per_label[label] = (len(vectors), tuple(centroids[i].tolist()), intra)
    n = len(labels)
    distances = np.zeros((n, n))
    for i in range(n - 1):
        distances[i, i + 1 :] = distances[i + 1 :, i] = distance(centroids[i + 1 :], centroids[i])
    return labels, per_label, distances


@pytest.mark.parametrize("layout", ["contiguous", "interleaved"])
def test_cluster_stats_equals_the_row_loop_bit_for_bit(layout):
    rng = np.random.default_rng(18)
    labeled = {
        f"doc{j}": (rng.standard_normal((int(rng.integers(4, 40)), 24)) * 10.0**j).tolist()
        for j in range(-2, 4)
    }
    store = _store_with(labeled, batch=None if layout == "contiguous" else 3)
    runs = [rec.doc_id for rec in store.rows()[0]]
    runs = [label for k, label in enumerate(runs) if k == 0 or runs[k - 1] != label]
    assert (len(runs) == len(labeled)) == (layout == "contiguous")

    for spec in CLUSTER_METRICS:
        m = Metric.parse(spec)
        stats = cluster_stats(store, "doc_id", m)
        labels, per_label, distances = _loop_cluster_stats(store, m)
        assert stats.labels == labels
        for label, (count, centroid, intra) in per_label.items():
            got = stats.per_label[label]
            assert (got.count, got.centroid, got.mean_intra_distance) == (count, centroid, intra)
        got = np.array(stats.inter_centroid_distances)
        if m.kind == "euclidean":
            # from the Gram matrix: within a few ulps of the pairwise values
            assert np.all(np.abs(got - distances) <= 1e-14 * distances)
        else:
            assert stats.inter_centroid_distances == distances.tolist()


def test_near_coincident_centroids_take_the_direct_distance():
    dim = 784
    base = np.full(dim, 100.0)
    base[0] = 0.0  # |base| = 100 sqrt(783), about 2,800
    near = base.copy()
    near[0] = 1e-6
    store = _store_with({"a": [base.tolist()], "b": [near.tolist()], "c": [base.tolist()]})
    _, matrix = store.rows()
    centroids = matrix.astype(np.float64)
    sq = np.einsum("ij,ij->i", centroids, centroids)
    assert sq[0] + sq[1] - 2.0 * (centroids @ centroids.T)[0, 1] == 0.0  # the Gram form cancels

    stats = cluster_stats(store, "doc_id", Metric.euclidean())
    d = stats.inter_centroid_distances
    step = float(np.float32(1e-6))  # 9.9999999748e-07
    assert d[0][1] == d[1][0] == d[1][2] == d[2][1] == step
    assert d[0][2] == d[2][0] == 0.0
    assert d == _loop_cluster_stats(store, Metric.euclidean())[2].tolist()


@st.composite
def _labeled_vectors(draw):
    """Labels with random sizes at one random scale; some are near or exact
    duplicates of an earlier label, shifted by a fixed relative step."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 24))
    scale = 10.0 ** draw(st.sampled_from([-20, -3, 0, 3, 20]))
    labeled = []
    for _ in range(draw(st.integers(1, 8))):
        if labeled and draw(st.booleans()):
            src = labeled[int(rng.integers(len(labeled)))]
            step = draw(st.sampled_from([0.0, 1e-4, 1e-3, 1e-2]))
            rows = src + step * scale * rng.choice([-1.0, 1.0], size=dim)
        else:
            rows = rng.standard_normal((int(rng.integers(1, 10)), dim)) * scale
        rows[~rows.any(axis=1), 0] = scale  # the store rejects a zero row
        labeled.append(rows)
    return {f"label{j}": rows.tolist() for j, rows in enumerate(labeled)}


@settings(max_examples=150, deadline=None)
@given(labeled=_labeled_vectors(), interleaved=st.booleans())
def test_euclidean_inter_distances_match_the_plain_loop(labeled, interleaved):
    store = _store_with(labeled, batch=2 if interleaved else None)
    quantized = {}
    for rec in store.records():
        quantized.setdefault(rec.doc_id, []).append(list(rec.embedding.values))
    stats = cluster_stats(store, "doc_id", Metric.euclidean())
    _, expected = brute_force_cluster_stats(quantized, "euclidean")
    d = stats.inter_centroid_distances
    for (a, b), value in expected.items():
        i, j = stats.labels.index(a), stats.labels.index(b)
        assert abs(d[i][j] - value) <= 1e-9 * value
    n = len(stats.labels)
    assert all(d[i][i] == 0.0 for i in range(n))
    assert all(d[i][j] == d[j][i] for i in range(n) for j in range(n))


# --- export ------------------------------------------------------------------------


def test_export_structure_and_round_trip(tmp_path):
    store = _store_with({"a": [[0.1, 0.2, 0.3, 0.4]], "b": [[1.5, -2.5, 3.25, 0.0], [9, 8, 7, 6]]})
    out = tmp_path / "emb.csv"
    export_embeddings(store, out)

    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["chunk_id", "doc_id", "e0", "e1", "e2", "e3"]
    assert len(rows) == 4

    by_id = {r.chunk_id: r for r in store.records()}
    for row in rows[1:]:
        stored = by_id[row[0]]
        parsed = np.array([float(v) for v in row[2:]], dtype=np.float32)
        assert parsed.tolist() == pytest.approx(list(stored.embedding.values))


def test_export_empty_store(tmp_path):
    with pytest.raises(EmptyStore):
        export_embeddings(VectorStore(4), tmp_path / "x.csv")
