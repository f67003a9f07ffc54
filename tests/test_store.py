import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from litrag.embedding import EmbeddingVector
from litrag.errors import (
    CorruptStore,
    DimensionHeaderMismatch,
    DimensionMismatch,
    EmptyStore,
    InvalidLambda,
    ZeroVector,
)
from litrag.store import (
    ChunkRecord,
    Metric,
    MMRParams,
    VectorStore,
    similarity,
)
from reference_impls import (
    brute_force_mmr,
    brute_force_top_k,
    hp_chebyshev,
    hp_cosine,
    hp_euclidean,
    hp_inner_product,
    hp_manhattan,
    hp_minkowski,
)


def _record(chunk_id, values, doc_id="doc", **metadata):
    metadata.setdefault("source", f"{doc_id}.txt")
    return ChunkRecord(
        chunk_id=chunk_id,
        doc_id=doc_id,
        text=f"text of {chunk_id}",
        start_offset=0,
        end_offset=10,
        embedding=EmbeddingVector(tuple(values)),
        metadata=metadata,
    )


def _random_store(rng, n, dim):
    store = VectorStore(dim)
    vectors = {}
    records = []
    for i in range(n):
        cid = f"c{i:04d}"
        vec = [rng.uniform(-1, 1) for _ in range(dim)]
        records.append(_record(cid, vec))
        vectors[cid] = vec
    store.upsert(records)
    # read the store's own (float32-quantized) values back for the oracles
    quantized = {r.chunk_id: list(r.embedding.values) for r in store.records()}
    return store, quantized


# --- Metric type --------------------------------------------------------------


def test_metric_validation():
    with pytest.raises(ValueError):
        Metric.minkowski(0.5)
    with pytest.raises(ValueError):
        Metric("minkowski")
    with pytest.raises(ValueError):
        Metric("no_such_metric")
    with pytest.raises(ValueError):
        Metric("cosine", p=2)


def test_metric_parse_round_trip():
    for spec in ("cosine", "euclidean", "manhattan", "chebyshev", "inner_product", "minkowski:3"):
        assert Metric.parse(spec).spec() == spec
    assert Metric.parse("minkowski:2.5").p == 2.5
    with pytest.raises(ValueError):
        Metric.parse("minkowski")


# --- similarity: trivial and frozen values ------------------------------------------


def test_cosine_identical_and_orthogonal():
    assert similarity([1, 0], [1, 0], Metric.cosine()) == pytest.approx(1.0)
    assert similarity([1, 0], [0, 1], Metric.cosine()) == pytest.approx(0.0)


def test_minkowski_p2_frozen_value():
    # high-precision oracle value computed before the build: sqrt(27)
    value = similarity([1, 2, 3], [4, 5, 6], Metric.minkowski(2))
    assert value == pytest.approx(5.196152422706632, rel=1e-12)


def test_zero_vector_rejected_for_cosine():
    with pytest.raises(ZeroVector):
        similarity([0.0, 0.0], [1.0, 0.0], Metric.cosine())


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        similarity([1.0, 2.0], [1.0, 2.0, 3.0], Metric.euclidean())


# --- similarity: oracle equivalence ---------------------------------------------


def test_metrics_match_high_precision_oracle():
    rng = random.Random(417)
    for _ in range(300):
        dim = rng.randint(1, 32)
        x = [rng.uniform(-1, 1) for _ in range(dim)]
        y = [rng.uniform(-1, 1) for _ in range(dim)]
        p = rng.choice([1, 2, 3, 4, 2.5])

        checks = [
            (similarity(x, y, Metric.minkowski(p)), hp_minkowski(x, y, p)),
            (similarity(x, y, Metric.euclidean()), hp_euclidean(x, y)),
            (similarity(x, y, Metric.manhattan()), hp_manhattan(x, y)),
            (similarity(x, y, Metric.chebyshev()), hp_chebyshev(x, y)),
            (similarity(x, y, Metric.cosine()), hp_cosine(x, y)),
            (similarity(x, y, Metric.inner_product()), hp_inner_product(x, y)),
        ]
        for got, expected in checks:
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_metric_algebra_identities():
    rng = random.Random(98)
    for _ in range(200):
        dim = rng.randint(1, 32)
        x = [rng.uniform(-1, 1) for _ in range(dim)]
        y = [rng.uniform(-1, 1) for _ in range(dim)]
        assert similarity(x, y, Metric.minkowski(2)) == pytest.approx(
            similarity(x, y, Metric.euclidean()), rel=1e-12, abs=1e-15
        )
        assert similarity(x, y, Metric.minkowski(1)) == pytest.approx(
            similarity(x, y, Metric.manhattan()), rel=1e-12, abs=1e-15
        )
        ip = similarity(x, y, Metric.inner_product())
        cos_scaled = (
            similarity(x, y, Metric.cosine())
            * math.sqrt(sum(v * v for v in x))
            * math.sqrt(sum(v * v for v in y))
        )
        assert ip == pytest.approx(cos_scaled, rel=1e-9, abs=1e-12)


def test_minkowski_large_p_approaches_chebyshev():
    rng = random.Random(2024)
    for _ in range(100):
        dim = rng.randint(2, 32)
        x = [rng.uniform(-1, 1) for _ in range(dim)]
        y = [rng.uniform(-1, 1) for _ in range(dim)]
        cheb = similarity(x, y, Metric.chebyshev())
        mink = similarity(x, y, Metric.minkowski(64))
        assert mink == pytest.approx(cheb, rel=0.05)


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    dim=st.integers(min_value=1, max_value=16),
)
def test_cosine_bounds_symmetry_scale_invariance(data, dim):
    finite = st.floats(min_value=-1, max_value=1, allow_nan=False)
    x = data.draw(st.lists(finite, min_size=dim, max_size=dim))
    y = data.draw(st.lists(finite, min_size=dim, max_size=dim))
    if math.sqrt(sum(v * v for v in x)) < 1e-6 or math.sqrt(sum(v * v for v in y)) < 1e-6:
        return
    a = data.draw(st.floats(min_value=0.01, max_value=100))
    m = Metric.cosine()
    c = similarity(x, y, m)
    assert -1.0 - 1e-9 <= c <= 1.0 + 1e-9
    assert c == pytest.approx(similarity(y, x, m))
    assert c == pytest.approx(similarity([a * v for v in x], y, m), abs=1e-9)


# --- upsert ----------------------------------------------------------------------


def test_upsert_insert_and_replace():
    store = VectorStore(3)
    n = store.upsert([_record(f"c{i}", [i, 0, 0.5]) for i in range(1, 4)])
    assert n == 3
    assert len(store) == 3

    n = store.upsert([_record("c2", [9, 9, 9])])
    assert n == 1
    assert len(store) == 3
    assert store.get("c2").embedding.values == (9.0, 9.0, 9.0)


def test_upsert_dimension_mismatch_leaves_store_unchanged():
    store = VectorStore(3)
    store.upsert([_record("a", [1, 2, 3])])
    with pytest.raises(DimensionMismatch):
        store.upsert([_record("b", [1, 2, 3]), _record("c", [1, 2])])
    assert len(store) == 1
    assert store.get("b") is None


def test_upsert_requires_source_metadata():
    store = VectorStore(2)
    record = ChunkRecord(
        chunk_id="x",
        doc_id="d",
        text="t",
        start_offset=0,
        end_offset=1,
        embedding=EmbeddingVector((1.0, 2.0)),
        metadata={},
    )
    with pytest.raises(ValueError):
        store.upsert([record])


@pytest.mark.parametrize("start, end", [(None, 10), (0, None), (-1, 10), (10, 5)])
def test_upsert_rejects_bad_offsets_and_leaves_store_unchanged(start, end):
    store = VectorStore(2)
    store.upsert([_record("a", [1, 2])])
    bad = replace(_record("b", [3, 4]), start_offset=start, end_offset=end)
    with pytest.raises(ValueError):
        store.upsert([_record("c", [5, 6]), bad])
    assert [r.chunk_id for r in store.records()] == ["a"]


def test_upsert_rejects_repeated_chunk_id_and_leaves_store_unchanged():
    store = VectorStore(2)
    store.upsert([_record("x", [1, 2])])
    with pytest.raises(ValueError):
        store.upsert([_record("a", [1, 0]), _record("a", [0, 1])])
    assert [r.chunk_id for r in store.records()] == ["x"]
    assert [sr.record.chunk_id for sr in store.top_k([1, 0], 5, Metric.euclidean())] == ["x"]


@pytest.mark.parametrize(
    "values, error", [([0.0, 0.0], ZeroVector), ([1e-50, 0.0], ZeroVector), ([1e39, 1.0], ValueError)]
)
def test_upsert_rejects_zero_or_overflowing_rows_and_leaves_store_unchanged(values, error):
    # 1e-50 is zero once rounded to float32; 1e39 overflows it
    store = VectorStore(2)
    store.upsert([_record("a", [1, 0]), _record("b", [0, 1])])
    with pytest.raises(error):
        store.upsert([_record("c", [1, 1]), _record("bad", values)])
    assert [r.chunk_id for r in store.records()] == ["a", "b"]
    result = store.top_k([1, 0.5], 3, Metric.cosine())
    assert [sr.record.chunk_id for sr in result] == ["a", "b"]


def test_rows_hold_no_embedding_and_a_read_only_matrix():
    store = VectorStore(2)
    store.upsert([_record("a", [1.5, -2.0]), _record("b", [0.1, 3.0])])
    records, matrix = store.rows()
    assert [r.chunk_id for r in records] == ["a", "b"]
    assert all(r.embedding is None for r in records)
    assert matrix.dtype == np.float32
    assert matrix.tolist() == [list(r.embedding.values) for r in store.records()]
    with pytest.raises(ValueError):
        matrix[0, 0] = 7.0
    assert store.get("a").embedding.values == (1.5, -2.0)


def test_retrieval_returns_records_without_embeddings():
    store = VectorStore(2)
    store.upsert([_record("a", [1.5, -2.0]), _record("b", [0.1, 3.0]), _record("c", [1, 1])])
    query = [1.0, 0.2]
    assert all(sr.record.embedding is None for sr in store.top_k(query, 3, Metric.cosine()))
    picked = store.mmr_select(query, MMRParams(lambda_=0.5, k=3))
    assert len(picked) == 3
    assert all(sr.record.embedding is None for sr in picked)
    _, matrix = store.rows()
    assert store.get("b").embedding.values == tuple(matrix[1].tolist())
    assert store.get("a").embedding.values == (1.5, -2.0)


def test_metadata_cannot_be_changed_through_any_outlet(tmp_path):
    store = VectorStore(2)
    caller_metadata = {"source": "doc.txt", "title": "T"}
    store.upsert([replace(_record("a", [1, 0]), metadata=caller_metadata), _record("b", [0, 1])])
    caller_metadata["source"] = "caller.txt"
    del caller_metadata["title"]

    query = [1.0, 0.5]
    outlets = {
        "rows": store.rows()[0],
        "top_k": [sr.record for sr in store.top_k(query, 2, Metric.cosine())],
        "mmr_select": [sr.record for sr in store.mmr_select(query, MMRParams(lambda_=0.5, k=2))],
        "get": [store.get("a"), store.get("b")],
        "records": store.records(),
    }
    for name, records in outlets.items():
        assert len(records) == 2, name
        for rec in records:
            with pytest.raises(TypeError):
                rec.metadata["source"] = "x"
            with pytest.raises(TypeError):
                del rec.metadata["source"]
            assert not hasattr(rec.metadata, "pop")  # a mappingproxy has no mutators

    expected = {"a": {"source": "doc.txt", "title": "T"}, "b": {"source": "doc.txt"}}
    assert {r.chunk_id: dict(r.metadata) for r in store.records()} == expected
    store.persist(tmp_path / "s")
    loaded = VectorStore.open(tmp_path / "s")
    assert {r.chunk_id: dict(r.metadata) for r in loaded.records()} == expected
    with pytest.raises(TypeError):
        loaded.get("a").metadata["source"] = "x"
    loaded.persist(tmp_path / "again")
    assert (tmp_path / "again" / "records.jsonl").read_bytes() == (
        tmp_path / "s" / "records.jsonl"
    ).read_bytes()


def test_rows_snapshot_keeps_the_row_an_upsert_replaces():
    store = VectorStore(2)
    store.upsert([_record("a", [1, 0]), _record("b", [0, 1])])
    records, matrix = store.rows()
    store.upsert([_record("a", [5, 5])])
    assert matrix.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert [r.chunk_id for r in records] == ["a", "b"]
    assert store.rows()[1].tolist() == [[5.0, 5.0], [0.0, 1.0]]


# --- top_k ----------------------------------------------------------------------


def test_top_k_self_similarity():
    store = VectorStore(2)
    store.upsert([_record("a", [1, 0]), _record("b", [0, 1]), _record("c", [1, 1])])
    result = store.top_k([1, 0], 1, Metric.cosine())
    assert result[0].record.chunk_id == "a"
    assert result[0].score == pytest.approx(1.0)


def test_top_k_clamps_to_store_size():
    store = VectorStore(2)
    store.upsert([_record("a", [1, 0]), _record("b", [0.5, 0.5])])
    result = store.top_k([1, 0], 10, Metric.cosine())
    assert [sr.record.chunk_id for sr in result] == ["a", "b"]


def test_top_k_empty_store():
    store = VectorStore(2)
    with pytest.raises(EmptyStore):
        store.top_k([1, 0], 1, Metric.cosine())


def test_top_k_matches_brute_force_euclidean():
    rng = random.Random(7)
    store, vectors = _random_store(rng, 50, 8)
    query = [rng.uniform(-1, 1) for _ in range(8)]
    result = store.top_k(query, 5, Metric.euclidean())
    expected = brute_force_top_k(sorted(vectors.items()), query, 5, "euclidean")
    assert [sr.record.chunk_id for sr in result] == [cid for cid, _ in expected]
    for sr, (_, score) in zip(result, expected):
        assert sr.score == pytest.approx(score, rel=1e-9)


def test_top_k_matches_brute_force_many_instances():
    rng = random.Random(1001)
    for trial in range(25):
        n = rng.randint(2, 200)
        dim = rng.randint(2, 32)
        k = rng.randint(1, min(n, 12))
        kind = rng.choice(["euclidean", "manhattan", "chebyshev", "cosine", "inner_product"])
        store, vectors = _random_store(rng, n, dim)
        query = [rng.uniform(-1, 1) for _ in range(dim)]
        result = store.top_k(query, k, Metric(kind))
        expected = brute_force_top_k(sorted(vectors.items()), query, k, kind)
        assert [sr.record.chunk_id for sr in result] == [cid for cid, _ in expected]


def test_top_k_matches_brute_force_at_scale():
    rng = random.Random(8080)
    store, vectors = _random_store(rng, 1000, 32)
    query = [rng.uniform(-1, 1) for _ in range(32)]
    for kind in ("euclidean", "cosine"):
        result = store.top_k(query, 20, Metric(kind))
        expected = brute_force_top_k(sorted(vectors.items()), query, 20, kind)
        assert [sr.record.chunk_id for sr in result] == [cid for cid, _ in expected]


def test_concurrent_reads_during_writes():
    import threading

    rng = random.Random(12)
    store = VectorStore(8)
    store.upsert([_record("seed", [rng.uniform(-1, 1) for _ in range(8)])])
    errors = []

    def reader():
        try:
            for _ in range(200):
                result = store.top_k([1.0] * 8, 3, Metric.euclidean())
                assert 1 <= len(result) <= 3
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    def writer():
        try:
            for i in range(100):
                store.upsert([_record(f"w{i}", [rng.uniform(-1, 1) for _ in range(8)])])
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(3)] + [
        threading.Thread(target=writer)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert len(store) == 101


def test_rows_snapshots_stay_consistent_under_concurrent_upserts():
    # every row of record "r<j>" written at version v holds the value v + j,
    # and the record's text names v: a torn or mismatched snapshot breaks it
    import sys
    import threading

    def batch(version, n):
        return [
            replace(_record(f"r{j}", [version + j] * 4), text=str(version)) for j in range(n)
        ]

    store = VectorStore(4)
    store.upsert(batch(1, 5))
    errors = []
    done = threading.Event()

    def reader():
        try:
            while not done.is_set():
                records, matrix = store.rows()
                assert len(records) == len(matrix)
                for j, rec in enumerate(records):
                    assert matrix[j].tolist() == [float(int(rec.text) + j)] * 4
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    def writer():
        try:
            for version in range(2, 300):
                store.upsert(batch(version, 5 + version % 7))
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)
        finally:
            done.set()

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(store) == 11


@pytest.mark.parametrize("kind", ["cosine", "euclidean"])
def test_a_query_scoring_nan_is_rejected(kind):
    store = VectorStore(2)
    store.upsert([_record("a", [1, 0]), _record("b", [0, 1])])
    with pytest.raises(ValueError):
        store.top_k([float("nan"), 1.0], 1, Metric(kind))
    with pytest.raises(ValueError):
        store.mmr_select([float("nan"), 1.0], MMRParams(lambda_=0.5, k=1, fetch_n=2))


def test_top_k_tie_break_by_chunk_id():
    store = VectorStore(2)
    store.upsert([_record("zz", [1, 0]), _record("aa", [1, 0]), _record("mm", [0, 1])])
    result = store.top_k([1, 0], 2, Metric.cosine())
    assert [sr.record.chunk_id for sr in result] == ["aa", "zz"]


@pytest.mark.parametrize("kind", ["cosine", "inner_product"])
def test_identical_rows_rank_by_chunk_id_wherever_they_sit(kind):
    # 301 equal rows, their chunk_ids shuffled over the row positions: every
    # row must score the same, so the tie-break alone picks the lowest ids
    rng = np.random.default_rng(301)
    row = rng.standard_normal(64).tolist()
    ids = [f"c{i:03d}" for i in rng.permutation(301)]
    store = VectorStore(64)
    store.upsert([_record(cid, row) for cid in ids])
    m = Metric(kind)
    for _ in range(40):
        query = rng.standard_normal(64).tolist()
        top = store.top_k(query, 5, m)
        mmr = store.mmr_select(query, MMRParams(lambda_=1.0, k=5, sim1=m, sim2=m))
        for result in (top, mmr):
            assert [sr.record.chunk_id for sr in result] == [f"c{i:03d}" for i in range(5)]
            assert len({sr.score.hex() for sr in result}) == 1


_ALL_KINDS = ["cosine", "inner_product", "euclidean", "manhattan", "chebyshev", "minkowski:3"]


def _scores_by_id(store, query, m):
    return {sr.record.chunk_id: sr.score.hex() for sr in store.top_k(query, len(store), m)}


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 800),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    spec=st.sampled_from(_ALL_KINDS),
)
def test_a_row_scores_the_same_alone_in_a_store_and_in_similarity(dim, n, seed, spec):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, dim)).astype(np.float32)
    query = rng.standard_normal(dim).tolist()
    m = Metric.parse(spec)
    store = VectorStore(dim)
    store.upsert([_record(f"r{i}", row.tolist()) for i, row in enumerate(rows)])
    scores = _scores_by_id(store, query, m)
    for i, row in enumerate(rows):
        alone = VectorStore(dim)
        alone.upsert([_record("only", row.tolist())])
        expected = similarity(row.tolist(), query, m).hex()
        assert scores[f"r{i}"] == expected
        assert alone.top_k(query, 1, m)[0].score.hex() == expected


def test_cached_norms_agree_after_batches_reopen_and_replacing_upsert(tmp_path):
    # cosine scores read the cached row norms: they must equal a fresh
    # similarity() bit for bit however the store came to hold its rows
    rng = np.random.default_rng(77)
    dim, m = 48, Metric.cosine()
    values = {f"c{i:02d}": rng.standard_normal(dim).tolist() for i in range(60)}
    query = rng.standard_normal(dim).tolist()

    def expected():
        f32 = {cid: np.float32(vec).tolist() for cid, vec in values.items()}
        return {cid: similarity(vec, query, m).hex() for cid, vec in f32.items()}

    store = VectorStore(dim)
    items = list(values.items())
    for start in range(0, len(items), 7):
        store.upsert([_record(cid, vec) for cid, vec in items[start : start + 7]])
    assert _scores_by_id(store, query, m) == expected()

    store.persist(tmp_path / "s")
    reopened = VectorStore.open(tmp_path / "s")
    assert _scores_by_id(reopened, query, m) == expected()

    changed = {f"c{i:02d}": rng.standard_normal(dim).tolist() for i in range(5, 15)}
    changed.update({f"n{i:02d}": rng.standard_normal(dim).tolist() for i in range(10)})
    for target in (store, reopened):
        target.upsert([_record(cid, vec) for cid, vec in changed.items()])
    values.update(changed)
    assert _scores_by_id(store, query, m) == expected()
    assert _scores_by_id(reopened, query, m) == expected()
    mmr = reopened.mmr_select(query, MMRParams(lambda_=1.0, k=8, fetch_n=8))
    assert [(sr.record.chunk_id, sr.score.hex()) for sr in mmr] == sorted(
        expected().items(), key=lambda item: (-float.fromhex(item[1]), item[0])
    )[:8]


# --- mmr_select --------------------------------------------------------------------


def test_mmr_params_validation():
    with pytest.raises(InvalidLambda):
        MMRParams(lambda_=1.2, k=3)
    with pytest.raises(InvalidLambda):
        MMRParams(lambda_=-0.1, k=3)
    with pytest.raises(ValueError):
        MMRParams(lambda_=0.5, k=0)
    with pytest.raises(ValueError):
        MMRParams(lambda_=0.5, k=5, fetch_n=3)
    assert MMRParams(lambda_=0.5, k=3).pool_size() == 12


# Frozen fixture computed before the build with the step-by-step oracle.
# Coordinates are powers of two, so float32 quantization in the store is exact:
# query [1,0]; c1=[1,0.0625], c2=[1,0.125], c3=[0.25,1], c4=[-0.25,1];
# lambda=0.5, k=3, cosine for both similarities.
MMR_FIXTURE_ORDER = ["c1", "c2", "c3"]
MMR_FIXTURE_SCORES = [0.49902628924144427, -0.002902345439660836, -0.059229238760689557]


def test_mmr_frozen_fixture():
    store = VectorStore(2)
    vectors = {"c1": [1, 0.0625], "c2": [1, 0.125], "c3": [0.25, 1], "c4": [-0.25, 1]}
    store.upsert([_record(cid, vec) for cid, vec in vectors.items()])
    result = store.mmr_select([1, 0], MMRParams(lambda_=0.5, k=3, fetch_n=4))
    assert [sr.record.chunk_id for sr in result] == MMR_FIXTURE_ORDER
    for sr, expected in zip(result, MMR_FIXTURE_SCORES):
        assert sr.score == pytest.approx(expected, rel=1e-9)


def test_mmr_lambda_one_equals_top_k():
    # pool is the top fetch_n; with lambda=1 the greedy order must equal
    # top_k and each score must be top_k's own, negated for a distance
    rng = random.Random(55)
    for _ in range(50):
        n, dim = rng.randint(10, 60), rng.randint(2, 24)
        store, _ = _random_store(rng, n, dim)
        query = [rng.uniform(-1, 1) for _ in range(dim)]
        k = rng.randint(1, 10)
        for m in (Metric.cosine(), Metric.inner_product(), Metric.euclidean()):
            params = MMRParams(lambda_=1.0, k=k, fetch_n=rng.randint(k, 3 * k), sim1=m, sim2=m)
            mmr = store.mmr_select(query, params)
            top = store.top_k(query, k, m)
            assert [sr.record.chunk_id for sr in mmr] == [sr.record.chunk_id for sr in top]
            sign = -1.0 if m.is_distance else 1.0
            assert [sr.score for sr in mmr] == [sign * sr.score for sr in top]


def test_mmr_diversity_at_second_pick():
    store = VectorStore(2)
    store.upsert(
        [
            _record("dup1", [1.0, 0.0]),
            _record("dup2", [0.999, 0.01]),
            _record("distinct", [0.7, 0.7]),
        ]
    )
    diverse = store.mmr_select([1, 0], MMRParams(lambda_=0.3, k=2, fetch_n=3))
    assert [sr.record.chunk_id for sr in diverse] == ["dup1", "distinct"]
    relevant = store.mmr_select([1, 0], MMRParams(lambda_=1.0, k=2, fetch_n=3))
    assert [sr.record.chunk_id for sr in relevant] == ["dup1", "dup2"]


def test_mmr_matches_step_by_step_oracle():
    rng = random.Random(31337)
    for trial in range(40):
        n = rng.randint(3, 50)
        dim = rng.randint(2, 8)
        store, vectors = _random_store(rng, n, dim)
        query = [rng.uniform(-1, 1) for _ in range(dim)]
        k = rng.randint(1, min(n, 8))
        fetch_n = rng.randint(k, n)
        lam = rng.choice([0.0, 0.25, 0.5, 0.7, 1.0])
        got = store.mmr_select(query, MMRParams(lambda_=lam, k=k, fetch_n=fetch_n))
        expected = brute_force_mmr(sorted(vectors.items()), query, lam, k, fetch_n)
        assert [sr.record.chunk_id for sr in got] == [cid for cid, _ in expected]
        for sr, (_, score) in zip(got, expected):
            assert sr.score == pytest.approx(score, rel=1e-9, abs=1e-12)


def test_mmr_no_duplicates_and_pool_clamp():
    rng = random.Random(4)
    store, _ = _random_store(rng, 10, 4)
    query = [rng.uniform(-1, 1) for _ in range(4)]
    result = store.mmr_select(query, MMRParams(lambda_=0.5, k=10, fetch_n=10))
    ids = [sr.record.chunk_id for sr in result]
    assert len(ids) == len(set(ids)) == 10


# --- persistence --------------------------------------------------------------------


def test_persist_open_empty_store(tmp_path):
    store = VectorStore(16)
    store.persist(tmp_path / "s")
    loaded = VectorStore.open(tmp_path / "s")
    assert len(loaded) == 0
    assert loaded.dim == 16


def test_round_trip_is_bit_exact(tmp_path):
    rng = random.Random(90)
    store, _ = _random_store(rng, 100, 12)
    store.persist(tmp_path / "s")
    loaded = VectorStore.open(tmp_path / "s")

    assert len(loaded) == len(store)
    assert loaded.records() == store.records()
    original = {r.chunk_id: r for r in store.records()}
    for rec in loaded.records():
        src = original[rec.chunk_id]
        assert rec.embedding.values == src.embedding.values
        assert rec.text == src.text
        assert rec.metadata == src.metadata
        assert (rec.start_offset, rec.end_offset) == (src.start_offset, src.end_offset)

    # byte-identical matrix on re-persist
    loaded.persist(tmp_path / "s2")
    first = (tmp_path / "s" / "matrix.bin").read_bytes()
    second = (tmp_path / "s2" / "matrix.bin").read_bytes()
    assert first == second


def test_truncated_matrix_is_corrupt(tmp_path):
    rng = random.Random(91)
    store, _ = _random_store(rng, 10, 8)
    store.persist(tmp_path / "s")
    matrix = tmp_path / "s" / "matrix.bin"
    matrix.write_bytes(matrix.read_bytes()[:-7])
    with pytest.raises(CorruptStore):
        VectorStore.open(tmp_path / "s")


def test_header_record_count_mismatch(tmp_path):
    import json

    rng = random.Random(92)
    store, _ = _random_store(rng, 4, 8)
    store.persist(tmp_path / "s")
    header_path = tmp_path / "s" / "header.json"
    header = json.loads(header_path.read_text())
    header["record_count"] = 3
    header_path.write_text(json.dumps(header))
    with pytest.raises(DimensionHeaderMismatch):
        VectorStore.open(tmp_path / "s")


def test_corrupt_header_json(tmp_path):
    store = VectorStore(4)
    store.persist(tmp_path / "s")
    (tmp_path / "s" / "header.json").write_text("{not json")
    with pytest.raises(CorruptStore):
        VectorStore.open(tmp_path / "s")


@pytest.mark.parametrize(
    "key, value",
    [
        ("dimension", 0),
        ("dimension", -3),
        ("dimension", "x"),
        ("dimension", True),
        ("dimension", 4.0),
        ("record_count", -1),
        ("record_count", True),
        ("record_count", "0"),
    ],
)
def test_malformed_header_sizes_are_corrupt(tmp_path, key, value):
    import json

    # an empty store: the checksum stays valid and no size check catches the edit
    VectorStore(4).persist(tmp_path / "s")
    header_path = tmp_path / "s" / "header.json"
    header = json.loads(header_path.read_text())
    header[key] = value
    header_path.write_text(json.dumps(header))
    with pytest.raises(CorruptStore, match=key):
        VectorStore.open(tmp_path / "s")


@pytest.mark.parametrize(
    "edit",
    [
        lambda obj: obj.pop("text"),
        lambda obj: obj.update(chunk_id="c0000"),
        lambda obj: obj.update(start_offset=9, end_offset=3),
        lambda obj: obj["metadata"].pop("source"),
    ],
    ids=["missing-key", "repeated-chunk-id", "reversed-offsets", "missing-source"],
)
def test_malformed_records_line_is_corrupt(tmp_path, edit):
    import json

    store, _ = _random_store(random.Random(93), 3, 4)
    store.persist(tmp_path / "s")
    path = tmp_path / "s" / "records.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[1])
    edit(obj)
    lines[1] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CorruptStore, match="line 2"):
        VectorStore.open(tmp_path / "s")


@pytest.mark.parametrize("value", [0.0, float("nan"), float("inf")])
def test_zero_or_non_finite_matrix_row_is_corrupt(tmp_path, value):
    import hashlib
    import json

    store, _ = _random_store(random.Random(94), 3, 4)
    store.persist(tmp_path / "s")
    matrix_path = tmp_path / "s" / "matrix.bin"
    matrix = np.frombuffer(matrix_path.read_bytes(), dtype="<f4").reshape(3, 4).copy()
    matrix[1] = 0.0
    matrix[1, 2] = value
    matrix_path.write_bytes(matrix.tobytes())
    # a valid checksum, so only the row check can reject the store
    header_path = tmp_path / "s" / "header.json"
    header = json.loads(header_path.read_text())
    header["checksum"] = "sha256:" + hashlib.sha256(matrix.tobytes()).hexdigest()
    header_path.write_text(json.dumps(header))
    with pytest.raises(CorruptStore, match="row 1"):
        VectorStore.open(tmp_path / "s")


def test_matrix_bytes_are_little_endian_float32(tmp_path):
    store = VectorStore(2)
    store.upsert([_record("a", [1.5, -2.0])])
    store.persist(tmp_path / "s")
    raw = (tmp_path / "s" / "matrix.bin").read_bytes()
    assert np.frombuffer(raw, dtype="<f4").tolist() == [1.5, -2.0]
