import hashlib
import json
import math
import os
import random
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import litrag
from litrag.config import RetrievalConfig
from litrag.embedding import EmbeddingVector
from litrag.errors import (
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
from litrag.ingest import Chunk, Document
from litrag.store import (
    ChunkRecord,
    Metric,
    MMRParams,
    VectorStore,
    score_rows,
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


def _write_records_json(path, data: bytes) -> None:
    """Replace a store's records.json and keep its header's
    checksum of it valid, so that only the checks after it can object."""
    (path / "records.json").write_bytes(data)
    header = json.loads((path / "header.json").read_text())
    header["records_checksum"] = "sha256:" + hashlib.sha256(data).hexdigest()
    (path / "header.json").write_text(json.dumps(header, indent=2))


def _edit_records_json(path, edit) -> None:
    """Apply ``edit`` to the columns of a store's records.json."""
    cols = json.loads((path / "records.json").read_text(encoding="utf-8"))
    edit(cols)
    _write_records_json(path, json.dumps(cols, ensure_ascii=False).encode("utf-8"))


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


def _distance_scores_of_old(matrix, vec, m):
    """``score_rows``' distance branch as it was before it worked in place
    (one array for the absolute difference, another for its square), kept as
    its oracle."""
    diff = np.abs(matrix - np.asarray(vec, dtype=np.float64))
    if m.kind == "manhattan":
        return diff.sum(axis=1)
    if m.kind == "euclidean":
        return np.sqrt(np.square(diff).sum(axis=1))
    if m.kind == "chebyshev":
        return diff.max(axis=1, initial=0.0)
    return np.power(np.power(diff, m.p).sum(axis=1), 1.0 / m.p)


@settings(max_examples=200, deadline=None)
@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    n=st.integers(1, 20),
    dim=st.integers(1, 64),
    scale=st.sampled_from([1e-20, 1e-6, 1.0, 1e6, 1e20]),
    seed=st.integers(0, 2**32 - 1),
    spec=st.sampled_from(["euclidean", "manhattan", "chebyshev", "minkowski:3", "minkowski:1.5"]),
)
def test_distance_scores_equal_the_old_scorer_bit_for_bit(dtype, n, dim, scale, seed, spec):
    rng = np.random.default_rng(seed)
    matrix = (rng.standard_normal((n, dim)) * scale).astype(dtype)
    vec = rng.standard_normal(dim) * scale
    before = matrix.copy()
    m = Metric.parse(spec)
    assert score_rows(matrix, vec, m).tobytes() == _distance_scores_of_old(matrix, vec, m).tobytes()
    assert np.array_equal(matrix, before)


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


def test_a_record_is_a_chunk_with_an_embedding_and_metadata():
    assert [f.name for f in fields(ChunkRecord)] == [
        "chunk_id", "doc_id", "text", "start_offset", "end_offset", "embedding", "metadata"
    ]
    assert isinstance(_record("c1", [1.0, 0.0]), Chunk)


def test_upsert_insert_and_replace():
    store = VectorStore(3)
    n = store.upsert([_record(f"c{i}", [i, 0, 0.5]) for i in range(1, 4)])
    assert n == 3
    assert len(store) == 3

    n = store.upsert([_record("c2", [9, 9, 9])])
    assert n == 1
    assert len(store) == 3
    assert store.get("c2").embedding.values == (9.0, 9.0, 9.0)


def _upsert_as(form, store, records):
    """``store.upsert`` of ``records``, each embedding inside its record
    ("records") or beside it as a float32 row, as a build hands them ("rows")."""
    if form == "records":
        return store.upsert(records)
    with np.errstate(over="ignore"):
        rows = [np.array(r.embedding.values, dtype=np.float32) for r in records]
    return store.upsert([replace(r, embedding=None) for r in records], rows)


_FORMS = ("records", "rows")


def test_upsert_dimension_mismatch_leaves_store_unchanged():
    for form in _FORMS:
        store = VectorStore(3)
        store.upsert([_record("a", [1, 2, 3])])
        with pytest.raises(DimensionMismatch, match="record 'c' has dimension 2, store expects 3"):
            _upsert_as(form, store, [_record("b", [1, 2, 3]), _record("c", [1, 2])])
        assert len(store) == 1
        assert store.get("b") is None


def test_upsert_requires_source_metadata():
    record = ChunkRecord(
        chunk_id="x",
        doc_id="d",
        text="t",
        start_offset=0,
        end_offset=1,
        embedding=EmbeddingVector((1.0, 2.0)),
        metadata={},
    )
    for form in _FORMS:
        store = VectorStore(2)
        with pytest.raises(ValueError, match="metadata must include a 'source' entry"):
            _upsert_as(form, store, [record])
        assert len(store) == 0


@pytest.mark.parametrize("start, end", [(None, 10), (0, None), (-1, 10), (10, 5)])
def test_upsert_rejects_bad_offsets_and_leaves_store_unchanged(start, end):
    for form in _FORMS:
        store = VectorStore(2)
        store.upsert([_record("a", [1, 2])])
        bad = replace(_record("b", [3, 4]), start_offset=start, end_offset=end)
        with pytest.raises(ValueError, match="record 'b' needs int offsets"):
            _upsert_as(form, store, [_record("c", [5, 6]), bad])
        assert [r.chunk_id for r in store.records()] == ["a"]


def test_upsert_rejects_repeated_chunk_id_and_leaves_store_unchanged():
    for form in _FORMS:
        store = VectorStore(2)
        store.upsert([_record("x", [1, 2])])
        with pytest.raises(ValueError, match="names the same chunk_id twice"):
            _upsert_as(form, store, [_record("a", [1, 0]), _record("a", [0, 1])])
        assert [r.chunk_id for r in store.records()] == ["x"]
        assert [sr.record.chunk_id for sr in store.top_k([1, 0], 5, Metric.euclidean())] == ["x"]


# a field of each kind a record must not hold, and the refusal naming it; a
# bool is no int offset
_MISTYPED = [
    ("chunk_id", 5, "needs a str chunk_id, got int"),
    ("doc_id", None, "needs a str doc_id, got NoneType"),
    ("text", ["a", "list"], "needs a str text, got list"),
    ("start_offset", False, "needs int offsets"),
    ("end_offset", True, "needs int offsets"),
]
_MISTYPED_IDS = [key for key, _, _ in _MISTYPED]


@pytest.mark.parametrize("key, value, match", _MISTYPED, ids=_MISTYPED_IDS)
def test_upsert_refuses_a_field_of_the_wrong_type_and_leaves_store_unchanged(key, value, match):
    for form in _FORMS:
        store = VectorStore(2)
        store.upsert([_record("a", [1, 0])])
        bad = replace(_record("b", [0, 1]), **{key: value})
        with pytest.raises(ValueError, match=match):
            _upsert_as(form, store, [_record("c", [1, 1]), bad])
        assert [r.chunk_id for r in store.records()] == ["a"]
        picked = store.mmr_select([1, 0], MMRParams(lambda_=0.5, k=2))
        assert [sr.record.chunk_id for sr in picked] == ["a"]


@pytest.mark.parametrize(
    "values, error", [([0.0, 0.0], ZeroVector), ([1e-50, 0.0], ZeroVector), ([1e39, 1.0], ValueError)]
)
def test_upsert_rejects_zero_or_overflowing_rows_and_leaves_store_unchanged(values, error):
    # 1e-50 is zero once rounded to float32; 1e39 overflows it
    message = "overflows float32" if values[0] == 1e39 else "has a zero embedding"
    for form in _FORMS:
        store = VectorStore(2)
        store.upsert([_record("a", [1, 0]), _record("b", [0, 1])])
        with pytest.raises(error, match=f"record 'bad' {message}"):
            _upsert_as(form, store, [_record("c", [1, 1]), _record("bad", values)])
        assert [r.chunk_id for r in store.records()] == ["a", "b"]
        result = store.top_k([1, 0.5], 3, Metric.cosine())
        assert [sr.record.chunk_id for sr in result] == ["a", "b"]


@pytest.mark.parametrize(
    "row",
    [
        [float("nan"), 1.0],
        [float("inf"), 1.0],
        [1.0, float("-inf")],
        np.array([float("nan"), 1.0], dtype=np.float32),
        [10**400, 1.0],  # an integer beyond every float
    ],
)
def test_upsert_rejects_rows_that_are_not_finite_and_leaves_store_unchanged(row):
    # rows form only: EmbeddingVector refuses NaN, infinities and integers beyond every float
    store = VectorStore(2)
    store.upsert([_record("a", [1, 0])])
    bare = [replace(_record(cid, [1, 1]), embedding=None) for cid in ("c", "bad")]
    with pytest.raises(NonFiniteVector, match="record 'bad' is not finite"):
        store.upsert(bare, [[1.0, 1.0], row])
    assert [r.chunk_id for r in store.records()] == ["a"]


@pytest.mark.parametrize(
    "records, rows",
    [
        ([replace(_record("b", [0, 1]), embedding=None)], []),  # fewer rows than records
        ([replace(_record("b", [0, 1]), embedding=None)], [[0.0, 1.0], [1.0, 1.0]]),
        ([], [[0.0, 1.0]]),
        ([_record("b", [0, 1])], [[0.0, 1.0]]),  # a record that carries an embedding too
        ([replace(_record("b", [0, 1]), embedding=None)], None),  # a bare record with no rows
    ],
)
def test_upsert_refuses_rows_that_do_not_pair_with_bare_records(records, rows):
    store = VectorStore(2)
    store.upsert([_record("a", [1, 0])])
    with pytest.raises(InvalidParams):
        store.upsert(records, rows)
    assert [r.chunk_id for r in store.records()] == ["a"]
    assert store.get("a").embedding.values == (1.0, 0.0)


@pytest.mark.parametrize(
    "row", [["x", 1.0], [1j, 1.0], [object(), 1.0], [[1.0], 1.0], [[1.0, 2.0], [3.0, 4.0]]]
)
def test_upsert_refuses_a_row_holding_a_value_that_is_not_a_number(row):
    store = VectorStore(2)
    store.upsert([_record("a", [1, 0])])
    bare = [replace(_record(cid, [1, 1]), embedding=None) for cid in ("c", "bad")]
    with pytest.raises(InvalidParams, match="record 'bad' holds a value that is not a number"):
        store.upsert(bare, [[1.0, 1.0], row])
    assert [r.chunk_id for r in store.records()] == ["a"]


def test_a_store_built_from_rows_persists_as_one_built_from_records(tmp_path):
    rng = np.random.default_rng(7)
    vectors = rng.normal(size=(30, 16)) * 10.0 ** rng.integers(-3, 4, size=(30, 1))
    records = [_record(f"c{i:02d}", v, doc_id=f"d{i % 3}") for i, v in enumerate(vectors)]
    by_records, by_rows = VectorStore(16), VectorStore(16)
    for batch in (records[:10], records[10:25], records[5:30]):  # appends, then replaces
        by_records.upsert(batch)
        _upsert_as("rows", by_rows, batch)
    by_records.persist(tmp_path / "records")
    by_rows.persist(tmp_path / "rows")
    for name in ("header.json", "records.json", "matrix.bin"):
        assert (tmp_path / "rows" / name).read_bytes() == (tmp_path / "records" / name).read_bytes()


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
    assert (tmp_path / "again" / "records.json").read_bytes() == (
        tmp_path / "s" / "records.json"
    ).read_bytes()


def test_rows_snapshot_keeps_the_row_an_upsert_replaces():
    store = VectorStore(2)
    store.upsert([_record("a", [1, 0]), _record("b", [0, 1])])
    records, matrix = store.rows()
    store.upsert([_record("a", [5, 5])])
    assert matrix.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert [r.chunk_id for r in records] == ["a", "b"]
    assert store.rows()[1].tolist() == [[5.0, 5.0], [0.0, 1.0]]


def test_rows_snapshots_survive_an_append_and_a_replace():
    store = VectorStore(2)
    store.upsert([_record("a", [1, 0]), _record("b", [0, 1])])
    _, before_append = store.rows()
    store.upsert([_record("c", [2, 2])])
    _, before_replace = store.rows()
    store.upsert([_record("b", [7, 7]), _record("d", [3, 3])])
    assert before_append.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert before_replace.tolist() == [[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]
    assert store.rows()[1].tolist() == [[1.0, 0.0], [7.0, 7.0], [2.0, 2.0], [3.0, 3.0]]
    for matrix in (before_append, before_replace, store.rows()[1]):
        assert matrix.flags.writeable is False
    # the append wrote past the published rows instead of copying them
    assert np.shares_memory(before_append, before_replace)
    assert not np.shares_memory(before_replace, store.rows()[1])


def test_per_document_appends_reallocate_the_buffer_a_logarithmic_number_of_times():
    # kb-large's build: 175 documents of 46 chunks, one upsert each
    store, buffers, n = VectorStore(3), {}, 0
    for doc in range(175):
        store.upsert([_record(f"d{doc}c{i}", [doc + 1, i, 1]) for i in range(46)])
        n += 46
        buffers[id(store._buf)] = store._buf  # kept alive, so no id is reused
        assert len(store) == n <= len(store._buf) <= max(64, 2 * n)
    assert len(buffers) <= 8


_GROWTH_STEP = st.tuples(
    st.integers(0, 80),  # new chunk_ids
    st.integers(0, 12),  # chunk_ids to replace, as many as the store holds
    st.booleans(),  # new and replaced records interleaved, or the new ones last
)


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(_GROWTH_STEP, min_size=1, max_size=10),
    reopen_after=st.integers(0, 10),
    dim=st.sampled_from([1, 3, 16]),
    seed=st.integers(0, 2**32 - 1),
)
def test_store_growth_matches_a_dict_model(steps, reopen_after, dim, seed):
    import tempfile
    from pathlib import Path

    from litrag.store import _row_norms

    rng = np.random.default_rng(seed)
    model, store, snapshots, fresh = {}, VectorStore(dim), [], 0

    def round_trip(target, path):
        _, matrix = target.rows()
        target.persist(path)
        written = (path / "matrix.bin").read_bytes()
        assert len(written) == len(model) * dim * 4
        assert written == matrix.tobytes()
        opened = VectorStore.open(path)
        assert opened.rows()[1].tobytes() == written
        return opened

    with tempfile.TemporaryDirectory() as tmp:
        for step, (new, replaced, interleave) in enumerate(steps):
            ids = rng.permutation(list(model))[:replaced].tolist()
            ids += [f"c{fresh + i:04d}" for i in range(new)]
            fresh += new
            if interleave:
                rng.shuffle(ids)
            rows = rng.standard_normal((len(ids), dim)).astype(np.float32)
            rows[~rows.any(axis=1), 0] = 1.0  # the store rejects a zero row
            store.upsert([_record(cid, row.tolist()) for cid, row in zip(ids, rows)])
            model.update((cid, row.tolist()) for cid, row in zip(ids, rows))

            records, matrix = store.rows()
            assert [r.chunk_id for r in records] == list(model)
            assert matrix.tolist() == list(model.values())
            assert store._norms.tobytes() == _row_norms(store._matrix).tobytes()
            assert len(store._buf) <= max(64, 2 * len(store))
            snapshots.append((matrix, matrix.tobytes()))
            if step == reopen_after:
                store = round_trip(store, Path(tmp) / "mid")
        reopened = round_trip(store, Path(tmp) / "end")

    # a published row is never written, so no snapshot ever changes
    for matrix, data in snapshots:
        assert matrix.flags.writeable is False and matrix.tobytes() == data
    if not model:
        return
    whole = VectorStore(dim)
    whole.upsert([_record(cid, row) for cid, row in model.items()])
    query = rng.standard_normal(dim).tolist()
    k = int(rng.integers(1, len(model) + 1))
    params = MMRParams(lambda_=0.7, k=k, fetch_n=min(len(model), 2 * k))
    for target in (store, reopened):
        for m in (Metric.cosine(), Metric.euclidean()):
            assert [(sr.record.chunk_id, sr.score.hex()) for sr in target.top_k(query, k, m)] == [
                (sr.record.chunk_id, sr.score.hex()) for sr in whole.top_k(query, k, m)
            ]
        assert [(sr.record.chunk_id, sr.score.hex()) for sr in target.mmr_select(query, params)] == [
            (sr.record.chunk_id, sr.score.hex()) for sr in whole.mmr_select(query, params)
        ]


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


def test_a_zero_query_ranks_as_a_full_scan():
    store = VectorStore(2)
    store.upsert([_record("b", [1, 0]), _record("a", [0, 3]), _record("c", [1, 1])])
    with pytest.raises(ZeroVector):
        store.top_k([0.0, 0.0], 1, Metric.cosine())
    with pytest.raises(ZeroVector):
        store.mmr_select([0.0, 0.0], MMRParams(lambda_=0.5, k=1, fetch_n=2))
    top = store.top_k([0.0, 0.0], 2, Metric.inner_product())
    assert [(sr.record.chunk_id, sr.score) for sr in top] == [("a", 0.0), ("b", 0.0)]


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


# --- the float32 pre-filter of cosine and inner_product ---------------------------


def _full_scan(store, query, k, m):
    """The k best (chunk_id, score) of one ``score_rows`` call over the whole
    matrix, best first with ties to the lowest chunk_id."""
    records, matrix = store.rows()
    scores = score_rows(matrix, query, m).tolist()
    best = sorted(range(len(records)), key=lambda i: (-scores[i], records[i].chunk_id))[:k]
    return [(records[i].chunk_id, scores[i]) for i in best]


def _full_scan_mmr(store, query, params):
    """Eq. 1 picked greedily, as ``mmr_select`` does, from a pool ranked by
    :func:`_full_scan`: the (chunk_id, score hex) of each pick."""
    records, matrix = store.rows()
    index = {rec.chunk_id: i for i, rec in enumerate(records)}
    pool = sorted(_full_scan(store, query, params.pool_size(), params.sim1))
    rows = matrix[[index[cid] for cid, _ in pool]]
    relevance = np.array([score for _, score in pool])
    lam = params.lambda_
    penalty, taken, picked = np.zeros(len(pool)), np.zeros(len(pool), dtype=bool), []
    for _ in range(min(params.k, len(pool))):
        objective = lam * relevance - (1.0 - lam) * penalty
        objective[taken] = -np.inf
        j = int(np.argmax(objective))
        taken[j] = True
        picked.append((pool[j][0], float(objective[j]).hex()))
        redundancy = score_rows(rows, rows[j], params.sim2)
        penalty = redundancy if len(picked) == 1 else np.maximum(penalty, redundancy)
    return picked


@st.composite
def _near_tie_stores(draw):
    """A store whose rows have norms 2^-12..2^12 apart, with exact copies,
    copies scaled by a power of two (a cosine tie) and copies one float32 ulp
    off in one coordinate, its chunk_ids shuffled over the row positions and
    upserted in batches; and a query, at times one of the rows, scaled by a
    power of two."""
    dim = draw(st.sampled_from([1, 2, 5, 24, 64, 200]))
    n = draw(st.integers(1, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.standard_normal((n, dim)).astype(np.float32)
    rows *= np.exp2(rng.integers(-12, 13, size=(n, 1))).astype(np.float32)
    for i in range(1, n):
        src, kind = rows[rng.integers(i)], rng.integers(4)
        if kind == 1:
            rows[i] = src
        elif kind == 2:
            rows[i] = src * np.float32(2.0 ** rng.integers(-3, 4))
        elif kind == 3:
            rows[i] = src
            j = rng.integers(dim)
            rows[i, j] = np.nextafter(src[j], np.float32(rng.choice([-np.inf, np.inf])))
    rows[~rows.any(axis=1), 0] = 1.0  # the store rejects a zero row
    store = VectorStore(dim)
    ids = [f"c{i:03d}" for i in rng.permutation(n)]
    start = 0
    while start < n:
        stop = start + int(rng.integers(1, 60))
        batch = zip(ids[start:stop], rows[start:stop])
        store.upsert([_record(cid, row.tolist()) for cid, row in batch])
        start = stop
    # 2^-140 makes float32 products underflow, 2^120 makes a float32 gemv overflow
    scale = 2.0 ** draw(st.sampled_from([-140, -6, 0, 6, 12, 120]))
    if draw(st.booleans()):
        query = rows[rng.integers(n)].astype(np.float64) * scale
    else:
        query = rng.standard_normal(dim) * scale
    return store, query.tolist()


@settings(max_examples=150, deadline=None)
@given(
    case=_near_tie_stores(),
    kind=st.sampled_from(["cosine", "inner_product"]),
    k=st.integers(1, 160),
    extra=st.integers(0, 40),
    lam=st.sampled_from([0.0, 0.5, 0.7, 1.0]),
)
def test_filtered_ranking_equals_a_full_scan(case, kind, k, extra, lam):
    store, query = case
    m = Metric(kind)
    top = store.top_k(query, k, m)
    expected = [(cid, score.hex()) for cid, score in _full_scan(store, query, k, m)]
    assert [(sr.record.chunk_id, sr.score.hex()) for sr in top] == expected
    params = MMRParams(lambda_=lam, k=k, fetch_n=k + extra, sim1=m, sim2=m)
    mmr = store.mmr_select(query, params)
    expected = _full_scan_mmr(store, query, params)
    assert [(sr.record.chunk_id, sr.score.hex()) for sr in mmr] == expected


def test_float32_order_that_differs_from_float64_does_not_decide_the_top_row():
    # each row has one nonzero entry, so any gemv scores it as one rounded
    # float32 product: "b" then beats "a" in float32 though "a" wins in float64
    q = [float.fromhex("0x1.aa3c68567ad60p-1"), float.fromhex("0x1.3bbaf702b2bf7p-3")]
    rows = {"a": [5.0, 0.0], "b": [0.0, 27.0], "c": [1.0, 1.0]}
    matrix, m = np.array(list(rows.values()), dtype=np.float32), Metric.inner_product()
    gemv, exact = matrix @ np.array(q, dtype=np.float32), score_rows(matrix, q, m)
    assert gemv[1] > gemv[0] > gemv[2] and exact[0] > exact[1] > exact[2]
    store = VectorStore(2)
    store.upsert([_record(cid, vec) for cid, vec in rows.items()])
    top = store.top_k(q, 1, m)
    assert [(sr.record.chunk_id, sr.score.hex()) for sr in top] == [("a", exact[0].hex())]
    mmr = store.mmr_select(q, MMRParams(lambda_=1.0, k=1, fetch_n=1, sim1=m, sim2=m))
    assert [(sr.record.chunk_id, sr.score.hex()) for sr in mmr] == [("a", exact[0].hex())]


class _NaNTopRow(np.ndarray):
    """A float32 matrix whose gemv comes back with row ``top`` as inf - inf:
    a NaN, which a BLAS kernel's stray invalid flag might stand for."""

    top = 0

    def __matmul__(self, other):
        out = np.asarray(self) @ other
        out[self.top] = np.float32(np.inf) - np.float32(np.inf)
        return out


@pytest.mark.parametrize("kind", ["cosine", "inner_product"])
def test_a_gemv_that_is_not_finite_keeps_every_row(kind):
    rng = np.random.default_rng(7)
    store = VectorStore(16)
    store.upsert([_record(f"c{i:02d}", rng.standard_normal(16).tolist()) for i in range(40)])
    query, m = rng.standard_normal(16).tolist(), Metric(kind)
    params = MMRParams(lambda_=0.7, k=4, fetch_n=12, sim1=m, sim2=m)
    expected_top = [(cid, score.hex()) for cid, score in _full_scan(store, query, 4, m)]
    expected_mmr = _full_scan_mmr(store, query, params)
    records, matrix = store.rows()
    store._matrix = matrix.view(_NaNTopRow)
    store._matrix.top = [rec.chunk_id for rec in records].index(expected_top[0][0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        top = store.top_k(query, 4, m)
        mmr = store.mmr_select(query, params)
    assert [(sr.record.chunk_id, sr.score.hex()) for sr in top] == expected_top
    assert [(sr.record.chunk_id, sr.score.hex()) for sr in mmr] == expected_mmr


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


def test_a_retrieval_config_selects_as_the_equal_mmr_params():
    store, _ = _random_store(random.Random(11), 60, 8)
    query = [random.Random(12).uniform(-1, 1) for _ in range(8)]
    cfg = RetrievalConfig(lambda_=0.5, k=5, fetch_n=20, sim2=Metric.euclidean(), use_mmr=True)
    params = MMRParams(lambda_=0.5, k=5, fetch_n=20, sim2=Metric.euclidean())
    picked = [(sr.record.chunk_id, sr.score.hex()) for sr in store.mmr_select(query, cfg)]
    assert picked == [(sr.record.chunk_id, sr.score.hex()) for sr in store.mmr_select(query, params)]


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


@pytest.mark.parametrize("char", ["\u2028", "\u2029", "\u0085"])
def test_a_record_holding_a_unicode_line_separator_round_trips_in_records_json(tmp_path, char):
    store = VectorStore(2)
    store.upsert([
        replace(_record("a", [1, 0]), text=f"one{char}two"),
        _record(f"b{char}", [0, 1], doc_id=f"doc{char}", note=f"x{char}y"),
    ])
    store.persist(tmp_path / "s")
    assert char in (tmp_path / "s" / "records.json").read_text(encoding="utf-8")
    loaded = VectorStore.open(tmp_path / "s")
    assert loaded.records() == store.records()
    assert loaded.get(f"b{char}").metadata["note"] == f"x{char}y"


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


def test_header_dimension_edited_with_both_checksums_intact(tmp_path):
    store, _ = _random_store(random.Random(98), 6, 4)
    store.persist(tmp_path / "s")
    header_path = tmp_path / "s" / "header.json"
    header = json.loads(header_path.read_text())
    header["dimension"] = 2
    header_path.write_text(json.dumps(header))
    with pytest.raises(DimensionHeaderMismatch, match="matrix.bin holds 96 bytes, header implies 48"):
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
    "edit, match",
    [
        (lambda cols: cols.pop("text"), "one object of the arrays chunk_id, doc_id, text"),
        (lambda cols: cols.update(extra=[0, 0, 0]), "one object of the arrays"),
        (lambda cols: cols.update(text="abc"), "text is not an array"),
        (lambda cols: cols["chunk_id"].__setitem__(1, "c0000"), "record 2 is invalid: chunk_id 'c0000' is repeated"),
        (lambda cols: cols.update(start_offset=[0, 9, 0], end_offset=[10, 3, 10]), "record 2 is invalid"),
        (lambda cols: cols["metadata"][1].pop("source"), "record 2 is invalid"),
        (lambda cols: cols["metadata"].__setitem__(1, ["source"]), "record 2 is invalid"),
    ],
    ids=["missing-column", "unknown-column", "column-not-an-array", "repeated-chunk-id",
         "reversed-offsets", "missing-source", "metadata-not-an-object"],
)
def test_malformed_records_column_is_corrupt(tmp_path, edit, match):
    store, _ = _random_store(random.Random(93), 3, 4)
    store.persist(tmp_path / "s")
    _edit_records_json(tmp_path / "s", edit)
    with pytest.raises(CorruptStore, match=match):
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


@pytest.mark.parametrize(
    "key", ["dimension", "record_count", "format_version", "checksum", "records_checksum"]
)
def test_a_header_missing_a_key_is_corrupt(tmp_path, key):
    import json

    VectorStore(4).persist(tmp_path / "s")
    header_path = tmp_path / "s" / "header.json"
    header = json.loads(header_path.read_text())
    del header[key]
    header_path.write_text(json.dumps(header))
    with pytest.raises(CorruptStore, match=f"missing '{key}'"):
        VectorStore.open(tmp_path / "s")


@pytest.mark.parametrize("version", [0, 1, 2, 4, "1", None, True, 1.0])
def test_an_unsupported_format_version_is_corrupt(tmp_path, version):
    VectorStore(4).persist(tmp_path / "s")
    header_path = tmp_path / "s" / "header.json"
    header = json.loads(header_path.read_text())
    header["format_version"] = version
    if type(version) is int and version == 1:
        del header["records_checksum"]  # version 1 had none: the version is still what is named
    header_path.write_text(json.dumps(header))
    rebuild = "this litrag reads format 3; rebuild it, `litrag ingest` rewrites a knowledge base"
    with pytest.raises(CorruptStore, match=f"unsupported format_version {version!r}: {rebuild}"):
        VectorStore.open(tmp_path / "s")


# a column one entry short, one long and two long
_LENGTH_EDITS = [lambda col: col[:-1], lambda col: col + col[-1:], lambda col: col + [col[0]] * 2]
_LENGTH_EDIT_IDS = ["entry-dropped", "entry-repeated", "two-entries-added"]


@pytest.mark.parametrize("edit", _LENGTH_EDITS, ids=_LENGTH_EDIT_IDS)
@pytest.mark.parametrize("key", ["chunk_id", "text", "metadata"])
def test_a_records_column_length_other_than_the_header_count_is_a_mismatch(tmp_path, edit, key):
    store, _ = _random_store(random.Random(95), 4, 8)
    store.persist(tmp_path / "s")
    _edit_records_json(tmp_path / "s", lambda cols: cols.update({key: edit(cols[key])}))
    with pytest.raises(DimensionHeaderMismatch, match=f"records.json holds [356] {key} values, header says 4"):
        VectorStore.open(tmp_path / "s")


@pytest.mark.parametrize("text", ["null", "5", '"header"', "[]"])
def test_a_header_that_is_not_an_object_is_corrupt(tmp_path, text):
    VectorStore(4).persist(tmp_path / "s")
    (tmp_path / "s" / "header.json").write_text(text)
    with pytest.raises(CorruptStore, match="not an object"):
        VectorStore.open(tmp_path / "s")


def test_undecodable_header_bytes_are_corrupt(tmp_path):
    VectorStore(4).persist(tmp_path / "s")
    header_path = tmp_path / "s" / "header.json"
    raw = header_path.read_bytes()
    header_path.write_bytes(raw[:1] + b"\xff" + raw[1:])
    with pytest.raises(CorruptStore, match="header.json is not valid UTF-8 JSON"):
        VectorStore.open(tmp_path / "s")


@pytest.mark.parametrize("bad", [b"\xff", b"\xed\xa0\x80"], ids=["invalid-byte", "encoded-surrogate"])
def test_undecodable_records_json_is_corrupt(tmp_path, bad):
    store, _ = _random_store(random.Random(97), 3, 4)
    store.persist(tmp_path / "s")
    data = (tmp_path / "s" / "records.json").read_bytes().replace(b"text of", b"text " + bad + b" of", 1)
    _write_records_json(tmp_path / "s", data)
    with pytest.raises(CorruptStore, match="records.json is not valid UTF-8 JSON"):
        VectorStore.open(tmp_path / "s")


@pytest.mark.parametrize("key, value, match", _MISTYPED, ids=_MISTYPED_IDS)
def test_a_records_column_holding_a_field_of_the_wrong_type_is_corrupt(tmp_path, key, value, match):
    store, _ = _random_store(random.Random(99), 3, 4)
    store.persist(tmp_path / "s")
    _edit_records_json(tmp_path / "s", lambda cols: cols[key].__setitem__(1, value))
    with pytest.raises(CorruptStore, match=f"records.json record 2 is invalid: .*{match}"):
        VectorStore.open(tmp_path / "s")


def test_an_end_offset_changed_in_records_json_fails_its_checksum(tmp_path):
    # the same count of records and a valid JSON file: only the checksum sees it
    store, _ = _random_store(random.Random(99), 3, 4)
    store.persist(tmp_path / "s")
    path = tmp_path / "s" / "records.json"
    data = path.read_bytes()
    edited = data.replace(b'"end_offset": [10, 10, 10]', b'"end_offset": [10, 19, 10]')
    assert edited != data
    path.write_bytes(edited)
    with pytest.raises(CorruptStore, match="records.json checksum mismatch"):
        VectorStore.open(tmp_path / "s")


@settings(max_examples=500, deadline=None)
@given(
    kind_name=st.sampled_from(
        [(kind, name) for kind in ("bare", "documents", "sweep row")
         for name in ("header.json", "records.json", "matrix.bin")]
        + [("documents", "docs/d.json"), ("sweep row", "../docs/d.json")]
    ),
    truncate=st.booleans(),
    bit=st.integers(0, 7),
    data=st.data(),
)
def test_a_flipped_bit_or_a_cut_in_any_store_file_fails_open(kind_name, truncate, bit, data):
    # a sweep row's records.json names the snapshot directory it shares
    import tempfile

    kind, name = kind_name
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "row"
        if kind == "bare":
            _random_store(random.Random(100), 12, 8)[0].persist(path)
        else:
            _document_store()[0].persist(path, "docs" if kind == "documents" else "../docs")
        if kind == "sweep row":
            assert b'"snapshots": "../docs"' in (path / "records.json").read_bytes()
        raw = (path / name).read_bytes()
        i = data.draw(st.integers(0, len(raw) - 1), label="byte")
        damaged = raw[:i] if truncate else raw[:i] + bytes([raw[i] ^ 1 << bit]) + raw[i + 1 :]
        (path / name).write_bytes(damaged)
        if name.endswith("docs/d.json"):  # open reads no snapshot; its first read checks it
            opened = VectorStore.open(path)
            with pytest.raises(CorruptStore, match="damaged document snapshot .* checksum mismatch"):
                opened.document("d")
        else:
            with pytest.raises((CorruptStore, DimensionHeaderMismatch)):
                VectorStore.open(path)


@pytest.mark.parametrize("partial", [False, True], ids=["nothing-written", "half-written"])
@pytest.mark.parametrize("written", [0, 1, 2], ids=["matrix", "records", "header"])
@pytest.mark.parametrize("change", ["metadata", "row", "append"])
@pytest.mark.parametrize("kind", ["bare", "documents"])
def test_an_interrupted_persist_leaves_the_previous_store_or_a_corrupt_one(
    tmp_path, monkeypatch, kind, change, written, partial
):
    # persist writes a store of documents' snapshots, then matrix.bin, records.json
    # and header.json: the write of store file ``written`` fails, after nothing or
    # half of it reached the disk
    path = tmp_path / "kb"
    if kind == "bare":
        _random_store(random.Random(101), 12, 8)[0].persist(path)
    else:
        _document_store(tmp_path)
    before = VectorStore.open(path)
    store = VectorStore.open(path)
    one = [1.0] * store.dim
    if kind == "documents":
        doc = store.document("d")
        if change == "metadata":  # a second document: a new table entry and snapshot
            other = replace(doc, doc_id="e")
            store.upsert([Chunk("e:0", "e", "Title line", 0, 10)], [one], document=other)
        else:
            chunk = Chunk("d:1", "d", "Flames spread.", 12, 26)
            if change == "append":
                chunk = Chunk("d:2", "d", "Soot forms late.", 27, 43)
            store.upsert([chunk], [one], document=doc)
    else:
        rec = store.get("c0002")
        if change == "metadata":
            store.upsert([replace(rec, metadata={**rec.metadata, "note": "changed"})])
        elif change == "row":
            store.upsert([replace(rec, embedding=EmbeddingVector(tuple(one)))])
        else:
            store.upsert([replace(rec, chunk_id="new", embedding=EmbeddingVector(tuple(one)))])

    write_bytes, calls = Path.write_bytes, []

    def failing_write(self, data):
        if self.parent.name == "docs":  # a snapshot: only the store files' writes count
            return write_bytes(self, data)
        if len(calls) == written:
            if partial:
                write_bytes(self, bytes(data)[: len(bytes(data)) // 2])
            raise OSError(28, "No space left on device")
        calls.append(self.name)
        return write_bytes(self, data)

    monkeypatch.setattr(Path, "write_bytes", failing_write)
    with pytest.raises(IoFailure, match="No space left on device"):
        store.persist(path)
    monkeypatch.undo()
    try:
        opened = VectorStore.open(path)
        records = opened.records()
    except CorruptStore:
        assert (written, partial) != (0, False)  # the store files are as they were
        return
    assert records == before.records()
    assert opened.rows()[1].tobytes() == before.rows()[1].tobytes()


def test_columns_are_a_snapshot_of_read_only_fields(monkeypatch):
    import litrag.store

    store = VectorStore(2)
    store.upsert([_record("a", [1, 0]), _record("b", [0, 1], doc_id="d2")])
    monkeypatch.setattr(litrag.store.VectorStore, "_record_at", None)  # columns builds no record
    ids, docs, metadata, matrix = store.columns("chunk_id", "doc_id", "metadata")
    monkeypatch.undo()
    store.upsert([_record("a", [5, 5], doc_id="d3"), _record("c", [1, 1])])
    assert (ids, docs, matrix.tolist()) == (["a", "b"], ["doc", "d2"], [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(TypeError):
        metadata[0]["source"] = "x"
    ids.append("z")
    assert store.columns("chunk_id", "doc_id")[:2] == (["a", "b", "c"], ["d3", "d2", "doc"])


# The peak is the process's VmHWM: getrusage's ru_maxrss would start at the
# test process's own peak, which Linux carries over to a child across exec.
_REOPEN_PEAKS = """
import gc, sys
from litrag.store import VectorStore
def peak_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
peaks = []
for _ in range(4):
    store = None
    gc.collect()
    store = VectorStore.open(sys.argv[1])
    peaks.append(peak_kib())
print(peaks[-1] - peaks[0])
"""


def _reopen_peak_growth(path) -> int:
    """How far, in bytes, three more opens of the store at ``path`` raise a
    fresh process's peak RSS over its first open."""
    src = str(Path(litrag.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", _REOPEN_PEAKS, str(path)],
        capture_output=True, text=True, check=True, env=env, timeout=120,
    )
    return int(out.stdout) * 1024


def _store_of_8000_chunks() -> VectorStore:
    rng = random.Random(98)
    words = ["flame", "soot", "ignition", "kinetics", "turbulent", "premixed", "laminar"]
    n, dim = 8000, 4
    records = []
    for i in range(n):
        doc = f"doc-{i // 46:04d}"
        text = " ".join(rng.choice(words) for _ in range(100))[:700]
        records.append(ChunkRecord(
            chunk_id=f"{doc}:{i % 46:05d}", doc_id=doc, text=text, start_offset=0,
            end_offset=len(text), embedding=None, metadata={"source": f"{doc}.txt", "doc_id": doc},
        ))
    store = VectorStore(dim)
    store.upsert(records, np.random.default_rng(98).standard_normal((n, dim)).astype(np.float32))
    return store


@pytest.mark.skipif(sys.platform != "linux", reason="reads the peak from /proc/self/status")
def test_reopening_a_store_does_not_raise_peak_memory(tmp_path):
    # open parses records.json from its bytes in one call; decoding it to a str
    # and freeing the bytes first left holes that every reopen then added to
    _store_of_8000_chunks().persist(tmp_path / "s")
    size = (tmp_path / "s" / "records.json").stat().st_size
    assert size > 6_000_000
    growth = _reopen_peak_growth(tmp_path / "s")
    assert growth < size / 4, f"peak RSS grew {growth} bytes over three reopens of a {size}-byte file"


@pytest.mark.parametrize(
    "search",
    [
        lambda store, query: store.top_k(query, 2, Metric.cosine()),
        lambda store, query: store.mmr_select(query, MMRParams(lambda_=0.5, k=2, fetch_n=3)),
    ],
    ids=["top_k", "mmr_select"],
)
@pytest.mark.parametrize("query_dim", [3, 5])
def test_a_query_of_the_wrong_dimension_is_refused(search, query_dim):
    store, _ = _random_store(random.Random(96), 5, 4)
    with pytest.raises(DimensionMismatch, match=f"query dimension {query_dim} != store dimension 4"):
        search(store, [1.0] * query_dim)


METRICS = [
    Metric.cosine(),
    Metric.inner_product(),
    Metric.euclidean(),
    Metric.manhattan(),
    Metric.chebyshev(),
    Metric.minkowski(3),
]


@pytest.mark.parametrize("m", METRICS, ids=lambda m: m.spec())
def test_an_embedding_vector_query_scores_as_its_values_do(m):
    rng = random.Random(99)
    store, vectors = _random_store(rng, 12, 8)
    values = tuple(rng.uniform(-1, 1) for _ in range(8))

    def bits(scored):
        return [(sr.record.chunk_id, sr.score.hex()) for sr in scored]

    query, params = EmbeddingVector(values), MMRParams(lambda_=0.5, k=4, fetch_n=8, sim1=m, sim2=m)
    assert bits(store.top_k(query, 5, m)) == bits(store.top_k(list(values), 5, m))
    assert bits(store.mmr_select(query, params)) == bits(store.mmr_select(list(values), params))
    row = vectors["c0003"]
    expected = similarity(list(values), row, m).hex()
    assert similarity(EmbeddingVector(values), EmbeddingVector(tuple(row)), m).hex() == expected
    assert similarity(EmbeddingVector(values), row, m).hex() == expected


# --- a store of documents (format version 3) ------------------------------------------


def _document_store(tmp_path=None):
    """A store of documents holding two chunks of one document, persisted to
    ``tmp_path / "kb"`` if given."""
    doc = Document("d", "Title line\n\nFlames spread. Soot forms late.", "/corpus/d.txt")
    chunks = [Chunk("d:0", "d", "Title line", 0, 10), Chunk("d:1", "d", "Flames spread.", 12, 26)]
    store = VectorStore(2, documents=True)
    store.upsert(chunks, [[1.0, 0.0], [0.0, 1.0]], document=doc)
    if tmp_path is not None:
        store.persist(tmp_path / "kb")
    return store, doc


def test_a_store_of_documents_derives_text_and_metadata_and_round_trips(tmp_path):
    store, doc = _document_store(tmp_path)
    meta = {"source": "d.txt", "doc_id": "d", "title": "Title line"}
    records = store.records()
    assert [(r.text, dict(r.metadata)) for r in records] == [("Title line", meta), ("Flames spread.", meta)]
    assert VectorStore.open(tmp_path / "kb").records() == records
    snapshot = {"doc_id": "d", "body": doc.body, "source_path": "d.txt"}
    assert (tmp_path / "kb" / "docs" / "d.json").read_bytes() == json.dumps(snapshot).encode()
    columns = json.loads((tmp_path / "kb" / "records.json").read_text(encoding="utf-8"))
    digest = "sha256:" + hashlib.sha256((tmp_path / "kb" / "docs" / "d.json").read_bytes()).hexdigest()
    assert columns["documents"] == {"d": {"source": "d.txt", "title": "Title line", "sha256": digest}}
    assert json.loads((tmp_path / "kb" / "header.json").read_text())["format_version"] == 3


def test_a_store_of_documents_and_a_bare_store_take_only_their_kind_of_upsert():
    store, doc = _document_store()
    bare = VectorStore(2)
    with pytest.raises(InvalidParams, match="with their document"):
        store.upsert([_record("x", [1, 1], doc_id="d")])
    with pytest.raises(InvalidParams, match="with their document"):
        bare.upsert([_record("x", [1, 1], doc_id="d")], document=doc)
    assert len(store) == 2 and len(bare) == 0


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda cols: cols["documents"].pop("d"), "its document 'd' is not in the table"),
        (lambda cols: cols["documents"]["d"].pop("title"), "documents must map each doc_id"),
        (lambda cols: cols["documents"]["d"].update(sha256=5), "documents must map each doc_id"),
        (lambda cols: cols.update(documents=[]), "documents must map each doc_id"),
        (lambda cols: cols.update(text=["a", "b"]), "arrays chunk_id, doc_id, start_offset, end_offset and"),
    ],
)
def test_a_damaged_documents_table_is_corrupt(tmp_path, edit, match):
    _document_store(tmp_path)
    _edit_records_json(tmp_path / "kb", edit)
    with pytest.raises(CorruptStore, match=match):
        VectorStore.open(tmp_path / "kb")


def test_a_persist_writes_the_snapshots_of_the_documents_named_and_deletes_the_rest(tmp_path):
    store, doc = _document_store(tmp_path)
    docs = tmp_path / "kb" / "docs"
    (docs / "stale.json").write_text("{}", encoding="utf-8")
    (docs / "notes.txt").write_text("kept", encoding="utf-8")
    other = replace(doc, doc_id="e")
    store.upsert([Chunk("d:0", "e", "Title line", 0, 10)], [[1.0, 1.0]], document=other)
    store.persist(tmp_path / "kb")
    assert sorted(p.name for p in docs.iterdir()) == ["d.json", "e.json", "notes.txt"]
    opened = VectorStore.open(tmp_path / "kb")
    assert [(r.chunk_id, r.doc_id) for r in opened.records()] == [("d:0", "e"), ("d:1", "d")]
    opened.persist(tmp_path / "copy")  # reads, checks and writes every snapshot it names
    assert (tmp_path / "copy" / "docs" / "e.json").read_bytes() == (docs / "e.json").read_bytes()


def test_a_bare_store_holds_no_documents_even_beside_snapshots(tmp_path):
    store, _ = _random_store(random.Random(102), 3, 4)
    _document_store(tmp_path)
    store.persist(tmp_path / "kb")  # a bare store over a directory whose docs/ holds d.json
    for held in (store, VectorStore.open(tmp_path / "kb")):
        for doc_id in ("doc", "d"):
            with pytest.raises(IoFailure, match=f"no document snapshot for {doc_id!r}"):
                held.document(doc_id)


@pytest.mark.parametrize("char", ["\u2028", "\u2029", "\u0085"])
def test_a_record_holding_a_unicode_line_separator_round_trips(tmp_path, char):
    # in a store of documents the text is read from the snapshot, the doc_id
    # and the source from records.json
    doc = Document(f"d{char}", f"Title{char}line\n\nFlames{char}spread.", f"/corpus/d{char}.txt")
    chunks = [
        Chunk("a", doc.doc_id, f"Title{char}line", 0, 10),
        Chunk(f"b{char}", doc.doc_id, f"Flames{char}spread.", 12, 26),
    ]
    store = VectorStore(2, documents=True)
    store.upsert(chunks, [[1.0, 0.0], [0.0, 1.0]], document=doc)
    store.persist(tmp_path / "kb")
    assert char in (tmp_path / "kb" / "docs" / f"d{char}.json").read_text(encoding="utf-8")
    assert f"d{char}.txt" in (tmp_path / "kb" / "records.json").read_text(encoding="utf-8")
    loaded = VectorStore.open(tmp_path / "kb")
    assert loaded.records() == store.records()
    assert loaded.get(f"b{char}").text == f"Flames{char}spread."
    assert loaded.get(f"b{char}").metadata["source"] == f"d{char}.txt"
    assert loaded.document(doc.doc_id).body == doc.body


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda cols: cols.pop("start_offset"),
         "arrays chunk_id, doc_id, start_offset, end_offset and the documents table"),
        (lambda cols: cols["chunk_id"].__setitem__(1, "d:0"), "record 2 is invalid: chunk_id 'd:0' is repeated"),
        (lambda cols: cols.update(start_offset=[0, 30]), "record 2 is invalid: record 'd:1' needs int offsets"),
        (lambda cols: cols.update(start_offset=[-1, 12]), "record 1 is invalid: record 'd:0' needs int offsets"),
        (lambda cols: cols["documents"]["d"].update(text="x"), "documents must map each doc_id"),
    ],
    ids=["missing-column", "repeated-chunk-id", "reversed-offsets", "negative-offset", "table-entry-with-text"],
)
def test_malformed_records_column_of_a_store_of_documents_is_corrupt(tmp_path, edit, match):
    _document_store(tmp_path)
    _edit_records_json(tmp_path / "kb", edit)
    with pytest.raises(CorruptStore, match=match):
        VectorStore.open(tmp_path / "kb")


@pytest.mark.parametrize("edit", _LENGTH_EDITS, ids=_LENGTH_EDIT_IDS)
@pytest.mark.parametrize("key", ["doc_id", "end_offset"])
def test_a_span_column_length_other_than_the_header_count_is_a_mismatch(tmp_path, edit, key):
    _document_store(tmp_path)
    _edit_records_json(tmp_path / "kb", lambda cols: cols.update({key: edit(cols[key])}))
    with pytest.raises(DimensionHeaderMismatch, match=f"records.json holds [134] {key} values, header says 2"):
        VectorStore.open(tmp_path / "kb")


_MISTYPED_SPANS = [case for case in _MISTYPED if case[0] != "text"]  # a store of documents holds no text


@pytest.mark.parametrize("key, value, match", _MISTYPED_SPANS, ids=[key for key, _, _ in _MISTYPED_SPANS])
def test_a_span_column_holding_a_field_of_the_wrong_type_is_corrupt(tmp_path, key, value, match):
    _document_store(tmp_path)
    _edit_records_json(tmp_path / "kb", lambda cols: cols[key].__setitem__(1, value))
    with pytest.raises(CorruptStore, match=f"records.json record 2 is invalid: .*{match}"):
        VectorStore.open(tmp_path / "kb")


@pytest.mark.parametrize(
    "value", ["/abs/docs", "", 7, None, ["../docs"]], ids=["absolute", "empty", "int", "null", "list"]
)
def test_a_snapshots_key_that_is_not_a_relative_path_is_corrupt(tmp_path, value):
    _document_store()[0].persist(tmp_path / "row", "../docs")
    _edit_records_json(tmp_path / "row", lambda cols: cols.update(snapshots=value))
    with pytest.raises(CorruptStore, match="records.json snapshots must name a directory relative"):
        VectorStore.open(tmp_path / "row")


def test_a_bare_store_naming_a_snapshot_directory_is_corrupt(tmp_path):
    _random_store(random.Random(103), 3, 4)[0].persist(tmp_path / "s")
    _edit_records_json(tmp_path / "s", lambda cols: cols.update(snapshots="../docs"))
    with pytest.raises(CorruptStore, match="records.json must hold one object of the arrays"):
        VectorStore.open(tmp_path / "s")


@pytest.mark.parametrize("value", ["/abs/docs", "", None], ids=["absolute", "empty", "null"])
def test_persist_refuses_a_snapshot_directory_that_is_not_a_relative_path(tmp_path, value):
    store, _ = _document_store()
    with pytest.raises(InvalidParams, match="snapshots must name a directory relative"):
        store.persist(tmp_path / "row", value)
    assert not (tmp_path / "row").exists()


def test_a_store_reads_its_snapshots_from_the_directory_records_json_names(tmp_path):
    store, doc = _document_store()
    store.persist(tmp_path / "row", "../docs")
    files = sorted(p.name for p in (tmp_path / "row").iterdir())
    assert files == ["header.json", "matrix.bin", "records.json"]
    columns = json.loads((tmp_path / "row" / "records.json").read_text(encoding="utf-8"))
    assert columns["snapshots"] == "../docs"
    store.persist(tmp_path / "own")  # the default layout names no directory
    assert "snapshots" not in json.loads((tmp_path / "own" / "records.json").read_text(encoding="utf-8"))
    assert (tmp_path / "docs" / "d.json").read_bytes() == (tmp_path / "own" / "docs" / "d.json").read_bytes()
    opened = VectorStore.open(tmp_path / "row")
    assert opened.records() == store.records()
    assert opened.document("d").body == doc.body


def test_a_persist_into_a_shared_directory_deletes_nothing_there(tmp_path):
    store, _ = _document_store()
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "other.json").write_text("{}", encoding="utf-8")
    store.persist(tmp_path / "row", "../docs")
    assert sorted(p.name for p in (tmp_path / "docs").iterdir()) == ["d.json", "other.json"]


@pytest.mark.parametrize("damage", ["delete", "edit"])
def test_a_missing_or_altered_shared_snapshot_fails_the_read_naming_its_path(tmp_path, damage):
    _document_store()[0].persist(tmp_path / "row", "../docs")
    snapshot = tmp_path / "docs" / "d.json"
    if damage == "delete":
        snapshot.unlink()
    else:
        snapshot.write_bytes(snapshot.read_bytes().replace(b"Flames", b"Flamez"))
    opened = VectorStore.open(tmp_path / "row")
    error = IoFailure if damage == "delete" else CorruptStore
    with pytest.raises(error, match=r"row/\.\./docs/d\.json"):
        opened.records()


def test_a_persist_writes_only_the_snapshots_whose_bytes_differ(tmp_path, monkeypatch):
    store, doc = _document_store(tmp_path)
    other = Document("e", "Other title\n\nIgnition delay.", "/corpus/e.txt")
    store.upsert([Chunk("e:0", "e", "Other title", 0, 11)], [[1.0, 1.0]], document=other)
    (tmp_path / "kb" / "docs" / "d.json").write_bytes(b"{}")  # bytes persist must replace
    write_bytes, written = Path.write_bytes, []

    def counting_write(self, data):
        written.append(self.name)
        return write_bytes(self, data)

    monkeypatch.setattr(Path, "write_bytes", counting_write)
    store.persist(tmp_path / "kb")
    assert written == ["d.json", "e.json", "matrix.bin", "records.json", "header.json"]
    written.clear()
    store.persist(tmp_path / "kb")
    assert written == ["matrix.bin", "records.json", "header.json"]
    monkeypatch.undo()
    assert VectorStore.open(tmp_path / "kb").records() == store.records()


def _mmr_renorming(store, query, params):
    """mmr_select as it was before a pick passed its row's norm to
    score_rows: the pool is top_k's under sim1, sorted by chunk_id, and each
    pick's sim2 scores come from score_rows norming every row and the picked
    row again. The (chunk_id, score hex) of each pick."""
    records, matrix = store.rows()
    index = {rec.chunk_id: i for i, rec in enumerate(records)}
    ranked = store.top_k(query, params.pool_size(), params.sim1)
    pool = sorted((sr.record.chunk_id, sr.score) for sr in ranked)
    rows = matrix[[index[cid] for cid, _ in pool]]
    sign1 = -1.0 if params.sim1.is_distance else 1.0
    sign2 = -1.0 if params.sim2.is_distance else 1.0
    relevance = sign1 * np.array([score for _, score in pool])
    lam = params.lambda_
    penalty, taken, picked = np.zeros(len(pool)), np.zeros(len(pool), dtype=bool), []
    for _ in range(min(params.k, len(pool))):
        objective = lam * relevance - (1.0 - lam) * penalty
        objective[taken] = -np.inf
        j = int(np.argmax(objective))
        taken[j] = True
        picked.append((pool[j][0], float(objective[j]).hex()))
        redundancy = sign2 * score_rows(rows, rows[j], params.sim2)
        penalty = redundancy if len(picked) == 1 else np.maximum(penalty, redundancy)
    return picked


_ALL_METRICS = [Metric.cosine(), Metric.inner_product(), Metric.euclidean(), Metric.manhattan(),
                Metric.chebyshev(), Metric.minkowski(3)]


@settings(max_examples=300, deadline=None)
@given(
    dim=st.integers(1, 6),
    data=st.data(),
    sim1=st.sampled_from(_ALL_METRICS),
    sim2=st.sampled_from(_ALL_METRICS),
    lam=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    k=st.integers(1, 8),
    extra=st.integers(0, 8),
)
def test_mmr_picks_and_scores_are_those_of_renorming_each_pick(dim, data, sim1, sim2, lam, k, extra):
    value = st.one_of(st.just(0.0), st.sampled_from([1.0, -1.0, 0.5]), st.floats(-8, 8, width=32))
    vectors = data.draw(st.lists(st.lists(value, min_size=dim, max_size=dim), min_size=1, max_size=20))
    store = VectorStore(dim)
    vectors = [vec if any(vec) else [1.0] + vec[1:] for vec in vectors]  # the store refuses a zero row
    store.upsert([_record(f"c{i:02d}", vec) for i, vec in enumerate(vectors)])
    query = data.draw(st.lists(value, min_size=dim, max_size=dim), label="query")
    params = MMRParams(lambda_=lam, k=k, fetch_n=k + extra, sim1=sim1, sim2=sim2)
    try:
        expected = _mmr_renorming(store, query, params)
    except ZeroVector:  # a zero query under cosine is refused either way
        with pytest.raises(ZeroVector):
            store.mmr_select(query, params)
        return
    assert [(sr.record.chunk_id, sr.score.hex()) for sr in store.mmr_select(query, params)] == expected
