"""The two timed phases of a run, each in a process of its own.

    python3 perfbench/phases.py <spec.json>

``build`` sets the workload's knowledge bases up several times. ``serve``
opens them afresh, answers questions and computes cluster statistics. The
spec names the phase, the workload, the input and work directories and the
stand-ins' URLs; the result is written as JSON to ``spec["out"]``.

litrag is driven only through its public API, looked up through its modules
at call time so that a traced run sees every call.
"""

from __future__ import annotations

import gc
import json
import logging
import os
import resource
import shutil
import sys
import time
import urllib.request
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from trace import Tracer, dir_bytes, layer_metrics  # noqa: E402

# Workload settings. ``dim``: embedding dimension. ``setup_reps``: times the
# knowledge bases are built. ``cold``: cold cycles (a fresh open and its
# first answer) per store. ``warmup``: answers before any warm timing.
# ``round``: questions per warm round. ``min_warm``: fewest warm answers.
# ``stats_reps``: fewest cluster_stats calls per store.
WORKLOADS = {
    "qa-grounded": {"dim": 384, "docs": 40, "paragraphs": 28, "setup_reps": 3,
                    "cold": 10, "warmup": 40, "round": 20, "min_warm": 200,
                    "stats_reps": 10},
    "kb-large": {"dim": 768, "docs": 175, "per_doc": 46, "setup_reps": 3,
                 "cold": 3, "warmup": 3, "round": 25, "min_warm": 200,
                 "stats_reps": 8},
    "chunk-sweep": {"dim": 64, "docs": 20, "paragraphs": 20, "setup_reps": 3,
                    "cold": 3, "warmup": 10, "round": 10, "min_warm": 200,
                    "stats_reps": 3},
}

# The segmentation study: chunk size 800..2000 at overlap 500, overlap
# 0..700 at chunk size 1000.
SIZE_VALUES, SIZE_FIXED_OVERLAP = (800, 1100, 1400, 1700, 2000), 500
OVERLAP_VALUES, OVERLAP_FIXED_SIZE = (0, 175, 350, 525, 700), 1000

THREADS = 2  # nproc of the reference machine; bounds every client pool


def clock() -> tuple[float, float]:
    return time.perf_counter(), time.process_time()


def since(t0: tuple[float, float]) -> list[float]:
    """[wall seconds, CPU seconds of this process] since ``t0``.

    The CPU figure counts every thread of the measuring process and leaves
    out time spent waiting on the stand-ins or on a busy host, which makes
    it the steady one of the two.
    """
    wall, cpu = clock()
    return [wall - t0[0], cpu - t0[1]]


def calibration() -> float:
    """CPU seconds of a fixed piece of work that never changes: JSON
    parsing, tuple building and a sort. Its drift between runs shows how
    fast the host was, apart from any change to litrag."""
    doc = json.dumps([{"id": f"c{i:05d}", "text": "lorem ipsum " * 8, "offsets": [i, i + 96]}
                      for i in range(2000)])
    t0 = time.process_time()
    rows = json.loads(doc)
    tuples = [tuple(float(x) for x in range(64)) for _ in rows]
    sorted(rows, key=lambda r: (-r["offsets"][0], r["id"]))
    del tuples
    return time.process_time() - t0


class CountingHandler(logging.Handler):
    """Counts litrag's log records at WARNING and above instead of
    printing them."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def stand_in_stats(url: str, reset: bool = True) -> dict:
    base = url.rsplit("/", 1)[0]
    with urllib.request.urlopen(f"{base}/stats{'?reset=1' if reset else ''}", timeout=30) as r:
        return json.loads(r.read())


def engine_config(spec: dict):
    from litrag.config import RetrievalConfig, default_config

    w = spec["workload"]
    cfg = default_config(spec["embed_url"], spec["chat_url"])
    emb = replace(cfg.embedding, expected_dim=WORKLOADS[w]["dim"], max_parallel_requests=THREADS)
    if w == "chunk-sweep":
        emb = replace(emb, batch_size=256)
    cfg = replace(cfg, embedding=emb)
    if w == "kb-large":
        cfg = replace(cfg, retrieval=RetrievalConfig(k=10, fetch_n=40), mode="plain")
    elif w == "chunk-sweep":
        cfg = replace(cfg, mode="plain")
    return cfg


# --- build ------------------------------------------------------------------


def build(spec: dict, cfg, tracer) -> dict:
    import litrag.harness
    import litrag.kb
    from litrag.embedding import EmbeddingVector
    from litrag.store import ChunkRecord, VectorStore

    w, settings = spec["workload"], WORKLOADS[spec["workload"]]
    work = Path(spec["work"])
    samples, failed, per_build = [], 0, []
    rows = []
    if w == "kb-large":
        data = json.loads((Path(spec["inputs"]) / "chunks.json").read_text())
        matrix = np.load(Path(spec["inputs"]) / "matrix.npy")
        batches: dict[str, list] = {}
        for i, c in enumerate(data["chunks"]):
            batches.setdefault(c["doc_id"], []).append(
                ChunkRecord(
                    chunk_id=c["chunk_id"], doc_id=c["doc_id"], text=c["text"],
                    start_offset=c["start"], end_offset=c["end"],
                    embedding=EmbeddingVector(tuple(matrix[i].tolist())),
                    metadata={"source": c["doc_id"] + ".txt", "doc_id": c["doc_id"]},
                )
            )
        del matrix, data
    for rep in range(settings["setup_reps"]):
        target = work / f"kb{rep}"
        shutil.rmtree(target, ignore_errors=True)
        gc.collect()
        stand_in_stats(spec["embed_url"])
        if tracer:
            tracer.phase = "build"
        t0 = clock()
        if w == "qa-grounded":
            report = litrag.kb.build_knowledge_base(
                spec["corpus"], cfg, store_root=target, max_workers=THREADS
            )
            ok, chunks = not report.failures, report.chunk_count
        elif w == "kb-large":
            store = VectorStore(settings["dim"])
            for batch in batches.values():
                store.upsert(batch)
            store.persist(target)
            ok, chunks = True, len(store)
        else:
            rows = []
            for axis, values, fixed in (("chunk_size", SIZE_VALUES, SIZE_FIXED_OVERLAP),
                                        ("chunk_overlap", OVERLAP_VALUES, OVERLAP_FIXED_SIZE)):
                spec_ = litrag.harness.SweepSpec(axis=axis, values=values, fixed=fixed,
                                                 corpus_dir=spec["corpus"])
                report = litrag.harness.sweep_chunking(spec_, cfg, target / axis)
                for row in report.rows:
                    size, overlap = ((row.value, fixed) if axis == "chunk_size" else (fixed, row.value))
                    rows.append({"path": row.store_path, "chunk_size": size, "overlap": overlap,
                                 "chunk_count": row.chunk_count, "error": row.error})
            ok, chunks = all(r["error"] is None for r in rows), sum(r["chunk_count"] for r in rows)
        samples.append(since(t0))
        if tracer:
            tracer.phase = ""
        if w == "kb-large":
            del store
        failed += not ok
        service = stand_in_stats(spec["embed_url"])
        per_build.append({"chunks": chunks, **service})
        if rep < settings["setup_reps"] - 1:
            shutil.rmtree(target, ignore_errors=True)
    disk, _ = dir_bytes(work / f"kb{settings['setup_reps'] - 1}")
    result = {"setup_s": samples, "failed": failed, "attempted": len(samples),
              "kb_bytes": disk, "root": str(work / f"kb{settings['setup_reps'] - 1}"),
              "rows": rows, "builds": per_build}
    if tracer:
        n = len(samples)
        texts = sum(b["texts"] for b in per_build)
        outcomes = {
            "embedding.requests": sum(b["requests"] for b in per_build) / n,
            "embedding.texts": texts / n,
            "embedding.useful_share": (sum(b["chunks"] for b in per_build) / texts) if texts else 0.0,
            "embedding.service_busy_s": sum(b["busy_s"] for b in per_build) / n,
        }
        result["layers"] = layer_metrics(tracer, "build", n, max(len(rows), 1), outcomes)
    return result


# --- serve ------------------------------------------------------------------


class Asker:
    """Answers questions, keeping each outcome and its latency."""

    def __init__(self, warnings: CountingHandler):
        self.warnings = warnings
        self.answers: list[dict] = []

    def ask(self, chain, q: dict, phase: str, store_id: int = 0) -> list[float] | None:
        before = self.warnings.count
        t0 = clock()
        try:
            bundle = chain.answer(q["text"])
        except Exception as exc:  # noqa: BLE001 - a failed answer is counted, the run goes on
            self.answers.append({"phase": phase, "question": q, "store": store_id,
                                 "error": f"{type(exc).__name__}: {exc}"})
            return None
        latency = since(t0)
        report = bundle.verification
        self.answers.append({
            "phase": phase, "question": q, "store": store_id,
            "retrieved": [[sr.record.chunk_id, sr.score] for sr in bundle.retrieved],
            "citations": [[e.doc_id, e.label, e.full_text] for e in bundle.citation_list],
            "unresolved": [[m.kind, list(m.numbers), list(m.authors), m.year]
                           for m in bundle.unresolved_markers],
            "verified": len(report.verified) if report else 0,
            "flagged": [list(f) for f in report.flagged] if report else [],
            "prompt_chars": len(bundle.rendered_prompt),
            "prompt_tokens": bundle.budget.prompt_tokens,
            "warnings": self.warnings.count - before,
        })
        return latency


def store_layout(store, bodies: dict[str, str] | None) -> dict:
    """Chunk ids, documents and offsets of a store, and how many chunk
    texts differ from the document body at their offsets."""
    records = store.records()
    mismatched = 0
    if bodies is not None:
        mismatched = sum(
            r.text != bodies[r.doc_id][r.start_offset : r.end_offset] for r in records
        )
    return {
        "chunks": [[r.chunk_id, r.doc_id, r.start_offset, r.end_offset, len(r.text)] for r in records],
        "text_mismatches": mismatched,
    }


def serve(spec: dict, cfg, tracer, warnings: CountingHandler) -> dict:
    """Open, answer and compute cluster statistics.

    The stores served are the knowledge base, or every sweep row. Warm
    rounds run until the phase has lasted ``seconds``, ``min_warm``
    questions are answered and each store has ``stats_reps`` stats samples
    and ``cold`` cold cycles; the last round closes a turn over the stores.
    After each round the next store in turn gets one cluster_stats call and,
    except on kb-large, one cold cycle: a fresh open and its first answer.
    Spreading these samples over the phase keeps a short disturbance of the
    host from moving a whole metric. kb-large runs its cold cycles first
    instead, since two of its stores would not fit in memory together.
    """
    import litrag.chain
    import litrag.harness
    import litrag.kb
    import litrag.store
    from litrag.store import Metric

    w, settings = spec["workload"], WORKLOADS[spec["workload"]]
    qs = json.loads(Path(spec["questions"]).read_text())
    asker = Asker(warnings)
    paths = [row["path"] for row in spec["rows"]] if w == "chunk-sweep" else [spec["root"]]
    n = len(paths)
    opens, colds, stats, last_stats = [], [], [], [None] * n
    attempted = failed = cycles = 0

    def phase(name):
        if tracer:
            tracer.phase = name

    def open_chain(s: int):
        nonlocal attempted
        gc.collect()
        phase("open")
        t0 = clock()
        if w == "chunk-sweep":
            kb = litrag.kb.KnowledgeBase(paths[s], litrag.store.VectorStore.open(paths[s]))
        else:
            kb = litrag.kb.KnowledgeBase.open(paths[s])
        elapsed = since(t0) + [s]
        phase("")
        attempted += 1
        return litrag.chain.QueryChain(kb, cfg), elapsed

    def cold_cycle(s: int):
        nonlocal cycles
        chain, elapsed = open_chain(s)
        opens.append(elapsed)
        phase("cold")
        latency = asker.ask(chain, qs["cold"][cycles % len(qs["cold"])], "cold", s)
        if latency is not None:
            colds.append(latency + [s])
        phase("")
        cycles += 1
        return chain

    def stats_call(s: int):
        nonlocal attempted, failed
        gc.collect()
        phase("stats")
        attempted += 1
        t0 = clock()
        try:
            last_stats[s] = litrag.harness.cluster_stats(
                chains[s].kb.store, "doc_id", Metric.euclidean())
            stats.append(since(t0) + [s])
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            failed += 1
            last_stats[s] = f"{type(exc).__name__}: {exc}"
        finally:
            phase("")

    interleave = w != "kb-large"
    if interleave:
        chains = [open_chain(s)[0] for s in range(n)]
    else:
        chain = None
        for _ in range(settings["cold"]):
            chain = None
            chain = cold_cycle(0)
        chains = [chain]

    phase("warmup")
    for i, q in enumerate(qs["warmup"]):
        asker.ask(chains[i % n], q, "warmup", i % n)
    phase("")

    warm: list[list[float] | None] = []
    calibrations: list[float] = []
    rounds = qs["rounds"]
    t_start = time.perf_counter()
    r = 0
    while (len(warm) < settings["min_warm"] or time.perf_counter() - t_start < spec["seconds"]
           or len(stats) < settings["stats_reps"] * n or cycles < settings["cold"] * n or r % n):
        phase("warm")
        for i, q in enumerate(rounds[r % len(rounds)]):
            warm.append(asker.ask(chains[i % n], q, "warm", i % n))
        phase("")
        s = r % n
        r += 1
        calibrations.append(calibration())
        stats_call(s)
        if interleave:
            cold_cycle(s)

    stats_out = []
    for s, cs in enumerate(last_stats):
        if isinstance(cs, str) or cs is None:
            stats_out.append({"store": s, "error": cs or "no cluster_stats call"})
            continue
        stats_out.append({
            "store": s,
            "labels": cs.labels,
            "counts": [cs.per_label[lb].count for lb in cs.labels],
            "intra": [cs.per_label[lb].mean_intra_distance for lb in cs.labels],
            "inter": cs.inter_centroid_distances,
        })
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    bodies = None
    if w != "kb-large":
        bodies = {p.stem: p.read_text(encoding="utf-8") for p in Path(spec["corpus"]).glob("*.txt")}
    layouts = [store_layout(chain.kb.store, bodies) for chain in chains] if w != "kb-large" else []

    attempted += len(asker.answers)
    failed += sum("error" in a for a in asker.answers)
    result = {
        "open_s": opens, "cold_s": colds,
        "warm_s": [x for x in warm if x is not None], "stats_s": stats,
        "peak_rss_kb": peak_rss_kb, "answers": asker.answers, "stats": stats_out,
        "layouts": layouts, "attempted": attempted, "failed": failed,
        "calibration_s": calibrations,
    }
    if tracer:
        warm_answers = [a for a in asker.answers if a["phase"] == "warm" and "error" not in a]
        per_q = max(len(warm_answers), 1)
        k = cfg.retrieval.k
        outcomes = {
            "citations.verified": sum(a["verified"] for a in warm_answers) / per_q,
            "chain.chunks_shed": sum(k - len(a["retrieved"]) for a in warm_answers) / per_q,
            "chain.prompt_tokens": sum(a["prompt_tokens"] for a in warm_answers) / per_q,
            "chain.warnings": sum(a["warnings"] for a in warm_answers) / per_q,
        }
        for reason in ("not_in_list", "label_conflict", "partial_title_match"):
            outcomes[f"citations.flagged.{reason}"] = sum(
                sum(f[1] == reason for f in a["flagged"]) for a in warm_answers) / per_q
        result["layers"] = layer_metrics(tracer, "serve", len(warm_answers), 0, outcomes)
    return result


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    sys.path.insert(0, spec["src"])
    warnings = CountingHandler()
    log = logging.getLogger("litrag")
    log.addHandler(warnings)
    log.propagate = False
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    cfg = engine_config(spec)
    if spec["phase"] == "build":
        result = build(spec, cfg, tracer)
    else:
        result = serve(spec, cfg, tracer, warnings)
    Path(spec["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    code = main(sys.argv)
    # Skip tearing down the heap (about a second for kb-large's stores);
    # the result file is already closed.
    os._exit(code)
