#!/usr/bin/env python3
"""litrag's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload qa-grounded --seed 1 --seconds 10 --trace 0

Run from the root of a litrag checkout; litrag is imported from ``src/``.
The run makes its inputs from the seed (cached under ``.perfbench/cache``),
starts the embedding and chat stand-ins, builds the workload's knowledge
bases in one process, serves them from a fresh one, checks every output
against independent computations and prints one JSON object as its last
line: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones. A record of the run, with every sample, the CPU steal share
and the load average, goes to ``.perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracles  # noqa: E402
from phases import WORKLOADS, stand_in_stats  # noqa: E402
from standins import CHARS_PER_TOKEN, FABRICATED_REFERENCE, LLM_TOKEN_LIMIT, RESERVED_FOR_ANSWER  # noqa: E402

# Columns of every timing sample: wall seconds, and CPU seconds of the
# measuring process (all its threads). The metrics are the CPU figures.
WALL, CPU = 0, 1
RUN_LIMIT_S = 170  # a phase still running this long after the start is killed and the run fails
LAMBDA = 0.7


def cpu_times() -> list[int] | None:
    try:
        with open("/proc/stat") as fh:
            return [int(v) for v in fh.readline().split()[1:9]]
    except OSError:
        return None


def load_average() -> list[float] | None:
    try:
        with open("/proc/loadavg") as fh:
            return [float(v) for v in fh.read().split()[:3]]
    except OSError:
        return None


def collapse_ws(text: str) -> str:
    return " ".join(text.split())


# --- inputs -----------------------------------------------------------------


def prepare(workload: str, seed: int, cache: Path) -> tuple[Path, dict]:
    """The cached input directory and the question sets of one run."""
    s = WORKLOADS[workload]
    if workload == "kb-large":
        key = f"kb-large-s{seed}-n{s['docs']}x{s['per_doc']}-d{s['dim']}"
        path = inputs.cached(cache, key, lambda d: inputs.write_large_chunks(
            d, s["docs"], s["per_doc"], s["dim"], seed))
        vocab = json.loads((path / "chunks.json").read_text())["vocab"]
    else:
        key = f"{workload}-s{seed}-n{s['docs']}x{s['paragraphs']}"

        def write(d: Path):
            (d / "corpus").mkdir()
            truth = inputs.write_cited_corpus(d / "corpus", s["docs"], s["paragraphs"], seed)
            (d / "truth.json").write_text(json.dumps(truth))

        path = inputs.cached(cache, key, write)
        truth = json.loads((path / "truth.json").read_text())
        vocab = {doc: t["question_words"] for doc, t in truth.items()}
    fab = workload == "qa-grounded"
    n_rounds = max(10, 2 * math.ceil(s["min_warm"] / s["round"]))
    warm = inputs.questions(vocab, seed, "warm", n_rounds * s["round"], fab)
    qs = {
        "cold": inputs.questions(vocab, seed, "cold", 40, fab),
        "warmup": inputs.questions(vocab, seed, "warmup", s["warmup"], fab),
        "rounds": [warm[i : i + s["round"]] for i in range(0, len(warm), s["round"])],
    }
    return path, qs


# --- processes ----------------------------------------------------------------


# numpy's BLAS runs one thread in every process of the run: its idle threads
# spin, which would count as CPU time of the measuring process.
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


def start_stand_in(procs: list, *args: str) -> str:
    proc = subprocess.Popen([sys.executable, str(HERE / "standins.py"), *args],
                            stdout=subprocess.PIPE, text=True, env=CHILD_ENV)
    procs.append(proc)
    return f"http://127.0.0.1:{int(proc.stdout.readline())}/{args[0]}"


def run_phase(spec: dict, deadline: float) -> dict:
    work = Path(spec["work"])
    spec_path = work / f"{spec['phase']}-spec.json"
    spec = {**spec, "out": str(work / f"{spec['phase']}-result.json")}
    spec_path.write_text(json.dumps(spec))
    subprocess.run([sys.executable, str(HERE / "phases.py"), str(spec_path)],
                   stdout=subprocess.DEVNULL, check=True, env=CHILD_ENV,
                   timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(Path(spec["out"]).read_text())


# --- checks -------------------------------------------------------------------


def check_budget(answers: list[dict], chat: dict, problems: list[str]):
    if chat["over_budget"]:
        problems.append(f"chat stand-in received {chat['over_budget']} prompts over the token budget")
    for a in answers:
        if "error" not in a and (math.ceil(a["prompt_chars"] / CHARS_PER_TOKEN)
                                 + RESERVED_FOR_ANSWER > LLM_TOKEN_LIMIT):
            problems.append(f"prompt of {a['question']['text']!r} exceeds the budget")


def check_retrieval(answers: list[dict], oracles_by_store: list, dim: int, k: int, fetch_n: int,
                    whole: bool, problems: list[str]):
    for a in answers:
        if "error" in a:
            continue
        problem = oracles_by_store[a["store"]].check(
            a["retrieved"], inputs.embed(a["question"]["text"], dim), LAMBDA, k, fetch_n, whole)
        if problem:
            problems.append(f"retrieval for {a['question']['text']!r}: {problem}")


def check_citations(answers: list[dict], truth: dict, doc_of: dict, problems: list[str]):
    fabricated = [collapse_ws(FABRICATED_REFERENCE), "not_in_list"]
    for a in answers:
        if "error" in a:
            continue
        q = a["question"]["text"]
        docs = {doc_of[cid] for cid, _ in a["retrieved"]}
        entries = {(d, collapse_ws(t)) for d in docs for t in truth[d]["entries"]}
        for doc, _, text in a["citations"]:
            if (doc, text) not in entries:
                problems.append(f"{q!r}: citation {text!r} is no reference of a retrieved document")
        injected = [u for d in docs for u in truth[d]["unresolvable"]]
        for kind, numbers, authors, year in a["unresolved"]:
            if not any((u[0] == "numeric" and kind == "numeric" and numbers == [u[1]])
                       or (u[0] == "author_year" and kind == "author_year"
                           and authors == [u[1]] and year == u[2]) for u in injected):
                problems.append(f"{q!r}: unresolved marker {kind} {numbers or authors} {year} was not injected")
        expected = [fabricated] if a["question"]["fabricated"] else []
        if a["flagged"] != expected or a["verified"] != len(a["citations"]):
            problems.append(f"{q!r}: verified {a['verified']} of {len(a['citations'])}, "
                            f"flagged {a['flagged']}, expected {expected}")


def check(workload: str, path: Path, build: dict, serve: dict, chat: dict) -> list[str]:
    s = WORKLOADS[workload]
    problems: list[str] = []
    answers = serve["answers"]
    check_budget(answers, chat, problems)
    for st in serve["stats"]:
        if "error" in st:
            problems.append(f"cluster_stats failed: {st['error']}")
    stats = {st["store"]: st for st in serve["stats"] if "error" not in st}

    if workload == "kb-large":
        data = json.loads((path / "chunks.json").read_text())
        ids = [c["chunk_id"] for c in data["chunks"]]
        labels = [c["doc_id"] for c in data["chunks"]]
        matrix = np.load(path / "matrix.npy")
        check_retrieval(answers, [oracles.MMROracle(ids, matrix)], s["dim"], 10, 40, True, problems)
        if 0 in stats:
            p = oracles.check_cluster_stats(stats[0], labels, matrix)
            if p:
                problems.append(f"cluster_stats: {p}")
        return problems

    bodies = {p.stem: p.read_text(encoding="utf-8") for p in (path / "corpus").glob("*.txt")}
    stores = []
    for i, layout in enumerate(serve["layouts"]):
        if layout["text_mismatches"]:
            problems.append(f"store {i}: {layout['text_mismatches']} chunk texts differ from the body")
        chunks = layout["chunks"]
        ids = [c[0] for c in chunks]
        labels = [c[1] for c in chunks]
        matrix = inputs.embed_matrix([bodies[c[1]][c[2] : c[3]] for c in chunks], s["dim"])
        stores.append(oracles.MMROracle(ids, matrix))
        if i in stats:
            p = oracles.check_cluster_stats(stats[i], labels, matrix)
            if p:
                problems.append(f"store {i} cluster_stats: {p}")
        if workload == "chunk-sweep":
            row = build["rows"][i]
            expected = set()
            for doc in sorted(bodies):
                spans = oracles.split_spans(bodies[doc], row["chunk_size"], row["overlap"])
                expected |= {(f"{doc}:{j:05d}", doc, a, b) for j, (a, b) in enumerate(spans)}
            got = {(c[0], c[1], c[2], c[3]) for c in chunks}
            if row["chunk_count"] != len(expected) or got != expected:
                problems.append(f"sweep row {row['chunk_size']}/{row['overlap']}: "
                                f"{row['chunk_count']} chunks, reference splitter gives {len(expected)}")
            if any(c[4] != c[3] - c[2] or c[4] > row["chunk_size"] for c in chunks):
                problems.append(f"sweep row {row['chunk_size']}/{row['overlap']}: chunk longer than its size")
    if workload == "qa-grounded":
        truth = json.loads((path / "truth.json").read_text())
        doc_of = {c[0]: c[1] for c in serve["layouts"][0]["chunks"]}
        check_retrieval(answers, stores, s["dim"], 4, 16, False, problems)
        check_citations(answers, truth, doc_of, problems)
    else:
        check_retrieval(answers, stores, s["dim"], 4, 16, True, problems)
    return problems


# --- metrics -------------------------------------------------------------------


def p95(values: list[float]) -> float:
    """Nearest-rank 95th percentile; needs 200 samples for ten beyond it."""
    ordered = sorted(values)
    return ordered[math.ceil(0.95 * len(ordered)) - 1]


def per_store(samples: list[list[float]], column: int) -> float:
    """Mean over the stores of each store's median; samples are [wall,
    cpu, store]. With one store this is the plain median. Sweep rows differ
    threefold in size, so a median across rows would jump between rows."""
    by_store: dict[int, list[float]] = {}
    for x in samples:
        by_store.setdefault(x[2], []).append(x[column])
    return statistics.fmean(statistics.median(v) for v in by_store.values())


def end_to_end(build: dict, serve: dict, column: int) -> dict:
    """The end-to-end metrics from one column of the timing samples."""
    warm = [x[column] for x in serve["warm_s"]]
    return {
        "setup_s": {"value": statistics.median(x[column] for x in build["setup_s"]), "unit": "s"},
        "open_s": {"value": per_store(serve["open_s"], column), "unit": "s"},
        "cold_query_ms": {"value": 1000.0 * per_store(serve["cold_s"], column), "unit": "ms"},
        "query_p50_ms": {"value": 1000.0 * statistics.median(warm), "unit": "ms"},
        "query_p95_ms": {"value": 1000.0 * p95(warm), "unit": "ms"},
        "stats_ms": {"value": 1000.0 * per_store(serve["stats_s"], column), "unit": "ms"},
        "peak_rss_mb": {"value": serve["peak_rss_kb"] * 1024 / 1e6, "unit": "MB"},
        "kb_disk_mb": {"value": build["kb_bytes"] / 1e6, "unit": "MB"},
    }


def per_layer(build: dict, serve: dict) -> dict:
    with open(HERE.parent / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer"]
    values = {**build["layers"], **serve["layers"]}
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


# --- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = HERE.parent
    src = root / "src"
    if not (src / "litrag" / "__init__.py").is_file():
        print(f"perfbench: no litrag sources at {src}; run from a litrag checkout", file=sys.stderr)
        return 2
    # A terminated run still stops its stand-ins and phase process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_LIMIT_S
    bench = root / ".perfbench"
    cpu0, load0 = cpu_times(), load_average()

    path, qs = prepare(args.workload, args.seed, bench / "cache")
    work = bench / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "questions.json").write_text(json.dumps(qs))
    procs: list[subprocess.Popen] = []
    try:
        embed_url = start_stand_in(procs, "embedding", str(WORKLOADS[args.workload]["dim"]))
        chat_url = start_stand_in(procs, "chat")
        spec = {"workload": args.workload, "src": str(src), "trace": args.trace,
                "seconds": args.seconds, "inputs": str(path), "corpus": str(path / "corpus"),
                "questions": str(work / "questions.json"), "work": str(work),
                "embed_url": embed_url, "chat_url": chat_url}
        build = run_phase({**spec, "phase": "build"}, deadline)
        stand_in_stats(chat_url)
        serve = run_phase({**spec, "phase": "serve", "root": build["root"], "rows": build["rows"]},
                          deadline)
        chat = stand_in_stats(chat_url, reset=False)
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.wait(timeout=30)
            proc.stdout.close()
        shutil.rmtree(work, ignore_errors=True)

    problems = check(args.workload, path, build, serve, chat)
    cpu1, load1 = cpu_times(), load_average()
    steal = None
    if cpu0 and cpu1 and sum(cpu1) > sum(cpu0):
        steal = (cpu1[7] - cpu0[7]) / (sum(cpu1) - sum(cpu0))
    e2e = end_to_end(build, serve, CPU)
    wall = end_to_end(build, serve, WALL)
    result = {
        "correct": not problems,
        "attempted": build["attempted"] + serve["attempted"],
        "failed": build["failed"] + serve["failed"],
        "metrics": per_layer(build, serve) if args.trace else e2e,
    }
    record = {"args": vars(args), "steal_share": steal, "loadavg": [load0, load1],
              "calibration_s": statistics.median(serve["calibration_s"]),
              "problems": problems, "end_to_end": e2e, "wall": wall, "result": result,
              "samples": {"setup_s": build["setup_s"], "open_s": serve["open_s"],
                          "cold_s": serve["cold_s"], "warm_s": serve["warm_s"],
                          "stats_s": serve["stats_s"]}}
    runs = bench / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(record, indent=1))
    for p in problems[:10]:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    summary = " ".join(f"{k}={v['value']:.4g}/{wall[k]['value']:.4g}" for k, v in e2e.items())
    print(f"perfbench: {args.workload} seed {args.seed} (cpu/wall): {summary} steal={steal} "
          f"load={load1}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
