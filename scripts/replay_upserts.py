#!/usr/bin/env python3
"""Replay the benchmark's kb-large build against one or more litrag trees.

The kb-large workload builds its store by 175 ``VectorStore.upsert`` calls,
each of 46 records whose embeddings are tuples of Python floats, at dim 768.
This script replays exactly those calls and reports the thread CPU time they
take, so two source trees can be compared on the store's records path alone,
without the benchmark's services, persist or process start-up.

Every tree is imported into this one process under a name of its own
(``litrag_0``, ``litrag_1``, ...), and all of them upsert the same records,
built once from ``--seed`` (unit vectors, as the benchmark's are). Each round
builds one store per tree, timing its 175 upserts with ``time.thread_time``;
the first tree of each round alternates, so drift on the host reaches every
tree alike. One untimed round runs first. BLAS runs one thread.

Usage:
    python scripts/replay_upserts.py --src OLD/src --src NEW/src [--reps 14] [--seed 1]

Prints one JSON object: per tree, every sample in seconds, the median and
the quartiles.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads BLAS

import argparse
import gc
import importlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

DOCS, PER_DOC, DIM = 175, 46, 768


def load_tree(src: str, name: str):
    """The ``store`` and ``embedding`` modules of the litrag package under
    ``src``, imported as package ``name``."""
    package = Path(src) / "litrag"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.store"), importlib.import_module(f"{name}.embedding")


def make_batches(store_mod, embedding_mod, seed: int) -> list[list]:
    """175 documents of 46 records each, embeddings as tuples of floats."""
    matrix = np.random.default_rng(seed).normal(size=(DOCS * PER_DOC, DIM))
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    return [
        [
            store_mod.ChunkRecord(
                chunk_id=f"doc{d:03d}:{c:05d}", doc_id=f"doc{d:03d}", text=f"chunk {c} of doc {d}",
                start_offset=700 * c, end_offset=700 * c + 700,
                embedding=embedding_mod.EmbeddingVector(tuple(matrix[d * PER_DOC + c].tolist())),
                metadata={"source": f"doc{d:03d}.txt", "doc_id": f"doc{d:03d}"},
            )
            for c in range(PER_DOC)
        ]
        for d in range(DOCS)
    ]


def replay(store_mod, batches) -> float:
    """Thread CPU seconds of one store's upserts of every batch."""
    gc.collect()
    store = store_mod.VectorStore(DIM)
    t0 = time.thread_time()
    for batch in batches:
        store.upsert(batch)
    return time.thread_time() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", required=True, help="a tree's src directory")
    parser.add_argument("--reps", type=int, default=14)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    trees = [load_tree(src, f"litrag_{i}") for i, src in enumerate(args.src)]
    batches = make_batches(*trees[0], args.seed)
    stores = [store_mod for store_mod, _ in trees]
    samples: list[list[float]] = [[] for _ in stores]
    for rep in range(-1, args.reps):  # round -1 is the untimed one
        order = list(range(len(stores)))
        for i in order if rep % 2 == 0 else order[::-1]:
            cpu = replay(stores[i], batches)
            if rep >= 0:
                samples[i].append(cpu)
    result = {}
    for src, values in zip(args.src, samples):
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        result[src] = {"samples_s": values, "median_s": median, "q1_s": q1, "q3_s": q3}
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
