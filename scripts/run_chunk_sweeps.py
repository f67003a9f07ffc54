#!/usr/bin/env python3
"""Chunking-parameter studies on a synthetic corpus with stub services.

Builds one knowledge base per chunk-size value (800..2000 step 300, overlap
500) and per chunk-overlap value (0..700 step 175, size 1000), then reports
chunk counts and embedding-cluster statistics per configuration. Everything
runs locally against the deterministic stub embedder, so the study is
reproducible end to end without any model service.

Usage:
    python scripts/run_chunk_sweeps.py --out /tmp/sweeps [--corpus DIR]
"""

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from litrag.config import default_config
from litrag.harness import (
    DEFAULT_RATIO_ROWS,
    OVERLAP_SWEEP_FIXED_SIZE,
    OVERLAP_SWEEP_VALUES,
    SIZE_SWEEP_FIXED_OVERLAP,
    SIZE_SWEEP_VALUES,
    SweepSpec,
    cluster_stats,
    ratio_table_csv,
    sweep_chunking,
    token_ratio_table,
)
from litrag.store import Metric, VectorStore
from litrag.testing import StubEmbeddingService, make_corpus

EMBED_DIM = 64


def run_sweep(spec: SweepSpec, config, workdir: Path):
    report = sweep_chunking(spec, config, workdir)
    print(f"\n== sweep over {spec.axis} (fixed {spec.fixed}) ==")
    print(f"{spec.axis:>14}  chunks  mean_len  inter_centroid")
    stats_rows = []
    for row in report.rows:
        if row.error:
            print(f"{row.value:>14}  FAILED: {row.error}")
            continue
        stats = cluster_stats(VectorStore.open(row.store_path), "doc_id", Metric.euclidean())
        stats_rows.append(
            {
                "value": row.value,
                "chunk_count": row.chunk_count,
                "mean_chunk_length": row.mean_chunk_length,
                "mean_inter_centroid_distance": stats.mean_inter_centroid_distance,
                "mean_intra_distance": {
                    label: s.mean_intra_distance for label, s in stats.per_label.items()
                },
            }
        )
        print(
            f"{row.value:>14}  {row.chunk_count:>6}  {row.mean_chunk_length:>8.1f}"
            f"  {stats.mean_inter_centroid_distance:>14.4f}"
        )
    return report, stats_rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--corpus", default=None, help="corpus directory (default: generate synthetic)")
    parser.add_argument("--docs", type=int, default=5, help="synthetic corpus size")
    parser.add_argument("--seed", type=int, default=606)
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.corpus:
        corpus_dir = Path(args.corpus)
    else:
        corpus_dir = out / "corpus"
        make_corpus(corpus_dir, n_docs=args.docs, seed=args.seed, paragraphs_per_doc=20)
        print(f"generated synthetic corpus of {args.docs} documents at {corpus_dir}")

    with StubEmbeddingService(dim=EMBED_DIM) as embed:
        config = default_config(embed.url, "http://unused.invalid/")
        config = replace(
            config,
            embedding=replace(config.embedding, expected_dim=EMBED_DIM, batch_size=256),
        )

        size_spec = SweepSpec(
            axis="chunk_size",
            values=SIZE_SWEEP_VALUES,
            fixed=SIZE_SWEEP_FIXED_OVERLAP,
            corpus_dir=str(corpus_dir),
        )
        overlap_spec = SweepSpec(
            axis="chunk_overlap",
            values=OVERLAP_SWEEP_VALUES,
            fixed=OVERLAP_SWEEP_FIXED_SIZE,
            corpus_dir=str(corpus_dir),
        )

        size_report, size_stats = run_sweep(size_spec, config, out / "size")
        overlap_report, overlap_stats = run_sweep(overlap_spec, config, out / "overlap")

        (out / "size_sweep.csv").write_text(size_report.to_csv())
        (out / "overlap_sweep.csv").write_text(overlap_report.to_csv())
        (out / "cluster_stats.json").write_text(
            json.dumps({"chunk_size": size_stats, "chunk_overlap": overlap_stats}, indent=2)
        )

        table = token_ratio_table(
            DEFAULT_RATIO_ROWS,
            config.tokenizer,
            llm_limit=config.chat.llm_token_limit,
            em_limit=config.embedding.em_token_limit,
        )
        (out / "token_ratios.csv").write_text(ratio_table_csv(table))

    print(f"\nwrote size_sweep.csv, overlap_sweep.csv, cluster_stats.json, token_ratios.csv to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
