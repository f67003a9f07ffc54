"""Command-line surface.

Commands: ingest, query, sweep, tokens, verify, stats, export. All stdout
payloads are JSON or CSV. Exit codes: 0 success, 1 runtime failure (a bad
config file or an unreadable input file among them), 2 verification
flagged citations, 64 usage error (a bad flag: one argparse refuses, or one
whose value a parameter check refuses as InvalidParams).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import harness
from .chain import QueryChain
from .citations import extract_reference_section, verify_answer_citations
from .config import load_config
from .errors import FileUnreadable, InvalidParams, LitragError
from .kb import KnowledgeBase, build_knowledge_base
from .store import Metric, VectorStore

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_FLAGGED = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to exit 64
        raise InvalidParams(message)


def integer_list(text: str) -> tuple[int, ...]:
    """``--values``: comma-separated integers."""
    return tuple(int(v) for v in text.split(",") if v.strip())


def size_overlap_pairs(text: str) -> list[tuple[int, int]]:
    """``--rows``: comma-separated size:overlap pairs, the overlap 0 when omitted."""
    rows = []
    for pair in filter(str.strip, text.split(",")):
        size, _, overlap = pair.partition(":")
        rows.append((int(size), int(overlap or 0)))
    if not rows:
        raise ValueError("no size:overlap pair")
    return rows


def _build_parser() -> _Parser:
    parser = _Parser(prog="litrag", description=__doc__)
    parser.add_argument(
        "--config", default="./engine.conf", help="engine config file (JSON)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="ingest a corpus directory into the knowledge base")
    p.add_argument("--dir", required=True, help="directory of source documents")
    p.add_argument("--extractor", default=None, help="command template for non-text files, {path} placeholder")

    p = sub.add_parser("query", help="answer a question with citation verification")
    p.add_argument("--question", required=True)
    p.add_argument("--mode", choices=("mode1", "mode2", "plain"), default=None)
    p.add_argument("--template", default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--no-verify", action="store_true", help="do not gate the exit code on verification")
    p.add_argument("--include-prompt", action="store_true", help="include the rendered prompt in the JSON output")

    p = sub.add_parser("sweep", help="build one store per chunking-parameter value")
    p.add_argument("--axis", choices=harness.SWEEP_AXES, required=True)
    p.add_argument("--values", type=integer_list, required=True, help="comma-separated integers")
    p.add_argument("--fixed", type=int, required=True, help="value of the other parameter")
    p.add_argument("--dir", required=True, help="corpus directory")
    p.add_argument("--workdir", required=True, help="directory receiving the per-value stores")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("tokens", help="token-limit ratio table")
    p.add_argument(
        "--rows",
        type=size_overlap_pairs,
        default=None,
        help="comma-separated size:overlap pairs, e.g. 700:200,1000:350 (default: study rows)",
    )

    p = sub.add_parser("verify", help="verify an answer file against a document's references")
    p.add_argument("--answer-file", required=True)
    p.add_argument("--doc-id", required=True)

    p = sub.add_parser("stats", help="cluster statistics of the knowledge base")
    p.add_argument("--label-by", default="doc_id", help="metadata key to group by")
    p.add_argument("--metric", default="euclidean", help="distance metric (or cosine)")
    p.add_argument("--include-centroids", action="store_true")

    p = sub.add_parser("export", help="export embeddings as CSV for projection tools")
    p.add_argument("--out", default=None, help="output file (stdout when omitted)")

    return parser


def _cmd_ingest(args, config) -> int:
    report = build_knowledge_base(args.dir, config, extractor=args.extractor)
    print(report.to_json())
    return EXIT_OK


def _cmd_query(args, config) -> int:
    # the params the flags feed are built before the KB opens, so a bad flag is refused first
    if args.k is not None:
        try:
            replace(config.retrieval, k=args.k)
        except InvalidParams as exc:  # named: a --k above the MMR pool fails the fetch_n check
            raise InvalidParams(f"--k {args.k}: {exc}") from exc
    if args.temperature is not None:
        replace(config.chat, temperature=args.temperature)
    kb = KnowledgeBase.open(config.store_path)
    chain = QueryChain(kb, config)
    bundle = chain.answer(
        args.question,
        k=args.k,
        template=args.template,
        mode=args.mode,
        temperature=args.temperature,
    )
    print(json.dumps(bundle.to_dict(include_prompt=args.include_prompt), indent=2, ensure_ascii=False))
    if not args.no_verify and bundle.verification is not None and not bundle.verification.passed:
        return EXIT_FLAGGED
    return EXIT_OK


def _cmd_sweep(args, config) -> int:
    spec = harness.SweepSpec(
        axis=args.axis, values=args.values, fixed=args.fixed, corpus_dir=args.dir
    )
    report = harness.sweep_chunking(spec, config, args.workdir)
    print(report.to_csv() if args.format == "csv" else report.to_json(), end="")
    return EXIT_OK


def _cmd_tokens(args, config) -> int:
    table = harness.token_ratio_table(
        args.rows or list(harness.DEFAULT_RATIO_ROWS),
        config.tokenizer,
        llm_limit=config.chat.llm_token_limit,
        em_limit=config.embedding.em_token_limit,
    )
    print(harness.ratio_table_csv(table), end="")
    return EXIT_OK


def _cmd_verify(args, config) -> int:
    try:
        answer_text = Path(args.answer_file).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FileUnreadable(f"cannot read answer file {args.answer_file}: {exc}") from exc
    kb = KnowledgeBase.open(config.store_path)
    doc = kb.document(args.doc_id)
    entries = extract_reference_section(doc)
    report = verify_answer_citations(answer_text, entries)
    print(json.dumps(report.to_dict(), indent=2, ensure_ascii=False))
    return EXIT_OK if report.passed else EXIT_FLAGGED


def _cmd_stats(args, config) -> int:
    metric = Metric.parse(args.metric)
    harness.check_cluster_metric(metric)
    store = VectorStore.open(config.store_path)
    stats = harness.cluster_stats(store, args.label_by, metric)
    print(json.dumps(stats.to_dict(include_centroids=args.include_centroids), indent=2))
    return EXIT_OK


def _cmd_export(args, config) -> int:
    store = VectorStore.open(config.store_path)
    harness.export_embeddings(store, args.out or sys.stdout)
    if args.out:
        print(json.dumps({"written": args.out, "records": len(store)}))
    return EXIT_OK


_COMMANDS = {
    "ingest": _cmd_ingest,
    "query": _cmd_query,
    "sweep": _cmd_sweep,
    "tokens": _cmd_tokens,
    "verify": _cmd_verify,
    "stats": _cmd_stats,
    "export": _cmd_export,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    try:
        args = _build_parser().parse_args(argv)
        # a bad config file is a ValidationError, never InvalidParams
        return _COMMANDS[args.command](args, load_config(args.config))
    except InvalidParams as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LitragError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
