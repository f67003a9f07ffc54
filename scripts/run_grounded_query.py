#!/usr/bin/env python3
"""End-to-end grounded answering demo against stub services.

Generates a synthetic corpus with a known citation ground truth, builds the
knowledge base, then answers a question twice: once against a chat stub that
cites only what the citation list offers (verification passes) and once
against a stub that injects a fabricated article title (verification flags
it). Prints both verification reports, each after its verdict and the number
of citations it verified.

Usage:
    python scripts/run_grounded_query.py --workdir /tmp/grounded [--mode mode2]
"""

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from litrag.chain import QueryChain
from litrag.config import default_config
from litrag.kb import KnowledgeBase, build_knowledge_base
from litrag.testing import (
    FABRICATED_CITATION,
    StubChatService,
    StubEmbeddingService,
    echo_citations_responder,
    make_corpus,
    question_for,
)

EMBED_DIM = 64


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--mode", choices=("mode1", "mode2", "plain"), default="mode2")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--k", type=int, default=4)
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    corpus_dir = workdir / "corpus"
    truths = make_corpus(corpus_dir, n_docs=6, seed=args.seed, paragraphs_per_doc=16)
    question = question_for(truths["paper-01"])
    print(f"question: {question}\n")

    with StubEmbeddingService(dim=EMBED_DIM) as embed:
        config = default_config(embed.url, "http://placeholder.invalid/")
        config = replace(
            config,
            embedding=replace(config.embedding, expected_dim=EMBED_DIM, batch_size=256),
            store_path=str(workdir / "kb"),
        )
        report = build_knowledge_base(corpus_dir, config)
        print(
            f"ingested {report.document_count} documents "
            f"({report.chunk_count} chunks, {len(report.failures)} failures)\n"
        )
        kb = KnowledgeBase.open(config.store_path)

        for label, responder in (
            ("well-grounded assistant", echo_citations_responder()),
            ("fabricating assistant", echo_citations_responder(fabricate=FABRICATED_CITATION)),
        ):
            with StubChatService(responder) as chat:
                chain = QueryChain(kb, replace(config, chat=replace(config.chat, endpoint_url=chat.url)))
                bundle = chain.answer(question, k=args.k, mode=args.mode)
            print(f"--- {label} ---")
            print(f"retrieved chunks: {[sr.record.chunk_id for sr in bundle.retrieved]}")
            print(f"citation list size: {len(bundle.citation_list)}")
            if bundle.verification is None:
                print("verification: skipped (plain mode)\n")
                continue
            verdict = "PASS" if bundle.verification.passed else "FLAGGED"
            print(f"verification: {verdict}")
            print(f"verified: {len(bundle.verification.verified)}")
            for citation, reason in bundle.verification.flagged:
                print(f"  flagged [{reason}]: {citation}")
            print(json.dumps(bundle.verification.to_dict(), indent=2)[:400] + " ...\n")

    return 0


if __name__ == "__main__":
    sys.exit(main())
