"""Write ``kb_v2/``: a small knowledge base whose store is in format version 2.

A version-2 store keeps every chunk's text and metadata in the columns of
``records.json``, and its document snapshots carry no checksum.
``KnowledgeBase.open`` still reads it, but a build now writes format version
3, so the committed files were written by the build of commit 13f69c4, the
last to write version 2. To write them again, run this script from the root
of a checkout of that commit:

    PYTHONPATH=src python tests/fixtures/make_kb_v2.py

The knowledge base holds the three documents of ``make_corpus(n_docs=3,
seed=SEED, paragraphs_per_doc=6)``, embedded at dimension DIM by
``StubEmbeddingService``. ``tests/test_kb.py`` opens copies of it and
answers over them.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from litrag.config import default_config
from litrag.kb import build_knowledge_base
from litrag.testing import StubEmbeddingService, make_corpus

DIM = 8
SEED = 4242
HERE = Path(__file__).parent / "kb_v2"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp, StubEmbeddingService(dim=DIM) as svc:
        make_corpus(Path(tmp) / "corpus", n_docs=3, seed=SEED, paragraphs_per_doc=6)
        cfg = default_config(svc.url, "http://127.0.0.1:1/chat")
        cfg = replace(cfg, embedding=replace(cfg.embedding, expected_dim=DIM))
        shutil.rmtree(HERE, ignore_errors=True)
        report = build_knowledge_base(Path(tmp) / "corpus", cfg, store_root=HERE)
    if report.failures:
        print(f"the build failed: {report.failures}", file=sys.stderr)
        return 1
    version = json.loads((HERE / "header.json").read_text())["format_version"]
    if version != 2:
        print(f"this litrag wrote format_version {version}; run at commit 13f69c4", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
