"""Write ``store_v1/``: a small vector store in on-disk format version 1.

Format version 1 keeps one JSON object per record in ``records.jsonl``, and
its header checksums ``matrix.bin`` alone. ``VectorStore.open`` still reads
it, but ``persist`` now writes format version 2, so the committed files were
written by the ``persist`` of commit 27bb390, the last to write version 1.
To write them again, run this script from the root of a checkout of that
commit:

    PYTHONPATH=src python tests/fixtures/make_store_v1.py

The store holds three documents of four chunks each, and for each of
U+2028, U+2029 and U+0085 a record whose text holds it and one whose
chunk_id, doc_id and metadata do; ``records.jsonl`` holds these characters
raw. ``tests/test_store.py`` and ``tests/test_cli.py`` open copies of it.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import numpy as np

from litrag.store import ChunkRecord, VectorStore

DIM = 8
SEPARATORS = ("\u2028", "\u2029", "\u0085")
HERE = Path(__file__).parent / "store_v1"


def fixture_records() -> tuple[list[ChunkRecord], np.ndarray]:
    """The records of the fixture store, with ``embedding=None``, and their
    float32 rows."""
    rng = random.Random(1234)
    words = ["flame", "soot", "ignition", "kinetics", "turbulent", "premixed", "laminar", "NOx"]
    records = []
    for d in range(3):
        doc = f"paper-{d:02d}"
        for i in range(4):
            text = " ".join(rng.choice(words) for _ in range(rng.randint(3, 9)))
            records.append(ChunkRecord(
                chunk_id=f"{doc}:{i:05d}", doc_id=doc, text=text, start_offset=40 * i,
                end_offset=40 * i + len(text), embedding=None,
                metadata={"source": f"{doc}.txt", "doc_id": doc, "title": f"Title {d}"},
            ))
    for char in SEPARATORS:
        text = f"one{char}two"
        records.append(ChunkRecord(
            chunk_id=f"a{char}", doc_id="paper-00", text=text, start_offset=0,
            end_offset=len(text), embedding=None,
            metadata={"source": "paper-00.txt", "doc_id": "paper-00"},
        ))
        records.append(ChunkRecord(
            chunk_id=f"b{char}", doc_id=f"doc{char}", text="text of b", start_offset=0,
            end_offset=9, embedding=None,
            metadata={"source": f"doc{char}.txt", "doc_id": f"doc{char}", "note": f"x{char}y"},
        ))
    rows = np.random.default_rng(1234).standard_normal((len(records), DIM)).astype(np.float32)
    return records, rows


def main() -> int:
    records, rows = fixture_records()
    store = VectorStore(DIM)
    store.upsert(records, rows)
    store.persist(HERE)
    version = json.loads((HERE / "header.json").read_text())["format_version"]
    if version != 1:
        print(f"this litrag wrote format_version {version}; run at commit 27bb390", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
