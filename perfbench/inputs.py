"""Seeded inputs of the benchmark: corpora with citation ground truth, the
kb-large chunk set, questions, and the hashed bag-of-words embedding that
the embedding stand-in serves and the oracles recompute.

Nothing here imports litrag: the program sees only the files written here
and the vectors the stand-in sends over HTTP.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import random
import re
import shutil
from pathlib import Path

import numpy as np

# Bump when a generator changes, so cached inputs are rebuilt.
GENERATOR_VERSION = 1

_WORD_RE = re.compile(r"\w+")


# --- embedding --------------------------------------------------------------


@functools.lru_cache(maxsize=1 << 17)
def _bucket(token: str, dim: int) -> tuple[int, float]:
    h = int.from_bytes(hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "big")
    return h % dim, (1.0 if (h >> 40) & 1 else -1.0)


def embed(text: str, dim: int) -> np.ndarray:
    """Signed hashed bag-of-words vector, L2-normalised, float64.

    Texts that share words get similar vectors, so a question phrased in
    one document's vocabulary retrieves that document's chunks.
    """
    tokens = _WORD_RE.findall(text.lower())
    if tokens:
        buckets = [_bucket(t, dim) for t in tokens]
        vec = np.bincount(
            [b[0] for b in buckets], weights=[b[1] for b in buckets], minlength=dim
        )
        norm = math.sqrt(float(vec @ vec))
        if norm > 0.0:
            return vec / norm
    vec = np.zeros(dim)
    vec[0] = 1.0
    return vec


def embed_matrix(texts: list[str], dim: int) -> np.ndarray:
    """Row i = embed(texts[i]) rounded to float32, as the store keeps it."""
    out = np.empty((len(texts), dim), dtype=np.float32)
    for i, text in enumerate(texts):
        out[i] = embed(text, dim)
    return out


# --- synthetic vocabulary -----------------------------------------------------

_SYLLABLES = (
    "ra", "ve", "lo", "mi", "tan", "dor", "qui", "zen", "pha", "bru",
    "sil", "kor", "ne", "ta", "lu", "gos", "per", "val", "dun", "eri",
)

SURNAMES = (
    "Varga", "Okafor", "Lindqvist", "Moreau", "Takeda", "Petrov", "Silva",
    "Novak", "Haugen", "Iyer", "Duarte", "Kowalski", "Brandt", "Ferris",
    "Mistry", "Olsen", "Keller", "Aranda", "Bhatt", "Sorensen", "Müller",
    "Johansson", "Pires", "Antal", "Reyes", "Farkas", "Ngata", "Valdéz",
    "Ihara", "Brochard",
)

# Author-year markers with these names match no reference entry.
UNRESOLVABLE_SURNAMES = ("Quillon", "Zedrach", "Ostrov")

VENUES = (
    "Journal of Layered Media",
    "Annals of Synthetic Dynamics",
    "Proceedings of the Modal Analysis Forum",
    "Transactions on Wave Phenomena",
    "Review of Dispersive Systems",
)


def doc_tag(index: int) -> str:
    """Two letters unique for the first 676 documents, so every document's
    words are its own."""
    return chr(97 + (index // 26) % 26) + chr(97 + index % 26)


def make_vocab(rng: random.Random, tag: str, size: int = 170) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        words.add("".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3))) + tag)
    return sorted(words)


def sentence(rng: random.Random, words: list[str]) -> str:
    tokens = [rng.choice(words) for _ in range(rng.randint(8, 15))]
    return tokens[0].capitalize() + " " + " ".join(tokens[1:])


def title(rng: random.Random, vocab: list[str]) -> str:
    return " ".join(rng.choice(vocab) for _ in range(rng.randint(4, 7))).capitalize()


# --- cited corpus (qa-grounded, chunk-sweep) -----------------------------------


def _entries(rng: random.Random, vocab: list[str], numeric: bool) -> list[dict]:
    first = rng.randint(1, 12)
    bracketed = rng.random() < 0.4
    entries = []
    for i in range(rng.randint(18, 26)):
        authors = rng.sample(SURNAMES, rng.randint(1, 3))
        year = rng.randint(1965, 2023)
        name = title(rng, vocab)
        venue = rng.choice(VENUES)
        vol, p1 = rng.randint(3, 180), rng.randint(1, 900)
        pages = f"{p1}-{p1 + rng.randint(5, 40)}"
        if numeric:
            label = str(first + i)
            initials = [
                ".".join(rng.choice("ABCDEFGHJKLMNPRST") for _ in range(rng.randint(1, 2)))
                for _ in authors
            ]
            names = "; ".join(f"{a}, {ini}." for a, ini in zip(authors, initials))
            prefix = f"[{label}]" if bracketed else f"{label}."
            text = f"{prefix} {names} {name}. {venue} {year}, {vol}, {pages}."
        else:
            label = f"{authors[0]} ({year})"
            names = authors[0] if len(authors) == 1 else ", ".join(authors[:-1]) + " & " + authors[-1]
            text = f"{names} ({year}). {name}. {venue}, {vol}, {pages}."
        entries.append({"label": label, "authors": authors, "year": year, "text": text})
    return entries


def _marker(rng: random.Random, entries: list[dict], numeric: bool) -> str:
    if not numeric:
        e = rng.choice(entries)
        a, year = e["authors"], e["year"]
        if len(a) == 1:
            return rng.choice([f"{a[0]} ({year})", f"{a[0]} et al. ({year})"])
        if len(a) == 2:
            return f"{a[0]} {rng.choice(['&', 'and'])} {a[1]} ({year})"
        return f"{a[0]}, {a[1]} & {a[2]} ({year})"
    kind = rng.random()
    if kind < 0.35:
        return f"[{rng.choice(entries)['label']}]"
    if kind < 0.55:
        i, j = sorted(rng.sample(range(len(entries)), 2))
        return f"[{entries[i]['label']}, {entries[j]['label']}]"
    if kind < 0.75:
        lo = int(entries[rng.randint(0, len(entries) - 3)]["label"])
        return f"[{lo}{rng.choice(['-', '–'])}{lo + rng.randint(1, 2)}]"
    e = rng.choice(entries)
    return f"{e['authors'][0]} et al. [{e['label']}]"


def write_cited_corpus(out: Path, n_docs: int, paragraphs: int, seed: int) -> dict:
    """Write ``n_docs`` documents with in-text markers and a reference
    section; return the ground truth, keyed by doc_id.

    Even documents cite numerically, odd ones by author and year. Each
    document carries two markers that match none of its entries.
    """
    rng = random.Random(seed)
    truth = {}
    for d in range(n_docs):
        doc_id = f"paper-{d:03d}"
        numeric = d % 2 == 0
        vocab = make_vocab(rng, doc_tag(d))
        entries = _entries(rng, vocab, numeric)
        paras = []
        for p in range(paragraphs):
            window = vocab[(4 * p) % 110 : (4 * p) % 110 + 55]
            sents = []
            for _ in range(rng.randint(4, 7)):
                s = sentence(rng, window)
                if rng.random() < 0.5:
                    s += " " + _marker(rng, entries, numeric)
                sents.append(s + ".")
            paras.append(" ".join(sents))
        unresolvable = []
        for _ in range(2):
            if numeric:
                n = max(int(e["label"]) for e in entries) + rng.randint(40, 60)
                marker, key = f"[{n}]", ["numeric", n]
            else:
                name, year = rng.choice(UNRESOLVABLE_SURNAMES), rng.randint(1965, 2023)
                marker, key = f"{name} et al. ({year})", ["author_year", name, year]
            paras[rng.randrange(len(paras))] += f" A further account appears in {marker}."
            unresolvable.append(key)
        body = title(rng, vocab) + "\n\n" + "\n\n".join(paras)
        refs = "\n\n".join(e["text"] for e in entries)
        (out / f"{doc_id}.txt").write_text(f"{body}\n\nReferences\n\n{refs}\n", encoding="utf-8")
        truth[doc_id] = {
            "entries": [e["text"] for e in entries],
            "unresolvable": unresolvable,
            "question_words": vocab[:60],
        }
    return truth


# --- kb-large chunk set --------------------------------------------------------


def write_large_chunks(out: Path, n_docs: int, per_doc: int, dim: int, seed: int) -> None:
    """Chunks of at most 700 characters, ``per_doc`` per document, with
    their float32 embedding matrix and question vocabularies."""
    rng = random.Random(seed)
    chunks, vocabs = [], {}
    for d in range(n_docs):
        doc_id = f"doc-{d:04d}"
        vocab = make_vocab(rng, doc_tag(d))
        vocabs[doc_id] = vocab[:60]
        offset = 0
        for c in range(per_doc):
            window = vocab[(3 * c) % 115 : (3 * c) % 115 + 55]
            text = ""
            while len(text) < 600:
                text += sentence(rng, window) + ". "
            text = text[:700].rsplit(" ", 1)[0]
            chunks.append(
                {"chunk_id": f"{doc_id}:{c:05d}", "doc_id": doc_id, "text": text,
                 "start": offset, "end": offset + len(text)}
            )
            offset += len(text) + 2
    np.save(out / "matrix.npy", embed_matrix([c["text"] for c in chunks], dim))
    (out / "chunks.json").write_text(json.dumps({"chunks": chunks, "vocab": vocabs}))


# --- questions -----------------------------------------------------------------

# Questions carrying this sentence get a fabricated reference from the chat
# stand-in, which citation verification must flag.
FABRICATE_TRIGGER = "Cite a review as well."
FABRICATE_EVERY = 4  # one question in four


def questions(vocab_by_doc: dict[str, list[str]], seed: int, label: str, count: int,
              fabricate: bool = False) -> list[dict]:
    """``count`` questions, cycling over the documents in a seeded order.
    Each is phrased in one document's vocabulary so retrieval lands there."""
    rng = random.Random(f"{seed}/{label}")
    docs = sorted(vocab_by_doc)
    order: list[str] = []
    out = []
    for i in range(count):
        if not order:
            order = rng.sample(docs, len(docs))
        doc = order.pop()
        w = rng.sample(vocab_by_doc[doc], 4)
        text = f"What is {w[0]} and how does {w[1]} interact with {w[2]} near {w[3]}?"
        fab = fabricate and i % FABRICATE_EVERY == FABRICATE_EVERY - 1
        if fab:
            text += " " + FABRICATE_TRIGGER
        out.append({"text": text, "doc_id": doc, "fabricated": fab})
    return out


# --- cache -----------------------------------------------------------------------


def cached(cache_root: Path, key: str, build) -> Path:
    """Directory holding the inputs named by ``key``, built once by
    ``build(tmp_dir)`` and renamed into place."""
    final = cache_root / f"{key}-g{GENERATOR_VERSION}"
    if (final / "DONE").exists():
        return final
    tmp = cache_root / f".{final.name}.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    build(tmp)
    (tmp / "DONE").write_text("")
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)
    return final
