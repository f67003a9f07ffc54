"""Deterministic stub services and synthetic corpora.

The engine only talks to embedding and chat services over HTTP, so the test
suite and the experiment scripts run against local stand-ins:

  - StubEmbeddingService: hashed bag-of-words embeddings (deterministic,
    vocabulary-sensitive, so corpus structure shows up in vector space)
  - StubChatService: canned or prompt-derived answers, with a request log
  - StubTokenizerService: chars-per-token counting behind the external
    tokenizer wire shape

``make_corpus`` writes a synthetic document corpus with a known ground
truth: every in-text citation marker and every reference entry is recorded,
so extraction and resolution quality are measurable exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import threading
import time
import zlib
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from .chain import CITATION_BLOCK_HEADER
from .citations import fold_text

# --- deterministic embeddings -------------------------------------------------


def _token_hash(token: str) -> int:
    return int.from_bytes(hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "big")


def deterministic_embedding(text: str, dim: int) -> list[float]:
    """Hashed signed bag-of-words embedding, L2-normalized.

    Identical text always embeds identically; texts sharing vocabulary get
    similar vectors. Good enough structure for retrieval and clustering
    studies without any model.
    """
    vec = [0.0] * dim
    tokens = re.findall(r"\w+", text.lower())
    if not tokens:
        vec[0] = 1.0
        return vec
    for token in tokens:
        h = _token_hash(token)
        sign = 1.0 if (h >> 40) & 1 else -1.0
        vec[h % dim] += sign
    norm = math.sqrt(sum(v * v for v in vec))
    if norm == 0.0:
        vec[0] = 1.0
        return vec
    return [v / norm for v in vec]


# --- stub HTTP services ------------------------------------------------------


class _SilentHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, *args):  # keep test output clean
        pass

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length) or b"{}")
        server = self.server
        with server.state_lock:
            server.inflight += 1
            server.max_concurrent = max(server.max_concurrent, server.inflight)
        try:
            if server.latency_s:
                time.sleep(server.latency_s)
            status, body = server.handle_payload(payload)
        finally:
            with server.state_lock:
                server.inflight -= 1
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in server.reply_headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)


class _StubService(ThreadingHTTPServer):
    """Base for the stub services: serves on 127.0.0.1, records requests,
    and sends ``headers`` (name to value) with every reply."""

    daemon_threads = True

    def __init__(self, latency_s: float = 0.0, headers: dict[str, str] | None = None):
        super().__init__(("127.0.0.1", 0), _SilentHandler)
        self.reply_headers = dict(headers or {})
        self.state_lock = threading.Lock()
        self.requests: list[dict] = []
        self.inflight = 0
        self.max_concurrent = 0
        self.latency_s = latency_s
        # a short poll, so that close() returns at once instead of after up to 0.5 s
        self._thread = threading.Thread(target=self.serve_forever, args=(0.01,), daemon=True)
        self._thread.start()

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}/"

    def handle_payload(self, payload: dict) -> tuple[int, dict]:
        raise NotImplementedError

    def close(self):
        self.shutdown()
        self.server_close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class StubEmbeddingService(_StubService):
    """Speaks the embeddings wire shape with deterministic vectors.

    ``fail_when(texts)`` can force a 500 for chosen batches (retry and
    partial-failure testing); ``wrong_dim`` returns vectors of another
    dimension to simulate a misconfigured model.
    """

    def __init__(
        self,
        dim: int = 32,
        fail_when=None,
        latency_s: float = 0.0,
        wrong_dim: int | None = None,
    ):
        self.dim = dim
        self.fail_when = fail_when
        self.wrong_dim = wrong_dim
        super().__init__(latency_s=latency_s)

    def handle_payload(self, payload):
        texts = payload.get("input", [])
        with self.state_lock:
            self.requests.append(payload)
        if self.fail_when is not None and self.fail_when(texts):
            return 500, {"error": "injected failure"}
        dim = self.wrong_dim if self.wrong_dim is not None else self.dim
        return 200, {
            "data": [
                {"index": i, "embedding": deterministic_embedding(t, dim)}
                for i, t in enumerate(texts)
            ]
        }


class StubTokenizerService(_StubService):
    """External tokenizer endpoint: count = ceil(len / chars_per_token)."""

    def __init__(self, chars_per_token: float = 4.0):
        self.chars_per_token = chars_per_token
        super().__init__()

    def handle_payload(self, payload):
        text = payload.get("input", "")
        with self.state_lock:
            self.requests.append(payload)
        return 200, {"count": math.ceil(len(text) / self.chars_per_token)}


class StubChatService(_StubService):
    """Chat-completion endpoint driven by a ``responder(prompt, payload)``.
    A ``status`` of 400 or more replaces every reply; ``headers`` go with
    each reply (a Retry-After, say)."""

    def __init__(self, responder=None, status: int = 200, headers: dict[str, str] | None = None):
        self.responder = responder or (lambda prompt, payload: "thanks for asking!")
        self.status = status
        super().__init__(headers=headers)

    def handle_payload(self, payload):
        with self.state_lock:
            self.requests.append(payload)
        if self.status >= 400:
            return self.status, {"error": "injected failure"}
        prompt = payload["messages"][0]["content"]
        content = self.responder(prompt, payload)
        return 200, {"choices": [{"message": {"content": content}}]}

    def prompts(self) -> list[str]:
        with self.state_lock:
            return [req["messages"][0]["content"] for req in self.requests]


def extract_citation_block(prompt: str) -> list[str]:
    """The citation lines a rendered prompt carries: those of its
    citation-list slot (mode2) and of every inline citation block (mode1),
    each up to its blank line."""
    blocks = [block.split("\n\n", 1)[0] for block in prompt.split(CITATION_BLOCK_HEADER)[1:]]
    anchor = prompt.rfind("Citation List:")
    if anchor != -1:
        blocks.append(prompt[anchor + len("Citation List:") :].split("\n\nQuestion:", 1)[0])
    return [line.strip() for block in blocks for line in block.splitlines() if line.strip()]


def echo_citations_responder(fabricate: str | None = None):
    """A responder that cites exactly what the prompt's citation list offers.

    With ``fabricate`` set, one extra fabricated bibliography line is
    appended, which citation verification must flag.
    """

    def responder(prompt: str, payload: dict) -> str:
        lines = extract_citation_block(prompt)
        out = [
            "Based on the provided context, the relevant source material is listed below.",
            "",
            "References:",
        ]
        out.extend(lines)
        if fabricate:
            out.append(fabricate)
        out.extend(["", "thanks for asking!"])
        return "\n".join(out)

    return responder


FABRICATED_CITATION = (
    'Li, Kailasanath & Oran (1994): "Oblique Detonation Waves in Wedge Flows." '
    "Combustion Science and Technology, 96(1), 57-73."
)


# --- synthetic ground-truth corpus ------------------------------------------------

SURNAME_POOL = (
    "Varga", "Okafor", "Lindqvist", "Moreau", "Takeda", "Petrov", "Silva",
    "Novak", "Haugen", "Iyer", "Duarte", "Kowalski", "Brandt", "Ferris",
    "Mistry", "Olsen", "Keller", "Aranda", "Bhatt", "Sorensen", "Müller",
    "Johansson", "Pires", "Antal", "Reyes", "Farkas", "Ngata", "Valdéz",
    "Ihara", "Brochard",
)

UNRESOLVABLE_SURNAMES = ("Quillon", "Zedrach", "Ostrov")

VENUE_POOL = (
    "Journal of Layered Media",
    "Annals of Synthetic Dynamics",
    "Proceedings of the Modal Analysis Forum",
    "Transactions on Wave Phenomena",
    "Review of Dispersive Systems",
)

_SYLLABLES = (
    "ra", "ve", "lo", "mi", "tan", "dor", "qui", "zen", "pha", "bru",
    "sil", "kor", "ne", "ta", "lu", "gos", "per", "val", "dun", "eri",
)


@dataclass(frozen=True)
class TruthEntry:
    """One generated bibliography entry."""

    label: str
    authors: tuple[str, ...]
    year: int
    title: str
    text: str


@dataclass
class DocTruth:
    """Ground truth for one generated document."""

    doc_id: str
    style: str  # "numeric" | "author_year"
    vocab: list[str]
    entries: list[TruthEntry]
    marker_keys: set = field(default_factory=set)
    resolvable_labels: set = field(default_factory=set)
    unresolvable_keys: set = field(default_factory=set)


def _doc_tag(index: int) -> str:
    # purely alphabetic so generated words stay single \w tokens; unique below 26 * 26
    return chr(97 + index % 26) + chr(97 + (index * 7 + 3 + index // 26) % 26)


def _make_vocab(rng: random.Random, doc_tag: str, size: int) -> list[str]:
    words = set()
    while len(words) < size:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3)))
        words.add(f"{word}{doc_tag}")
    return sorted(words)


def _title_from(rng: random.Random, vocab: list[str]) -> str:
    words = [rng.choice(vocab) for _ in range(rng.randint(4, 7))]
    return " ".join(words).capitalize()


def _numeric_author_string(rng: random.Random, authors: tuple[str, ...]) -> str:
    parts = []
    for name in authors:
        initials = ".".join(rng.choice("ABCDEFGHJKLMNPRST") for _ in range(rng.randint(1, 2)))
        parts.append(f"{name}, {initials}.")
    return "; ".join(parts)


def _author_year_author_string(authors: tuple[str, ...]) -> str:
    if len(authors) == 1:
        return authors[0]
    return ", ".join(authors[:-1]) + " & " + authors[-1]


def _make_entries(rng: random.Random, truth: DocTruth) -> None:
    n_entries = rng.randint(18, 26)
    first_label = rng.randint(1, 12)
    bracket_style = rng.random() < 0.4
    for i in range(n_entries):
        authors = tuple(rng.sample(SURNAME_POOL, rng.randint(1, 3)))
        year = rng.randint(1965, 2023)
        title = _title_from(rng, truth.vocab)
        venue = rng.choice(VENUE_POOL)
        vol = rng.randint(3, 180)
        p1 = rng.randint(1, 900)
        pages = f"{p1}-{p1 + rng.randint(5, 40)}"
        if truth.style == "numeric":
            label = str(first_label + i)
            prefix = f"[{label}]" if bracket_style else f"{label}."
            text = (
                f"{prefix} {_numeric_author_string(rng, authors)} {title}. "
                f"{venue} {year}, {vol}, {pages}."
            )
        else:
            label = f"{authors[0]} ({year})"
            text = (
                f"{_author_year_author_string(authors)} ({year}). {title}. "
                f"{venue}, {vol}, {pages}."
            )
        truth.entries.append(
            TruthEntry(label=label, authors=authors, year=year, title=title, text=text)
        )


def _sentence(rng: random.Random, words: list[str]) -> str:
    n = rng.randint(8, 15)
    tokens = [rng.choice(words) for _ in range(n)]
    return tokens[0].capitalize() + " " + " ".join(tokens[1:])


_DEFAULT_SENTENCES_PER_PARAGRAPH = (4, 7)


def _numeric_marker_text(rng: random.Random, truth: DocTruth) -> tuple[str, list]:
    """One numeric citation event: returns (text, truth keys)."""
    entries = truth.entries
    kind = rng.random()
    if kind < 0.35:
        entry = rng.choice(entries)
        n = int(entry.label)
        return f"[{n}]", [("numeric", (n,))]
    if kind < 0.55:
        a, b = sorted(rng.sample(range(len(entries)), 2))
        na, nb = int(entries[a].label), int(entries[b].label)
        return f"[{na}, {nb}]", [("numeric", (na,)), ("numeric", (nb,))]
    if kind < 0.75:
        start = rng.randint(0, len(entries) - 3)
        width = rng.randint(1, 2)
        lo = int(entries[start].label)
        hi = lo + width
        dash = rng.choice(["-", "–"])
        keys = [("numeric", (n,)) for n in range(lo, hi + 1)]
        return f"[{lo}{dash}{hi}]", keys
    entry = rng.choice(entries)
    n = int(entry.label)
    return f"{entry.authors[0]} et al. [{n}]", [("numeric", (n,))]


def _author_marker_text(rng: random.Random, truth: DocTruth) -> tuple[str, list]:
    entry = rng.choice(truth.entries)
    authors, year = entry.authors, entry.year
    key = ("author_year", tuple(fold_text(a) for a in authors), year)
    if len(authors) == 1:
        form = rng.choice([f"{authors[0]} ({year})", f"{authors[0]} et al. ({year})"])
        if "et al." in form:
            key = ("author_year", (fold_text(authors[0]),), year)
        return form, [key]
    if len(authors) == 2:
        joiner = rng.choice(["&", "and"])
        return f"{authors[0]} {joiner} {authors[1]} ({year})", [key]
    return f"{authors[0]}, {authors[1]} & {authors[2]} ({year})", [key]


def _resolvable_labels_for(truth: DocTruth, keys: list) -> set:
    labels = set()
    by_number = {e.label: e for e in truth.entries if truth.style == "numeric"}
    for key in keys:
        if key[0] == "numeric":
            entry = by_number.get(str(key[1][0]))
            if entry is not None:
                labels.add(entry.label)
        else:
            _, folded_authors, year = key
            for entry in truth.entries:
                folded_entry = fold_text(entry.text)
                if str(year) in entry.text and all(
                    re.search(rf"\b{re.escape(a)}\b", folded_entry) for a in folded_authors
                ):
                    labels.add(entry.label)
                    break
    return labels


def make_corpus(
    corpus_dir: str | Path,
    n_docs: int = 10,
    seed: int = 20240117,
    paragraphs_per_doc: int = 28,
    citation_density: float = 0.5,
    include_unresolvable: bool = True,
    include_references: bool = True,
    sentences_per_paragraph: tuple[int, int] = _DEFAULT_SENTENCES_PER_PARAGRAPH,
) -> dict[str, DocTruth]:
    """Write a synthetic corpus with exact citation ground truth.

    Each document gets a private vocabulary (so embeddings cluster by
    document), a paragraph body salted with citation markers, and a labeled
    reference section in either numeric or author-year style. The returned
    DocTruth records every inserted marker and which entry it resolves to.

    With ``include_references=False`` (and citation_density 0) the corpus is
    pure per-document vocabulary, which isolates embedding-cluster structure
    from the shared bibliographic boilerplate.
    """
    corpus_dir = Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    truths: dict[str, DocTruth] = {}

    for d in range(n_docs):
        doc_id = f"paper-{d:02d}"
        style = "numeric" if d % 2 == 0 else "author_year"
        truth = DocTruth(
            doc_id=doc_id,
            style=style,
            vocab=_make_vocab(rng, _doc_tag(d), 170),
            entries=[],
        )
        _make_entries(rng, truth)

        paragraphs = []
        for p in range(paragraphs_per_doc):
            window = truth.vocab[(4 * p) % 110 : (4 * p) % 110 + 55]
            sentences = []
            for s in range(rng.randint(*sentences_per_paragraph)):
                sentence = _sentence(rng, window)
                if rng.random() < citation_density:
                    if style == "numeric":
                        marker, keys = _numeric_marker_text(rng, truth)
                    else:
                        marker, keys = _author_marker_text(rng, truth)
                    sentence += f" {marker}"
                    truth.marker_keys.update(keys)
                    truth.resolvable_labels.update(_resolvable_labels_for(truth, keys))
                sentences.append(sentence + ".")
            paragraphs.append(" ".join(sentences))

        if include_unresolvable:
            for _ in range(2):
                if style == "numeric":
                    missing = max(int(e.label) for e in truth.entries) + rng.randint(40, 60)
                    marker = f"[{missing}]"
                    key = ("numeric", (missing,))
                else:
                    name = rng.choice(UNRESOLVABLE_SURNAMES)
                    year = rng.randint(1965, 2023)
                    marker = f"{name} et al. ({year})"
                    key = ("author_year", (fold_text(name),), year)
                target = rng.randrange(len(paragraphs))
                paragraphs[target] += f" A further account appears in {marker}."
                truth.marker_keys.add(key)
                truth.unresolvable_keys.add(key)

        title = _title_from(rng, truth.vocab)
        body = title + "\n\n" + "\n\n".join(paragraphs)
        if include_references:
            references = "\n\n".join(entry.text for entry in truth.entries)
            text = f"{body}\n\nReferences\n\n{references}\n"
        else:
            text = body + "\n"
        (corpus_dir / f"{doc_id}.txt").write_text(text, encoding="utf-8")
        truths[doc_id] = truth

    return truths


def question_for(truth: DocTruth, rng: random.Random | None = None) -> str:
    """A question phrased in one document's vocabulary, so retrieval
    lands on that document. Without ``rng`` it is seeded from a CRC of
    the doc_id (``hash`` is salted per process), so every run asks the same."""
    rng = rng or random.Random(zlib.crc32(truth.doc_id.encode()))
    words = rng.sample(truth.vocab[:60], 4)
    return f"What is {words[0]} and how does {words[1]} interact with {words[2]} near {words[3]}?"
