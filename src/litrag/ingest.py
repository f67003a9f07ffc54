"""Corpus loading and recursive separator-driven chunking.

Documents are plain UTF-8 text files (or anything a configured extractor
command can turn into text). Each document is split into ordered chunks of
at most ``chunk_size`` characters; consecutive chunks share up to
``chunk_overlap`` trailing characters of context where separator boundaries
permit. Both bounds hold on any text: a chunk is measured as the span it
covers, separators included however many repeat between its pieces. Every
chunk records exact character offsets into the document body, so downstream
consumers can always map a chunk back to its source span.
"""

from __future__ import annotations

import json
import logging
import re
import shlex
import subprocess
from bisect import insort
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .errors import (
    DirectoryUnreadable,
    DuplicateDocument,
    EmptyDocument,
    ExtractorFailed,
    FileUnreadable,
    InvalidParams,
    LitragError,
)

logger = logging.getLogger(__name__)

# Separator hierarchy, coarsest first: paragraph break, line break, sentence
# end, word boundary, then single characters as the guaranteed fallback.
DEFAULT_SEPARATORS: tuple[str, ...] = ("\n\n", "\n", ". ", " ", "")

PLAIN_TEXT_SUFFIXES = {".txt", ".text", ".md"}

# The greedy ``.*`` backs off from the end of the body, so the first heading
# line it finds is the last one.
_LAST_REFERENCE_HEADING = re.compile(
    r"\A.*^(?P<heading>[ \t]*(?:\d+\.?[ \t]+)?"
    r"(?:references|bibliography|literature cited)[ \t]*[:.]?[ \t]*)$",
    re.IGNORECASE | re.MULTILINE | re.DOTALL,
)


@dataclass(frozen=True)
class SplitParams:
    """Parameters controlling recursive chunking."""

    chunk_size: int
    chunk_overlap: int
    separators: tuple[str, ...] = DEFAULT_SEPARATORS

    def __post_init__(self):
        if self.chunk_size <= 0:
            raise InvalidParams(f"chunk_size must be positive, got {self.chunk_size}")
        if self.chunk_overlap < 0:
            raise InvalidParams(f"chunk_overlap must be non-negative, got {self.chunk_overlap}")
        if self.chunk_overlap >= self.chunk_size:
            raise InvalidParams(
                f"chunk_overlap ({self.chunk_overlap}) must be smaller than "
                f"chunk_size ({self.chunk_size})"
            )
        if not self.separators:
            raise InvalidParams("separators must be non-empty")
        if self.separators[-1] != "":
            raise InvalidParams('separators must end with the empty string separator ""')
        object.__setattr__(self, "separators", tuple(self.separators))


@dataclass(frozen=True)
class Document:
    """A loaded source text: its id, its body and the file it came from.

    Each field is a string (else TypeError) and the body is not blank (else
    EmptyDocument). The title and the reference section are functions of the
    body, derived on first use and kept.
    """

    doc_id: str
    body: str
    source_path: str

    def __post_init__(self):
        for name in ("doc_id", "body", "source_path"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise TypeError(f"{name} is {type(value).__name__}, not a string")
        if not self.body or self.body.isspace():  # blank, decided without a copy
            raise EmptyDocument(f"{self.source_path}: document body is empty")

    @cached_property
    def title(self) -> str:
        """The first non-blank line of the body, stripped."""
        return next(line.strip() for line in self.body.splitlines() if line.strip())

    @cached_property
    def reference_section(self) -> tuple[int, int] | None:
        """The (start, end) span of the body from its bibliography heading to
        its end (``locate_reference_section``), or None without a heading."""
        return locate_reference_section(self.body)

    def reference_text(self) -> str | None:
        if self.reference_section is None:
            return None
        start, end = self.reference_section
        return self.body[start:end]

    def to_dict(self) -> dict:
        return {"doc_id": self.doc_id, "body": self.body, "source_path": self.source_path}

    @classmethod
    def from_dict(cls, d: dict) -> "Document":
        """The inverse of ``to_dict``: the document that the ``doc_id``,
        ``body`` and ``source_path`` of ``d`` give."""
        return cls(doc_id=d["doc_id"], body=d["body"], source_path=d["source_path"])


@dataclass(frozen=True)
class Chunk:
    """A contiguous span of a document body.

    Invariant: ``text == body[start_offset:end_offset]`` for the parent
    document, and ``len(text) <= chunk_size`` of the split that produced it.
    """

    chunk_id: str
    doc_id: str
    text: str
    start_offset: int
    end_offset: int


def locate_reference_section(body: str) -> tuple[int, int] | None:
    """Find the bibliography span of ``body``.

    Returns the span from the last standalone heading line ("References",
    "Bibliography" or "Literature Cited", optionally numbered) to the end of
    the body. The last occurrence is used so in-text mentions of the word do
    not truncate the document.
    """
    m = _LAST_REFERENCE_HEADING.match(body)
    return None if m is None else (m.start("heading"), len(body))


def _normalize_newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _run_extractor(extractor: str, path: Path) -> str:
    try:
        parts = shlex.split(extractor)
    except ValueError as exc:  # an unbalanced quote
        raise ExtractorFailed(f"cannot parse extractor {extractor!r}: {exc}") from exc
    if not parts or "{path}" in parts[0]:  # the document itself would run as the program
        raise ExtractorFailed(f"extractor {extractor!r} names no program to run")
    if "{path}" in extractor:
        command = [part.replace("{path}", str(path)) for part in parts]
    else:
        command = parts + [str(path)]
    try:
        proc = subprocess.run(command, capture_output=True, timeout=120)
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise ExtractorFailed(f"extractor {command[0]!r} failed on {path}: {exc}") from exc
    if proc.returncode != 0:
        raise ExtractorFailed(
            f"extractor exited with status {proc.returncode} on {path}: "
            f"{proc.stderr.decode('utf-8', 'replace').strip()}"
        )
    return proc.stdout.decode("utf-8", "replace")


def load_document(path: str | Path, extractor: str | None = None) -> Document:
    """Load one document from ``path``.

    Plain-text files are read directly; other file types require an
    ``extractor`` command template (``{path}`` placeholder) whose stdout
    becomes the document body. Line endings are normalized to ``\\n``. A
    blank body raises EmptyDocument.
    """
    path = Path(path)
    if path.suffix.lower() in PLAIN_TEXT_SUFFIXES or extractor is None:
        try:
            raw = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            if path.suffix.lower() not in PLAIN_TEXT_SUFFIXES:
                raise FileUnreadable(
                    f"{path}: not a plain-text file and no extractor configured"
                ) from exc
            raise FileUnreadable(f"cannot read {path}: {exc}") from exc
    else:
        raw = _run_extractor(extractor, path)

    return Document(doc_id=path.stem, body=_normalize_newlines(raw), source_path=str(path))


def _split_on_separator(
    body: str, start: int, end: int, sep: str
) -> list[tuple[int, int]]:
    """Spans of the pieces of body[start:end] split on ``sep``.

    The separator text belongs to no piece; empty pieces are dropped. The
    empty separator splits into single characters.
    """
    if sep == "":
        return [(i, i + 1) for i in range(start, end)]
    pieces = []
    i = start
    while i < end:
        j = body.find(sep, i, end)
        if j == -1:
            j = end
        if j > i:
            pieces.append((i, j))
        i = j + len(sep)
    return pieces


def _merge_pieces(
    pieces: list[tuple[int, int]], size: int, overlap: int
) -> list[tuple[int, int]]:
    """Greedily merge adjacent piece spans into chunk spans of <= size.

    The chunk being built is the window ``pieces[first:i]``, measured as the
    span from its first piece's start to its last piece's end, so whatever
    lies between merged pieces (one separator or several) counts towards
    ``size``. After a chunk is emitted, the window keeps its trailing pieces
    while they span at most ``overlap`` and leave room for the next piece.
    """
    chunks: list[tuple[int, int]] = []
    first = 0
    for i, (_, end) in enumerate(pieces):
        if i > first and end - pieces[first][0] > size:
            chunks.append((pieces[first][0], pieces[i - 1][1]))
            while first < i and (
                pieces[i - 1][1] - pieces[first][0] > overlap or end - pieces[first][0] > size
            ):
                first += 1
    if first < len(pieces):
        chunks.append((pieces[first][0], pieces[-1][1]))
    return chunks


def _split_spans(
    body: str, start: int, end: int, params: SplitParams, separators: tuple[str, ...]
) -> list[tuple[int, int]]:
    if end - start <= params.chunk_size:
        return [(start, end)]

    # "" is found in any segment, so some separator always matches
    idx = next(i for i, sep in enumerate(separators) if body.find(sep, start, end) != -1)
    sep, rest = separators[idx], separators[idx + 1 :]
    out: list[tuple[int, int]] = []
    good: list[tuple[int, int]] = []
    for piece in _split_on_separator(body, start, end, sep):
        if piece[1] - piece[0] <= params.chunk_size:
            good.append(piece)
            continue
        # Only a non-empty separator leaves a piece this long (the pieces of
        # "" are one character), and "" comes last, so ``rest`` is not empty.
        out.extend(_merge_pieces(good, params.chunk_size, params.chunk_overlap))
        good = []
        out.extend(_split_spans(body, piece[0], piece[1], params, rest))
    out.extend(_merge_pieces(good, params.chunk_size, params.chunk_overlap))
    return out


def recursive_split(body: str, params: SplitParams, doc_id: str = "doc") -> list[Chunk]:
    """Split ``body`` into ordered chunks of at most ``params.chunk_size``.

    The splitter prefers the earliest separator in the hierarchy that occurs
    in a segment and recurses with later separators on segments that are
    still oversized. Chunk spans never include a leading or trailing
    separator dropped at a chunk boundary, and consecutive chunks overlap by
    up to ``chunk_overlap`` characters where separator placement permits.
    """
    if not body:
        return []
    spans = _split_spans(body, 0, len(body), params, params.separators)
    return [
        Chunk(
            chunk_id=f"{doc_id}:{i:05d}",
            doc_id=doc_id,
            text=body[s:e],
            start_offset=s,
            end_offset=e,
        )
        for i, (s, e) in enumerate(spans)
    ]


@dataclass
class DocumentResult:
    """One ingested document; ``chunk_chars`` is the summed length of its chunks."""

    doc_id: str
    path: str
    chunk_count: int
    chunk_chars: int


@dataclass
class IngestFailure:
    path: str
    error: str


@dataclass
class IngestReport:
    """Outcome of a corpus ingestion run. Serializable as JSON."""

    documents: list[DocumentResult] = field(default_factory=list)
    failures: list[IngestFailure] = field(default_factory=list)

    @property
    def document_count(self) -> int:
        return len(self.documents)

    @property
    def chunk_count(self) -> int:
        return sum(d.chunk_count for d in self.documents)

    def fail(self, path: str, error: str) -> None:
        """Record that the file at ``path`` failed with ``error``: log it once,
        drop its document if one was listed, and keep failures in path order."""
        logger.warning("failed to ingest %s: %s", path, error)
        self.documents = [d for d in self.documents if d.path != path]
        insort(self.failures, IngestFailure(path=path, error=error), key=lambda f: Path(f.path))

    def to_dict(self) -> dict:
        return {
            "documents": [vars(d) for d in self.documents],
            "failures": [vars(f) for f in self.failures],
            "document_count": self.document_count,
            "chunk_count": self.chunk_count,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def ingest_corpus(
    corpus_dir: str | Path,
    params: SplitParams,
    extractor: str | None = None,
    max_workers: int = 4,
) -> tuple[IngestReport, list[tuple[Document, list[Chunk]]]]:
    """Load and split every document in ``corpus_dir``.

    Returns the report and each loaded document with its chunks, both in
    sorted path order. Each file is isolated: a LitragError while loading
    or splitting it is recorded in the report's failures and the batch goes
    on; any other exception propagates. A caller that loses a loaded
    document later, as ``build_knowledge_base`` may when it embeds, records
    that with ``IngestReport.fail``.
    Document ids are file stems; a file whose stem an earlier loaded file
    took fails with DuplicateDocument.

    Plain-text loads and every split are work under the GIL, so they run
    in the calling thread. Only a file the ``extractor`` turns into text is
    loaded in a worker thread (at most ``max_workers``), where the
    extractor's subprocess runs while the others wait.
    """
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        raise DirectoryUnreadable(f"{corpus_dir} is not a readable directory")

    paths = sorted(p for p in corpus_dir.iterdir() if p.is_file() and not p.name.startswith("."))

    report = IngestReport()
    loaded: list[tuple[Document, list[Chunk]]] = []
    taken: dict[str, Path] = {}
    with ThreadPoolExecutor(max_workers=max_workers) as pool:  # threads start at a submit
        extracting = {
            path: pool.submit(load_document, path, extractor)
            for path in paths
            if extractor is not None and path.suffix.lower() not in PLAIN_TEXT_SUFFIXES
        }
        for path in paths:
            try:
                if path in extracting:
                    doc = extracting[path].result()
                else:
                    doc = load_document(path, extractor=extractor)
                chunks = recursive_split(doc.body, params, doc_id=doc.doc_id)
                if doc.doc_id in taken:
                    raise DuplicateDocument(
                        f"document id {doc.doc_id!r} is already taken by {taken[doc.doc_id]}"
                    )
            except LitragError as exc:
                report.fail(str(path), str(exc))
                continue
            taken[doc.doc_id] = path
            loaded.append((doc, chunks))
            report.documents.append(
                DocumentResult(
                    doc_id=doc.doc_id,
                    path=str(path),
                    chunk_count=len(chunks),
                    chunk_chars=sum(len(c.text) for c in chunks),
                )
            )
    return report, loaded
