"""Corpus loading and recursive separator-driven chunking.

Documents are plain UTF-8 text files (or anything a configured extractor
command can turn into text). Each document is split into ordered chunks of
at most ``chunk_size`` characters; consecutive chunks share up to
``chunk_overlap`` trailing characters of context where separator boundaries
permit. Every chunk records exact character offsets into the document body,
so downstream consumers can always map a chunk back to its source span.
"""

from __future__ import annotations

import json
import logging
import re
import shlex
import subprocess
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
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

_REFERENCE_HEADINGS = re.compile(
    r"^[ \t]*(?:\d+\.?[ \t]+)?(references|bibliography|literature cited)[ \t]*[:.]?[ \t]*$",
    re.IGNORECASE | re.MULTILINE,
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
    """A loaded source text.

    ``reference_section`` is a (start, end) character span into ``body``
    beginning at a recognized bibliography heading, or None when no heading
    was found.
    """

    doc_id: str
    title: str
    body: str
    source_path: str
    reference_section: tuple[int, int] | None = None

    def reference_text(self) -> str | None:
        if self.reference_section is None:
            return None
        start, end = self.reference_section
        return self.body[start:end]

    def to_dict(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "title": self.title,
            "body": self.body,
            "source_path": self.source_path,
            "reference_section": list(self.reference_section)
            if self.reference_section
            else None,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Document":
        ref = d.get("reference_section")
        return cls(
            doc_id=d["doc_id"],
            title=d["title"],
            body=d["body"],
            source_path=d["source_path"],
            reference_section=tuple(ref) if ref else None,
        )


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
    last = None
    for m in _REFERENCE_HEADINGS.finditer(body):
        last = m
    if last is None:
        return None
    return (last.start(), len(body))


def _normalize_newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _run_extractor(extractor: str, path: Path) -> str:
    try:
        parts = shlex.split(extractor)
    except ValueError as exc:  # an unbalanced quote
        raise ExtractorFailed(f"cannot parse extractor {extractor!r}: {exc}") from exc
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
    becomes the document body. Line endings are normalized to ``\\n``.
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

    body = _normalize_newlines(raw)
    if not body.strip():
        raise EmptyDocument(f"{path}: document body is empty")

    title = next((line.strip() for line in body.splitlines() if line.strip()), path.stem)
    return Document(
        doc_id=path.stem,
        title=title,
        body=body,
        source_path=str(path),
        reference_section=locate_reference_section(body),
    )


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
    while i <= end:
        j = body.find(sep, i, end)
        if j == -1:
            if i < end:
                pieces.append((i, end))
            break
        if j > i:
            pieces.append((i, j))
        i = j + len(sep)
    return pieces


def _merge_pieces(
    pieces: list[tuple[int, int]], sep_len: int, size: int, overlap: int
) -> list[tuple[int, int]]:
    """Greedily merge adjacent piece spans into chunk spans of <= size.

    A merged chunk spans from its first to its last piece, so the separators
    between merged pieces stay inside the chunk. After a chunk is emitted,
    trailing pieces whose combined span fits in ``overlap`` are retained as
    the start of the next chunk.
    """
    chunks: list[tuple[int, int]] = []
    current: list[tuple[int, int]] = []
    total = 0  # span length of `current`, separators included

    def piece_cost(plen: int) -> int:
        return plen + (sep_len if current else 0)

    for piece in pieces:
        plen = piece[1] - piece[0]
        if current and total + plen + sep_len > size:
            chunks.append((current[0][0], current[-1][1]))
            while current and (
                total > overlap or (total + plen + sep_len > size and total > 0)
            ):
                dropped = current.pop(0)
                total -= (dropped[1] - dropped[0]) + (sep_len if current else 0)
        total += piece_cost(plen)
        current.append(piece)
    if current:
        chunks.append((current[0][0], current[-1][1]))
    return chunks


def _split_spans(
    body: str, start: int, end: int, params: SplitParams, separators: tuple[str, ...]
) -> list[tuple[int, int]]:
    if end - start <= params.chunk_size:
        return [(start, end)]

    segment = body[start:end]
    sep = ""
    rest: tuple[str, ...] = ()
    for idx, candidate in enumerate(separators):
        if candidate == "" or candidate in segment:
            sep = candidate
            rest = separators[idx + 1 :]
            break

    pieces = _split_on_separator(body, start, end, sep)
    out: list[tuple[int, int]] = []
    good: list[tuple[int, int]] = []
    for piece in pieces:
        if piece[1] - piece[0] <= params.chunk_size:
            good.append(piece)
            continue
        if good:
            out.extend(_merge_pieces(good, len(sep), params.chunk_size, params.chunk_overlap))
            good = []
        if rest:
            out.extend(_split_spans(body, piece[0], piece[1], params, rest))
        else:
            out.append(piece)
    if good:
        out.extend(_merge_pieces(good, len(sep), params.chunk_size, params.chunk_overlap))
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
    on_document=None,
    max_workers: int = 4,
) -> IngestReport:
    """Load and split every document in ``corpus_dir``.

    Files go in sorted path order, each one isolated: a LitragError while
    loading or splitting it, or from ``on_document(document, chunks)``, is
    recorded in the report's failures and the batch goes on; any other
    exception propagates. ``on_document`` lets callers embed or index each
    loaded document as it streams past. Document ids are file stems; a file
    whose stem an earlier loaded file took (even if ``on_document`` then
    failed it) fails with DuplicateDocument.
    """
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        raise DirectoryUnreadable(f"{corpus_dir} is not a readable directory")

    paths = sorted(p for p in corpus_dir.iterdir() if p.is_file() and not p.name.startswith("."))

    def load_one(path: Path):
        doc = load_document(path, extractor=extractor)
        return doc, recursive_split(doc.body, params, doc_id=doc.doc_id)

    report = IngestReport()
    taken: dict[str, Path] = {}
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        futures = [(path, pool.submit(load_one, path)) for path in paths]
        for path, fut in futures:
            try:
                doc, chunks = fut.result()
                if doc.doc_id in taken:
                    raise DuplicateDocument(
                        f"document id {doc.doc_id!r} is already taken by {taken[doc.doc_id]}"
                    )
                taken[doc.doc_id] = path
                if on_document is not None:
                    on_document(doc, chunks)
            except LitragError as exc:
                logger.warning("failed to ingest %s: %s", path, exc)
                report.failures.append(IngestFailure(path=str(path), error=str(exc)))
                continue
            report.documents.append(
                DocumentResult(
                    doc_id=doc.doc_id,
                    path=str(path),
                    chunk_count=len(chunks),
                    chunk_chars=sum(len(c.text) for c in chunks),
                )
            )
    return report
