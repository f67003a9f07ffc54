"""Citation grounding: auxiliary expanded-chunk indexes, in-text citation
marker extraction, reference-section parsing, and answer verification.

The guard works per source document. A retrieved chunk is mapped back into
an expanded chunk (3500 to 4000 characters) of its document so that citation
markers near the chunk keep their surrounding context. Markers are resolved
against the document's own reference section, never guessed, and generated
answers are checked against that resolved list so fabricated references can
be flagged instead of silently passed through.

One matcher, ``_match``, serves resolution and both verification passes
(in-text markers and answer bibliography lines): a label names the first
listed entry that carries it; an author-year citation names the first entry
naming all of its authors and its year, narrowed by title when one is given.
Each entry's folded text is derived once, when the entry is built.
"""

from __future__ import annotations

import logging
import math
import re
import unicodedata
from collections.abc import Sequence
from dataclasses import dataclass, field

from .embedding import embed_texts  # noqa: F401 - unused; perfbench's trace table hooks this name
from .errors import NoContainingChunk, NoReferenceSection
from .ingest import Chunk, Document

logger = logging.getLogger(__name__)

# Expanded chunks target 10-11 per document at 3500-4000 characters each.
EXPANDED_MIN_CHARS = 3500
EXPANDED_MAX_CHARS = 4000
EXPANDED_TARGET_CHARS = 3750
EXPANDED_MIN_COUNT = 10
EXPANDED_MAX_COUNT = 11

# Hyphen and dash variants that show up in extracted text.
_DASH_CLASS = "\\-\u2010\u2011\u2012\u2013\u2014\u2212"

# Bracketed (or braced) numeric citation groups: [26], [25, 26], [27-28].
NUMERIC_GROUP_PATTERN = (
    rf"[\[{{]\s*(\d{{1,3}}(?:\s*(?:[,;\u00b7]|[{_DASH_CLASS}])\s*\d{{1,3}})*)\s*[\]}}]"
)
_NUMERIC_GROUP_RE = re.compile(NUMERIC_GROUP_PATTERN)

# Unicode superscript digit runs attached to a word, e.g. "X¹".
_SUPERSCRIPT_DIGITS = "\u2070\u00b9\u00b2\u00b3\u2074\u2075\u2076\u2077\u2078\u2079"
SUPERSCRIPT_PATTERN = rf"(?<=\w)([{_SUPERSCRIPT_DIGITS}]+)"
_SUPERSCRIPT_MAP = str.maketrans(_SUPERSCRIPT_DIGITS, "0123456789")

# Surname: capitalized token, at least two letters, internal hyphen or
# apostrophe allowed. Latin-1 and Latin Extended-A uppercase initials accepted.
_SURNAME = r"[A-Z\u00c0-\u00dd\u0100-\u017f](?:[^\W\d_]|['\u2019-])+"
_NAME_SEP = r"\s*(?:,|\\&|&|\band\b)\s*"

AUTHOR_YEAR_PATTERN = (
    rf"(?P<names>{_SURNAME}(?:{_NAME_SEP}{_SURNAME})*)"
    rf"(?:\s*,)?\s*(?:\bet\s+al\.?)?\s*\(\s*(?P<year>\d{{4}})[a-z]?\s*\)"
)
_AUTHOR_YEAR_RE = re.compile(AUTHOR_YEAR_PATTERN)

# "Surname et al. [26]" pairs an author with a numeric label; used by the
# verifier to catch mis-attributed labels.
# Group 2 is the bracket's content, as group 1 of NUMERIC_GROUP_PATTERN.
AUTHOR_BRACKET_PATTERN = rf"(?P<name>{_SURNAME})\s*(?:\bet\s+al\.?)?\s*{NUMERIC_GROUP_PATTERN}"
_AUTHOR_BRACKET_RE = re.compile(AUTHOR_BRACKET_PATTERN)
_SURNAME_RE = re.compile(_SURNAME)

_MARKER_STOPWORDS = {
    "In", "The", "See", "As", "At", "On", "By", "For", "From", "With", "Since",
    "During", "Fig", "Figure", "Table", "Eq", "Equation", "Section", "Ref",
    "Refs", "However", "Although", "After", "Before", "Between", "Using",
    "Following", "These", "This", "That", "Their", "Both", "Each",
}

YEAR_MIN, YEAR_MAX = 1800, 2100

_LABEL_LINE = re.compile(r"^\s*(?:\[(\d{1,3})\]|(\d{1,3})[.\)\]])(?!\d)\s*")
_WS = re.compile(r"\s+")
_YEAR_WORD = re.compile(r"\b(\d{4})\b")
_TITLE_WORD = re.compile(r"[^\W\d_]{3,}")

_TITLE_STOPWORDS = {
    "the", "and", "for", "with", "from", "into", "onto", "over", "under",
    "between", "within", "using", "toward", "towards", "upon", "via",
}


@dataclass(frozen=True)
class CitationMarker:
    """An in-text citation occurrence.

    Numeric markers carry one citation number each (grouped forms such as
    "[25, 26]" and ranges are expanded to one marker per number).
    Author-year markers carry the surnames and the four-digit year.
    ``span`` is the character range of the matched text. ``folded_authors``
    is ``fold_text`` of each surname, derived once when the marker is built;
    it takes no part in equality, hashing, ``repr`` or ``to_dict``.
    """

    kind: str  # "numeric" | "author_year"
    numbers: tuple[int, ...] = ()
    authors: tuple[str, ...] = ()
    year: int | None = None
    span: tuple[int, int] = (0, 0)
    folded_authors: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "numeric":
            if not self.numbers or any(n <= 0 for n in self.numbers):
                raise ValueError("numeric marker requires positive citation numbers")
        elif self.kind == "author_year":
            if not self.authors:
                raise ValueError("author_year marker requires at least one author")
            if self.year is None or not (YEAR_MIN <= self.year <= YEAR_MAX):
                raise ValueError(f"author_year marker year must be in [{YEAR_MIN}, {YEAR_MAX}]")
        else:
            raise ValueError(f"unknown marker kind {self.kind!r}")
        object.__setattr__(self, "folded_authors", tuple(map(fold_text, self.authors)))

    def key(self):
        if self.kind == "numeric":
            return ("numeric", self.numbers)
        return ("author_year", self.folded_authors, self.year)

    def display(self) -> str:
        if self.kind == "numeric":
            return "[" + ", ".join(str(n) for n in self.numbers) + "]"
        names = ", ".join(self.authors[:-1])
        if names:
            names += " & " + self.authors[-1]
        else:
            names = self.authors[0]
        return f"{names} ({self.year})"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "numbers": list(self.numbers),
            "authors": list(self.authors),
            "year": self.year,
            "span": list(self.span),
        }


@dataclass(frozen=True)
class CitationEntry:
    """A resolved bibliography entry of one source document.

    ``full_text`` is the verbatim entry string (whitespace-collapsed) from
    the reference section; ``label`` is the bibliography key when one could
    be recognized ("26", "Varga (2009)"), otherwise empty. ``folded`` is
    ``fold_text(full_text)``, the key author and title matching run on,
    derived once when the entry is built; it takes no part in equality,
    hashing, ``repr`` or ``to_dict``.
    """

    label: str
    full_text: str
    doc_id: str
    folded: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "folded", fold_text(self.full_text))

    def to_dict(self) -> dict:
        return {"label": self.label, "full_text": self.full_text, "doc_id": self.doc_id}


@dataclass(frozen=True)
class AuxIndex:
    """A document's citation material, derived once from its snapshot.

    ``expanded_chunks`` divide the body; ``entries`` is the parsed
    reference section (empty when the document has none). Each expanded
    chunk's markers are extracted and resolved against ``entries`` on its
    first use by :meth:`citations` and kept.
    """

    doc_id: str
    expanded_chunks: tuple[Chunk, ...]
    entries: tuple[CitationEntry, ...] = ()
    _resolved: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def citations(
        self, expanded: Chunk
    ) -> tuple[tuple[CitationEntry, ...], tuple[CitationMarker, ...]]:
        """``resolve_citations`` of the markers in ``expanded``, computed once.

        Concurrent first uses may both compute it; the results are equal.
        """
        if expanded.chunk_id not in self._resolved:
            markers = extract_citation_markers(expanded.text)
            resolved, unresolved = resolve_citations(markers, self.entries)
            self._resolved[expanded.chunk_id] = (tuple(resolved), tuple(unresolved))
        return self._resolved[expanded.chunk_id]


@dataclass
class VerificationReport:
    """Outcome of checking a generated answer against a citation list.

    Every citation found in the answer lands in exactly one of ``verified``
    (with the matched entry) or ``flagged`` (with a reason: not_in_list,
    label_conflict or partial_title_match).
    """

    verified: list[tuple[str, CitationEntry]] = field(default_factory=list)
    flagged: list[tuple[str, str]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.flagged

    def to_dict(self) -> dict:
        return {
            "verified": [
                {"citation": text, "entry": entry.to_dict()} for text, entry in self.verified
            ],
            "flagged": [
                {"citation": text, "reason": reason} for text, reason in self.flagged
            ],
            "pass": self.passed,
        }


def fold_text(text: str) -> str:
    """Casefold, strip diacritics and normalize author separators.

    Makes "Müller \\& García" comparable with "Muller and Garcia".
    """
    text = text.replace("\\&", " and ").replace("&", " and ")
    decomposed = unicodedata.normalize("NFKD", text)
    stripped = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    return collapse_ws(stripped.casefold())


def collapse_ws(text: str) -> str:
    return _WS.sub(" ", text).strip()


def _is_acronym(word: str) -> bool:
    return len(word) >= 3 and word.isupper()


# --- auxiliary index -----------------------------------------------------


def expanded_chunk_count(length: int) -> int:
    """Number of expanded chunks for a document of ``length`` characters."""
    if length >= EXPANDED_MIN_COUNT * EXPANDED_MIN_CHARS:
        return min(EXPANDED_MAX_COUNT, max(EXPANDED_MIN_COUNT, round(length / EXPANDED_TARGET_CHARS)))
    return max(1, math.ceil(length / EXPANDED_MAX_CHARS))


def split_expanded_chunks(doc: Document) -> list[Chunk]:
    """Divide the document body into evenly sized expanded chunks."""
    body = doc.body
    count = expanded_chunk_count(len(body))
    base, rem = divmod(len(body), count)
    chunks = []
    start = 0
    for i in range(count):
        size = base + (1 if i < rem else 0)
        chunks.append(
            Chunk(
                chunk_id=f"{doc.doc_id}:aux{i:02d}",
                doc_id=doc.doc_id,
                text=body[start : start + size],
                start_offset=start,
                end_offset=start + size,
            )
        )
        start += size
    return chunks


def build_auxiliary_index(doc: Document) -> AuxIndex:
    """Cut ``doc``'s expanded chunks and parse its reference section."""
    try:
        entries = extract_reference_section(doc)
    except NoReferenceSection:
        logger.warning(
            "document %s has no reference section; citation list will be empty", doc.doc_id
        )
        entries = []
    return AuxIndex(
        doc_id=doc.doc_id,
        expanded_chunks=tuple(split_expanded_chunks(doc)),
        entries=tuple(entries),
    )


def locate_expanded_chunk(aux: AuxIndex, original: Chunk) -> Chunk:
    """The expanded chunk containing (most of) the original chunk: the one
    with maximal span overlap, ties breaking toward the earlier chunk."""
    if original.doc_id != aux.doc_id:
        raise ValueError(
            f"chunk {original.chunk_id!r} belongs to {original.doc_id!r}, "
            f"index covers {aux.doc_id!r}"
        )
    best = None
    best_overlap = 0
    for chunk in aux.expanded_chunks:
        overlap = min(chunk.end_offset, original.end_offset) - max(
            chunk.start_offset, original.start_offset
        )
        if overlap > best_overlap:
            best, best_overlap = chunk, overlap
    if best is None:
        raise NoContainingChunk(
            f"offsets [{original.start_offset}, {original.end_offset}) of "
            f"{original.chunk_id!r} fall outside document {aux.doc_id!r} "
            "(stale index?)"
        )
    return best


# --- marker extraction ------------------------------------------------------


def _expand_numeric_group(content: str) -> list[int]:
    numbers: list[int] = []
    for part in re.split(r"[,;\u00b7]", content):
        part = part.strip()
        if not part:
            continue
        m = re.fullmatch(rf"(\d{{1,3}})\s*[{_DASH_CLASS}]\s*(\d{{1,3}})", part)
        if m:
            lo, hi = int(m.group(1)), int(m.group(2))
            if lo <= hi and hi - lo <= 100:
                numbers.extend(range(lo, hi + 1))
            continue
        if part.isdigit():
            numbers.append(int(part))
    return numbers


def _split_author_names(names: str) -> list[str]:
    parts = re.split(_NAME_SEP, names)
    out = []
    for part in parts:
        part = part.strip()
        if not part:
            continue
        if _is_acronym(part):
            continue  # not a surname
        out.append(part)
    return out


def extract_citation_markers(text: str) -> list[CitationMarker]:
    """Find citation markers in ``text``.

    Detects bracketed numeric groups (lists and ranges are expanded to one
    marker per number), superscript citation numbers, and author-year forms
    ("Name et al. (YYYY)", "Name & Name (YYYY)", "Name, Name & Name (YYYY)").
    Matching tolerates hyphen variants, middle dots, braces, LaTeX-escaped
    ampersands and diacritics. Duplicates are removed, keeping
    first-occurrence order.
    """
    found: list[CitationMarker] = []
    for m in _NUMERIC_GROUP_RE.finditer(text):
        for n in _expand_numeric_group(m.group(1)):
            found.append(CitationMarker(kind="numeric", numbers=(n,), span=m.span()))
    for m in re.finditer(SUPERSCRIPT_PATTERN, text):
        digits = m.group(1).translate(_SUPERSCRIPT_MAP)
        if digits.isdigit() and 0 < int(digits) <= 999:
            found.append(
                CitationMarker(kind="numeric", numbers=(int(digits),), span=m.span())
            )
    for m in _AUTHOR_YEAR_RE.finditer(text):
        year = int(m.group("year"))
        if not (YEAR_MIN <= year <= YEAR_MAX):
            continue
        authors = _split_author_names(m.group("names"))
        if not authors or authors[0] in _MARKER_STOPWORDS:
            continue
        found.append(
            CitationMarker(kind="author_year", authors=tuple(authors), year=year, span=m.span())
        )

    found.sort(key=lambda mk: (mk.span[0], mk.span[1]))
    seen = set()
    ordered = []
    for mk in found:
        if mk.key() in seen:
            continue
        seen.add(mk.key())
        ordered.append(mk)
    return ordered


# --- reference section parsing ----------------------------------------------


def _derive_author_year_label(text: str) -> str:
    """The "Surname (year)" label of a whitespace-collapsed entry, or ""."""
    m = _SURNAME_RE.match(text)
    year = m and _find_year(text)
    return f"{m.group(0)} ({year[0]})" if year else ""


def _entry(label: str | None, lines: list[str], doc_id: str) -> CitationEntry:
    text = collapse_ws(" ".join(lines))
    return CitationEntry(label=label or _derive_author_year_label(text), full_text=text, doc_id=doc_id)


def _entries_from_lines(lines: list[str], doc_id: str) -> list[CitationEntry]:
    groups: list[tuple[str | None, list[str]]] = []
    in_entry = False
    for line in lines:
        if not line.strip():
            in_entry = False
            continue
        m = _LABEL_LINE.match(line)
        if m or not in_entry:
            groups.append((m and (m.group(1) or m.group(2)), []))
            in_entry = True
        groups[-1][1].append(line)
    return [_entry(label, group, doc_id) for label, group in groups]


def _entries_by_indentation(lines: list[str], doc_id: str) -> list[CitationEntry]:
    groups: list[list[str]] = []
    for line in lines:
        if not line.strip():
            continue
        if not groups or not line[:1].isspace():
            groups.append([])
        groups[-1].append(line)
    return [_entry(None, group, doc_id) for group in groups]


def extract_reference_section(doc: Document) -> list[CitationEntry]:
    """Parse the document's reference section into ordered citation entries.

    Numerically labeled styles ("26.", "[26]", "26)") split on label lines;
    author-year styles split on blank lines, falling back to hanging-indent
    grouping when the section has no blank lines. Entries keep their
    verbatim (whitespace-collapsed) text; damaged fragments without a
    recognizable label are kept as unlabeled entries rather than dropped.
    """
    section = doc.reference_text()
    if section is None:
        raise NoReferenceSection(f"document {doc.doc_id!r} has no reference section")

    lines = section.splitlines()
    if lines:
        lines = lines[1:]  # drop the heading line itself

    has_labels = any(_LABEL_LINE.match(line) for line in lines)
    has_blank = any(not line.strip() for line in lines)
    if has_labels or has_blank:
        return _entries_from_lines(lines, doc.doc_id)
    return _entries_by_indentation(lines, doc.doc_id)


# --- matching ------------------------------------------------------------------

FLAG_NOT_IN_LIST = "not_in_list"
FLAG_LABEL_CONFLICT = "label_conflict"
FLAG_PARTIAL_TITLE = "partial_title_match"


def _title_tokens(title: str) -> set[str]:
    return set(_TITLE_WORD.findall(fold_text(title))) - _TITLE_STOPWORDS


def _title_overlap(tokens: set[str], folded_entry: str) -> float:
    """Fraction of a title's content ``tokens`` found in a folded entry."""
    return len(tokens & set(_TITLE_WORD.findall(folded_entry))) / len(tokens) if tokens else 0.0


def _best_by_title(title: str, entries) -> tuple[float, CitationEntry | None]:
    """The highest title overlap among ``entries`` and the first entry reaching it."""
    tokens = _title_tokens(title)
    scored = ((_title_overlap(tokens, e.folded), e) for e in entries)
    return max(scored, key=lambda pair: pair[0], default=(0.0, None))


def _name_pattern(folded_name: str) -> re.Pattern:
    return re.compile(rf"\b{re.escape(folded_name)}\b")


def _naming(entries: Sequence[CitationEntry], patterns, year: int) -> list[CitationEntry]:
    """The entries, in list order, whose folded text matches every one of
    ``patterns`` (``_name_pattern`` of folded surnames) and contains ``year``."""
    year_text = str(year)
    return [
        e for e in entries
        if year_text in e.full_text and all(p.search(e.folded) for p in patterns)
    ]


def _by_label(entries: Sequence[CitationEntry]) -> dict[str, list[CitationEntry]]:
    """Each label's entries in list order; ``[n]`` means the first of them."""
    labelled: dict[str, list[CitationEntry]] = {}
    for entry in entries:
        if entry.label:
            labelled.setdefault(entry.label, []).append(entry)
    return labelled


def _match(
    entries: Sequence[CitationEntry], labelled, label=None, patterns=(), year=None, title=None
) -> tuple[CitationEntry | None, str | None]:
    """``(entry, None)`` for the entry a citation names, else ``(None, flag)``.

    Names and a year pick the first entry naming them all and the year, or
    with a title the best title overlap among those (at least 0.6, else
    partial_title_match); a label must then agree with a numeric one (else
    label_conflict). Otherwise a label names the first entry in
    ``labelled`` (``_by_label(entries)``) with it, and a title the entry of
    best overlap, at least 0.6. What matches nothing is not_in_list.
    """
    if patterns and year:
        candidates = _naming(entries, patterns, year)
        if not candidates:
            return None, FLAG_NOT_IN_LIST
        best = candidates[0]
        if title:
            overlap, best = _best_by_title(title, candidates)
            if overlap < 0.6:
                return None, FLAG_PARTIAL_TITLE
        if label and best.label.isdigit() and label != best.label:
            return None, FLAG_LABEL_CONFLICT
        return best, None
    if label:
        best = labelled.get(label, [None])[0]
    else:
        overlap, best = _best_by_title(title or "", entries)
        best = best if overlap >= 0.6 else None
    return (best, None) if best is not None else (None, FLAG_NOT_IN_LIST)


# --- resolution ----------------------------------------------------------------


def resolve_citations(
    markers: list[CitationMarker], entries: Sequence[CitationEntry]
) -> tuple[list[CitationEntry], list[CitationMarker]]:
    """Match markers against reference entries through ``_match``.

    A numeric marker matches the first entry labelled with each of its
    numbers. An author-year marker matches the first entry whose text
    contains all surnames (case-insensitive, diacritics folded, word-bounded)
    and the year. Markers with a number or name set that matches nothing are
    returned in ``unresolved``; entries are never invented.
    """
    labelled = _by_label(entries)

    citation_list: list[CitationEntry] = []
    seen: set[tuple[str, str]] = set()
    unresolved: list[CitationMarker] = []

    for marker in markers:
        if marker.kind == "numeric":
            found = [_match(entries, labelled, label=str(n))[0] for n in marker.numbers]
        else:
            patterns = [_name_pattern(a) for a in marker.folded_authors]
            found = [_match(entries, labelled, patterns=patterns, year=marker.year)[0]]
        for entry in found:
            if entry is not None and (entry.label, entry.full_text) not in seen:
                seen.add((entry.label, entry.full_text))
                citation_list.append(entry)
        if any(entry is None for entry in found):
            unresolved.append(marker)

    return citation_list, unresolved


# --- answer verification -----------------------------------------------------

_ANSWER_BIB_HEADING = re.compile(
    r"^\s*(references|bibliography|citation list|sources)\s*:?\s*$", re.IGNORECASE
)


def _find_year(text: str) -> tuple[int, int] | None:
    """First plausible publication year in ``text`` and its position."""
    for m in _YEAR_WORD.finditer(text):
        year = int(m.group(1))
        if YEAR_MIN <= year <= YEAR_MAX:
            return year, m.start()
    return None


_QUOTED_TITLE = re.compile(r"[\"\u201c\u2018']([^\"\u201d\u2019']{8,240})[\"\u201d\u2019']")
# "[12] " is a label; "12. " and "12) " prefixes in generated answers are list positions
_BIB_PREFIX = re.compile(r"^(?:\[(\d{1,3})\]\s*|\d{1,3}[.\)]\s+)")
_SENTENCE_END = re.compile(r"(?<=[^A-Z])\.(?:\s|$)")


def _parse_bib_line(line: str) -> dict:
    """Pull label, authors, year and title out of one answer bibliography line."""
    info: dict = {"label": None, "authors": [], "year": None, "title": None}
    rest = line.strip()

    m = _BIB_PREFIX.match(rest)
    if m:
        info["label"] = m.group(1)
        rest = rest[m.end():]

    tm = _QUOTED_TITLE.search(rest)
    searchable = rest
    if tm:
        info["title"] = tm.group(1).strip()
        searchable = rest[: tm.start()] + " " + rest[tm.end():]

    year_hit = _find_year(searchable)
    if year_hit:
        info["year"], year_pos = year_hit
        names = _SURNAME_RE.findall(searchable[:year_pos])
        info["authors"] = [t for t in names if t not in _MARKER_STOPWORDS and not _is_acronym(t)]
        if info["title"] is None:
            after = searchable[year_pos + 4 :].lstrip(")]. :-\u2013\u2014")
            sentence = _SENTENCE_END.split(after, maxsplit=1)[0].strip()
            if len(sentence) >= 8:
                info["title"] = sentence
    if info["title"] is not None and len(_TITLE_WORD.findall(info["title"])) < 2:
        info["title"] = None  # volume/page tails are not titles
    return info


def verify_answer_citations(
    answer_text: str, citation_list: list[CitationEntry]
) -> VerificationReport:
    """Check each citation in a generated answer against ``citation_list``.

    "Name et al. [n]" attributions are checked first: one where no entry
    labelled n names Name is flagged label_conflict. Then in-text markers
    and the trailing bibliography lines each go through ``_match``, the
    matcher resolution uses: by label (the first listed entry with it), by
    authors plus year plus (when a title is present) a title-token overlap
    of at least 0.6, or by title alone. Citations that match nothing are
    flagged not_in_list, bibliography lines whose label disagrees with the
    matched entry label_conflict, and author-year matches whose title
    diverges partial_title_match. Each author name of the answer is folded
    and compiled at most once per call.
    """
    report = VerificationReport()
    if not answer_text.strip():
        return report

    labelled = _by_label(citation_list)

    lines = answer_text.splitlines()  # the last heading opens the bibliography
    headings = [i for i, line in enumerate(lines) if _ANSWER_BIB_HEADING.match(line)]
    bib_start = headings[-1] if headings else len(lines)
    body, bib_lines = "\n".join(lines[:bib_start]), lines[bib_start + 1 :]

    seen_keys: set = set()
    names: dict[str, re.Pattern] = {}  # each author name of the answer, compiled once

    def named(name: str, folded: str | None = None) -> re.Pattern:
        if name not in names:
            names[name] = _name_pattern(folded or fold_text(name))
        return names[name]

    def record(key, citation_text, entry, reason):
        if key not in seen_keys:
            seen_keys.add(key)
            if entry is not None:
                report.verified.append((citation_text, entry))
            else:
                report.flagged.append((citation_text, reason))

    # Author-name-plus-bracket attributions ("Name et al. [26]") are checked
    # first: a number none of whose entries names that author is a conflict,
    # which plain numeric matching would miss.
    conflicted_numbers: set[int] = set()
    for m in _AUTHOR_BRACKET_RE.finditer(body):
        name = m.group("name")
        if name in _MARKER_STOPWORDS or _is_acronym(name):
            continue
        pattern = named(name)
        for n in _expand_numeric_group(m.group(2)):
            same = labelled.get(str(n))
            if same is None:
                continue  # plain numeric handling flags it as not_in_list
            if not any(pattern.search(e.folded) for e in same):
                key = ("conflict", n, pattern.pattern)
                record(key, collapse_ws(m.group(0)), None, FLAG_LABEL_CONFLICT)
                conflicted_numbers.add(n)

    for marker in extract_citation_markers(body):
        if marker.kind == "numeric":
            if marker.numbers[0] in conflicted_numbers:
                continue
            entry, flag = _match(citation_list, labelled, label=str(marker.numbers[0]))
        else:
            patterns = [named(a, f) for a, f in zip(marker.authors, marker.folded_authors)]
            entry, flag = _match(citation_list, labelled, patterns=patterns, year=marker.year)
        record(marker.key(), marker.display(), entry, flag)

    for raw_line in bib_lines:
        line = collapse_ws(raw_line)
        info = _parse_bib_line(raw_line)
        if not (info["authors"] or info["label"] or info["title"]):
            continue  # lines with no recognizable citation structure are prose, not citations
        patterns = [named(a) for a in info["authors"]]
        entry, flag = _match(
            citation_list, labelled, info["label"], patterns, info["year"], info["title"]
        )
        record(("bib", line), line, entry, flag)

    return report
