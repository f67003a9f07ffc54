"""Citation grounding: auxiliary expanded-chunk indexes, in-text citation
marker extraction, reference-section parsing, and answer verification.

The guard works per source document. A retrieved chunk is mapped back into
an expanded chunk (3500 to 4000 characters) of its document so that citation
markers near the chunk keep their surrounding context. Markers are resolved
against the document's own reference section, never guessed, and generated
answers are checked against that resolved list so fabricated references can
be flagged instead of silently passed through.

Resolution and verification share one matcher. Each entry's folded text is
derived once, when the entry is built; a label names the first listed entry
that carries it; an author-year citation matches the entries naming all of
its authors and its year.
"""

from __future__ import annotations

import functools
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
AUTHOR_BRACKET_PATTERN = (
    rf"(?P<name>{_SURNAME})\s*(?:\bet\s+al\.?)?\s*(?P<group>{NUMERIC_GROUP_PATTERN})"
)

_MARKER_STOPWORDS = {
    "In", "The", "See", "As", "At", "On", "By", "For", "From", "With", "Since",
    "During", "Fig", "Figure", "Table", "Eq", "Equation", "Section", "Ref",
    "Refs", "However", "Although", "After", "Before", "Between", "Using",
    "Following", "These", "This", "That", "Their", "Both", "Each",
}

YEAR_MIN, YEAR_MAX = 1800, 2100

_LABEL_LINE = re.compile(r"^\s*(?:\[(\d{1,3})\]|(\d{1,3})[.\)\]])(?!\d)\s*")

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
    return re.sub(r"\s+", " ", stripped.casefold()).strip()


def collapse_ws(text: str) -> str:
    return re.sub(r"\s+", " ", text).strip()


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
    if not doc.body:
        raise ValueError("document body is empty")
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


def locate_expanded_chunk(aux: AuxIndex, original) -> Chunk:
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
        if len(part) >= 3 and part.isupper():
            continue  # acronym, not a surname
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
    m = re.match(rf"\s*({_SURNAME})", text)
    if not m:
        return ""
    year = re.search(r"\b(1[89]\d{2}|20\d{2}|2100)\b", text)
    if not year:
        return ""
    return f"{m.group(1)} ({year.group(1)})"


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


# --- resolution ----------------------------------------------------------------


def _name_pattern(folded_name: str) -> re.Pattern:
    return re.compile(rf"\b{re.escape(folded_name)}\b")


def _naming(entries: Sequence[CitationEntry], folded_authors, year: int) -> list[CitationEntry]:
    """The entries, in list order, whose folded text names every one of
    ``folded_authors`` (already folded, word-bounded) and contains ``year``."""
    year_text = str(year)
    patterns = [_name_pattern(a) for a in folded_authors]
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


def resolve_citations(
    markers: list[CitationMarker], entries: Sequence[CitationEntry]
) -> tuple[list[CitationEntry], list[CitationMarker]]:
    """Match markers against reference entries.

    A numeric marker matches the first entry labelled with its number. An
    author-year marker matches the first entry whose text contains all
    surnames (case-insensitive, diacritics folded, word-bounded) and the year.
    Markers that match nothing are returned in ``unresolved``; entries are
    never invented.
    """
    labelled = _by_label(entries)

    citation_list: list[CitationEntry] = []
    seen: set[tuple[str, str]] = set()
    unresolved: list[CitationMarker] = []

    def add(entry: CitationEntry):
        key = (entry.label, entry.full_text)
        if key not in seen:
            seen.add(key)
            citation_list.append(entry)

    for marker in markers:
        if marker.kind == "numeric":
            missing = False
            for n in marker.numbers:
                if str(n) in labelled:
                    add(labelled[str(n)][0])
                else:
                    missing = True
            if missing:
                unresolved.append(marker)
        else:
            candidates = _naming(entries, marker.folded_authors, marker.year)
            if candidates:
                add(candidates[0])
            else:
                unresolved.append(marker)

    return citation_list, unresolved


# --- answer verification -----------------------------------------------------

_ANSWER_BIB_HEADING = re.compile(
    r"^\s*(references|bibliography|citation list|sources)\s*:?\s*$", re.IGNORECASE
)

FLAG_NOT_IN_LIST = "not_in_list"
FLAG_LABEL_CONFLICT = "label_conflict"
FLAG_PARTIAL_TITLE = "partial_title_match"


_TITLE_WORD = re.compile(r"[^\W\d_]{3,}")


def _title_tokens(title: str) -> set[str]:
    return set(_TITLE_WORD.findall(fold_text(title))) - _TITLE_STOPWORDS


def _title_overlap(tokens: set[str], folded_entry: str) -> float:
    """Fraction of a title's content ``tokens`` found in a folded entry."""
    return len(tokens & set(_TITLE_WORD.findall(folded_entry))) / len(tokens) if tokens else 0.0


def _best_by_title(tokens: set[str], entries) -> tuple[float, CitationEntry | None]:
    """The highest title overlap among ``entries`` and the first entry reaching it."""
    scored = ((_title_overlap(tokens, e.folded), e) for e in entries)
    return max(scored, key=lambda pair: pair[0], default=(0.0, None))


def title_token_overlap(title: str, entry_text: str) -> float:
    """Fraction of the title's content tokens that appear in the entry."""
    return _title_overlap(_title_tokens(title), fold_text(entry_text))


def _find_year(text: str) -> tuple[int, int] | None:
    """First plausible publication year in ``text`` and its position."""
    for m in re.finditer(r"\b(\d{4})\b", text):
        year = int(m.group(1))
        if YEAR_MIN <= year <= YEAR_MAX:
            return year, m.start()
    return None


_QUOTED_TITLE = re.compile(r"[\"\u201c\u2018']([^\"\u201d\u2019']{8,240})[\"\u201d\u2019']")


def _parse_bib_line(line: str) -> dict:
    """Pull label, authors, year and title out of one answer bibliography line."""
    info: dict = {"label": None, "authors": [], "year": None, "title": None}
    rest = line.strip()

    m = re.match(r"^\[(\d{1,3})\]\s*", rest)
    if m:
        info["label"] = m.group(1)
        rest = rest[m.end():]
    else:
        # "12. " prefixes in generated answers are list positions, not labels
        m = re.match(r"^\d{1,3}[.\)]\s+", rest)
        if m:
            rest = rest[m.end():]

    tm = _QUOTED_TITLE.search(rest)
    if tm:
        info["title"] = tm.group(1).strip()
        searchable = rest[: tm.start()] + " " + rest[tm.end():]
    else:
        searchable = rest

    year_hit = _find_year(searchable)
    if year_hit:
        info["year"], year_pos = year_hit
        before = searchable[:year_pos]
        names = [
            t
            for t in re.findall(_SURNAME, before)
            if t not in _MARKER_STOPWORDS and not (len(t) >= 3 and t.isupper())
        ]
        info["authors"] = names
        if info["title"] is None:
            after = searchable[year_pos + 4 :]
            after = after.lstrip(")]. :-\u2013\u2014")
            sentence = re.split(r"(?<=[^A-Z])\.(?:\s|$)", after, maxsplit=1)[0].strip()
            if len(sentence) >= 8:
                info["title"] = sentence
    if info["title"] is not None and len(re.findall(r"[^\W\d_]{3,}", info["title"])) < 2:
        info["title"] = None  # volume/page tails are not titles
    return info


def verify_answer_citations(
    answer_text: str, citation_list: list[CitationEntry]
) -> VerificationReport:
    """Check each citation in a generated answer against ``citation_list``.

    In-text markers and trailing bibliography lines are extracted; each one
    is matched by label (the first listed entry with it), or by authors plus
    year plus (when a title is present) a title-token overlap of at least
    0.6. Citations that match nothing are flagged not_in_list, "Name et al.
    [n]" attributions where no entry labelled n names Name and bibliography
    lines whose label disagrees with the matched entry are flagged
    label_conflict, and author-year matches whose title diverges are flagged
    partial_title_match.
    """
    report = VerificationReport()
    if not answer_text.strip():
        return report

    labelled = _by_label(citation_list)

    lines = answer_text.splitlines()
    bib_start = None
    for i, line in enumerate(lines):
        if _ANSWER_BIB_HEADING.match(line):
            bib_start = i
    body = "\n".join(lines[: bib_start if bib_start is not None else len(lines)])
    bib_lines = lines[bib_start + 1 :] if bib_start is not None else []

    seen_keys: set = set()
    fold_name = functools.cache(fold_text)  # each author name of the answer, folded once

    def record(key, citation_text, entry=None, reason=None):
        if key in seen_keys:
            return
        seen_keys.add(key)
        if entry is not None:
            report.verified.append((citation_text, entry))
        else:
            report.flagged.append((citation_text, reason))

    # Author-name-plus-bracket attributions ("Name et al. [26]") are checked
    # first: a number none of whose entries names that author is a conflict,
    # which plain numeric matching would miss.
    conflicted_numbers: set[int] = set()
    for m in re.finditer(AUTHOR_BRACKET_PATTERN, body):
        name = m.group("name")
        if name in _MARKER_STOPWORDS or (len(name) >= 3 and name.isupper()):
            continue
        folded = fold_name(name)
        pattern = _name_pattern(folded)
        for n in _expand_numeric_group(re.match(NUMERIC_GROUP_PATTERN, m.group("group")).group(1)):
            same = labelled.get(str(n))
            if same is None:
                continue  # plain numeric handling flags it as not_in_list
            if not any(pattern.search(e.folded) for e in same):
                citation = collapse_ws(m.group(0))
                record(("conflict", n, folded), citation, reason=FLAG_LABEL_CONFLICT)
                conflicted_numbers.add(n)

    for marker in extract_citation_markers(body):
        if marker.kind == "numeric":
            n = marker.numbers[0]
            if n in conflicted_numbers:
                continue
            entry = labelled.get(str(n), [None])[0]
            record(("numeric", n), marker.display(), entry=entry, reason=FLAG_NOT_IN_LIST)
        else:
            candidates = _naming(citation_list, marker.folded_authors, marker.year)
            entry = candidates[0] if candidates else None
            record(marker.key(), marker.display(), entry=entry, reason=FLAG_NOT_IN_LIST)

    for raw_line in bib_lines:
        line = collapse_ws(raw_line)
        if not line:
            continue
        key = ("bib", line)
        info = _parse_bib_line(raw_line)
        title_tokens = _title_tokens(info["title"] or "")
        if info["authors"] and info["year"]:
            folded_authors = [fold_name(a) for a in info["authors"]]
            candidates = _naming(citation_list, folded_authors, info["year"])
            if not candidates:
                record(key, line, reason=FLAG_NOT_IN_LIST)
                continue
            best = candidates[0]
            if info["title"]:
                overlap, best = _best_by_title(title_tokens, candidates)
                if overlap < 0.6:
                    record(key, line, reason=FLAG_PARTIAL_TITLE)
                    continue
            if info["label"] and best.label and best.label.isdigit() and info["label"] != best.label:
                record(key, line, reason=FLAG_LABEL_CONFLICT)
                continue
            record(key, line, entry=best)
        elif info["label"]:
            record(key, line, entry=labelled.get(info["label"], [None])[0], reason=FLAG_NOT_IN_LIST)
        elif info["title"]:
            overlap, best = _best_by_title(title_tokens, citation_list)
            record(key, line, entry=best if overlap >= 0.6 else None, reason=FLAG_NOT_IN_LIST)
        # lines with no recognizable citation structure are prose, not citations

    return report
