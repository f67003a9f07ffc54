import json
import random
import re
import sys
import unicodedata
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from litrag import citations
from litrag.citations import (
    AuxIndex,
    CitationEntry,
    CitationMarker,
    build_auxiliary_index,
    collapse_ws,
    expanded_chunk_count,
    extract_citation_markers,
    extract_reference_section,
    fold_text,
    locate_expanded_chunk,
    resolve_citations,
    split_expanded_chunks,
    verify_answer_citations,
)
from litrag.embedding import EmbeddingVector
from litrag.errors import NoContainingChunk, NoReferenceSection
from litrag.ingest import Document, load_document
from litrag.store import ChunkRecord
from litrag.testing import make_corpus

FIXTURES = Path(__file__).parent / "fixtures"


def _doc(body: str, doc_id: str = "doc") -> Document:
    return Document(doc_id=doc_id, body=body, source_path=f"{doc_id}.txt")


def _chunk_record(doc_id, start, end, chunk_id="orig"):
    return ChunkRecord(
        chunk_id=chunk_id,
        doc_id=doc_id,
        text="x" * (end - start),
        start_offset=start,
        end_offset=end,
        embedding=EmbeddingVector((1.0, 0.0)),
        metadata={"source": f"{doc_id}.txt"},
    )


# --- expanded chunks --------------------------------------------------------------


def test_expanded_chunk_counts():
    assert expanded_chunk_count(38_000) == 10
    assert expanded_chunk_count(41_000) == 11
    assert expanded_chunk_count(2_000) == 1
    assert expanded_chunk_count(35_000) == 10
    assert expanded_chunk_count(30_000) == 8


def test_expanded_chunks_38k_document():
    doc = _doc("a" * 38_000)
    chunks = split_expanded_chunks(doc)
    assert len(chunks) == 10
    assert all(len(c.text) == 3800 for c in chunks)
    assert all(c.text == doc.body[c.start_offset : c.end_offset] for c in chunks)


def test_expanded_chunks_41k_document():
    doc = _doc("b" * 41_000)
    chunks = split_expanded_chunks(doc)
    assert len(chunks) == 11
    assert all(3500 <= len(c.text) <= 4000 for c in chunks)
    assert sum(len(c.text) for c in chunks) == 41_000


def test_small_document_is_single_expanded_chunk():
    doc = _doc("c" * 2_000)
    chunks = split_expanded_chunks(doc)
    assert len(chunks) == 1
    assert chunks[0].text == doc.body


# --- locate_expanded_chunk --------------------------------------------------------


def _aux_with_width(doc_id, n, width):
    chunks = tuple(
        _chunk_to_aux(doc_id, i, i * width, (i + 1) * width) for i in range(n)
    )
    return AuxIndex(doc_id=doc_id, expanded_chunks=chunks)


def _chunk_to_aux(doc_id, i, start, end):
    from litrag.ingest import Chunk

    return Chunk(
        chunk_id=f"{doc_id}:aux{i:02d}",
        doc_id=doc_id,
        text="t" * (end - start),
        start_offset=start,
        end_offset=end,
    )


def test_locate_by_offsets_picks_dominant_overlap():
    aux = _aux_with_width("d", 10, 3800)
    original = _chunk_record("d", 4000, 4700)
    assert locate_expanded_chunk(aux, original).chunk_id == "d:aux01"


def test_locate_straddling_prefers_larger_then_earlier():
    aux = _aux_with_width("d", 3, 1000)
    # 600 chars in chunk 0, 400 in chunk 1
    assert locate_expanded_chunk(aux, _chunk_record("d", 400, 1400)).chunk_id == "d:aux00"
    # exactly 500/500: tie breaks toward the earlier chunk
    assert locate_expanded_chunk(aux, _chunk_record("d", 500, 1500)).chunk_id == "d:aux00"


def test_locate_offsets_beyond_document():
    aux = _aux_with_width("d", 3, 1000)
    with pytest.raises(NoContainingChunk):
        locate_expanded_chunk(aux, _chunk_record("d", 5000, 5500))


def test_locate_wrong_document_rejected():
    aux = _aux_with_width("d", 3, 1000)
    with pytest.raises(ValueError):
        locate_expanded_chunk(aux, _chunk_record("other", 0, 10))


# --- marker extraction ----------------------------------------------------------


def test_author_year_marker_with_latex_ampersand():
    text = "Li, Kailasanath \\& Oran (1994) later simulated the oblique detonation"
    markers = extract_citation_markers(text)
    assert len(markers) == 1
    m = markers[0]
    assert m.kind == "author_year"
    assert m.authors == ("Li", "Kailasanath", "Oran")
    assert m.year == 1994


def test_bracketed_group_expands_to_single_number_markers():
    markers = extract_citation_markers("Gamezo et al. [25, 26] studied this.")
    assert [(m.kind, m.numbers) for m in markers] == [("numeric", (25,)), ("numeric", (26,))]


def test_range_expansion():
    markers = extract_citation_markers("See [25–27] for details.")
    assert [m.numbers[0] for m in markers] == [25, 26, 27]
    markers = extract_citation_markers("also [3-5]")
    assert [m.numbers[0] for m in markers] == [3, 4, 5]


def test_no_citation_syntax_yields_empty_list():
    assert extract_citation_markers("Plain text about flows and waves.") == []


def test_braces_and_middle_dot_tolerated():
    markers = extract_citation_markers("as shown in {41} and [7·9]")
    numbers = sorted(m.numbers[0] for m in markers)
    assert numbers == [7, 9, 41]


def test_superscript_citation_numbers():
    markers = extract_citation_markers("as reported by Varga¹ and Okafor²⁵")
    assert [m.numbers[0] for m in markers] == [1, 25]


def test_author_year_forms():
    text = (
        "Varga et al. (2001) agreed. Okafor & Silva (1999) did not. "
        "Moreau, Takeda & Petrov (2010) extended both. Novak and Iyer (2015) summarized."
    )
    markers = extract_citation_markers(text)
    assert [(m.authors, m.year) for m in markers] == [
        (("Varga",), 2001),
        (("Okafor", "Silva"), 1999),
        (("Moreau", "Takeda", "Petrov"), 2010),
        (("Novak", "Iyer"), 2015),
    ]


def test_years_outside_plausible_range_ignored():
    assert extract_citation_markers("Varga et al. (3021) time travel") == []
    assert extract_citation_markers("Varga (1342) medieval") == []


def test_four_digit_numbers_not_numeric_markers():
    # bracketed years are not citation numbers
    assert extract_citation_markers("in [1994] nothing") == []


def test_leading_stopword_not_an_author():
    markers = extract_citation_markers("In (2019) there was no author.")
    assert markers == []


def test_dedup_preserves_first_occurrence_order():
    text = "First [7], then [9], then [7] again, then Varga (2001), then Varga (2001)."
    markers = extract_citation_markers(text)
    keys = [m.key() for m in markers]
    assert len(keys) == len(set(keys))
    assert [m.numbers or m.authors for m in markers] == [(7,), (9,), ("Varga",)]


def test_extraction_idempotent_and_order_stable():
    text = "See [4] and Varga & Okafor (2011), also [9–10]."
    first = extract_citation_markers(text)
    second = extract_citation_markers(text)
    assert [m.key() for m in first] == [m.key() for m in second]


def test_concatenation_yields_union():
    t1 = "Alpha work [4] and Varga et al. (2001)."
    t2 = "Beta work [9] and Okafor & Silva (1999)."
    separate = {m.key() for m in extract_citation_markers(t1)} | {
        m.key() for m in extract_citation_markers(t2)
    }
    combined = {m.key() for m in extract_citation_markers(t1 + "\n\n" + t2)}
    assert combined == separate


def test_marker_invariants_enforced():
    with pytest.raises(ValueError):
        CitationMarker(kind="numeric", numbers=())
    with pytest.raises(ValueError):
        CitationMarker(kind="author_year", authors=("Varga",), year=1500)
    with pytest.raises(ValueError):
        CitationMarker(kind="author_year", authors=(), year=2000)


# --- reference section extraction ---------------------------------------------------


def test_numeric_labels_split_entries():
    body = (
        "Body text.\n\nReferences\n"
        "25. Gamezo, V.N.; Khokhlov, A.M. The influence of shock bifurcations. Combust. Flame 2001, 126, 1810-1826.\n"
        "26. Gamezo, V.N.; Oran, E.S. Flame acceleration in channels. Proc. Combust. Inst. 2001, 28, 645-651.\n"
    )
    entries = extract_reference_section(_doc(body))
    assert [e.label for e in entries] == ["25", "26"]
    assert entries[0].full_text.startswith("25. Gamezo")


def test_document_without_reference_section():
    with pytest.raises(NoReferenceSection):
        extract_reference_section(_doc("No bibliography here at all."))


def test_multiline_entries_accumulate_until_next_label():
    body = (
        "Text.\n\nReferences\n"
        "7. Varga, T. A very long title that\n"
        "   wraps onto the following line. Journal 1999, 1, 1-10.\n"
        "8. Okafor, C. Short one. Journal 2000, 2, 11-20.\n"
    )
    entries = extract_reference_section(_doc(body))
    assert [e.label for e in entries] == ["7", "8"]
    assert "wraps onto the following line" in entries[0].full_text


def test_author_year_entries_split_on_blank_lines():
    body = (
        "Text.\n\nReferences\n\n"
        "Maeda, S., J. Kasahara, and A. Matsuo. 2012. Wave stability around a projectile. "
        "Combust. Flame 159 (2):887-96.\n\n"
        "Miao, S., J. Zhou, and S. Liu. 2018. Formation mechanisms of transition patterns. "
        "Acta Astronaut 142:121-29.\n"
    )
    entries = extract_reference_section(_doc(body))
    assert len(entries) == 2
    assert entries[0].label == "Maeda (2012)"
    assert entries[1].label == "Miao (2018)"


def test_hanging_indent_style():
    body = (
        "Text.\n\nReferences\n"
        "Silva, L., and B. Deshaies. 2000. Stabilization by a wedge: a parametric study.\n"
        "    Combust. Flame 121:152-66.\n"
        "Spalart, P., and S. Allmaras. 1992. A one-equation turbulence model.\n"
        "    AIAA Paper 92-04.\n"
    )
    entries = extract_reference_section(_doc(body))
    assert len(entries) == 2
    assert entries[0].label == "Silva (2000)"
    assert "Combust. Flame 121:152-66" in entries[0].full_text


def test_bracket_label_style():
    body = (
        "Text.\n\nReferences\n"
        "[14] Teng, H.; Ng, H.D.; Jiang, Z. Initiation characteristics of wedge-induced waves. 2017.\n"
        "[15] Teng, H.H.; Jiang, Z.L. On the transition pattern. 2016.\n"
    )
    entries = extract_reference_section(_doc(body))
    assert [e.label for e in entries] == ["14", "15"]


def _entries_by_the_two_parsers(lines: list[str], doc_id: str) -> list[CitationEntry]:
    """The reference-entry parsing that one loop replaced: label lines and
    blank lines split entries, and a section with neither falls back to
    hanging-indent grouping."""

    def from_lines():
        groups, in_entry = [], False
        for line in lines:
            if not line.strip():
                in_entry = False
                continue
            m = citations._LABEL_LINE.match(line)
            if m or not in_entry:
                groups.append((m and (m.group(1) or m.group(2)), []))
                in_entry = True
            groups[-1][1].append(line)
        return [citations._entry(label, group, doc_id) for label, group in groups]

    def by_indentation():
        groups = []
        for line in lines:
            if not line.strip():
                continue
            if not groups or not line[:1].isspace():
                groups.append([])
            groups[-1].append(line)
        return [citations._entry(None, group, doc_id) for group in groups]

    has_labels = any(citations._LABEL_LINE.match(line) for line in lines)
    has_blank = any(not line.strip() for line in lines)
    return from_lines() if has_labels or has_blank else by_indentation()


_REFERENCE_LINES = [
    "", "   ", "\t", "\u3000",
    "1. Varga, T. 1999. A title.", "[2] Okafor, C. 2000.", "3) Silva, L. 2001.", "  4] Teng, H. 2017.",
    "12.5 not a label", "1234. not a label either",
    "Silva, L., and B. Deshaies. 2000. Stabilization.", "Spalart, P. 1992. A model.", "Journal 1:2",
    "    Combust. Flame 121:152-66.", "\tAIAA Paper 92-04.", "\u3000Acta 142:121.", " wraps on.",
]


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(_REFERENCE_LINES), max_size=12))
def test_one_entry_parser_equals_the_two_it_replaced(lines):
    got = [(e.label, e.full_text) for e in citations._entries(lines, "doc")]
    assert got == [(e.label, e.full_text) for e in _entries_by_the_two_parsers(lines, "doc")]
    body = "Text.\n\nReferences\n" + "\n".join(lines)
    parsed = [(e.label, e.full_text) for e in extract_reference_section(_doc(body))]
    section = body.splitlines()[3:]
    assert parsed == [(e.label, e.full_text) for e in _entries_by_the_two_parsers(section, "doc")]


def test_appendix_fixture_yields_expected_labels():
    doc = load_document(FIXTURES / "reference_section_qa.txt")
    entries = extract_reference_section(doc)
    labels = {e.label for e in entries if e.label}
    assert {"32", "51", "52", "57", "58"} <= labels
    by_label = {e.label: e for e in entries if e.label}
    assert "Betelin" in by_label["32"].full_text
    assert "Tang" in by_label["58"].full_text and "Radulescu" in by_label["58"].full_text
    assert "Dounia" in by_label["52"].full_text
    # damaged fragments are kept, not silently dropped
    assert any("Iwata" in e.full_text for e in entries)


def test_soundness_on_fixture():
    doc = load_document(FIXTURES / "reference_section_qa.txt")
    section = collapse_ws(doc.reference_text())
    for entry in extract_reference_section(doc):
        assert entry.full_text in section


# --- resolve_citations -----------------------------------------------------------------


def _sixty_entry_fixture():
    entries = []
    rng = random.Random(8)
    surnames = ["Aston", "Bren", "Calder", "Dimas", "Erwin", "Foss", "Grieg", "Hale"]
    for i in range(1, 61):
        if i == 25:
            text = "25. Gamezo, V.N.; Khokhlov, A.M.; Oran, E.S. The influence of shock bifurcations on DDT. Combust. Flame 2001, 126, 1810-1826."
        elif i == 26:
            text = "26. Gamezo, V.N.; Khokhlov, A.M.; Oran, E.S. Shock-flame interactions in channels. Proc. Combust. Inst. 2001, 28, 645-651."
        elif i == 33:
            text = "33. Li, C.; Kailasanath, K.; Oran, E.S. Detonation structures behind oblique shocks. Phys. Fluids 1994, 6, 1600-1611."
        else:
            name = rng.choice(surnames)
            text = f"{i}. {name}, A.B. Study number {i} of layered media. Journal of Tests {1960 + i}, {i}, 1-9."
        entries.append(CitationEntry(label=str(i), full_text=text, doc_id="d"))
    return entries


def test_resolution_by_label_and_author_year():
    entries = _sixty_entry_fixture()
    markers = [
        CitationMarker(kind="numeric", numbers=(25,)),
        CitationMarker(kind="numeric", numbers=(26,)),
        CitationMarker(kind="author_year", authors=("Li", "Kailasanath", "Oran"), year=1994),
    ]
    resolved, unresolved = resolve_citations(markers, entries)
    assert unresolved == []
    assert [e.label for e in resolved] == ["25", "26", "33"]


def test_unmatched_markers_are_unresolved_never_guessed():
    entries = _sixty_entry_fixture()
    markers = [
        CitationMarker(kind="author_year", authors=("Spalart",), year=1992),
        CitationMarker(kind="numeric", numbers=(999,)),
    ]
    resolved, unresolved = resolve_citations(markers, entries)
    assert resolved == []
    assert len(unresolved) == 2


def test_resolution_folds_diacritics_and_ampersands():
    entries = [
        CitationEntry(
            label="3",
            full_text="3. Müller, K. \\& García, L. Dispersion in stratified flows. J. Waves 2005, 9, 1-12.",
            doc_id="d",
        )
    ]
    marker = CitationMarker(kind="author_year", authors=("Muller", "Garcia"), year=2005)
    resolved, unresolved = resolve_citations([marker], entries)
    assert [e.label for e in resolved] == ["3"]
    assert unresolved == []


def test_resolution_ignores_a_soft_hyphen_in_an_entry():
    # PDF-extracted entries carry soft hyphens (U+00AD) where a line broke a word
    entry = CitationEntry(label="", full_text="Mül\u00adler, K. (2001). Shock trains.", doc_id="d")
    resolved, unresolved = resolve_citations(
        extract_citation_markers("as Müller (2001) showed"), [entry]
    )
    assert resolved == [entry]
    assert unresolved == []


def test_surname_containment_is_word_bounded():
    entries = [
        CitationEntry(
            label="1",
            full_text="1. Lindqvist, P. Limitations of linear models. J. Tests 2001, 2, 3-9.",
            doc_id="d",
        )
    ]
    # "Li" appears only inside "Limitations" / "linear"; must not match
    marker = CitationMarker(kind="author_year", authors=("Li",), year=2001)
    resolved, unresolved = resolve_citations([marker], entries)
    assert resolved == []
    assert len(unresolved) == 1


def test_resolution_deduplicates_entries():
    entries = _sixty_entry_fixture()
    markers = [
        CitationMarker(kind="numeric", numbers=(25,)),
        CitationMarker(kind="numeric", numbers=(25,)),
    ]
    resolved, _ = resolve_citations(markers, entries)
    assert len(resolved) == 1


def test_no_invention_property():
    entries = _sixty_entry_fixture()
    rng = random.Random(17)
    markers = [
        CitationMarker(kind="numeric", numbers=(rng.randint(1, 120),)) for _ in range(50)
    ]
    resolved, unresolved = resolve_citations(markers, entries)
    known = {(e.label, e.full_text) for e in entries}
    assert all((e.label, e.full_text) in known for e in resolved)


# --- verify_answer_citations ---------------------------------------------------------


def test_fabricated_title_with_real_authors_flagged_partial_title():
    entries = _sixty_entry_fixture()
    answer = (
        "The seminal study is described in the literature.\n\n"
        "References:\n"
        'Li, Kailasanath & Oran (1994): "Oblique Detonation Waves in Wedge Flows." '
        "Combustion Science and Technology, 96(1), 57-73.\n"
    )
    report = verify_answer_citations(answer, entries)
    assert not report.passed
    assert len(report.flagged) == 1
    citation, reason = report.flagged[0]
    assert reason == "partial_title_match"
    assert "Oblique Detonation Waves in Wedge Flows" in citation


# entry 33's title is "Detonation structures behind oblique shocks": 3 of 5
# title tokens found is an overlap of 0.6, 4 of 7 one just below it
@pytest.mark.parametrize(
    "title, verified",
    [
        ("Detonation structures behind wedge flows", True),
        ("Detonation structures behind oblique flame front motion", False),
    ],
    ids=["0.6", "4-of-7"],
)
@pytest.mark.parametrize("authors", ["Li, Kailasanath & Oran (1994): ", ""], ids=["names", "title-only"])
def test_a_title_verifies_from_an_overlap_of_0_6(title, verified, authors):
    entries = _sixty_entry_fixture()
    report = verify_answer_citations(f'Prose.\n\nReferences:\n{authors}"{title}."\n', entries)
    if verified:
        assert [e.label for _, e in report.verified] == ["33"]
        assert report.flagged == []
    else:
        assert report.verified == []
        assert [reason for _, reason in report.flagged] == [
            "partial_title_match" if authors else "not_in_list"
        ]


def test_fabricated_authors_flagged_not_in_list():
    entries = _sixty_entry_fixture()[:20]  # no Li/Kailasanath/Oran entry
    answer = (
        "Summary.\n\nReferences:\n"
        'Li, Kailasanath & Oran (1994): "Oblique Detonation Waves in Wedge Flows." '
        "Combustion Science and Technology, 96(1), 57-73.\n"
    )
    report = verify_answer_citations(answer, entries)
    assert [reason for _, reason in report.flagged] == ["not_in_list"]


def test_answer_without_citations_passes():
    report = verify_answer_citations("Plain prose with no references at all.", [])
    assert report.passed
    assert report.verified == []
    assert report.flagged == []


def test_two_genuine_one_fabricated():
    entries = _sixty_entry_fixture()
    answer = (
        "As shown in [25] and confirmed by Li, Kailasanath & Oran (1994), results hold.\n"
        "A fabricated source [77] is also cited.\n"
    )
    report = verify_answer_citations(answer, entries)
    assert len(report.verified) == 2
    assert len(report.flagged) == 1
    assert report.flagged[0][1] == "not_in_list"
    assert "[77]" in report.flagged[0][0]


def test_author_bracket_conflict_detected():
    entries = _sixty_entry_fixture()
    answer = "Spalart et al. [26] numerically studied the effect of turbulence."
    report = verify_answer_citations(answer, entries)
    assert [reason for _, reason in report.flagged] == ["label_conflict"]
    assert "Spalart" in report.flagged[0][0]


def test_author_bracket_consistent_is_verified():
    entries = _sixty_entry_fixture()
    answer = "Gamezo et al. [25] observed multiple detonation waves."
    report = verify_answer_citations(answer, entries)
    assert report.passed
    assert len(report.verified) == 1


def test_bibliography_label_conflict():
    entries = _sixty_entry_fixture()
    answer = (
        "Discussion above.\n\nReferences:\n"
        "[30] Li, C.; Kailasanath, K.; Oran, E.S. Detonation structures behind oblique shocks. "
        "Phys. Fluids 1994, 6, 1600-1611.\n"
    )
    report = verify_answer_citations(answer, entries)
    assert [reason for _, reason in report.flagged] == ["label_conflict"]


def test_echoed_entries_verify():
    entries = _sixty_entry_fixture()
    lines = [e.full_text for e in entries[:5]]
    answer = "Material below.\n\nReferences:\n" + "\n".join(lines) + "\n"
    report = verify_answer_citations(answer, entries)
    assert report.passed
    assert len(report.verified) == 5


def test_every_citation_lands_in_exactly_one_bucket():
    entries = _sixty_entry_fixture()
    answer = (
        "Claims cite [25] and [999] inline.\n\n"
        "References:\n"
        + entries[0].full_text
        + "\n"
        + 'Nobody & Nothing (2050): "Completely invented title of nothing."\n'
    )
    report = verify_answer_citations(answer, entries)
    assert len(report.verified) + len(report.flagged) == 4
    assert not report.passed
    parsed = report.to_dict()
    assert parsed["pass"] is False
    assert len(parsed["verified"]) == len(report.verified)


_SMITH_3 = CitationEntry(
    label="3",
    full_text="3. Smith, A. Laminar flame speeds of lean mixtures. Combust. Flame 2001, 12, 1-9.",
    doc_id="docA",
)
_JONES_3 = CitationEntry(
    label="3",
    full_text="3. Jones, B. Soot inception in diffusion flames. Proc. Combust. Inst. 2005, 30, 10-19.",
    doc_id="docB",
)


@pytest.mark.parametrize("entries", [[_SMITH_3, _JONES_3], [_JONES_3, _SMITH_3]], ids=["A-B", "B-A"])
def test_shared_label_attribution_holds_in_either_list_order(entries):
    # "[3]" means the first listed entry labelled 3, as in resolution; an
    # attribution conflicts only when no entry labelled 3 names the author
    report = verify_answer_citations("Smith et al. [3] measured laminar flame speeds.", entries)
    assert report.flagged == []
    assert report.verified == [("[3]", entries[0])]

    report = verify_answer_citations("Brown et al. [3] measured laminar flame speeds.", entries)
    assert [reason for _, reason in report.flagged] == ["label_conflict"]
    assert report.verified == []

    report = verify_answer_citations("Prose.\n\nReferences:\n[3]\n", entries)
    assert report.verified == [("[3]", entries[0])]
    assert resolve_citations(extract_citation_markers("see [3]"), entries)[0] == [entries[0]]


def test_verification_folds_no_entry_text(monkeypatch):
    entries = _sixty_entry_fixture()
    answer = (
        "Gamezo et al. [25] and Li, Kailasanath & Oran (1994) agree; Spalart et al. [26] does not.\n\n"
        "References:\n"
        + "\n".join(e.full_text for e in entries[:4])
        + "\n"
        'Li, Kailasanath & Oran (1994): "Oblique Detonation Waves in Wedge Flows." 96(1), 57-73.\n'
        '"Detonation structures behind oblique shocks"\n'
    )
    folded = []
    fold = citations.fold_text
    monkeypatch.setattr(citations, "fold_text", lambda text: folded.append(text) or fold(text))
    report = verify_answer_citations(answer, entries)
    assert len(report.verified) == 7
    assert sorted(reason for _, reason in report.flagged) == ["label_conflict", "partial_title_match"]
    assert folded  # author names and answer titles are folded per answer
    assert not {e.full_text for e in entries} & set(folded)


def _count_folds(monkeypatch):
    folds = Counter()
    fold = citations.fold_text
    monkeypatch.setattr(citations, "fold_text", lambda text: folds.update([text]) or fold(text))
    return folds


def test_a_marker_folds_each_author_once(monkeypatch):
    folds = _count_folds(monkeypatch)
    marker = CitationMarker(kind="author_year", authors=("Li", "Kailasanath", "Oran"), year=1994)
    assert folds == Counter({"Li": 1, "Kailasanath": 1, "Oran": 1})
    assert marker.folded_authors == ("li", "kailasanath", "oran")
    assert marker.key() == marker.key() == ("author_year", ("li", "kailasanath", "oran"), 1994)
    entries = _sixty_entry_fixture()
    folds.clear()
    assert [e.label for e in resolve_citations([marker, marker], entries)[0]] == ["33"]
    assert folds == Counter()
    assert "folded_authors" not in repr(marker) and "folded_authors" not in marker.to_dict()
    assert marker == CitationMarker(kind="author_year", authors=("Li", "Kailasanath", "Oran"), year=1994)


def test_verification_folds_each_author_name_once(monkeypatch):
    entries = _sixty_entry_fixture()
    body = (
        "Gamezo et al. [25] and Gamezo et al. [26] agree; Spalart et al. [26] does not, "
        "nor does Spalart et al. [25]."
    )
    bib = [
        entries[24].full_text,
        entries[25].full_text,
        entries[32].full_text,
        'Li, Kailasanath & Oran (1994): "Oblique Detonation Waves in Wedge Flows." 96(1), 57-73.',
    ]
    answer = body + "\n\nReferences:\n" + "\n".join(bib) + "\n"
    expected = verify_answer_citations(answer, entries)

    folds = _count_folds(monkeypatch)
    report = verify_answer_citations(answer, entries)
    assert (report.verified, report.flagged) == (expected.verified, expected.flagged)
    names = {"Gamezo", "Spalart"}
    for line in bib:
        names.update(citations._parse_bib_line(line)["authors"])
    assert {"Gamezo", "Oran", "Li"} <= names
    assert {name: folds[name] for name in names} == dict.fromkeys(names, 1)


def test_verification_compiles_each_author_name_once(monkeypatch):
    entries = _sixty_entry_fixture()
    answer = (
        "Gamezo et al. [25] and Gamezo et al. [26] agree with Li, Kailasanath & Oran (1994) "
        "and Oran (1994); Spalart et al. [26] does not.\n\n"
        "References:\n"
        + "\n".join(e.full_text for e in (entries[24], entries[25], entries[32]))
        + "\n"
        'Li, Kailasanath & Oran (1994): "Oblique Detonation Waves in Wedge Flows." 96(1), 57-73.\n'
        "Gamezo, Khokhlov & Oran (2001). Shock-flame interactions in channels.\n"
    )
    expected = verify_answer_citations(answer, entries)
    built = Counter()
    compile_name = citations._name_pattern
    monkeypatch.setattr(
        citations, "_name_pattern", lambda name: built.update([name]) or compile_name(name)
    )
    report = verify_answer_citations(answer, entries)
    assert (report.verified, report.flagged) == (expected.verified, expected.flagged)
    assert {"gamezo", "spalart", "li", "kailasanath", "oran", "khokhlov"} <= set(built)
    assert set(built.values()) == {1}


def _naming_oracle(entries, patterns, year):
    """The author-year candidates by a scan of the whole list."""
    year_text = str(year)
    return [
        e for e in entries
        if year_text in e.full_text and all(p.search(e.folded) for p in patterns)
    ]


_SURNAMES = ["Oran", "Li", "Müller", "Muller", "Gamezo", "Lee", "Olsen"]
_ENTRY = st.builds(
    lambda label, names, year, tail: CitationEntry(
        label=label, full_text=f"{', '.join(names)} ({year}). {tail}", doc_id="d"
    ),
    st.sampled_from(["", "1", "2", "Oran (2001)"]),
    st.lists(st.sampled_from(_SURNAMES), max_size=3),
    st.sampled_from([1994, 2001, 2010, 20011]),
    st.sampled_from(["Shocks 2001, 6, 1-9.", "Flames in 1994.", "Waves."]),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_ENTRY, max_size=12),
    st.lists(
        st.tuples(st.lists(st.sampled_from(_SURNAMES), min_size=1, max_size=2),
                  st.sampled_from([1994, 2001, 2010, 201])),
        max_size=6,
    ),
)
def test_naming_equals_a_scan_of_the_whole_list(entries, citations_asked):
    listing = citations._Listing(entries)  # one listing across the calls, as in one verification
    for names, year in citations_asked:
        patterns = [citations._name_pattern(fold_text(name)) for name in names]
        assert citations._naming(listing, patterns, year) == _naming_oracle(entries, patterns, year)


class _CountingText(str):
    """Entry text that counts the substring tests made on it."""

    tests = Counter()

    def __contains__(self, part):
        _CountingText.tests[part] += 1
        return super().__contains__(part)


def test_a_call_filters_the_list_by_each_year_once():
    plain = _sixty_entry_fixture()
    entries = [CitationEntry(e.label, _CountingText(e.full_text), e.doc_id) for e in plain]
    body = (
        "Gamezo and Oran (2001) agree with Gamezo et al. (2001) and Oran et al. (2001); "
        "Li, Kailasanath and Oran (1994) and Li et al. (1994) saw it too."
    )
    answer = body + "\n\nReferences:\n" + "\n".join(
        e.full_text for e in (plain[24], plain[25], plain[32])
    ) + "\nGamezo, Khokhlov & Oran (2001). Shock-flame interactions in channels.\n"
    expected = verify_answer_citations(answer, plain)
    _CountingText.tests.clear()
    report = verify_answer_citations(answer, entries)
    assert (report.verified, report.flagged) == (expected.verified, expected.flagged)
    assert report.verified
    assert _CountingText.tests == {"2001": 60, "1994": 60}
    _CountingText.tests.clear()
    markers = extract_citation_markers(body)
    assert resolve_citations(markers, entries) == resolve_citations(markers, plain)
    assert _CountingText.tests == {"2001": 60, "1994": 60}


def _guard_inputs(tmp_path):
    """The pinned guard outputs and the entry lists they were computed from."""
    pinned = json.loads((FIXTURES / "guard_outputs.json").read_text(encoding="utf-8"))
    make_corpus(tmp_path, n_docs=pinned["corpus"]["n_docs"], seed=pinned["corpus"]["seed"])
    docs = {path.stem: load_document(path) for path in sorted(tmp_path.glob("*.txt"))}
    entries = {doc_id: extract_reference_section(doc) for doc_id, doc in docs.items()}
    entries["qa"] = extract_reference_section(load_document(FIXTURES / "reference_section_qa.txt"))
    return pinned, docs, entries


def _position(entry, listed):
    # the fixture writes an entry as the first position of an equal to_dict()
    return [e.to_dict() for e in listed].index(entry.to_dict())


def test_resolution_matches_the_pinned_outputs(tmp_path):
    pinned, docs, entries = _guard_inputs(tmp_path)
    assert set(pinned["resolutions"]) == set(docs) | {"qa"}
    for doc_id, doc in docs.items():
        aux = build_auxiliary_index(doc)
        rows = []
        for chunk in aux.expanded_chunks:
            resolved, unresolved = resolve_citations(extract_citation_markers(chunk.text), aux.entries)
            rows.append({
                "chunk_id": chunk.chunk_id,
                "resolved": [_position(e, entries[doc_id]) for e in resolved],
                "unresolved": [m.to_dict() for m in unresolved],
            })
        assert rows == pinned["resolutions"][doc_id], doc_id
    (row,) = pinned["resolutions"]["qa"]
    resolved, unresolved = resolve_citations(extract_citation_markers(row["text"]), entries["qa"])
    assert [_position(e, entries["qa"]) for e in resolved] == row["resolved"]
    assert [m.to_dict() for m in unresolved] == row["unresolved"]


def test_verification_matches_the_pinned_reports(tmp_path):
    pinned, _, entries = _guard_inputs(tmp_path)
    assert len(pinned["cases"]) == 165
    for case in pinned["cases"]:
        listed = [e for doc_id in case["docs"] for e in entries[doc_id]]
        report = verify_answer_citations(case["answer"], listed)
        got = {
            "verified": [[c, _position(e, listed)] for c, e in report.verified],
            "flagged": [list(pair) for pair in report.flagged],
            "pass": report.passed,
        }
        assert got == case["report"], (case["docs"], case["name"])


def test_fold_text():
    assert fold_text("Müller \\& García") == "muller and garcia"
    assert fold_text("Inﬂuence") == "influence"  # fl ligature folds
    assert fold_text("Mül\u00adler") == "muller"  # soft hyphen dropped


# --- the string work against its regex and per-character oracles -------------------

_SPACES = [ch for ch in map(chr, range(sys.maxunicode + 1)) if ch.isspace()]


def _collapse_ws_oracle(text):
    return re.sub(r"\s+", " ", text).strip()


def _fold_text_oracle(text):
    text = text.replace("\\&", " and ").replace("&", " and ")
    decomposed = unicodedata.normalize("NFKD", text)
    stripped = "".join(
        ch
        for ch in decomposed
        if not unicodedata.combining(ch) and unicodedata.category(ch) != "Cf"
    )
    return _collapse_ws_oracle(stripped.casefold())


def test_regex_whitespace_is_the_str_whitespace():
    # collapse_ws splits with str.split(), which breaks exactly where re's \s matches
    every_char = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", every_char) == _SPACES
    assert set(every_char) - set("".join(every_char.split())) == set(_SPACES)


# Format characters (category Cf): soft hyphen, zero-width space, joiners, word
# joiner, byte order mark, and one outside the BMP
_FORMAT_CHARS = ["\u00ad", "\u200b", "\u200c", "\u200d", "\u2060", "\ufeff", "\U000e0001"]

_FOLD_TEXT = st.lists(
    st.one_of(
        st.characters(max_codepoint=0x7F),
        st.characters(min_codepoint=0x80, max_codepoint=0xFF),
        st.characters(min_codepoint=0x300, max_codepoint=0x36F),  # combining marks
        st.just("\u034f"),  # a nonspacing mark of combining class 0, which folding keeps
        st.sampled_from(["\ufb00", "\ufb01", "\ufb02", "\ufb03", "\ufb04", "\ufb05", "\ufb06"]),
        st.sampled_from(["\uff06", "\u0130", "\u1e9e", "\\&", *_SPACES]),
        st.sampled_from(_FORMAT_CHARS),
    ),
    max_size=40,
).map("".join)


@settings(max_examples=400, deadline=None)
@given(_FOLD_TEXT)
def test_fold_text_and_collapse_ws_equal_their_oracles(text):
    assert collapse_ws(text) == _collapse_ws_oracle(text)
    assert fold_text(text) == _fold_text_oracle(text)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_FOLD_TEXT, st.text(max_size=40)))
def test_folded_text_holds_no_format_character(text):
    assert not any(unicodedata.category(ch) == "Cf" for ch in fold_text(text))


def _expand_numeric_group_oracle(content):
    numbers = []
    for part in re.split(r"[,;\u00b7]", content):
        part = part.strip()
        if not part:
            continue
        m = re.fullmatch(rf"(\d{{1,3}})\s*[{citations._DASH_CLASS}]\s*(\d{{1,3}})", part)
        if m:
            lo, hi = int(m.group(1)), int(m.group(2))
            if lo <= hi and hi - lo <= 100:
                numbers.extend(range(lo, hi + 1))
            continue
        if part.isdigit():
            numbers.append(int(part))
    return numbers


def _extract_citation_markers_oracle(text):
    """Every pattern scanned over all of ``text``, ungated and compiled per call."""
    found = []
    for m in re.finditer(citations.NUMERIC_GROUP_PATTERN, text):
        for n in _expand_numeric_group_oracle(m.group(1)):
            found.append(CitationMarker(kind="numeric", numbers=(n,), span=m.span()))
    for m in re.finditer(citations.SUPERSCRIPT_PATTERN, text):
        digits = m.group(1).translate(citations._SUPERSCRIPT_MAP)
        if digits.isdigit() and 0 < int(digits) <= 999:
            found.append(CitationMarker(kind="numeric", numbers=(int(digits),), span=m.span()))
    for m in re.finditer(citations.AUTHOR_YEAR_PATTERN, text):
        year = int(m.group("year"))
        if not (citations.YEAR_MIN <= year <= citations.YEAR_MAX):
            continue
        names = [p.strip() for p in re.split(citations._NAME_SEP, m.group("names"))]
        authors = [p for p in names if p and not (len(p) >= 3 and p.isupper())]
        if not authors or authors[0] in citations._MARKER_STOPWORDS:
            continue
        found.append(
            CitationMarker(kind="author_year", authors=tuple(authors), year=year, span=m.span())
        )
    found.sort(key=lambda mk: (mk.span[0], mk.span[1]))
    seen, ordered = set(), []
    for mk in found:
        if mk.key() not in seen:
            seen.add(mk.key())
            ordered.append(mk)
    return ordered


_MARKER_PIECES = [
    "Varga", "Müller", "García", "O'Brien", "Lee", "NASA", "In", "The", "flame", "speed",
    " ", "  ", "\n", ", ", " and ", " & ", " \\& ", " et al. ", "et al", ".",
    "(2001)", "(1999a)", "( 2010 )", "(1700)", "(20011)", "(", ")", "2015",
    "[12]", "[3-5]", "[4\u20136]", "[1, 2]", "{7}", "[7\u00b79]", "[", "]",
    "\u00b9", "\u00b2\u00b3", "\u2070", "\u2075",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_MARKER_PIECES), max_size=30).map("".join))
def test_extract_citation_markers_equals_the_ungated_scan(text):
    assert extract_citation_markers(text) == _extract_citation_markers_oracle(text)
