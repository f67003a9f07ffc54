import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import litrag.ingest as ingest_mod
from litrag.errors import (
    DirectoryUnreadable,
    EmptyDocument,
    ExtractorFailed,
    FileUnreadable,
    InvalidParams,
    ServiceUnreachable,
)
from litrag.ingest import (
    DEFAULT_SEPARATORS,
    Chunk,
    SplitParams,
    ingest_corpus,
    load_document,
    locate_reference_section,
    recursive_split,
)
from reference_impls import reference_split_spans


# --- load_document -----------------------------------------------------------


def test_load_plain_text_without_references(tmp_path):
    content = "Alpha paragraph.\n\nBeta paragraph.\n\nGamma paragraph.\n"
    path = tmp_path / "plain.txt"
    path.write_text(content, encoding="utf-8")

    doc = load_document(path)

    assert doc.body == content
    assert doc.doc_id == "plain"
    assert doc.title == "Alpha paragraph."
    assert doc.reference_section is None


def test_reference_section_spans_heading_to_end(tmp_path):
    prefix = "Intro text.\n\nMore body text here.\n\n"
    refs = "References\n\n1. Varga, T. Some title. Journal 1999, 4, 1-9.\n"
    path = tmp_path / "withrefs.txt"
    path.write_text(prefix + refs, encoding="utf-8")

    doc = load_document(path)

    assert doc.reference_section == (len(prefix), len(prefix) + len(refs))
    assert doc.reference_text().startswith("References")


def test_reference_heading_last_occurrence_wins():
    body = "We cite References often.\n\nReferences\n\n1. Entry.\n"
    start, end = locate_reference_section(body)
    assert body[start:].startswith("References\n")
    assert end == len(body)
    # the in-text mention on the first line is not a heading
    assert start > body.index("References")


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("", encoding="utf-8")
    with pytest.raises(EmptyDocument):
        load_document(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(FileUnreadable):
        load_document(tmp_path / "absent.txt")


def test_crlf_normalized(tmp_path):
    path = tmp_path / "crlf.txt"
    path.write_bytes(b"line one\r\nline two\rline three\n")
    doc = load_document(path)
    assert doc.body == "line one\nline two\nline three\n"


def test_extractor_used_for_non_text_files(tmp_path):
    path = tmp_path / "doc.pdf"
    path.write_text("extracted body text\n", encoding="utf-8")
    doc = load_document(path, extractor="cat {path}")
    assert doc.body == "extracted body text\n"


def test_extractor_failure(tmp_path):
    path = tmp_path / "doc.pdf"
    path.write_bytes(b"%PDF-1.4 binary")
    with pytest.raises(ExtractorFailed):
        load_document(path, extractor="false {path}")
    with pytest.raises(ExtractorFailed):
        load_document(path, extractor="no-such-command-zzz {path}")


def test_binary_file_without_extractor_unreadable(tmp_path):
    path = tmp_path / "doc.pdf"
    path.write_bytes(b"\xff\xfe\x00\x01binary")
    with pytest.raises(FileUnreadable):
        load_document(path)


# --- SplitParams validation ------------------------------------------------------


def test_overlap_must_be_smaller_than_size():
    with pytest.raises(InvalidParams):
        SplitParams(chunk_size=100, chunk_overlap=100)
    with pytest.raises(InvalidParams):
        SplitParams(chunk_size=100, chunk_overlap=150)


def test_separators_must_end_with_empty_string():
    with pytest.raises(InvalidParams):
        SplitParams(chunk_size=100, chunk_overlap=10, separators=())
    with pytest.raises(InvalidParams):
        SplitParams(chunk_size=100, chunk_overlap=10, separators=("\n\n", "\n"))


def test_nonpositive_size_rejected():
    with pytest.raises(InvalidParams):
        SplitParams(chunk_size=0, chunk_overlap=0)


# --- recursive_split: frozen fixtures ---------------------------------------------


def test_short_body_is_a_single_chunk():
    body = "x" * 500
    chunks = recursive_split(body, SplitParams(chunk_size=700, chunk_overlap=200))
    assert len(chunks) == 1
    assert chunks[0].text == body
    assert (chunks[0].start_offset, chunks[0].end_offset) == (0, 500)


# Expected spans computed before the build with the straight-line reference walk.
PARAGRAPH_FIXTURE_SPANS = [(0, 500), (502, 1002), (1004, 1504), (1506, 2006), (2008, 2508)]


def test_paragraph_fixture_matches_frozen_oracle():
    body = "\n\n".join(chr(ord("a") + i) * 500 for i in range(5))
    params = SplitParams(chunk_size=1000, chunk_overlap=350)
    chunks = recursive_split(body, params)
    spans = [(c.start_offset, c.end_offset) for c in chunks]
    assert spans == PARAGRAPH_FIXTURE_SPANS
    assert spans == reference_split_spans(body, 1000, 350, DEFAULT_SEPARATORS)


SENTENCE_FIXTURE_SPANS = [(0, 260), (262, 457), (459, 717), (654, 783)]


def test_sentence_fixture_with_overlap_matches_frozen_oracle():
    sent = "The quick brown fox jumps over the lazy dog near the river bank. "
    body = ("\n\n".join([sent * 4, sent * 3, sent * 5])).rstrip()
    params = SplitParams(chunk_size=300, chunk_overlap=80)
    chunks = recursive_split(body, params)
    spans = [(c.start_offset, c.end_offset) for c in chunks]
    assert spans == SENTENCE_FIXTURE_SPANS
    assert spans == reference_split_spans(body, 300, 80, DEFAULT_SEPARATORS)
    # the last two chunks overlap (80-char budget, sentence boundary at 63)
    assert spans[-2][1] > spans[-1][0]
    assert spans[-2][1] - spans[-1][0] <= 80


def _assert_well_formed(body: str, chunks: list[Chunk], params: SplitParams):
    previous_start = -1
    for chunk in chunks:
        assert chunk.text == body[chunk.start_offset : chunk.end_offset]
        assert len(chunk.text) <= params.chunk_size
        assert chunk.start_offset > previous_start
        previous_start = chunk.start_offset


def _assert_gaps_are_separators(body: str, chunks: list[Chunk], params: SplitParams):
    boundaries = [(0, 0)] + [(c.start_offset, c.end_offset) for c in chunks] + [
        (len(body), len(body))
    ]
    position = 0
    for start, end in boundaries[1:]:
        if start > position:
            gap = body[position:start]
            for sep in params.separators:
                if sep:
                    gap = gap.replace(sep, "")
            assert gap == "", f"gap {body[position:start]!r} contains non-separator text"
        position = max(position, end)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    chunk_size=st.integers(min_value=20, max_value=400),
)
def test_splitter_properties_on_random_documents(data, chunk_size):
    overlap = data.draw(st.integers(min_value=0, max_value=chunk_size - 1))
    words = st.text(alphabet="abcdefg", min_size=1, max_size=12)
    sentences = st.lists(words, min_size=1, max_size=12).map(" ".join)
    paragraphs = st.lists(sentences, min_size=1, max_size=6).map(". ".join)
    body = data.draw(st.lists(paragraphs, min_size=1, max_size=6).map("\n\n".join))

    params = SplitParams(chunk_size=chunk_size, chunk_overlap=overlap)
    chunks = recursive_split(body, params)

    if body:
        assert chunks
    _assert_well_formed(body, chunks, params)
    _assert_gaps_are_separators(body, chunks, params)


@settings(max_examples=30, deadline=None)
@given(body=st.text(min_size=0, max_size=2000), chunk_size=st.integers(5, 97))
def test_zero_overlap_single_separator_reconstructs_body(body, chunk_size):
    params = SplitParams(chunk_size=chunk_size, chunk_overlap=0, separators=("",))
    chunks = recursive_split(body, params)
    assert "".join(c.text for c in chunks) == body


def test_determinism():
    body = "para one. sentence two.\n\npara two continues here. " * 40
    params = SplitParams(chunk_size=120, chunk_overlap=30)
    first = recursive_split(body, params)
    second = recursive_split(body, params)
    assert [(c.chunk_id, c.start_offset, c.end_offset) for c in first] == [
        (c.chunk_id, c.start_offset, c.end_offset) for c in second
    ]


def test_oracle_agreement_on_varied_texts():
    texts = [
        "word " * 300,
        ("sentence one. " * 20 + "\n\n") * 5,
        "x" * 1500,
        "a b. c\nd e f\n\ng h i. " * 30,
    ]
    for body in texts:
        for size, overlap in [(100, 0), (100, 30), (250, 100), (80, 79)]:
            params = SplitParams(chunk_size=size, chunk_overlap=overlap)
            spans = [(c.start_offset, c.end_offset) for c in recursive_split(body, params)]
            assert spans == reference_split_spans(body, size, overlap, DEFAULT_SEPARATORS)


def test_chunk_count_monotonicity_over_study_ranges():
    body = "\n\n".join(
        ". ".join("token%d word word word" % (i * 17 + j) for j in range(12))
        for i in range(80)
    )
    counts = []
    for size in (800, 1100, 1400, 1700, 2000):
        chunks = recursive_split(body, SplitParams(chunk_size=size, chunk_overlap=500))
        counts.append(len(chunks))
    assert counts == sorted(counts, reverse=True)

    counts = []
    for overlap in (0, 175, 350, 525, 700):
        chunks = recursive_split(body, SplitParams(chunk_size=1000, chunk_overlap=overlap))
        counts.append(len(chunks))
    assert counts == sorted(counts)


# --- ingest_corpus --------------------------------------------------------------


def _write_corpus(tmp_path, n=5, paragraphs=30):
    for i in range(n):
        body = "\n\n".join(
            f"Document {i} paragraph {p}. " + "content word " * 40 for p in range(paragraphs)
        )
        (tmp_path / f"doc{i}.txt").write_text(body, encoding="utf-8")


def test_ingest_directory(tmp_path):
    _write_corpus(tmp_path, n=5)
    report = ingest_corpus(tmp_path, SplitParams(chunk_size=1000, chunk_overlap=350))
    assert report.document_count == 5
    assert all(d.chunk_count > 0 for d in report.documents)
    assert report.failures == []
    parsed = json.loads(report.to_json())
    assert parsed["document_count"] == 5
    assert parsed["chunk_count"] == report.chunk_count


def test_ingest_empty_directory(tmp_path):
    report = ingest_corpus(tmp_path, SplitParams(chunk_size=1000, chunk_overlap=350))
    assert report.document_count == 0
    assert report.chunk_count == 0


def test_ingest_records_per_file_failures(tmp_path):
    _write_corpus(tmp_path, n=2)
    (tmp_path / "broken.txt").write_bytes(b"\xff\xfe\x00bad utf8")
    report = ingest_corpus(tmp_path, SplitParams(chunk_size=500, chunk_overlap=100))
    assert report.document_count == 2
    assert len(report.failures) == 1
    assert "broken.txt" in report.failures[0].path


def test_ingest_missing_directory(tmp_path):
    with pytest.raises(DirectoryUnreadable):
        ingest_corpus(tmp_path / "nope", SplitParams(chunk_size=500, chunk_overlap=100))


def test_ingest_callback_order(tmp_path):
    _write_corpus(tmp_path, n=4, paragraphs=3)
    seen = []
    ingest_corpus(
        tmp_path,
        SplitParams(chunk_size=500, chunk_overlap=100),
        on_document=lambda doc, chunks: seen.append(doc.doc_id),
    )
    assert seen == sorted(seen)


def test_litrag_error_from_on_document_fails_that_file_and_keeps_its_id(tmp_path):
    _write_corpus(tmp_path, n=3, paragraphs=3)
    (tmp_path / "doc1.md").write_text("same stem as doc1.txt", encoding="utf-8")
    indexed = []

    def index(doc, chunks):
        if doc.source_path.endswith("doc1.md"):
            raise ServiceUnreachable("embedding service down")
        indexed.append(doc.doc_id)

    report = ingest_corpus(tmp_path, SplitParams(chunk_size=500, chunk_overlap=100), on_document=index)
    assert [d.doc_id for d in report.documents] == indexed == ["doc0", "doc2"]
    assert [(f.path, f.error) for f in report.failures] == [
        (str(tmp_path / "doc1.md"), "embedding service down"),
        (str(tmp_path / "doc1.txt"), f"document id 'doc1' is already taken by {tmp_path / 'doc1.md'}"),
    ]


def test_programming_error_in_split_propagates(tmp_path, monkeypatch):
    _write_corpus(tmp_path, n=2, paragraphs=3)

    def broken_split(*args, **kwargs):
        raise TypeError("a bug, not a bad file")

    monkeypatch.setattr(ingest_mod, "recursive_split", broken_split)
    with pytest.raises(TypeError, match="a bug"):
        ingest_corpus(tmp_path, SplitParams(chunk_size=500, chunk_overlap=100))


def test_programming_error_in_on_document_propagates(tmp_path):
    _write_corpus(tmp_path, n=2, paragraphs=3)

    def index(doc, chunks):
        raise TypeError("a bug, not a bad file")

    with pytest.raises(TypeError, match="a bug"):
        ingest_corpus(tmp_path, SplitParams(chunk_size=500, chunk_overlap=100), on_document=index)


def test_unparseable_extractor_fails_each_non_text_file(tmp_path):
    _write_corpus(tmp_path, n=1, paragraphs=3)
    for name in ("a.pdf", "b.pdf"):
        (tmp_path / name).write_bytes(b"%PDF-1.4 binary")
    report = ingest_corpus(
        tmp_path, SplitParams(chunk_size=500, chunk_overlap=100), extractor='cmd "{path}'
    )
    assert [d.doc_id for d in report.documents] == ["doc0"]
    assert [f.path for f in report.failures] == [str(tmp_path / "a.pdf"), str(tmp_path / "b.pdf")]
    assert all("cannot parse extractor" in f.error for f in report.failures)
    with pytest.raises(ExtractorFailed):
        load_document(tmp_path / "a.pdf", extractor='cmd "{path}')


def test_study_split_settings_bound_chunk_length(tmp_path):
    _write_corpus(tmp_path, n=5)
    collected = []
    ingest_corpus(
        tmp_path,
        SplitParams(chunk_size=700, chunk_overlap=200),
        on_document=lambda doc, chunks: collected.extend(chunks),
    )
    assert collected
    assert all(len(c.text) <= 700 for c in collected)
