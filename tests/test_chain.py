import random
import shutil
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import litrag.embedding as embedding_mod
from litrag.chain import (
    CITATION_BLOCK_HEADER,
    AnswerBundle,
    PromptTemplate,
    QueryChain,
    assemble_mode1,
    budget_check,
    chat_completion,
    format_citation_block,
    get_template,
    render_prompt,
    sensible_validation_template,
)
from litrag.citations import (
    CitationEntry,
    build_auxiliary_index,
    locate_expanded_chunk,
    verify_answer_citations,
)
from litrag.config import ChatConfig, default_config
from litrag.embedding import EmbeddingVector, TokenizerConfig
from litrag.errors import (
    BudgetExceeded,
    ChatServiceFailed,
    CorruptStore,
    InvalidParams,
    IoFailure,
    MissingSlot,
    NoContainingChunk,
    RetrievalEmpty,
    UnknownSlot,
)
from litrag.ingest import Chunk, load_document
from litrag.kb import KnowledgeBase, build_knowledge_base
from litrag.store import ChunkRecord, ScoredRecord
from litrag.testing import (
    FABRICATED_CITATION,
    StubChatService,
    StubEmbeddingService,
    StubTokenizerService,
    echo_citations_responder,
    extract_citation_block,
    make_corpus,
    question_for,
)
from reference_impls import per_document_citations

DIM = 32


# --- templates -----------------------------------------------------------


def test_builtin_templates_carry_the_expected_instructions():
    qa = get_template("qa_context")
    assert "Use the following pieces of context to answer the question at the end" in qa.body
    assert "Provide the source document name" in qa.body
    assert "Do not try to make up research article names" in qa.body

    split = get_template("qa_context_split")
    assert split.supplement is not None
    assert "do not try to make up a research article name" in split.supplement

    custom = get_template("custom_citation")
    assert "Do not create an article name that is not in the citation list" in custom.body
    assert "{citation-list}" in custom.body
    assert "Use the provided citation list for quoting research articles" in custom.supplement

    intro = get_template("introspective")
    assert "information gaps" in intro.body

    sensible = get_template("sensible_validation")
    assert "sub-queries" in sensible.body


def test_sensible_validation_subquery_cap_is_parameterized():
    assert "no more than 3 sub-queries" in sensible_validation_template().body
    assert "no more than 5 sub-queries" in sensible_validation_template(5).body


def test_unknown_template_name():
    with pytest.raises(UnknownSlot):
        get_template("nope")


# --- render_prompt -------------------------------------------------------------


def test_render_custom_template_places_all_three_values():
    out = render_prompt(get_template("custom_citation"), "CTX-123", "QST-456", "LST-789")
    assert "Context: CTX-123" in out
    assert "Citation List: LST-789" in out
    assert "Question: QST-456" in out


def test_render_empty_context_is_fine():
    out = render_prompt(get_template("qa_context"), "", "What?")
    assert "Context: \n" in out


def test_render_without_unused_optional_slot():
    out = render_prompt(get_template("qa_context"), "ctx", "q")
    assert "ctx" in out and "q" in out


def test_render_missing_citation_slot():
    with pytest.raises(MissingSlot):
        render_prompt(get_template("custom_citation"), "ctx", "q")


def test_render_unknown_slot():
    tpl = PromptTemplate(name="bad", body="Context: {context} {mystery}")
    with pytest.raises(UnknownSlot):
        render_prompt(tpl, "ctx", "q")


def test_render_is_pure_and_touches_only_slots():
    tpl = get_template("custom_citation")
    a = render_prompt(tpl, "C", "Q", "L")
    b = render_prompt(tpl, "C", "Q", "L")
    assert a == b
    skeleton = tpl.body.replace("{context}", "C").replace("{question}", "Q").replace(
        "{citation-list}", "L"
    )
    assert a == skeleton


def test_render_does_not_rescan_substituted_values():
    out = render_prompt(get_template("qa_context"), "has {question} inside", "realq")
    assert "has {question} inside" in out
    assert out.count("realq") == 1


# --- budget_check --------------------------------------------------------------


def test_budget_arithmetic():
    tok = TokenizerConfig(chars_per_token=1.0)
    assert budget_check("x" * 1000, tok, 4096, 1024).fits is True
    assert budget_check("x" * 3500, tok, 4096, 1024).fits is False


def test_budget_five_chunk_fixture():
    # 5 chunks of 700 chars plus a 480-char template shell: 3980 chars at
    # 4 chars/token is 995 tokens (hand-computed heuristic oracle)
    tok = TokenizerConfig(chars_per_token=4.0)
    prompt = "x" * 480 + "y" * 3500
    budget = budget_check(prompt, tok, 4096, 1024)
    assert budget.prompt_tokens == 995
    assert budget.fits


def test_budget_validation():
    tok = TokenizerConfig()
    with pytest.raises(ValueError):
        budget_check("x", tok, 100, 100)
    with pytest.raises(ValueError):
        budget_check("x", tok, 100, -1)


# --- assembly --------------------------------------------------------------------


def _record(text="chunk text", chunk_id="c1", doc_id="d"):
    return ChunkRecord(
        chunk_id=chunk_id,
        doc_id=doc_id,
        text=text,
        start_offset=0,
        end_offset=len(text),
        embedding=EmbeddingVector((1.0, 0.0)),
        metadata={"source": "d.txt"},
    )


def _entries(n):
    return [
        CitationEntry(label=str(i + 1), full_text=f"{i + 1}. Author, A. Title {i + 1}. Venue 2000, 1, 1-9.", doc_id="d")
        for i in range(n)
    ]


def test_assemble_mode1_structure():
    out = assemble_mode1(_record("T"), _entries(2))
    assert out.startswith("T\n\n" + CITATION_BLOCK_HEADER)
    lines = out.splitlines()
    assert lines[-2].startswith("1.")
    assert lines[-1].startswith("2.")


def test_assemble_mode1_empty_list_keeps_marker():
    out = assemble_mode1(_record("T"), [])
    assert out == f"T\n\n{CITATION_BLOCK_HEADER}"


def _assemble_mode2(expanded, entries):
    """``QueryChain._assemble`` in mode2 of one retrieved chunk whose
    expanded chunk resolves to ``entries``."""
    aux = SimpleNamespace(citations=lambda chunk: (tuple(entries), ()))
    kb = SimpleNamespace(aux_index=lambda doc_id: aux)
    chain = QueryChain(kb, default_config("http://unused.invalid/", "http://unused.invalid/"))
    return chain._assemble([ScoredRecord(_record("T"), 1.0)], "mode2", [expanded])


def test_assemble_mode2_separates_block():
    expanded = Chunk(chunk_id="d:aux00", doc_id="d", text="E" * 3800, start_offset=0, end_offset=3800)
    context, block, citation_list, unresolved = _assemble_mode2(expanded, _entries(8))
    assert context == "E" * 3800
    assert len(block.splitlines()) == 8
    assert block == format_citation_block(_entries(8))
    assert CITATION_BLOCK_HEADER not in context
    assert (citation_list, unresolved) == (_entries(8), [])


def test_assemble_mode2_zero_entries():
    expanded = Chunk(chunk_id="d:aux00", doc_id="d", text="E", start_offset=0, end_offset=1)
    context, block, citation_list, _ = _assemble_mode2(expanded, [])
    assert context == "E"
    assert block == ""
    assert citation_list == []


def test_assemble_mode1_with_fixture_entries(tmp_path):
    from pathlib import Path

    from litrag.citations import extract_reference_section

    doc = load_document(Path(__file__).parent / "fixtures" / "reference_section_qa.txt")
    entries = extract_reference_section(doc)
    out = assemble_mode1(_record("chunk body"), entries)
    assert "Iwata" in out and "Dounia" in out
    by_label = {e.label: e for e in entries if e.label}
    assert by_label["52"].full_text in out


# --- the pipeline against stub services ----------------------------------------------


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    corpus_dir = tmp_path_factory.mktemp("corpus")
    truths = make_corpus(corpus_dir, n_docs=4, seed=4242, paragraphs_per_doc=12)
    return corpus_dir, truths


@pytest.fixture(scope="module")
def built_kb(corpus, tmp_path_factory):
    corpus_dir, truths = corpus
    store_root = tmp_path_factory.mktemp("kb") / "kb"
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = default_config(svc.url, "http://unused.invalid/")
        cfg = replace(
            cfg,
            embedding=replace(cfg.embedding, expected_dim=DIM, batch_size=64),
            store_path=str(store_root),
        )
        report = build_knowledge_base(corpus_dir, cfg)
        assert report.failures == []
    return store_root, truths


def _chain(built_kb, embed_url, chat_url, **cfg_overrides):
    store_root, truths = built_kb
    cfg = default_config(embed_url, chat_url)
    cfg = replace(
        cfg,
        embedding=replace(cfg.embedding, expected_dim=DIM, batch_size=64),
        store_path=str(store_root),
        **cfg_overrides,
    )
    return QueryChain(KnowledgeBase.open(store_root), cfg), truths


def test_answer_with_echo_stub_passes_verification(built_kb):
    with StubEmbeddingService(dim=DIM) as emb, StubChatService(
        echo_citations_responder()
    ) as chat:
        chain, truths = _chain(built_kb, emb.url, chat.url)
        question = question_for(truths["paper-00"])
        bundle = chain.answer(question, mode="mode2")

        assert bundle.mode == "mode2"
        assert bundle.retrieved
        assert bundle.citation_list
        assert bundle.verification is not None
        assert bundle.verification.passed
        assert bundle.answer_text.endswith("thanks for asking!")


def test_the_echo_responder_cites_every_inline_mode1_block(built_kb):
    with StubEmbeddingService(dim=DIM) as emb, StubChatService(
        echo_citations_responder()
    ) as chat:
        chain, truths = _chain(built_kb, emb.url, chat.url)
        bundle = chain.answer(question_for(truths["paper-00"]), mode="mode1")
    lines = [e.full_text for e in bundle.citation_list]
    assert lines and extract_citation_block(bundle.rendered_prompt) == lines
    assert all(line in bundle.answer_text for line in lines)
    assert bundle.verification.passed
    assert len(bundle.verification.verified) >= 1


def test_extract_citation_block_reads_each_mode1_block_up_to_its_blank_line():
    first, second = _entries(2), _entries(3)[2:]
    context = "\n\n".join([
        assemble_mode1(_record("T"), first),
        assemble_mode1(_record("U"), []),
        assemble_mode1(_record("V"), second),
    ])
    prompt = render_prompt(get_template("qa_context"), context, "q?")
    assert extract_citation_block(prompt) == [e.full_text for e in first + second]


def test_answer_flags_injected_fabrication(built_kb):
    with StubEmbeddingService(dim=DIM) as emb, StubChatService(
        echo_citations_responder(fabricate=FABRICATED_CITATION)
    ) as chat:
        chain, truths = _chain(built_kb, emb.url, chat.url)
        bundle = chain.answer(question_for(truths["paper-02"]), mode="mode2")
        assert bundle.verification is not None
        assert not bundle.verification.passed
        assert len(bundle.verification.flagged) == 1
        citation, reason = bundle.verification.flagged[0]
        assert reason == "not_in_list"
        assert "Oblique Detonation Waves in Wedge Flows" in citation


def test_mode2_prompt_contains_custom_wording_and_separation(built_kb):
    with StubEmbeddingService(dim=DIM) as emb, StubChatService(
        echo_citations_responder()
    ) as chat:
        chain, truths = _chain(built_kb, emb.url, chat.url)
        bundle = chain.answer(question_for(truths["paper-01"]), mode="mode2")
        prompt = bundle.rendered_prompt

        assert "Use the provided citation list for quoting research articles" in prompt
        assert "Do not create an article name that is not in the citation list" in prompt

        context_part = prompt.split("Citation List:")[0]
        block = extract_citation_block(prompt)
        assert block, "citation slot should carry the resolved entries"
        if len(block) > 1:
            joined = "\n".join(block)
            assert joined not in context_part


def test_mode1_appends_citations_to_context(built_kb):
    with StubEmbeddingService(dim=DIM) as emb, StubChatService() as chat:
        chain, truths = _chain(built_kb, emb.url, chat.url)
        bundle = chain.answer(question_for(truths["paper-00"]), mode="mode1")
        context = bundle.rendered_prompt.split("Context: ", 1)[1].split("\n\nQuestion: ", 1)[0]
        assert "Citation List: " not in context
        assert bundle.citation_list
        # each block runs from its header to the blank line before the next chunk
        cited = {
            line
            for block in context.split(CITATION_BLOCK_HEADER)[1:]
            for line in block.split("\n\n", 1)[0].splitlines()
        }
        assert all(entry.full_text in cited for entry in bundle.citation_list)
        assert bundle.verification is not None


def test_plain_mode_skips_citation_machinery(built_kb):
    with StubEmbeddingService(dim=DIM) as emb, StubChatService() as chat:
        chain, truths = _chain(built_kb, emb.url, chat.url)
        bundle = chain.answer(question_for(truths["paper-03"]), mode="plain")
        assert bundle.verification is None
        assert bundle.citation_list == []
        assert bundle.retrieved


def test_provenance_metadata_present(built_kb):
    with StubEmbeddingService(dim=DIM) as emb, StubChatService() as chat:
        chain, truths = _chain(built_kb, emb.url, chat.url)
        bundle = chain.answer(question_for(truths["paper-01"]), mode="mode2")
        assert all(sr.record.metadata.get("source") for sr in bundle.retrieved)


def test_budget_shedding_reduces_retrieved(built_kb):
    from litrag.config import ChatConfig

    with StubEmbeddingService(dim=DIM) as emb, StubChatService(
        echo_citations_responder()
    ) as chat:
        chain, truths = _chain(built_kb, emb.url, chat.url)
        chain.config = replace(
            chain.config,
            chat=ChatConfig(
                endpoint_url=chat.url, llm_token_limit=4096, reserved_for_answer=1024
            ),
        )
        # six expanded chunks (~940 tokens each) cannot fit in 3072 tokens,
        # so the chain must shed down to whatever does
        bundle = chain.answer(question_for(truths["paper-00"]), k=6, mode="mode2")
        assert bundle.budget.fits
        assert len(bundle.retrieved) < 6
        # dispatch safety: the one request issued fits the budget
        assert len(chat.requests) == 1
        tok = chain.config.tokenizer
        from litrag.embedding import token_count

        for prompt in chat.prompts():
            assert token_count(prompt, tok) + 1024 <= 4096


def test_budget_exceeded_when_single_chunk_too_big(built_kb):
    from litrag.config import ChatConfig

    with StubEmbeddingService(dim=DIM) as emb, StubChatService() as chat:
        chain, truths = _chain(built_kb, emb.url, chat.url)
        chain.config = replace(
            chain.config,
            chat=ChatConfig(endpoint_url=chat.url, llm_token_limit=120, reserved_for_answer=16),
        )
        with pytest.raises(BudgetExceeded):
            chain.answer(question_for(truths["paper-00"]), k=2, mode="mode2")
        assert chat.requests == []  # nothing dispatched over budget


def test_chat_failure_propagates(built_kb, monkeypatch):
    monkeypatch.setattr(embedding_mod, "_RETRY_BASE_S", 0.01)
    with StubEmbeddingService(dim=DIM) as emb, StubChatService(status=503) as chat:
        chain, truths = _chain(built_kb, emb.url, chat.url)
        with pytest.raises(ChatServiceFailed):
            chain.answer(question_for(truths["paper-00"]), mode="mode2")
        assert len(chat.requests) == 2  # a 503 is retried once


@pytest.mark.parametrize("mode", ["mode2", "plain"])
def test_chat_reply_without_text_fails(built_kb, mode):
    with StubEmbeddingService(dim=DIM) as emb, StubChatService(
        responder=lambda p, q: None
    ) as chat:
        chain, truths = _chain(built_kb, emb.url, chat.url)
        with pytest.raises(ChatServiceFailed):
            chain.answer(question_for(truths["paper-00"]), mode=mode)
        assert len(chat.requests) == 1


@pytest.mark.parametrize(
    "template, mode",
    [("qa_context", "mode2"), ("custom_citation", "plain"), ("custom_citation", "mode1")],
)
def test_an_explicit_template_that_does_not_fit_the_mode_is_refused_before_any_request(
    built_kb, template, mode
):
    with StubEmbeddingService(dim=DIM) as emb, StubChatService(echo_citations_responder()) as chat:
        chain, truths = _chain(built_kb, emb.url, chat.url)
        with pytest.raises(MissingSlot, match=rf"'{template}'.*'{mode}'.*\{{citation-list\}}"):
            chain.answer(question_for(truths["paper-00"]), template=template, mode=mode)
        assert emb.requests == [] and chat.requests == []


def test_best_first_retrieval_takes_a_k_above_fetch_n(built_kb):
    from litrag.config import RetrievalConfig

    with StubEmbeddingService(dim=DIM) as emb, StubChatService() as chat:
        retrieval = RetrievalConfig(use_mmr=False, fetch_n=5)
        chain, truths = _chain(built_kb, emb.url, chat.url, retrieval=retrieval)
        bundle = chain.answer(question_for(truths["paper-01"]), k=8, mode="plain")
        assert len(bundle.retrieved) == 8
        scores = [sr.score for sr in bundle.retrieved]
        assert scores == sorted(scores, reverse=True)


def test_a_config_file_with_mmr_off_takes_a_k_above_fetch_n(built_kb, tmp_path):
    import json

    from litrag.config import RetrievalConfig, load_config

    store_root, truths = built_kb
    with StubEmbeddingService(dim=DIM) as emb, StubChatService() as chat:
        path = tmp_path / "engine.conf"
        path.write_text(
            json.dumps(
                {
                    "embedding": {"endpoint_url": emb.url, "expected_dim": DIM},
                    "chat": {"endpoint_url": chat.url},
                    "retrieval": {"k": 8, "use_mmr": False, "mmr": {"fetch_n": 5}},
                    "store_path": str(store_root),
                }
            )
        )
        cfg = load_config(path, env={})
        assert cfg.retrieval == RetrievalConfig(k=8, fetch_n=5, use_mmr=False)
        chain = QueryChain(KnowledgeBase.open(store_root), cfg)
        bundle = chain.answer(question_for(truths["paper-01"]), mode="plain")
        assert len(bundle.retrieved) == 8
        scores = [sr.score for sr in bundle.retrieved]
        assert scores == sorted(scores, reverse=True)


def test_a_k_above_the_mmr_pool_is_refused_before_any_request(built_kb):
    from litrag.config import RetrievalConfig

    with StubEmbeddingService(dim=DIM) as emb, StubChatService() as chat:
        chain, truths = _chain(built_kb, emb.url, chat.url, retrieval=RetrievalConfig(fetch_n=5))
        with pytest.raises(ValueError, match="fetch_n must be >= k"):
            chain.answer(question_for(truths["paper-01"]), k=8, mode="plain")
        assert emb.requests == [] and chat.requests == []


@pytest.mark.parametrize("temperature", [-0.5, float("nan"), float("inf")])
def test_a_bad_temperature_is_refused_before_any_request(built_kb, temperature):
    with StubEmbeddingService(dim=DIM) as emb, StubChatService() as chat:
        chain, truths = _chain(built_kb, emb.url, chat.url)
        with pytest.raises(InvalidParams, match="temperature must be finite and >= 0"):
            chain.answer(question_for(truths["paper-01"]), temperature=temperature)
        assert emb.requests == [] and chat.requests == []


def test_empty_store_raises_retrieval_empty(tmp_path):
    from litrag.store import VectorStore

    store_root = tmp_path / "kb"
    VectorStore(DIM).persist(store_root)
    with StubEmbeddingService(dim=DIM) as emb, StubChatService() as chat:
        cfg = default_config(emb.url, chat.url)
        cfg = replace(
            cfg,
            embedding=replace(cfg.embedding, expected_dim=DIM),
            store_path=str(store_root),
        )
        chain = QueryChain(KnowledgeBase.open(store_root), cfg)
        with pytest.raises(RetrievalEmpty):
            chain.answer("anything", mode="mode2")


def test_unresolved_markers_are_surfaced(built_kb):
    with StubEmbeddingService(dim=DIM) as emb, StubChatService(
        echo_citations_responder()
    ) as chat:
        chain, truths = _chain(built_kb, emb.url, chat.url)
        rng = random.Random(5)
        for doc_id in truths:
            bundle = chain.answer(question_for(truths[doc_id], rng), k=6, mode="mode2")
            if bundle.unresolved_markers:
                break
        else:
            pytest.skip("no unresolvable marker landed in the retrieved chunks")
        assert all(m.kind in ("numeric", "author_year") for m in bundle.unresolved_markers)


def test_unresolved_warning_logged_once_per_expanded_chunk(built_kb, caplog):
    with StubEmbeddingService(dim=DIM) as emb, StubChatService(
        echo_citations_responder()
    ) as chat:
        chain, truths = _chain(built_kb, emb.url, chat.url)
        question = question_for(truths["paper-00"], random.Random(0))
        warned, bundles = [], []
        for _ in range(3):
            with caplog.at_level("WARNING", logger="litrag"):
                bundles.append(chain.answer(question, k=6, mode="mode2"))
            warned.append([r.getMessage() for r in caplog.records if "could not be resolved" in r.getMessage()])
            caplog.clear()
    # the budget loop re-assembled the prompt several times ...
    assert len(bundles[0].retrieved) < 6
    # ... and each answer still lists its unresolved markers ...
    assert bundles[0].unresolved_markers
    assert all(b.unresolved_markers == bundles[0].unresolved_markers for b in bundles)
    # ... but each expanded chunk's are warned about once, when first resolved
    assert warned[1:] == [[], []]
    expected = set()
    for sr in bundles[0].retrieved:
        aux = chain.kb.aux_index(sr.record.doc_id)
        chunk = locate_expanded_chunk(aux, sr.record)
        if aux.citations(chunk)[1]:
            expected.add(chunk.chunk_id)
    named = [message.split(" in ", 1)[1].split(" could not", 1)[0] for message in warned[0]]
    assert len(named) == len(set(named)) and expected <= set(named)


# --- citation material, derived once per document ----------------------------------


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_assemble_matches_per_document_oracle(built_kb, data):
    chain, _ = _chain(built_kb, "http://unused.invalid/", "http://unused.invalid/")
    records, _ = chain.kb.store.rows()
    picked = data.draw(
        st.lists(st.integers(0, len(records) - 1), min_size=1, max_size=12, unique=True)
    )
    retrieved = [ScoredRecord(records[i], 1.0) for i in picked]
    documents = {rec.doc_id: chain.kb.document(rec.doc_id) for rec in records}
    expected = per_document_citations(documents, [sr.record for sr in retrieved])
    for mode in ("mode1", "mode2"):
        _, _, citation_list, unresolved = chain._assemble(retrieved, mode, [
            locate_expanded_chunk(chain.kb.aux_index(sr.record.doc_id), sr.record) for sr in retrieved
        ])
        assert (citation_list, unresolved) == expected


def _counting(monkeypatch, name, key):
    """Count calls of litrag.citations.<name>, wherever litrag looks it up."""
    import litrag.chain
    import litrag.citations

    calls = Counter()
    original = getattr(litrag.citations, name)

    def counted(arg, *args, **kwargs):
        calls[key(arg)] += 1
        return original(arg, *args, **kwargs)

    for module in (litrag.citations, litrag.chain):
        monkeypatch.setattr(module, name, counted)
    return calls


def test_citation_material_is_computed_once(built_kb, monkeypatch):
    parses = _counting(monkeypatch, "extract_reference_section", lambda doc: doc.doc_id)
    extractions = _counting(monkeypatch, "extract_citation_markers", lambda text: text)
    with StubEmbeddingService(dim=DIM) as emb, StubChatService(
        echo_citations_responder()
    ) as chat:
        chain, truths = _chain(built_kb, emb.url, chat.url)
        bundles = [
            chain.answer(question_for(truths[doc_id], random.Random(seed)), k=6, mode=mode)
            for seed in range(2)
            for doc_id in truths
            for mode in ("mode1", "mode2")
        ]
    assert any(len(b.retrieved) < 6 for b in bundles)  # the budget loop shed chunks
    touched = {sr.record.doc_id for b in bundles for sr in b.retrieved}
    assert touched <= set(parses) and set(parses.values()) == {1}
    expanded = {c.text for doc_id in parses for c in chain.kb.aux_index(doc_id).expanded_chunks}
    per_chunk = [n for text, n in extractions.items() if text in expanded]
    assert per_chunk and set(per_chunk) == {1}


@pytest.fixture(scope="module")
def no_reference_kb(tmp_path_factory):
    """The built_kb corpus with paper-01's reference section stripped."""
    corpus_dir = tmp_path_factory.mktemp("noref-corpus")
    truths = make_corpus(corpus_dir, n_docs=4, seed=4242, paragraphs_per_doc=12)
    path = corpus_dir / "paper-01.txt"
    body = path.read_text(encoding="utf-8").split("\n\nReferences\n\n")[0]
    path.write_text(body + "\n", encoding="utf-8")
    store_root = tmp_path_factory.mktemp("noref-kb") / "kb"
    with StubEmbeddingService(dim=DIM) as svc:
        cfg = default_config(svc.url, "http://unused.invalid/")
        cfg = replace(
            cfg,
            embedding=replace(cfg.embedding, expected_dim=DIM, batch_size=64),
            store_path=str(store_root),
        )
        assert build_knowledge_base(corpus_dir, cfg).failures == []
    return store_root, truths


def test_document_without_references_resolves_nothing(no_reference_kb, caplog):
    from litrag.citations import extract_citation_markers, locate_expanded_chunk
    from litrag.config import ChatConfig

    with StubEmbeddingService(dim=DIM) as emb, StubChatService(
        echo_citations_responder()
    ) as chat:
        chain, truths = _chain(no_reference_kb, emb.url, chat.url)
        bundles = []
        with caplog.at_level("WARNING", logger="litrag"):
            for mode, limit, reserve in (("mode1", 1500, 512), ("mode2", 4096, 1024)):
                chain.config = replace(
                    chain.config,
                    chat=ChatConfig(
                        endpoint_url=chat.url, llm_token_limit=limit, reserved_for_answer=reserve
                    ),
                )
                for seed in range(3):
                    question = question_for(truths["paper-01"], random.Random(seed))
                    bundles.append((mode, chain.answer(question, k=6, mode=mode)))
    for mode in ("mode1", "mode2"):
        assert any(m == mode and len(b.retrieved) < 6 for m, b in bundles)  # shed chunks
    aux = chain.kb.aux_index("paper-01")
    assert aux.entries == ()
    for _, bundle in bundles:
        assert all(e.doc_id != "paper-01" for e in bundle.citation_list)
        unresolved = {m.key() for m in bundle.unresolved_markers}
        ours = [sr.record for sr in bundle.retrieved if sr.record.doc_id == "paper-01"]
        assert ours
        for rec in ours:
            for marker in extract_citation_markers(locate_expanded_chunk(aux, rec).text):
                assert marker.key() in unresolved
    warnings = [r for r in caplog.records if "no reference section" in r.getMessage()]
    assert len(warnings) == 1


# --- the budget search against shedding from the top ----------------------------------


def _shed_from_the_top(documents, auxes, retrieved, mode, tpl, question_full, tok, limit, reserve):
    """The prompt as the answer first shed it, kept as the oracle: assemble
    every retrieved chunk with its citations, then drop the lowest-scored one
    until the prompt fits. Returns (kept, prompt, budget, citation_list,
    unresolved); ``auxes`` memoizes each document's aux index."""
    while True:
        expanded_texts, entries_of, unresolved_of = {}, {}, {}
        for sr in retrieved:
            rec = sr.record
            if rec.doc_id not in auxes:
                auxes[rec.doc_id] = build_auxiliary_index(documents(rec.doc_id))
            aux = auxes[rec.doc_id]
            expanded = locate_expanded_chunk(aux, rec)
            expanded_texts.setdefault(expanded.chunk_id, expanded.text)
            resolved, missing = aux.citations(expanded)
            entries_of.setdefault(rec.doc_id, {}).update(dict.fromkeys(resolved))
            doc_unresolved = unresolved_of.setdefault(rec.doc_id, {})
            for marker in missing:
                doc_unresolved.setdefault(marker.key(), marker)
        citation_list = [e for entries in entries_of.values() for e in entries]
        unresolved = [m for markers in unresolved_of.values() for m in markers.values()]
        if mode == "mode1":
            parts = [
                assemble_mode1(sr.record, list(entries_of.pop(sr.record.doc_id, ())))
                for sr in retrieved
            ]
            context, block = "\n\n".join(parts), None
        else:
            context = "\n\n".join(expanded_texts.values())
            block = format_citation_block(citation_list)
        prompt = render_prompt(tpl, context, question_full, citation_list=block)
        budget = budget_check(prompt, tok, limit, reserve)
        if budget.fits:
            return retrieved, prompt, budget, citation_list, unresolved
        if len(retrieved) == 1:
            raise BudgetExceeded(
                f"prompt needs {budget.prompt_tokens} tokens plus "
                f"{budget.reserved_for_answer} reserved, over the "
                f"{budget.llm_token_limit} limit even with a single chunk"
            )
        retrieved = retrieved[:-1]


def _oracle_answer(chain, documents, auxes, question, k, mode, template, tok=None):
    """``chain.answer`` with its prompt shed from the top, as a bundle's dict
    or a BudgetExceeded message."""
    cfg = chain.config
    tpl = get_template(template)
    question_full = f"{question} {tpl.supplement}" if tpl.supplement else question
    try:
        kept, prompt, budget, citation_list, unresolved = _shed_from_the_top(
            documents, auxes, chain._retrieve(question, k), mode, tpl, question_full,
            tok or cfg.tokenizer, cfg.chat.llm_token_limit, cfg.chat.reserved_for_answer,
        )
    except BudgetExceeded as exc:
        return str(exc)
    answer_text = chat_completion(cfg, prompt, cfg.chat.temperature)
    return AnswerBundle(
        question=question,
        rendered_prompt=prompt,
        answer_text=answer_text,
        retrieved=kept,
        citation_list=citation_list,
        verification=verify_answer_citations(answer_text, citation_list),
        mode=mode,
        temperature=cfg.chat.temperature,
        budget=budget,
        unresolved_markers=unresolved,
    ).to_dict()


def _answer(chain, question, k, mode, template):
    try:
        return chain.answer(question, k=k, mode=mode, template=template).to_dict()
    except BudgetExceeded as exc:
        return str(exc)


@pytest.fixture(scope="module")
def services():
    with StubEmbeddingService(dim=DIM) as emb, StubChatService(echo_citations_responder()) as chat:
        yield emb, chat


# mode1 takes a template with a question supplement, so that question_full differs
_TEMPLATE = {"mode1": "qa_context_split", "mode2": "custom_citation"}


@settings(max_examples=150, deadline=None)
@given(
    room=st.sampled_from(range(800, 25000, 50)),
    reserve=st.integers(0, 2048),
    k=st.sampled_from(range(1, 9)),
    mode=st.sampled_from(["mode1", "mode2"]),
    chars_per_token=st.floats(0.5, 8.0),
    doc=st.integers(0, 3),
    seed=st.integers(0, 2),
)
def test_the_budget_search_keeps_what_shedding_from_the_top_keeps(
    built_kb, services, room, reserve, k, mode, chars_per_token, doc, seed
):
    # ``room`` is the prompt length, in characters, that the budget leaves room for:
    # from under one chunk's prompt to about half of eight chunks' in mode2
    emb, chat = services
    chain, truths = _chain(
        built_kb,
        emb.url,
        chat.url,
        chat=ChatConfig(
            endpoint_url=chat.url,
            llm_token_limit=reserve + max(1, round(room / chars_per_token)),
            reserved_for_answer=reserve,
        ),
        tokenizer=TokenizerConfig(chars_per_token=chars_per_token),
    )
    question = question_for(truths[f"paper-{doc:02d}"], random.Random(seed))
    oracle_kb = KnowledgeBase.open(built_kb[0])
    expected = _oracle_answer(chain, oracle_kb.document, {}, question, k, mode, _TEMPLATE[mode])
    assert _answer(chain, question, k, mode, _TEMPLATE[mode]) == expected


def test_a_cold_answer_derives_citations_for_the_kept_chunks_and_at_most_one_more(
    built_kb, services, monkeypatch
):
    parses = _counting(monkeypatch, "extract_reference_section", lambda doc: doc.doc_id)
    extractions = _counting(monkeypatch, "extract_citation_markers", lambda text: text)
    emb, chat = services
    shed_docs = 0
    for mode, limit, reserve in (("mode1", 1500, 512), ("mode2", 4096, 1024)):
        for seed in range(3):
            for doc_id in ("paper-00", "paper-01", "paper-02", "paper-03"):
                chain, truths = _chain(
                    built_kb,
                    emb.url,
                    chat.url,
                    chat=ChatConfig(
                        endpoint_url=chat.url, llm_token_limit=limit, reserved_for_answer=reserve
                    ),
                )
                parses.clear()
                extractions.clear()
                question = question_for(truths[doc_id], random.Random(seed))
                bundle = chain.answer(question, k=8, mode=mode)
                kb = chain.kb
                kept_docs = {sr.record.doc_id for sr in bundle.retrieved}
                assert kept_docs <= set(parses) and len(set(parses) - kept_docs) <= 1
                assert set(parses.values()) == {1}
                kept_chunks = {
                    locate_expanded_chunk(kb.aux_index(sr.record.doc_id), sr.record).text
                    for sr in bundle.retrieved
                }
                every_chunk = {c.text for d in truths for c in kb.aux_index(d).expanded_chunks}
                derived = {text for text in extractions if text in every_chunk}
                assert kept_chunks <= derived and len(derived - kept_chunks) <= 1
                all_docs = {sr.record.doc_id for sr in chain._retrieve(question, 8)}
                shed_docs += len(all_docs - kept_docs)
    assert shed_docs > 0  # some answers shed every chunk of a retrieved document


@pytest.mark.parametrize("damage", ["stale offset", "damaged snapshot", "missing snapshot"])
def test_a_broken_lowest_scored_chunk_fails_the_answer_though_the_budget_sheds_it(
    built_kb, services, tmp_path, damage
):
    root = tmp_path / "kb"
    shutil.copytree(built_kb[0], root)
    records, _ = KnowledgeBase.open(root).store.rows()
    best, middle, worst = (
        next(rec for rec in records if rec.doc_id == doc_id)
        for doc_id in ("paper-00", "paper-01", "paper-03")
    )
    if damage == "stale offset":
        worst = replace(worst, start_offset=10**7, end_offset=10**7 + 5)
    emb, chat = services

    def answer(retrieved, limit, reserve=0):
        chain, _ = _chain(
            (root, None),
            emb.url,
            chat.url,
            chat=ChatConfig(endpoint_url=chat.url, llm_token_limit=limit, reserved_for_answer=reserve),
        )
        chain._retrieve = lambda question, k: retrieved
        return chain.answer("what holds?", k=len(retrieved), mode="mode2")

    # the budget that keeps the best chunk alone
    alone = answer([ScoredRecord(best, 0.9)], 10**6)
    limit = alone.budget.prompt_tokens + 1
    # neither the budget's check of the middle chunk nor its citations reach the worst one
    retrieved = [ScoredRecord(best, 0.9), ScoredRecord(middle, 0.5), ScoredRecord(worst, 0.1)]
    if damage != "stale offset":
        assert [sr.record for sr in answer(retrieved, limit).retrieved] == [best]
        snapshot = root / "docs" / "paper-03.json"
        if damage == "damaged snapshot":
            snapshot.write_text("{", encoding="utf-8")
        else:
            snapshot.unlink()
    requests = len(chat.requests)
    error = {
        "stale offset": NoContainingChunk,
        "damaged snapshot": CorruptStore,
        "missing snapshot": IoFailure,
    }[damage]
    with pytest.raises(error):
        answer(retrieved, limit)
    assert len(chat.requests) == requests


@pytest.mark.parametrize(
    "mode, limit, reserve",
    [("mode1", 1500, 512), ("mode2", 4096, 1024), ("mode2", 600, 100), ("mode2", 20000, 1024)],
)
def test_an_external_tokenizer_sees_the_requests_of_shedding_from_the_top(
    built_kb, services, mode, limit, reserve
):
    emb, chat = services
    with StubTokenizerService() as ours, StubTokenizerService() as theirs:
        chain, truths = _chain(
            built_kb,
            emb.url,
            chat.url,
            chat=ChatConfig(endpoint_url=chat.url, llm_token_limit=limit, reserved_for_answer=reserve),
            tokenizer=TokenizerConfig(mode="external", external_url=ours.url),
        )
        question = question_for(truths["paper-01"], random.Random(1))
        got = _answer(chain, question, 6, mode, _TEMPLATE[mode])
        oracle_kb = KnowledgeBase.open(built_kb[0])
        expected = _oracle_answer(
            chain, oracle_kb.document, {}, question, 6, mode, _TEMPLATE[mode],
            tok=TokenizerConfig(mode="external", external_url=theirs.url),
        )
        assert got == expected
        assert ours.requests == theirs.requests
        assert ours.requests
