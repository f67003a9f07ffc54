"""Grounded answering: prompt stencils, token budgeting, context assembly
and the retrieval-to-verification pipeline.

A query runs through one sequential chain: embed the question, retrieve
chunks (best-first or MMR), recover each chunk's expanded context and
citation list from its source document, assemble the prompt per the
configured mode, enforce the token budget, call the chat service, and
verify every citation in the answer against the resolved citation list.

Modes:
  mode1  original chunk text with its citation list appended inline
  mode2  expanded chunk text as context, citation list in its own prompt
         slot (tighter control over list quality and input size)
  plain  retrieved chunk text only, no citation machinery
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field, replace

from .citations import (
    CitationEntry,
    CitationMarker,
    VerificationReport,
    locate_expanded_chunk,
    verify_answer_citations,
)
from .citations import (  # noqa: F401 - unused; perfbench's trace table hooks these names
    extract_citation_markers,
    extract_reference_section,
    resolve_citations,
)
from .config import EngineConfig
from .embedding import TokenizerConfig, embed_texts, post_json, token_count
from .errors import (
    BudgetExceeded,
    ChatServiceFailed,
    EmptyStore,
    InvalidParams,
    MissingSlot,
    RetrievalEmpty,
    UnknownSlot,
)
from .ingest import Chunk
from .kb import KnowledgeBase
from .store import ScoredRecord

logger = logging.getLogger(__name__)

KNOWN_SLOTS = ("context", "question", "citation-list")
_SLOT_RE = re.compile(r"\{([a-z][a-z0-9-]*)\}")

CITATION_BLOCK_HEADER = "--- Citation List ---"


@dataclass(frozen=True)
class PromptTemplate:
    """A prompt stencil with named slots.

    ``body`` may reference {context}, {question} and {citation-list}.
    ``supplement`` is extra instruction text appended to the user question
    before rendering.
    """

    name: str
    body: str
    supplement: str | None = None

    def slots(self) -> list[str]:
        return [m.group(1) for m in _SLOT_RE.finditer(self.body)]


_QA_CONTEXT_BODY = """\
Use the following pieces of context to answer the question at the end. \
Provide the source document name of the context you use to formulate your answer. \
You are a subject matter expert in Oblique Detonation Waves and their numerical analysis.

If you do not know the answer, just say that you do not know, do not try to make up an answer. \
Reply with minimum 500 words and provide give a detailed list of research papers. \
Do not try to make up research article names.
Always say "thanks for asking!" at the end of the answer.

Context: {context}

Question: {question}

Answer: """

_QA_CONTEXT_SPLIT_BODY = """\
Use the following pieces of context to answer the question at the end. \
You are a subject matter expert in Oblique Detonation waves and their numerical analysis. \
Always say "thanks for asking!" at the end of the answer.

Context: {context}

Question: {question}

Answer: """

_QA_CONTEXT_SPLIT_SUPPLEMENT = (
    "Reply with minimum 500 words and provide give a detailed list of research papers "
    "for this topic. If you do not know the answer, just say that you do not know, "
    "do not try to make up an answer. If you do not know the full research paper name, "
    "do not try to make up a research article name."
)

_CUSTOM_CITATION_BODY = """\
Use the following pieces of context to answer the question at the end. \
You are a subject matter expert in Oblique Detonation waves and their numerical analysis.
Also, use the following citation list to find the correct research article as seen in \
the pieces of context. Do not create an article name that is not in the citation list.
Always say "thanks for asking!" at the end of the answer.

Context: {context}

Citation List: {citation-list}

Question: {question}

Answer: """

_CUSTOM_CITATION_SUPPLEMENT = (
    "Reply with minimum 500 words and provide give a detailed list of research papers "
    "for this topic. Use the provided citation list for quoting research articles."
)

_INTROSPECTIVE_BODY = """\
Use the following pieces of context to answer the question at the end. \
Present a clear rationale for the generated response, state the assumptions it rests on, \
and point out any information gaps in the response, uncovering any information gaps \
left by the provided material.

Context: {context}

Question: {question}

Answer: """

_SENSIBLE_VALIDATION_BODY = """\
Use the following pieces of context to answer the question at the end. \
Divide the question into discrete sub-queries, generating no more than {limit} sub-queries. \
Answer each sub-query from the context, then formulate the final response by combining \
the answers to these sub-queries.

Context: {context}

Question: {question}

Answer: """


def sensible_validation_template(max_subqueries: int = 3) -> PromptTemplate:
    """The sub-query stencil with its question cap baked in."""
    return PromptTemplate(
        name="sensible_validation",
        body=_SENSIBLE_VALIDATION_BODY.replace("{limit}", str(max_subqueries)),
    )


BUILTIN_TEMPLATES: dict[str, PromptTemplate] = {
    "qa_context": PromptTemplate(name="qa_context", body=_QA_CONTEXT_BODY),
    "qa_context_split": PromptTemplate(
        name="qa_context_split",
        body=_QA_CONTEXT_SPLIT_BODY,
        supplement=_QA_CONTEXT_SPLIT_SUPPLEMENT,
    ),
    "custom_citation": PromptTemplate(
        name="custom_citation",
        body=_CUSTOM_CITATION_BODY,
        supplement=_CUSTOM_CITATION_SUPPLEMENT,
    ),
    "introspective": PromptTemplate(name="introspective", body=_INTROSPECTIVE_BODY),
    "sensible_validation": sensible_validation_template(),
}


def get_template(name: str) -> PromptTemplate:
    try:
        return BUILTIN_TEMPLATES[name]
    except KeyError:
        raise UnknownSlot(
            f"unknown template {name!r}; available: {sorted(BUILTIN_TEMPLATES)}"
        ) from None


def render_prompt(
    tpl: PromptTemplate,
    context: str,
    question: str,
    citation_list: str | None = None,
) -> str:
    """Fill the template slots. Pure substitution, no other rewriting.

    Raises UnknownSlot for slot names outside the known set and MissingSlot
    when the body references {citation-list} but none was provided.
    """
    provided = {"context": context, "question": question}
    if citation_list is not None:
        provided["citation-list"] = citation_list

    for name in tpl.slots():
        if name not in KNOWN_SLOTS:
            raise UnknownSlot(f"template {tpl.name!r} references unknown slot {{{name}}}")
        if name not in provided:
            raise MissingSlot(f"template {tpl.name!r} requires slot {{{name}}}")

    return _SLOT_RE.sub(lambda m: provided[m.group(1)], tpl.body)


@dataclass(frozen=True)
class TokenBudget:
    prompt_tokens: int
    llm_token_limit: int
    reserved_for_answer: int

    @property
    def fits(self) -> bool:
        return self.prompt_tokens + self.reserved_for_answer <= self.llm_token_limit

    def to_dict(self) -> dict:
        return {
            "prompt_tokens": self.prompt_tokens,
            "llm_token_limit": self.llm_token_limit,
            "reserved_for_answer": self.reserved_for_answer,
            "fits": self.fits,
        }


def budget_check(
    prompt: str, tok: TokenizerConfig, limit: int, reserve: int
) -> TokenBudget:
    """Token accounting for an assembled prompt. Callers must not dispatch
    a chat request while ``fits`` is false."""
    if not (limit > reserve >= 0):
        raise InvalidParams("require limit > reserve >= 0")
    return TokenBudget(
        prompt_tokens=token_count(prompt, tok),
        llm_token_limit=limit,
        reserved_for_answer=reserve,
    )


def format_citation_block(citation_list: list[CitationEntry]) -> str:
    """The numbered citation lines handed to the model (entries verbatim)."""
    return "\n".join(entry.full_text for entry in citation_list)


def assemble_mode1(original: Chunk, citation_list: list[CitationEntry]) -> str:
    """Original chunk text with a delimited citation block appended."""
    out = f"{original.text}\n\n{CITATION_BLOCK_HEADER}"
    block = format_citation_block(citation_list)
    if block:
        out += "\n" + block
    return out


def assemble_mode2(expanded: Chunk, citation_list: list[CitationEntry]) -> tuple[str, str]:
    """Expanded chunk as context; citation block kept separate for its own
    prompt slot."""
    return expanded.text, format_citation_block(citation_list)


@dataclass
class AnswerBundle:
    """Everything produced for one question, with provenance."""

    question: str
    rendered_prompt: str
    answer_text: str
    retrieved: list[ScoredRecord]
    citation_list: list[CitationEntry]
    verification: VerificationReport | None
    mode: str
    temperature: float
    budget: TokenBudget | None = None
    unresolved_markers: list[CitationMarker] = field(default_factory=list)

    def to_dict(self, include_prompt: bool = True) -> dict:
        d = {
            "question": self.question,
            "answer_text": self.answer_text,
            "mode": self.mode,
            "temperature": self.temperature,
            "retrieved": [
                {
                    "chunk_id": sr.record.chunk_id,
                    "doc_id": sr.record.doc_id,
                    "score": sr.score,
                    "source": sr.record.metadata.get("source"),
                    "start_offset": sr.record.start_offset,
                    "end_offset": sr.record.end_offset,
                }
                for sr in self.retrieved
            ],
            "citation_list": [e.to_dict() for e in self.citation_list],
            "verification": self.verification.to_dict() if self.verification else None,
            "budget": self.budget.to_dict() if self.budget else None,
            "unresolved_markers": [m.to_dict() for m in self.unresolved_markers],
        }
        if include_prompt:
            d["rendered_prompt"] = self.rendered_prompt
        return d


def chat_completion(config: EngineConfig, prompt: str, temperature: float) -> str:
    """One chat-completion call over the wire. Every failure, the reply's
    shape included, raises ChatServiceFailed."""
    payload = {
        "model": config.chat.model_name,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": temperature,
    }
    reply = post_json(config.chat.endpoint_url, payload, ChatServiceFailed, timeout=120.0)
    try:
        content = reply["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise ChatServiceFailed(f"malformed chat response: {exc!r}") from exc
    if not isinstance(content, str):
        raise ChatServiceFailed(f"chat reply content is {type(content).__name__}, not a string")
    return content


class QueryChain:
    """The grounded answering pipeline over one knowledge base."""

    def __init__(self, kb: KnowledgeBase, config: EngineConfig):
        self.kb = kb
        self.config = config

    # -- retrieval ---------------------------------------------------------

    def _retrieve(self, question: str, k: int) -> list[ScoredRecord]:
        # built first, so that a k the configured MMR pool cannot hold is refused before any request
        params = replace(self.config.retrieval, k=k)
        qvec = embed_texts([question], self.config.embedding, tokenizer=self.config.tokenizer)[0]
        try:
            if params.use_mmr:
                return self.kb.store.mmr_select(qvec, params)
            return self.kb.store.top_k(qvec, k, params.sim1)
        except EmptyStore as exc:
            raise RetrievalEmpty(str(exc)) from exc

    # -- prompt assembly -------------------------------------------------------

    def _assemble(
        self, retrieved: list[ScoredRecord], mode: str
    ) -> tuple[str, str | None, list[CitationEntry], list[CitationMarker]]:
        """Build (context, citation_block, citation_list, unresolved) for a mode.

        Citation material is looked up in each document's memoized aux
        index. Within a document, entries are deduplicated by value and
        unresolved markers by ``key()``; both are grouped by document in the
        order documents first appear among ``retrieved``.
        """
        if mode == "plain":
            context = "\n\n".join(sr.record.text for sr in retrieved)
            return context, None, [], []

        expanded_texts: dict[str, str] = {}
        entries_of: dict[str, dict[CitationEntry, None]] = {}
        unresolved_of: dict[str, dict[tuple, CitationMarker]] = {}
        for sr in retrieved:
            rec = sr.record
            aux = self.kb.aux_index(rec.doc_id)
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
            # Each document's citation list rides with its first retrieved chunk
            # so merged lists are not repeated.
            parts = [
                assemble_mode1(sr.record, list(entries_of.pop(sr.record.doc_id, ())))
                for sr in retrieved
            ]
            return "\n\n".join(parts), None, citation_list, unresolved

        # mode2: expanded chunks replace the originals (each contains its
        # original); the citation block stays out of the context slot.
        block = format_citation_block(citation_list)
        return "\n\n".join(expanded_texts.values()), block, citation_list, unresolved

    # -- the pipeline ---------------------------------------------------------

    def answer(
        self,
        question: str,
        *,
        k: int | None = None,
        template: PromptTemplate | str | None = None,
        mode: str | None = None,
        temperature: float | None = None,
    ) -> AnswerBundle:
        """Run the full chain for ``question`` and return the answer bundle.

        Over-budget prompts shed the lowest-scored retrieved chunk and
        re-assemble until the budget fits; BudgetExceeded is raised only when
        no retrieved chunk survives. No chat request is dispatched unless the
        budget fits.
        """
        cfg = self.config
        mode = mode if mode is not None else cfg.mode
        k = k if k is not None else cfg.retrieval.k
        # built first, so that a bad temperature is refused before any request
        chat = cfg.chat if temperature is None else replace(cfg.chat, temperature=temperature)
        # mode2 needs the {citation-list} slot and the other modes must not
        # reference it: the configured template is swapped for one that fits,
        # and an explicit one that does not fit is refused before any request.
        needs_list = mode == "mode2"
        if template is None:
            tpl = get_template(cfg.template_name)
            if ("citation-list" in tpl.slots()) != needs_list:
                tpl = get_template("custom_citation" if needs_list else "qa_context")
        else:
            tpl = get_template(template) if isinstance(template, str) else template
            if ("citation-list" in tpl.slots()) != needs_list:
                raise MissingSlot(
                    f"template {tpl.name!r} does not fit mode {mode!r}: mode2 needs the "
                    "{citation-list} slot and the other modes must not reference it"
                )

        retrieved = self._retrieve(question, k)

        question_full = question
        if tpl.supplement:
            question_full = f"{question} {tpl.supplement}"

        while True:
            context, block, citation_list, unresolved = self._assemble(retrieved, mode)
            prompt = render_prompt(tpl, context, question_full, citation_list=block)
            budget = budget_check(
                prompt, cfg.tokenizer, cfg.chat.llm_token_limit, cfg.chat.reserved_for_answer
            )
            if budget.fits:
                break
            if len(retrieved) == 1:
                raise BudgetExceeded(
                    f"prompt needs {budget.prompt_tokens} tokens plus "
                    f"{budget.reserved_for_answer} reserved, over the "
                    f"{budget.llm_token_limit} limit even with a single chunk"
                )
            dropped = retrieved[-1]
            logger.info(
                "over budget (%d tokens); dropping lowest-scored chunk %s",
                budget.prompt_tokens,
                dropped.record.chunk_id,
            )
            retrieved = retrieved[:-1]
        if unresolved:
            logger.warning(
                "%d citation marker(s) could not be resolved: %s",
                len(unresolved),
                "; ".join(m.display() for m in unresolved[:5]),
            )

        answer_text = chat_completion(cfg, prompt, chat.temperature)
        verification = (
            verify_answer_citations(answer_text, citation_list) if mode != "plain" else None
        )

        return AnswerBundle(
            question=question,
            rendered_prompt=prompt,
            answer_text=answer_text,
            retrieved=retrieved,
            citation_list=citation_list,
            verification=verification,
            mode=mode,
            temperature=chat.temperature,
            budget=budget,
            unresolved_markers=unresolved,
        )
