"""Spans around litrag's public functions, recorded from the benchmark.

``Tracer.install()`` replaces each traced function at the name through which
its caller looks it up (``litrag.chain.extract_reference_section``,
``litrag.store.VectorStore.top_k``, ...) with a wrapper that records a span:
name, start, end, parent, thread and the phase of the run. Spans stay in
memory; ``self_times`` turns them into self time per span, the span's length
minus the part of it that its child spans cover.

A span opened in a worker thread with no span of its own above it takes the
innermost open span of the main thread as its parent, which is the call that
started the worker pool. Store calls made inside ``store.open`` or
``kb.aux_index`` are part of that call and get no span of their own.
"""

from __future__ import annotations

import inspect
import math
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

# (span name, object, attribute): the object is the module or class through
# which the calling code looks the function up.
TRACED = (
    ("ingest.load_document", "litrag.ingest", "load_document"),
    ("ingest.recursive_split", "litrag.ingest", "recursive_split"),
    ("embedding.embed_texts", "litrag.kb", "embed_texts"),
    ("embedding.embed_texts", "litrag.citations", "embed_texts"),
    ("embedding.query_embed", "litrag.chain", "embed_texts"),
    ("store.upsert", "litrag.store.VectorStore", "upsert"),
    ("store.persist", "litrag.store.VectorStore", "persist"),
    ("store.open", "litrag.store.VectorStore", "open"),
    ("store.top_k", "litrag.store.VectorStore", "top_k"),
    ("store.mmr_select", "litrag.store.VectorStore", "mmr_select"),
    ("citations.extract_reference_section", "litrag.chain", "extract_reference_section"),
    ("citations.locate_expanded_chunk", "litrag.chain", "locate_expanded_chunk"),
    ("citations.extract_citation_markers", "litrag.chain", "extract_citation_markers"),
    ("citations.resolve_citations", "litrag.chain", "resolve_citations"),
    ("citations.verify_answer_citations", "litrag.chain", "verify_answer_citations"),
    ("citations.build_auxiliary_index", "litrag.kb", "build_auxiliary_index"),
    ("chain.answer", "litrag.chain.QueryChain", "answer"),
    ("chain.render_prompt", "litrag.chain", "render_prompt"),
    ("chain.budget_check", "litrag.chain", "budget_check"),
    ("chain.chat_completion", "litrag.chain", "chat_completion"),
    ("kb.document", "litrag.kb.KnowledgeBase", "document"),
    ("kb.aux_index", "litrag.kb.KnowledgeBase", "aux_index"),
    ("kb.open", "litrag.kb.KnowledgeBase", "open"),
    ("kb.build_knowledge_base", "litrag.kb", "build_knowledge_base"),
    ("kb.build_knowledge_base", "litrag.harness", "build_knowledge_base"),
    ("harness.sweep_chunking", "litrag.harness", "sweep_chunking"),
    ("harness.cluster_stats", "litrag.harness", "cluster_stats"),
)

_ABSORBING = ("store.open", "kb.aux_index")

EM_TOKEN_LIMIT = 768  # litrag's default embedding token limit; texts above it are oversize


def _resolve(dotted: str):
    import importlib

    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(dotted)


def dir_bytes(path: Path, recursive: bool = True) -> tuple[int, int]:
    """(bytes, files) of the regular files in ``path``, and below it when
    ``recursive``."""
    total = files = 0
    for root, _, names in os.walk(path):
        for name in names:
            total += os.path.getsize(os.path.join(root, name))
            files += 1
        if not recursive:
            break
    return total, files


class Tracer:
    def __init__(self):
        self.phase = ""
        self.spans: list[dict] = []
        self._stacks: dict[int, list[int]] = defaultdict(list)
        self._lock = threading.Lock()
        self._main = threading.main_thread().ident

    def install(self):
        for name, owner, attr in TRACED:
            target = _resolve(owner)
            raw = inspect.getattr_static(target, attr)
            if isinstance(raw, classmethod):
                setattr(target, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                setattr(target, attr, self._wrap(name, raw))

    def _wrap(self, name: str, func):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stacks[threading.get_ident()]
            parent = stack[-1] if stack else None
            if parent is None and threading.get_ident() != tracer._main:
                main_stack = tracer._stacks[tracer._main]
                parent = main_stack[-1] if main_stack else None
            if (name.startswith("store.") and stack
                    and tracer.spans[stack[-1]]["name"] in _ABSORBING):
                return func(*args, **kwargs)
            span = {"name": name, "parent": parent, "phase": tracer.phase,
                    "thread": threading.get_ident()}
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            span["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            tracer._count(span, name, args, kwargs)
            return result

        traced.__wrapped__ = func
        return traced

    def _count(self, span: dict, name: str, args, kwargs):
        """Counts taken at the call boundary, outside the span's time."""
        if name == "embedding.embed_texts":
            texts = args[0]
            span["texts"] = len(texts)
            span["oversize"] = sum(math.ceil(len(t) / 4) > EM_TOKEN_LIMIT for t in texts)
        elif name == "store.persist":
            span["bytes"], _ = dir_bytes(Path(args[1]), recursive=False)
        elif name == "kb.build_knowledge_base":
            root = kwargs.get("store_root") or args[1].store_path
            _, span["files"] = dir_bytes(Path(root))

    def self_times(self) -> list[float]:
        """Self time of every span, in seconds."""
        children: dict[int, list[int]] = defaultdict(list)
        for i, span in enumerate(self.spans):
            if span["parent"] is not None:
                children[span["parent"]].append(i)
        out = []
        for i, span in enumerate(self.spans):
            start, end = span["start"], span["end"]
            covered, reach = 0.0, start
            for s, e in sorted((self.spans[c]["start"], self.spans[c]["end"]) for c in children[i]):
                s, e = max(s, reach), min(e, end)
                if e > s:
                    covered += e - s
                    reach = e
            out.append(end - start - covered)
        return out


def layer_metrics(tracer: Tracer, side: str, n: int, n_rows: int,
                  outcomes: dict) -> dict[str, float]:
    """Per-layer figures of one side of a traced run.

    ``side`` "build": figures per build (``n`` builds; the sweep figure per
    row), from spans of the ``build`` phase. ``side`` "serve": store.open
    per call from the ``open`` phase, kb first-touch loads per call from
    ``cold``, and every query figure per warm question (``n`` questions)
    from ``warm``.
    """
    selfs = tracer.self_times()
    by: dict[tuple[str, str], list[int]] = defaultdict(list)
    for i, span in enumerate(tracer.spans):
        by[(span["phase"], span["name"])].append(i)

    def self_total(phase, name):
        return sum(selfs[i] for i in by.get((phase, name), []))

    def per_call_ms(phase, name):
        idx = by.get((phase, name), [])
        return 1000.0 * sum(selfs[i] for i in idx) / len(idx) if idx else 0.0

    def attr_total(phase, name, key):
        return sum(tracer.spans[i].get(key, 0) for i in by.get((phase, name), []))

    def layer_self(phase, layer):
        return sum(selfs[i] for (p, name), idx in by.items()
                   if p == phase and name.startswith(layer + ".") for i in idx)

    n = max(n, 1)
    if side == "build":
        m = {
            "ingest.load_document_ms": per_call_ms("build", "ingest.load_document"),
            "ingest.recursive_split_ms": per_call_ms("build", "ingest.recursive_split"),
            "embedding.embed_texts_s": self_total("build", "embedding.embed_texts") / n,
            "embedding.oversize_texts": attr_total("build", "embedding.embed_texts", "oversize") / n,
            "store.upsert_s": self_total("build", "store.upsert") / n,
            "store.persist_s": self_total("build", "store.persist") / n,
            "store.bytes_written": attr_total("build", "store.persist", "bytes") / n,
            "citations.build_auxiliary_index_s": self_total("build", "citations.build_auxiliary_index") / n,
            "kb.build_knowledge_base_s": self_total("build", "kb.build_knowledge_base") / n,
            "kb.files_written": attr_total("build", "kb.build_knowledge_base", "files") / n,
            "harness.sweep_chunking_s": self_total("build", "harness.sweep_chunking") / max(n_rows, 1),
        }
        for layer in ("ingest", "store", "harness"):
            m[f"layer.{layer}.build_self_s"] = layer_self("build", layer) / n
    else:
        calls = len(by.get(("warm", "citations.extract_reference_section"), []))
        m = {
            "embedding.query_embed_ms": per_call_ms("warm", "embedding.query_embed"),
            "store.open_s": per_call_ms("open", "store.open") / 1000.0,
            "store.top_k_ms": per_call_ms("warm", "store.top_k"),
            "store.mmr_select_ms": per_call_ms("warm", "store.mmr_select"),
            "citations.extract_reference_section_ms": per_call_ms("warm", "citations.extract_reference_section"),
            "citations.extract_reference_section_calls": calls / n,
            "citations.locate_expanded_chunk_ms": per_call_ms("warm", "citations.locate_expanded_chunk"),
            "citations.extract_citation_markers_ms": per_call_ms("warm", "citations.extract_citation_markers"),
            "citations.resolve_citations_ms": per_call_ms("warm", "citations.resolve_citations"),
            "citations.verify_answer_citations_ms": per_call_ms("warm", "citations.verify_answer_citations"),
            "chain.budget_checks": len(by.get(("warm", "chain.budget_check"), [])) / n,
            "chain.render_prompt_ms": per_call_ms("warm", "chain.render_prompt"),
            "chain.budget_check_ms": per_call_ms("warm", "chain.budget_check"),
            "chain.answer_self_ms": 1000.0 * self_total("warm", "chain.answer") / n,
            "chain.chat_completion_ms": per_call_ms("warm", "chain.chat_completion"),
            "kb.document_ms": per_call_ms("cold", "kb.document"),
            "kb.aux_index_ms": per_call_ms("cold", "kb.aux_index"),
            "harness.cluster_stats_ms": per_call_ms("stats", "harness.cluster_stats"),
        }
        for layer in ("store", "citations", "chain", "kb"):
            m[f"layer.{layer}.query_self_ms"] = 1000.0 * layer_self("warm", layer) / n
    m.update(outcomes)
    return m
