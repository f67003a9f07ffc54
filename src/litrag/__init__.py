"""Grounded retrieval-augmented knowledge engine for scientific text corpora.

Chunk, embed, index and retrieve a document corpus; assemble token-budgeted
prompts for an external chat service; and verify every citation in generated
answers against the source documents' own reference sections.
"""

from .chain import (
    AnswerBundle,
    PromptTemplate,
    QueryChain,
    TokenBudget,
    assemble_mode1,
    budget_check,
    get_template,
    render_prompt,
)
from .citations import (
    AuxIndex,
    CitationEntry,
    CitationMarker,
    VerificationReport,
    build_auxiliary_index,
    extract_citation_markers,
    extract_reference_section,
    locate_expanded_chunk,
    resolve_citations,
    verify_answer_citations,
)
from .config import EngineConfig, default_config, load_config
from .embedding import (
    EmbeddingConfig,
    EmbeddingVector,
    TokenizerConfig,
    embed_texts,
    token_count,
)
from .errors import LitragError
from .ingest import (
    Chunk,
    Corpus,
    Document,
    IngestReport,
    SplitParams,
    load_corpus,
    load_document,
    recursive_split,
)
from .kb import KnowledgeBase, build_knowledge_base
from .store import (
    ChunkRecord,
    Metric,
    MMRParams,
    ScoredRecord,
    VectorStore,
    similarity,
)

__version__ = "0.1.0"

__all__ = [
    "AnswerBundle",
    "AuxIndex",
    "Chunk",
    "ChunkRecord",
    "CitationEntry",
    "CitationMarker",
    "Corpus",
    "Document",
    "EmbeddingConfig",
    "EmbeddingVector",
    "EngineConfig",
    "IngestReport",
    "KnowledgeBase",
    "LitragError",
    "Metric",
    "MMRParams",
    "PromptTemplate",
    "QueryChain",
    "ScoredRecord",
    "SplitParams",
    "TokenBudget",
    "TokenizerConfig",
    "VectorStore",
    "VerificationReport",
    "assemble_mode1",
    "budget_check",
    "build_auxiliary_index",
    "build_knowledge_base",
    "default_config",
    "embed_texts",
    "extract_citation_markers",
    "extract_reference_section",
    "get_template",
    "load_config",
    "load_corpus",
    "load_document",
    "locate_expanded_chunk",
    "recursive_split",
    "render_prompt",
    "resolve_citations",
    "similarity",
    "token_count",
    "verify_answer_citations",
]
