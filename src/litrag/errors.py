"""Exception hierarchy shared across the engine.

Every operational failure raises a subclass of LitragError so callers (and
the CLI) can distinguish engine failures from programming errors.
"""


class LitragError(Exception):
    """Base class for all engine errors."""


class InvalidParams(LitragError, ValueError):
    """A parameter its check refuses: a config value, a flag or an API
    argument. The CLI reports one as a usage error (exit 64); the config
    loader turns one into a ValidationError naming its section."""


# --- corpus ingestion ---------------------------------------------------

class FileUnreadable(LitragError):
    pass


class ExtractorFailed(LitragError):
    pass


class EmptyDocument(LitragError):
    pass


class DirectoryUnreadable(LitragError):
    pass


class DuplicateDocument(LitragError):
    """A file's document id (its stem) is already taken by an earlier file."""


# --- embedding / tokenizer services -------------------------------------

class ServiceUnreachable(LitragError):
    pass


class DimensionMismatch(LitragError):
    pass


class PartialFailure(LitragError):
    """Some embedding batches failed, each after ``post_json``'s policy:
    a transient cause is retried once, any other fails at once.

    Carries the indexes of the inputs whose batches failed.
    """

    def __init__(self, message: str, failed_indexes: list[int]):
        super().__init__(message)
        self.failed_indexes = list(failed_indexes)


# --- vector store ---------------------------------------------------------

class EmptyStore(LitragError):
    pass


class ZeroVector(LitragError):
    pass


class NonFiniteVector(LitragError, ValueError):
    """An embedding that overflows float32 when stored."""


class InvalidLambda(InvalidParams):
    pass


class IoFailure(LitragError):
    pass


class CorruptStore(LitragError):
    pass


class DimensionHeaderMismatch(LitragError):
    pass


# --- citation guard --------------------------------------------------------

class NoContainingChunk(LitragError):
    pass


class NoReferenceSection(LitragError):
    pass


# --- query chain -------------------------------------------------------------

class MissingSlot(LitragError):
    pass


class UnknownSlot(LitragError):
    pass


class BudgetExceeded(LitragError):
    pass


class RetrievalEmpty(LitragError):
    pass


class ChatServiceFailed(LitragError):
    pass


# --- evaluation harness -----------------------------------------------------

class MissingLabel(LitragError):
    pass


# --- configuration ------------------------------------------------------------

class ParseError(LitragError):
    pass


class ValidationError(LitragError):
    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
