"""Exception hierarchy for the repro engine.

Every error raised by the library derives from :class:`ReproError` so
applications can catch engine failures with a single handler while still
being able to distinguish storage, catalog, transaction, and SQL errors.
"""

from typing import TYPE_CHECKING, Iterable, List, Optional

if TYPE_CHECKING:  # avoid a runtime cycle: analysis imports core/catalog
    from repro.analysis.findings import Finding


class ReproError(Exception):
    """Base class for all errors raised by the repro engine."""


class StorageError(ReproError):
    """A storage-layer invariant was violated (bad page, bad RID, ...)."""


class PageFullError(StorageError):
    """A record does not fit into the target page."""


class BufferPoolError(StorageError):
    """The buffer pool cannot satisfy a request (e.g. all frames pinned)."""


class ForkError(ReproError):
    """``Database.fork()`` was refused: the database is mid-statement or
    has a per-instance hook attached (observer, fault injector, active
    lane, media recovery, pinned frame) that a copy cannot carry."""


class CatalogError(ReproError):
    """Unknown table/index/column, or a conflicting definition."""


class SchemaError(CatalogError):
    """A record does not match its table schema."""


class IndexError_(ReproError):
    """A B-tree invariant was violated or an entry was not found."""


class UniqueViolationError(IndexError_):
    """An insert would create a duplicate key in a unique index."""


class IntegrityViolationError(ReproError):
    """A referential-integrity constraint would be violated."""


class TransactionError(ReproError):
    """Illegal transaction state transition or lock protocol violation."""


class LockConflictError(TransactionError):
    """A lock request conflicts with a lock held by another transaction."""


class IndexOfflineError(TransactionError):
    """An operation required an on-line index that is currently off-line."""


class RecoveryError(ReproError):
    """The log is corrupt or restart cannot proceed."""


class MediaError(ReproError):
    """A media-level failure: the durable bytes cannot be trusted.

    Media errors are *typed aborts*, never silent wrong answers: a
    statement that cannot obtain a verified page image raises one of
    the leaves below and leaves every structure consistent.  Raising
    them is confined to ``repro/media/`` and ``repro/storage/`` by the
    ``code/media-error-outside-media`` lint rule, so every read-path
    failure goes through the one retry/repair/quarantine policy.

    ``page_id`` names the offending page when there is one.
    """

    def __init__(self, message: str, page_id: "Optional[int]" = None) -> None:
        super().__init__(message)
        self.page_id = page_id


class ChecksumMismatch(MediaError):
    """A page's durable bytes fail their stored checksum (bit rot,
    torn write, stuck bits) — detected on read, before the bytes can
    reach any operator."""


class TransientReadError(MediaError):
    """One read attempt failed but the medium may recover; the caller
    retries with backoff (``repro.media.MediaRecovery``)."""


class RetriesExhausted(MediaError):
    """Bounded retries ran out and no repair image was available."""


class QuarantinedPage(MediaError):
    """The page was quarantined: repair failed (or was impossible) and
    further reads/writes are refused until it is restored offline."""


class CorruptLogError(MediaError, RecoveryError):
    """The write-ahead log *body* is corrupt (media damage to the log
    device).  Also a :class:`RecoveryError`, so existing restart
    handlers keep working."""


class SqlError(ReproError):
    """Base class for SQL front-end errors."""


class SqlSyntaxError(SqlError):
    """The statement could not be parsed."""


class SqlBindError(SqlError):
    """The statement references unknown tables or columns."""


class PlanningError(ReproError):
    """The bulk-delete planner could not produce a valid plan."""


class PlanValidationError(PlanningError):
    """The static plan linter rejected a plan (ERROR-severity findings).

    ``findings`` carries the structured
    :class:`repro.analysis.findings.Finding` objects that fired.
    """

    def __init__(
        self, message: str, findings: "Iterable[Finding]" = ()
    ) -> None:
        super().__init__(message)
        self.findings: "List[Finding]" = list(findings)
