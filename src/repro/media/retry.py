"""The media recovery layer: retry, backoff, repair, quarantine.

:class:`MediaRecovery` wraps a disk's verified read path in the policy
a real storage engine applies between "the read failed" and "the query
fails":

1. **Retry with backoff** — a :class:`~repro.errors.TransientReadError`
   is re-attempted up to ``max_read_attempts`` times, sleeping an
   exponentially growing backoff on the *simulated* clock between
   attempts, so the latency cost of flaky media shows up in every
   trace and benchmark exactly like any other I/O cost.
2. **Repair from a full-page image** — a
   :class:`~repro.errors.ChecksumMismatch` (or retries that keep
   failing) falls through to the configured image sources, ordered:
   typically the WAL's full-page-write images first, then an external
   backup.  A repair is an ordinary ``write_page`` — charged, observed,
   and (deliberately) routed through any armed fault injector, so
   stuck-bit media corrupts the repair too.
3. **Quarantine** — when repair itself keeps producing unreadable
   bytes, the page is fenced off via ``disk.quarantine_page`` and the
   caller gets a typed :class:`~repro.errors.QuarantinedPage`; when no
   source has an image at all, :class:`~repro.errors.RetriesExhausted`
   is raised and the page is *left alone* (restart uses this to skip
   freshly allocated pages that no durable structure references).

A caution on WAL images as a repair source: a ``page_image`` record is
the page's content *before* the statement first dirtied it.  Repairing
from it is only correct when logical redo follows (restart's contract)
or when the open statement has not modified the page — which holds for
the buffer pool's use here, because a pool miss reads a page before
anything can dirty its frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import (
    ChecksumMismatch,
    MediaError,
    QuarantinedPage,
    RetriesExhausted,
    TransientReadError,
)
from repro.obs.trace import maybe_span
from repro.storage.disk import SimulatedDisk

#: ``source(page_id) -> image or None`` — one place a known-good
#: full-page image might come from.
ImageSource = Callable[[int], Optional[bytes]]


@dataclass(frozen=True)
class MediaPolicy:
    """How hard to try before giving a read up for dead."""

    #: Total read attempts per call (first try included).
    max_read_attempts: int = 4
    #: Simulated milliseconds slept before the first retry.
    backoff_ms: float = 1.0
    #: Growth factor between consecutive backoffs.
    backoff_multiplier: float = 2.0
    #: Repair-and-reread cycles before quarantining the page.
    repair_attempts: int = 2

    def __post_init__(self) -> None:
        if self.max_read_attempts < 1:
            raise ValueError("max_read_attempts must be at least 1")
        if self.backoff_ms < 0 or self.backoff_multiplier < 1:
            raise ValueError("backoff must be non-negative and non-shrinking")
        if self.repair_attempts < 0:
            raise ValueError("repair_attempts must be non-negative")


@dataclass
class MediaStats:
    """What one :class:`MediaRecovery` instance did."""

    reads: int = 0
    transient_failures: int = 0
    checksum_failures: int = 0
    retries: int = 0
    backoff_ms: float = 0.0
    repairs: int = 0
    quarantines: int = 0


def wal_image_source(log: Any) -> ImageSource:
    """Latest full-page-write image per page from a WAL's ``page_image``
    records (duck-typed: anything with ``records(kind)``)."""

    def source(page_id: int) -> Optional[bytes]:
        image: Optional[bytes] = None
        for record in log.records("page_image"):
            if record.payload["page_id"] == page_id:
                image = record.payload["image"]
        return image

    return source


class MediaRecovery:
    """Read pages through retry/repair/quarantine policy.

    ``image_sources`` is an ordered sequence of ``(label, source)``
    pairs; the label ("wal", "backup", ...) tags repair metrics and
    trace attributes.  Attach to a :class:`~repro.storage.buffer
    .BufferPool` for a block with ``with pool.attached(media=recovery):``
    (or pass ``media=`` to a recoverable run, which does that) — every
    pool miss inside it reads through :meth:`read`, and the previous
    hook is back on exit even when the block raises.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        policy: Optional[MediaPolicy] = None,
        image_sources: Sequence[Tuple[str, ImageSource]] = (),
    ) -> None:
        self.disk = disk
        self.policy = policy or MediaPolicy()
        self.image_sources: List[Tuple[str, ImageSource]] = list(image_sources)
        self.stats = MediaStats()

    # ------------------------------------------------------------------
    def read(self, page_id: int) -> bytes:
        """Read ``page_id``, healing what the policy allows.

        The no-fault fast path is a single plain disk read: no span is
        opened, no clock is advanced, nothing is recorded — a faultless
        run through this layer is bit-identical to one without it.
        """
        self.stats.reads += 1
        disk = self.disk
        try:
            return disk.read_page(page_id)  # lint: allow(raw-page-io)
        except TransientReadError as exc:
            self.stats.transient_failures += 1
            first: MediaError = exc
        except ChecksumMismatch as exc:
            self.stats.checksum_failures += 1
            first = exc
        with maybe_span(
            disk.observer,
            f"media-retry page {page_id}",
            kind="retry",
            target=f"page:{page_id}",
            error=type(first).__name__,
        ) as span:
            return self._recover(page_id, first, span)

    def has_image(self, page_id: int) -> bool:
        """Whether any configured source could repair ``page_id``."""
        return any(source(page_id) is not None
                   for _, source in self.image_sources)

    # ------------------------------------------------------------------
    # slow path
    # ------------------------------------------------------------------
    def _recover(self, page_id: int, failure: MediaError, span: Any) -> bytes:
        disk = self.disk
        policy = self.policy
        attempt = 1
        backoff = policy.backoff_ms
        # Phase 1: bounded retries with exponential backoff.  Only a
        # transient failure is worth re-reading — corrupt bytes at rest
        # stay corrupt no matter how long we wait.
        while (
            isinstance(failure, TransientReadError)
            and attempt < policy.max_read_attempts
        ):
            disk.clock.advance_ms(backoff)
            self.stats.retries += 1
            self.stats.backoff_ms += backoff
            attempt += 1
            if disk.observer is not None:
                disk.observer.on_media_retry(page_id, attempt, backoff)
            backoff *= policy.backoff_multiplier
            try:
                data = disk.read_page(page_id)  # lint: allow(raw-page-io)
                span.set(attempts=attempt, outcome="retried")
                return data
            except (TransientReadError, ChecksumMismatch) as exc:
                failure = exc

        # Phase 2: rewrite from a known-good image and re-read.  The
        # write restamps the checksum and goes through any armed
        # injector, so genuinely stuck media re-corrupts it and the
        # re-read fails again.
        repaired = False
        for _ in range(policy.repair_attempts):
            source_label = self._repair(page_id)
            if source_label is None:
                break
            repaired = True
            try:
                data = disk.read_page(page_id)  # lint: allow(raw-page-io)
                span.set(attempts=attempt, outcome="repaired",
                         source=source_label)
                return data
            except (TransientReadError, ChecksumMismatch) as exc:
                failure = exc

        if repaired:
            # Repair writes keep coming back unreadable: the medium
            # itself is bad.  Fence the page off so every later access
            # fails fast and typed instead of flapping.
            self.stats.quarantines += 1
            disk.quarantine_page(page_id)
            span.set(attempts=attempt, outcome="quarantined")
            raise QuarantinedPage(
                f"page {page_id} quarantined: {policy.repair_attempts} "
                f"repair attempts each produced unreadable bytes",
                page_id=page_id,
            )
        span.set(attempts=attempt, outcome="exhausted")
        raise RetriesExhausted(
            f"read of page {page_id} still failing after {attempt} "
            f"attempts and no repair image is available "
            f"({type(failure).__name__}: {failure})",
            page_id=page_id,
        )

    def _repair(self, page_id: int) -> Optional[str]:
        """Rewrite the page from the first source that has an image."""
        for label, source in self.image_sources:
            image = source(page_id)
            if image is None:
                continue
            self.stats.repairs += 1
            self.disk.write_page(page_id, image)  # lint: allow(raw-page-io)
            if self.disk.observer is not None:
                self.disk.observer.on_media_repair(page_id, label)
            return label
        return None
