"""The online scrubber: checksum sweep + structural cross-checks.

``scrub_database`` is the amcheck-style maintenance pass:

1. **Checksum sweep** — every live, unquarantined page is read with
   verification on.  With a :class:`~repro.media.retry.MediaRecovery`
   attached, a failing page is healed in place (retry for transient
   faults, repair-from-image for latent corruption) and reported as
   repaired; without one, the damage is detected and reported but left
   as found.
2. **Cross-reconciliation** — every table's heap is scanned and checked
   against its stored record count, every B+-tree index is structurally
   validated and its entries (and entry count) compared against the
   key/RID projection of the heap rows, and every hash index's entries
   are compared the same way.  Any disagreement means a structure lost
   or gained rows relative to the others — exactly the damage silent
   media corruption causes when it lands on an index page whose bytes
   still parse.

``require_scrubbed`` is the gate form: it raises a typed
:class:`~repro.errors.MediaError` unless the scrub comes back clean, so
a caller can refuse to run a statement over damaged storage (the media
sweep uses it to prove unrepairable faults abort *before* anything is
modified).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.btree.maintenance import validate_tree
from repro.errors import (
    ChecksumMismatch,
    MediaError,
    QuarantinedPage,
    ReproError,
    RetriesExhausted,
    TransientReadError,
)
from repro.obs.trace import maybe_span


@dataclass
class ScrubReport:
    """Everything one scrub pass saw, page by page and structure by
    structure."""

    #: Pages read and verified successfully (healed ones included).
    pages_checked: int = 0
    #: Pages whose at-rest bytes failed their stored CRC.
    checksum_failures: List[int] = field(default_factory=list)
    #: Subset of the above readable again after retry/repair.
    repaired: List[int] = field(default_factory=list)
    #: Pages the scrub (or an earlier failure) fenced off.
    quarantined: List[int] = field(default_factory=list)
    #: Pages already quarantined before this pass (not re-read).
    skipped_quarantined: List[int] = field(default_factory=list)
    #: Pages still unreadable but not quarantined (no repair image, or
    #: no media layer attached to heal them).
    unrepaired: List[int] = field(default_factory=list)
    #: Cross-reconciliation violations (heap vs indexes vs counts).
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (
            self.quarantined
            or self.skipped_quarantined
            or self.unrepaired
            or self.problems
        )

    def summary(self) -> str:
        lines = [
            f"scrub: {self.pages_checked} pages verified; "
            f"{len(self.checksum_failures)} checksum failures, "
            f"{len(self.repaired)} repaired, "
            f"{len(self.unrepaired)} unrepaired, "
            f"{len(self.quarantined) + len(self.skipped_quarantined)} "
            f"quarantined; {len(self.problems)} structural problems"
        ]
        for page_id in self.checksum_failures[:10]:
            status = (
                "repaired" if page_id in self.repaired
                else "quarantined" if page_id in self.quarantined
                else "unrepaired"
            )
            lines.append(f"  page {page_id}: checksum mismatch ({status})")
        for problem in self.problems[:10]:
            lines.append(f"  {problem}")
        return "\n".join(lines)


def scrub_database(
    db: Any,
    media: Optional[Any] = None,
    check_structures: bool = True,
) -> ScrubReport:
    """One full scrub pass over ``db``; see the module docstring.

    The sweep reads *durable* bytes (not pool frames) — the point is to
    verify what would survive a crash.  The reads are charged to the
    simulated clock like any others; that cost is the scrub overhead
    the ``fig_scrub_overhead`` benchmark measures.
    """
    disk = db.disk
    report = ScrubReport()
    with maybe_span(db.obs, "scrub", kind="scrub") as span:
        for page_id in disk.page_ids():
            if page_id in disk.quarantined:
                report.skipped_quarantined.append(page_id)
                continue
            # Uncharged classification peek so a healed page can be
            # reported as a failure *and* a repair; the verified read
            # below is the one that pays.
            was_clean = disk.verify_page(page_id)
            if not was_clean:
                report.checksum_failures.append(page_id)
            try:
                if media is not None:
                    media.read(page_id)
                else:
                    disk.read_page(page_id)  # lint: allow(raw-page-io)
                report.pages_checked += 1
                if not was_clean:
                    report.repaired.append(page_id)
            except QuarantinedPage:
                report.quarantined.append(page_id)
            except RetriesExhausted:
                report.unrepaired.append(page_id)
            except (TransientReadError, ChecksumMismatch):
                # No media layer to heal it: detected, left as found.
                report.unrepaired.append(page_id)
        if check_structures:
            try:
                report.problems.extend(reconcile_structures(db))
            except MediaError as exc:
                # With no media layer to heal a damaged page, the scan
                # underneath reconciliation dies on it; the sweep above
                # already lists the page, so record and carry on.
                report.problems.append(
                    f"reconciliation aborted: {type(exc).__name__}: {exc}"
                )
        span.set(
            pages_checked=report.pages_checked,
            failures=len(report.checksum_failures),
            repaired=len(report.repaired),
            problems=len(report.problems),
        )
    if db.obs is not None:
        db.obs.on_scrub(
            report.pages_checked,
            len(report.checksum_failures),
            len(report.repaired),
        )
    return report


def require_scrubbed(
    db: Any,
    media: Optional[Any] = None,
    check_structures: bool = True,
) -> ScrubReport:
    """Scrub and raise a typed media error unless the pass is clean.

    Quarantined pages dominate the failure type (the storage is known
    bad and fenced off); unrepaired-but-unquarantined pages raise
    :class:`~repro.errors.RetriesExhausted`; pure structural
    disagreements raise the :class:`~repro.errors.MediaError` base.
    """
    report = scrub_database(db, media=media, check_structures=check_structures)
    if report.ok:
        return report
    fenced = sorted(set(report.quarantined + report.skipped_quarantined))
    if fenced:
        raise QuarantinedPage(
            f"scrub failed: page(s) {fenced} are quarantined "
            f"(restore_page() them from a backup image)",
            page_id=fenced[0],
        )
    if report.unrepaired:
        raise RetriesExhausted(
            f"scrub failed: page(s) {sorted(report.unrepaired)} are "
            f"unreadable and no repair image is available",
            page_id=report.unrepaired[0],
        )
    raise MediaError(
        "scrub failed: structures disagree: " + "; ".join(report.problems[:5])
    )


# ----------------------------------------------------------------------
# cross-reconciliation
# ----------------------------------------------------------------------
def reconcile_structures(db: Any, limit: int = 20) -> List[str]:
    """Heap <-> index <-> count disagreements, all tables, both index
    kinds.  Self-contained (no oracle): the structures are checked
    against *each other*, which is all an online scrubber can do."""
    problems: List[str] = []

    def note(message: str) -> None:
        if len(problems) < limit:
            problems.append(message)

    for table in db.catalog.tables():
        if table.lsm is not None or table.is_sharded:
            # Nothing to reconcile: an LSM table's catalog heap is
            # legitimately empty and it has no secondary structures; a
            # sharded logical entry owns no pages (its shard tables are
            # catalog entries of their own, checked one by one).
            continue
        table_name = table.schema.name
        rows = list(db.scan(table_name))
        if table.heap.record_count != len(rows):
            note(
                f"{table_name}: heap record_count "
                f"{table.heap.record_count} != {len(rows)} scanned rows"
            )
        for name, ix in sorted(table.indexes.items()):
            expected = sorted(
                (ix.key_for(values, table.schema), rid.pack())
                for rid, values in rows
            )
            items, count = _index_entries(ix, note, f"{table_name}.{name}")
            if items is None:
                continue
            if count != len(items):
                note(
                    f"{table_name}.{name}: entry_count {count} != "
                    f"{len(items)} entries"
                )
            if sorted(items) != expected:
                note(
                    f"{table_name}.{name}: {len(items)} entries do not "
                    f"match the {len(rows)} heap rows"
                )
    return problems


def _index_entries(
    ix: Any, note: Any, label: str
) -> Tuple[Optional[list], int]:
    if ix.is_btree:
        try:
            validate_tree(ix.tree)
        except ReproError as exc:
            note(f"{label}: structural: {exc}")
            return None, 0
        return list(ix.tree.items()), ix.tree.entry_count
    hash_index = ix.hash_index
    return list(hash_index.items()), hash_index.entry_count
