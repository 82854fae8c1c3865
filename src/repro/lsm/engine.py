"""Bulk delete on an ``engine="lsm"`` table.

Rows are keyed by the table's declared LSM key column (an INT); the
tree stores the serialized row as the payload, so the serializer — and
therefore the row encoding — is shared with the heap layout byte for
byte (``Database`` does the DML; see ``docs/storage_engines.md``).

A bulk delete compiles the key list to tombstones (consecutive runs
become range tombstones), appends them to the log/memtable, and lets
FADE schedule the compactions that actually reclaim space — the
LSM counterpart of the paper's vertical side-file delete, measured on
the same simulated disk by ``fig_lsm_vs_vertical``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.errors import CatalogError
from repro.lsm.planning import (
    LsmDeletePlan,
    choose_lsm_plan,
    compile_tombstones,
)
from repro.obs.trace import maybe_span
from repro.storage.disk import DiskStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.catalog.database import Database


@dataclass
class LsmDeleteResult:
    """What one LSM bulk delete did, with exact I/O attribution.

    ``records_deleted`` counts the *distinct keys acknowledged as
    deleted* (tombstoned) — the engine does not probe for existence
    first, so absent keys are acknowledged too (upsert-style delete
    semantics, unlike the heap executor's exact row count).
    """

    plan: LsmDeletePlan
    records_deleted: int
    elapsed_ms: float
    io: DiskStats
    point_tombstones: int
    range_tombstones: int
    flushes: int
    compactions: int
    compaction_pages_read: int
    compaction_pages_written: int
    tombstones_dropped: int
    notes: List[str] = field(default_factory=list)


def lsm_bulk_delete(
    db: "Database",
    table_name: str,
    column: str,
    keys: Sequence[int],
    plan: Optional[LsmDeletePlan] = None,
    compact: bool = True,
) -> LsmDeleteResult:
    """Execute ``DELETE FROM table WHERE column IN keys`` on an LSM table.

    Tombstone writes first (ranges compiled from consecutive key
    runs), then the delete-aware compactions FADE selects — unless
    ``compact=False``, which leaves reclamation entirely to later
    size-triggered compactions (the "write-only delete" mode the
    benchmark uses to measure lookup amplification before and after
    FADE runs).
    """
    tree = db.table(table_name).lsm
    if tree is None:
        raise CatalogError(
            f"table {table_name} is not an LSM table; use bulk_delete"
        )
    if plan is None:
        plan = choose_lsm_plan(db, table_name, column, keys)
    elif plan.column != column or plan.table_name != table_name:
        raise CatalogError(
            f"plan targets {plan.table_name}.{plan.column}, call "
            f"targets {table_name}.{column}"
        )
    started_ms = db.clock.now_ms
    io_before = db.disk.stats.snapshot()
    tree_before = tree.stats.snapshot()
    points, ranges = compile_tombstones(keys)
    with maybe_span(
        db.obs, f"lsm-delete({table_name})",
        kind="lsm-delete", target=table_name,
        n_deletes=plan.n_deletes,
    ) as span:
        for lo, hi in ranges:
            tree.delete_range(lo, hi)
        for key in points:
            tree.delete(key)
        if compact:
            tree.delete_aware_compactions()
        delta = tree.stats.delta_since(tree_before)
        span.set(
            point_tombstones=len(points),
            range_tombstones=len(ranges),
            flushes=delta.flushes,
            compactions=delta.compactions,
            tombstones_dropped=delta.tombstones_dropped,
        )
    result = LsmDeleteResult(
        plan=plan,
        records_deleted=len(set(keys)),
        elapsed_ms=db.clock.now_ms - started_ms,
        io=db.disk.stats.delta_since(io_before),
        point_tombstones=len(points),
        range_tombstones=len(ranges),
        flushes=delta.flushes,
        compactions=delta.compactions,
        compaction_pages_read=delta.compaction_pages_read,
        compaction_pages_written=delta.compaction_pages_written,
        tombstones_dropped=delta.tombstones_dropped,
    )
    if not compact:
        result.notes.append(
            "compaction deferred: tombstones written, reclamation "
            "left to size triggers / a later delete_aware pass"
        )
    return result
