"""Cost estimation for LSM bulk deletes — pure arithmetic.

``choose_plan`` dispatches here for ``engine="lsm"`` tables.  Like the
heap planner's estimators, everything below is arithmetic over
in-memory metadata (run counts, page counts, config knobs, disk
parameters): the ``effect/planner-estimates-pure`` contract statically
verifies that planning an LSM delete performs no I/O and advances no
clock.

The model mirrors what :func:`repro.lsm.engine.lsm_bulk_delete`
actually executes:

* one log append (a sequential write of a fresh log page — the log is
  pure append) per tombstone written — consecutive key runs compile to
  a single range tombstone, so the tombstone count can be far below
  ``n_deletes``,
* the memtable flushes the tombstones trigger (sequential run writes
  plus a manifest commit each), and
* the delete-aware compactions FADE is expected to schedule, costed
  at the sequential rate over the affected runs' pages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Sequence, Tuple, Union

from repro.errors import PlanningError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.catalog.database import Database

#: Sorted consecutive key runs at least this long compile to one range
#: tombstone instead of per-key point tombstones.
RANGE_COMPILE_MIN = 16


def compile_tombstones(
    keys: Sequence[int],
) -> Tuple[List[int], List[Tuple[int, int]]]:
    """Split a delete list into point keys and ``[lo, hi]`` ranges.

    Maximal consecutive runs of at least :data:`RANGE_COMPILE_MIN`
    keys become ranges; everything else stays a point delete.  Pure
    (shared by the planner and the executor so the estimate and the
    execution always agree on the tombstone mix).
    """
    uniq = sorted(set(keys))
    points: List[int] = []
    ranges: List[Tuple[int, int]] = []
    i = 0
    while i < len(uniq):
        j = i
        while j + 1 < len(uniq) and uniq[j + 1] == uniq[j] + 1:
            j += 1
        if j - i + 1 >= RANGE_COMPILE_MIN:
            ranges.append((uniq[i], uniq[j]))
        else:
            points.extend(uniq[i : j + 1])
        i = j + 1
    return points, ranges


@dataclass
class LsmDeletePlan:
    """The chosen tombstone mix and its cost model."""

    table_name: str
    column: str
    n_deletes: int
    point_tombstones: int
    range_tombstones: int
    expected_flushes: int
    expected_compaction_pages: int
    estimated_ms: float = 0.0
    notes: List[str] = field(default_factory=list)

    @property
    def tombstone_writes(self) -> int:
        return self.point_tombstones + self.range_tombstones

    def explain(self) -> str:
        lines = [
            f"LSM DELETE {self.table_name} WHERE {self.column} IN "
            f"[{self.n_deletes} keys]",
            f"  tombstones: {self.point_tombstones} point + "
            f"{self.range_tombstones} range "
            f"({self.tombstone_writes} log appends)",
            f"  expected flushes: {self.expected_flushes}, "
            f"compaction pages: {self.expected_compaction_pages}",
            f"  estimated: {self.estimated_ms / 1000:.2f}s",
        ]
        lines.extend(f"  note: {note}" for note in self.notes)
        return "\n".join(lines)


def choose_lsm_plan(
    db: "Database",
    table_name: str,
    column: str,
    keys_or_count: Union[int, Sequence[int]],
) -> LsmDeletePlan:
    """Plan a bulk delete against an LSM table.

    Accepts the actual delete list (preferred — the point/range split
    is then exact) or a bare count (ranges unknown, planned as all
    points).  Raises :class:`PlanningError` when the column is not the
    table's LSM key column: secondary predicates would need a full
    merge scan, which the engine deliberately does not hide behind a
    point-delete API.
    """
    table = db.table(table_name)
    tree = table.lsm
    if tree is None:
        raise PlanningError(
            f"table {table_name} is not an LSM table; use choose_plan"
        )
    key_column = table.lsm_key_column
    if column != key_column:
        raise PlanningError(
            f"LSM deletes must target the key column "
            f"{key_column!r}, not {column!r}"
        )
    if isinstance(keys_or_count, int):
        n_deletes = keys_or_count
        points, ranges = n_deletes, 0
        exact = False
    else:
        uniq_points, uniq_ranges = compile_tombstones(keys_or_count)
        points, ranges = len(uniq_points), len(uniq_ranges)
        n_deletes = len(set(keys_or_count))
        exact = True

    cfg = tree.config
    params = db.disk.parameters
    page_size = db.page_size
    seq_ms = params.sequential_ms(page_size)

    tombstone_writes = points + ranges
    buffered = tree.memtable.entry_count
    expected_flushes = (buffered + tombstone_writes) // cfg.memtable_entries

    # A flush writes the memtable's entries as one small run plus a
    # manifest commit (~2 pages); FADE then merges tombstone-dense
    # runs downward — bounded by the configured compaction budget over
    # run-sized inputs and outputs.
    flush_pages = expected_flushes * 3
    data_pages = tree.data_pages
    touched_fraction = min(1.0, n_deletes / max(1, tree.approx_records))
    compaction_pages = min(
        2 * cfg.max_delete_compactions * cfg.run_pages * (1 + cfg.fanout),
        int(2 * data_pages * touched_fraction) + 2 * cfg.run_pages,
    )

    estimated_ms = (
        tombstone_writes * seq_ms
        + flush_pages * seq_ms
        + compaction_pages * seq_ms
    )
    plan = LsmDeletePlan(
        table_name=table_name,
        column=column,
        n_deletes=n_deletes,
        point_tombstones=points,
        range_tombstones=ranges,
        expected_flushes=expected_flushes,
        expected_compaction_pages=compaction_pages,
        estimated_ms=estimated_ms,
    )
    if not exact:
        plan.notes.append(
            "planned from a bare count: range compilation unknown, "
            "costed as all point tombstones"
        )
    if ranges:
        plan.notes.append(
            f"{ranges} consecutive key run(s) compiled to range "
            f"tombstones (≥{RANGE_COMPILE_MIN} keys each)"
        )
    return plan
