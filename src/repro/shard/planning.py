"""Shard-aware planning: route, cost, and tame hot ranges.

:func:`choose_sharded_plan` is the shard analogue of
:func:`repro.core.planner.choose_plan`: it routes the delete list
through the table's :class:`~repro.shard.map.ShardMap`, asks the core
planner for one vertical plan per non-empty fragment (each priced
against its own shard's statistics), detects *hot* shards, and bounds
their lock footprint before anything executes:

* a shard whose access counter dwarfs its peers' is **serialized** —
  its fragment leaves the parallel region and runs alone after it, so
  the hottest range never holds its locks while every lane is busy
  (the failure mode the CockroachDB hot-range runbook in
  ``/root/related/`` documents),
* a shard whose *fragment* dwarfs the mean fragment is **split** into
  mean-sized sub-fragments that run back to back, each its own
  statement — locks are held per sub-fragment, not for the whole
  oversized range.

Everything here is planning: routing and costing are I/O-free (the
``effect/shard-routing-pure`` contract), access counters are only
*read* — the executor is what bumps them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.catalog.catalog import TableInfo
from repro.catalog.database import Database
from repro.core.planner import estimate_sharded_ms
from repro.core.plans import BdMethod, BulkDeletePlan
from repro.errors import PlanningError
from repro.parallel import DEDICATED
from repro.shard.map import ShardMap

#: Hot-range policies, in the order they win when both trigger.
HOT_SPLIT = "split"
HOT_SERIALIZE = "serialize"
HOT_POLICIES = (HOT_SPLIT, HOT_SERIALIZE)


@dataclass
class ShardFragment:
    """One shard-local delete: its keys and its core plan."""

    shard_id: int
    table_name: str  #: the physical shard table the fragment targets
    keys: List[int]
    plan: BulkDeletePlan
    estimated_ms: float
    hot: bool = False
    #: ``None`` runs in the parallel region; a :data:`HOT_POLICIES`
    #: member runs serially after it.
    policy: Optional[str] = None

    @property
    def is_parallel(self) -> bool:
        return self.policy is None


@dataclass
class ShardedDeletePlan:
    """The full plan for one bulk delete against a sharded table."""

    table_name: str  #: the logical table
    column: str
    shard_map: ShardMap
    fragments: List[ShardFragment] = field(default_factory=list)
    lanes: int = 1
    contention: str = DEDICATED
    estimated_ms: Optional[float] = None
    notes: List[str] = field(default_factory=list)

    def parallel_fragments(self) -> List[ShardFragment]:
        return [f for f in self.fragments if f.is_parallel]

    def serial_fragments(self) -> List[ShardFragment]:
        return [f for f in self.fragments if not f.is_parallel]

    def explain(self) -> str:
        """Render the sharded plan in the style of the core EXPLAIN."""
        lines = [
            f"SHARDED BULK DELETE FROM {self.table_name} "
            f"WHERE {self.column} IN (delete list)",
            f"  shard map: {self.shard_map.shard_count} ranges on "
            f"{self.shard_map.column}",
            f"  parallelism: {self.lanes} {self.contention} lane(s) for "
            f"{len(self.parallel_fragments())} fragment(s); "
            f"{len(self.serial_fragments())} serialized",
        ]
        for frag in self.fragments:
            marker = ""
            if frag.hot:
                marker = f"  [HOT -> {frag.policy}]"
            lines.append(
                f"  shard {frag.shard_id} "
                f"{self.shard_map.describe(frag.shard_id)}: "
                f"{len(frag.keys)} keys -> {frag.table_name}, "
                f"est {frag.estimated_ms / 1000:.2f}s{marker}"
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        if self.estimated_ms is not None:
            lines.append(
                f"  estimated cost: {self.estimated_ms / 1000:.2f}s"
            )
        return "\n".join(lines)


def choose_sharded_plan(
    db: Database,
    table_name: str,
    column: str,
    keys: Sequence[int],
    lanes: int = 1,
    contention: str = DEDICATED,
    prefer_method: Optional[BdMethod] = None,
    hot_factor: float = 4.0,
) -> ShardedDeletePlan:
    """Route ``keys`` per shard and plan each fragment.

    ``hot_factor`` is both thresholds: a fragment more than
    ``hot_factor`` times the mean non-empty fragment is oversized
    (split), a shard whose historical access counter exceeds
    ``hot_factor`` times the mean counter is hot by traffic
    (serialized).  ``hot_factor <= 0`` disables detection.
    """
    from repro.core.planner import choose_plan  # circular at import time

    table = db.table(table_name)
    if not table.is_sharded:
        raise PlanningError(
            f"table {table_name} is not range-sharded"
        )
    shard_map = table.shard_map
    assert shard_map is not None
    if column != shard_map.column:
        raise PlanningError(
            f"sharded deletes route by the shard column "
            f"{shard_map.column!r}; cannot route a delete on {column!r}"
        )
    plan = ShardedDeletePlan(
        table_name=table_name,
        column=column,
        shard_map=shard_map,
        lanes=lanes,
        contention=contention,
    )
    # An IN-list is a set: a repeated key is routed once (its first
    # occurrence), which is what plan/shard-coverage holds plans to.
    routed = shard_map.route(list(dict.fromkeys(keys)))
    nonempty = [frag for frag in routed if frag]
    if not nonempty:
        plan.estimated_ms = 0.0
        plan.notes.append("empty delete list: nothing to route")
        return plan
    mean_keys = sum(len(frag) for frag in nonempty) / len(nonempty)
    hot_by_access = _hot_by_access(table, hot_factor)
    empty = shard_map.shard_count - len(nonempty)
    plan.notes.append(
        f"routed {sum(len(f) for f in nonempty)} keys into "
        f"{len(nonempty)} fragment(s)"
        + (f" ({empty} empty shard(s) skipped)" if empty else "")
    )

    def fragment(
        shard: TableInfo,
        shard_id: int,
        frag_keys: List[int],
        hot: bool,
        policy: Optional[str],
    ) -> ShardFragment:
        core = choose_plan(
            db, shard.name, column, len(frag_keys),
            prefer_method=prefer_method, force_vertical=True,
        )
        assert core.estimated_ms is not None
        return ShardFragment(
            shard_id=shard_id,
            table_name=shard.name,
            keys=frag_keys,
            plan=core,
            estimated_ms=core.estimated_ms,
            hot=hot,
            policy=policy,
        )

    for shard_id, frag_keys in enumerate(routed):
        if not frag_keys:
            continue
        shard = table.shard(shard_id)
        oversized = (
            hot_factor > 0
            and len(nonempty) > 1
            and len(frag_keys) > hot_factor * mean_keys
        )
        if oversized:
            # Split: mean-sized sub-fragments, serial, per-chunk locks.
            chunk = max(1, math.ceil(mean_keys))
            pieces = [
                frag_keys[i:i + chunk]
                for i in range(0, len(frag_keys), chunk)
            ]
            plan.notes.append(
                f"shard {shard_id} is hot (fragment {len(frag_keys)} "
                f"keys > {hot_factor:g}x mean {mean_keys:.0f}): split "
                f"into {len(pieces)} serialized sub-fragment(s)"
            )
            for piece in pieces:
                plan.fragments.append(
                    fragment(shard, shard_id, piece, True, HOT_SPLIT)
                )
        elif shard_id in hot_by_access:
            plan.notes.append(
                f"shard {shard_id} is hot by access counters "
                f"({table.shard_accesses.get(shard_id, 0)} routed keys "
                "historically): serialized to bound its lock footprint"
            )
            plan.fragments.append(
                fragment(shard, shard_id, frag_keys, True, HOT_SERIALIZE)
            )
        else:
            plan.fragments.append(
                fragment(shard, shard_id, frag_keys, False, None)
            )

    cost = estimate_sharded_ms(
        [f.estimated_ms for f in plan.parallel_fragments()],
        [f.estimated_ms for f in plan.serial_fragments()],
        lanes,
        contention,
    )
    plan.estimated_ms = cost.io_ms
    plan.notes.append(cost.detail)
    return plan


def _hot_by_access(table: TableInfo, hot_factor: float) -> List[int]:
    """Shards whose access counter dwarfs the mean counter."""
    if hot_factor <= 0 or not table.shard_accesses:
        return []
    counted = [n for n in table.shard_accesses.values() if n > 0]
    if len(counted) < 2:
        return []
    mean = sum(counted) / len(counted)
    return [
        shard_id
        for shard_id, n in sorted(table.shard_accesses.items())
        if n > hot_factor * mean
    ]
