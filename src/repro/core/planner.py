"""Cost-based planning of bulk DELETE statements.

The paper notes a dynamic-programming optimizer "can easily be
extended" with the ``bd`` operator's choices.  The plan space for one
``DELETE FROM R WHERE R.A IN (...)`` is small enough to enumerate
directly:

* horizontal (nested-loops ``bd`` per record) vs. vertical,
* per index: sort/merge vs. hash vs. partitioned hash,
* unique indexes before the base table (RID predicate) so their
  constraint can come back on-line early,
* skip the RID sort when the driving index is clustered (the paper's
  "interesting order" analogy).

The cost formulas charge the same quantities the simulated disk does,
so the planner's crossover between the horizontal and vertical plans
matches what the executors actually exhibit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Union, overload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lsm.planning import LsmDeletePlan
    from repro.shard.planning import ShardedDeletePlan

from repro.catalog.catalog import IndexInfo, TableInfo
from repro.catalog.database import Database
from repro.catalog.statistics import collect_table_statistics
from repro.core.plans import (
    TABLE_TARGET,
    BdMethod,
    BdPredicate,
    BulkDeletePlan,
    StepPlan,
)
from repro.errors import PlanningError
from repro.parallel import DEDICATED, SHARED
from repro.query.hashtable import BYTES_PER_SET_ENTRY


@dataclass
class CostBreakdown:
    """Estimated cost of one strategy, in simulated milliseconds."""

    strategy: str
    io_ms: float
    detail: str = ""


def estimate_horizontal_ms(
    db: Database, table: TableInfo, n_deletes: int, presorted: bool = True
) -> CostBreakdown:
    """Cost of the traditional record-at-a-time execution.

    Every deleted record pays one leaf access per index plus one heap
    page access.  With a sorted delete list and enough buffer, upper
    index levels are cached and the driving index's leaves are touched
    in order; unsorted lists turn almost every access into a random I/O.
    """
    params = db.disk.parameters
    random_ms = params.random_ms(db.page_size)
    seq_ms = params.sequential_ms(db.page_size)
    index_count = max(1, len(table.indexes))
    if presorted:
        # Driving-index leaves in order (sequential-ish); heap and the
        # other indexes' leaves remain random.
        read_ms = random_ms * (1 + (index_count - 1)) + seq_ms
    else:
        # Re-fetches everywhere once the pool thrashes.
        read_ms = random_ms * (1 + index_count)
    # Every touched page is dirtied and eventually written back; the
    # write-backs land scattered (eviction order), so they cost like
    # the reads did.
    per_record = 2 * read_ms
    # Write-back streams restart once per structure at flush time: one
    # random positioning each for the heap and every index file.
    flush_ms = (index_count + 1) * random_ms
    io_ms = n_deletes * per_record + flush_ms
    return CostBreakdown("horizontal", io_ms, f"{n_deletes} records x "
                         f"{per_record:.2f}ms + flush")


def estimate_chunked_ms(
    db: Database,
    table: TableInfo,
    n_deletes: int,
    chunk_rows: int = 64,
) -> CostBreakdown:
    """Cost of the chunked ``DELETE ... LIMIT n`` production baseline.

    Each row pays the horizontal per-record cost (the chunk walks the
    driving index in key order, so the driving leaves stream while the
    heap and the other indexes stay random); each chunk additionally
    pays one durable progress write — a random positioning for the
    accounting page every ``chunk_rows`` rows.  The strategy trades
    aggregate time for short lock footprints: user transactions wait at
    most one chunk, never the whole statement, which is why the OLTP
    harness (:mod:`repro.workload.traffic`) runs it as the tail-latency
    baseline the side-file vertical plan must beat.
    """
    if chunk_rows < 1:
        raise PlanningError("chunk_rows must be at least 1")
    base = estimate_horizontal_ms(db, table, n_deletes, presorted=True)
    params = db.disk.parameters
    random_ms = params.random_ms(db.page_size)
    chunks = math.ceil(n_deletes / chunk_rows) if n_deletes else 0
    progress_ms = chunks * random_ms
    return CostBreakdown(
        "chunked",
        base.io_ms + progress_ms,
        f"{n_deletes} records in {chunks} chunks of {chunk_rows} "
        f"+ {chunks} progress writes",
    )


def estimate_vertical_ms(
    db: Database, table: TableInfo, n_deletes: int
) -> CostBreakdown:
    """Cost of the sort/merge vertical plan: sequential sweeps + sorts.

    Sizes come from (I/O-free) catalog statistics — a planner must not
    walk leaf chains to decide how to avoid walking leaf chains.
    """
    params = db.disk.parameters
    seq_ms = params.sequential_ms(db.page_size)
    random_ms = params.random_ms(db.page_size)
    stats = collect_table_statistics(table)
    heap_pages = stats.heap_pages
    leaf_pages = stats.total_leaf_pages()
    # Read + write back each swept page (writes are also sequential).
    sweep_ms = (heap_pages + leaf_pages) * seq_ms * 2
    # The executor's default heap-reclaim pass sweeps the heap again.
    reclaim_ms = heap_pages * seq_ms * 2
    # Each structure's read and write streams start with one random
    # positioning (the heap plus every B-tree file).
    structures = 1 + len(table.btree_indexes())
    stream_ms = structures * 2 * random_ms
    sort_ms = 0.0
    if n_deletes > 1:
        passes = 1 + max(
            0,
            math.ceil(
                math.log2(
                    max(
                        1.0,
                        (n_deletes * 16) / max(1, db.memory_bytes),
                    )
                )
            ),
        )
        sort_ms = (
            len(table.indexes)
            * n_deletes
            * db.disk.CPU_RECORD_MS
            * 0.5
            * math.log2(n_deletes)
            * passes
        )
    io_ms = sweep_ms + reclaim_ms + stream_ms + sort_ms
    return CostBreakdown(
        "vertical",
        io_ms,
        f"{heap_pages} heap + {leaf_pages} leaf pages swept",
    )


def makespan_ms(costs: List[float], lanes: int) -> float:
    """Greedy-LPT makespan of independent branch costs on ``lanes`` lanes.

    Mirrors the scheduler's lane assignment (longest estimate first,
    least-busy lane) so the planner's parallel term predicts what
    :class:`repro.parallel.LaneScheduler` actually produces on a
    dedicated-disk configuration.
    """
    if not costs:
        return 0.0
    lane_busy = [0.0] * max(1, lanes)
    for cost in sorted(costs, reverse=True):
        lane_busy[lane_busy.index(min(lane_busy))] += cost
    return max(lane_busy)


def estimate_sharded_ms(
    parallel_costs: Sequence[float],
    serial_costs: Sequence[float],
    lanes: int,
    contention: str = DEDICATED,
) -> CostBreakdown:
    """Cost of a range-sharded delete: a lane region plus a serial tail.

    Pure arithmetic over per-fragment costs (each fragment is priced
    by the core planner against its own shard's statistics — also
    I/O-free, see ``effect/shard-routing-pure``):

    * ``dedicated`` lanes run the parallel fragments as one region
      whose cost is the LPT **makespan** (mirroring the scheduler),
    * ``shared`` lanes forfeit the split entirely: the device
      serializes the fragments, so the region term is their **sum**,
    * hot fragments the planner serialized (or split) run after the
      region, back to back — their costs always add.
    """
    parallel = list(parallel_costs)
    serial = list(serial_costs)
    if contention == SHARED:
        region_ms = sum(parallel)
        detail = (
            f"{len(parallel)} shard fragments serialized on one "
            "shared device"
        )
    else:
        region_ms = makespan_ms(parallel, lanes)
        detail = (
            f"LPT makespan of {len(parallel)} shard fragments on "
            f"{lanes} dedicated lanes"
        )
    if serial:
        detail += f" + {len(serial)} serialized hot fragment(s)"
    return CostBreakdown("sharded", region_ms + sum(serial), detail)


def estimate_vertical_parallel_ms(
    db: Database,
    table: TableInfo,
    n_deletes: int,
    lanes: int,
    contention: str = DEDICATED,
    driving_index: Optional[str] = None,
) -> CostBreakdown:
    """Vertical cost with the post-barrier branches on ``lanes`` lanes.

    The serial terms (delete-key sort, driving-index sweep, RID sort,
    heap reclaim, flush) are exactly :func:`estimate_vertical_ms`'s;
    only the independent branch sweeps — the heap and every non-driving
    B-tree — change:

    * ``dedicated``: their sum is replaced by the LPT **makespan** over
      ``lanes`` lanes (``T_par = max over lanes of the branch sums``),
    * ``shared``: every branch page is re-billed at the random rate
      (interleaving forfeits the sequential discount) and the device
      serializes the requests, so the term is the inflated **sum** —
      strictly worse than serial execution.

    ``lanes=1`` returns the serial estimate unchanged (same floats).
    """
    serial = estimate_vertical_ms(db, table, n_deletes)
    if lanes <= 1:
        return serial
    params = db.disk.parameters
    seq_ms = params.sequential_ms(db.page_size)
    random_ms = params.random_ms(db.page_size)
    stats = collect_table_statistics(table)
    branches = [stats.heap_pages * seq_ms * 2.0]
    for ix in table.btree_indexes():
        if driving_index is not None and ix.name == driving_index:
            continue
        branches.append(stats.indexes[ix.name].leaf_pages * seq_ms * 2.0)
    branch_sum = sum(branches)
    if contention == SHARED:
        parallel_ms = sum(b * (random_ms / seq_ms) for b in branches)
        detail = (
            f"{len(branches)} branches on one shared device: "
            "sequential discounts lost, requests serialized"
        )
    else:
        parallel_ms = makespan_ms(branches, lanes)
        detail = (
            f"LPT makespan of {len(branches)} branches "
            f"on {lanes} dedicated lanes"
        )
    return CostBreakdown(
        "vertical-parallel",
        serial.io_ms - branch_sum + parallel_ms,
        detail,
    )


def rid_hash_fits(db: Database, n_deletes: int) -> bool:
    """Would a RID hash set of the delete list fit in memory?"""
    return n_deletes * BYTES_PER_SET_ENTRY <= db.memory_bytes


@overload
def choose_plan(
    db: Database,
    table_name: str,
    column: str,
    n_deletes: int,
    prefer_method: Optional[BdMethod] = ...,
    force_vertical: bool = ...,
    lanes: int = ...,
    contention: str = ...,
) -> BulkDeletePlan: ...


@overload
def choose_plan(
    db: Database,
    table_name: str,
    column: str,
    n_deletes: int,
    prefer_method: Optional[BdMethod] = ...,
    force_vertical: bool = ...,
    lanes: int = ...,
    contention: str = ...,
    *,
    shards: Sequence[int],
) -> "ShardedDeletePlan": ...


def choose_plan(
    db: Database,
    table_name: str,
    column: str,
    n_deletes: int,
    prefer_method: Optional[BdMethod] = None,
    force_vertical: bool = False,
    lanes: int = 1,
    contention: str = DEDICATED,
    shards: Optional[Sequence[int]] = None,
) -> "Union[BulkDeletePlan, ShardedDeletePlan, LsmDeletePlan]":
    """Pick order, method and predicate for every structure.

    ``prefer_method`` narrows the per-index method choice (e.g. the
    benchmarks pin SORT_MERGE to mirror the paper's evaluation); the
    planner still falls back to PARTITIONED_HASH when a requested HASH
    build cannot fit in memory.  ``lanes``/``contention`` cost the
    vertical plan for multi-lane execution (``lanes=1``, the default,
    is the serial paper testbed and leaves every estimate unchanged).

    ``shards`` carries the actual delete list when the target table is
    range-sharded: planning then routes the keys through the shard map
    and returns a :class:`~repro.shard.planning.ShardedDeletePlan`
    (one core plan per shard fragment, hot fragments split or
    serialized) instead of a single :class:`BulkDeletePlan`.
    """
    if shards is not None:
        from repro.shard.planning import choose_sharded_plan

        return choose_sharded_plan(
            db, table_name, column, shards,
            lanes=lanes, contention=contention,
            prefer_method=prefer_method,
        )
    table = db.table(table_name)
    if table.lsm is not None:
        # The LSM engine has its own (pure-arithmetic) cost model:
        # tombstone writes + expected flushes + FADE compactions.
        from repro.lsm.planning import choose_lsm_plan

        return choose_lsm_plan(db, table_name, column, n_deletes)
    if table.is_sharded:
        raise PlanningError(
            f"table {table_name} is range-sharded; pass the delete "
            "list via choose_plan(..., shards=keys) or call "
            "repro.shard.planning.choose_sharded_plan"
        )
    if not table.schema.has_column(column):
        raise PlanningError(f"{table_name} has no column {column}")
    driving = _pick_driving_index(table, column)
    horizontal = estimate_horizontal_ms(db, table, n_deletes)
    if lanes > 1:
        vertical = estimate_vertical_parallel_ms(
            db, table, n_deletes, lanes, contention,
            driving_index=driving.name if driving else None,
        )
    else:
        vertical = estimate_vertical_ms(db, table, n_deletes)
    plan = BulkDeletePlan(
        table_name=table_name,
        column=column,
        driving_index=driving.name if driving else None,
        n_deletes=n_deletes,
        lanes=lanes,
        contention=contention,
    )
    # The estimate must describe the plan actually chosen: under
    # force_vertical the cheaper horizontal figure is not available,
    # so min() of the two would report a cost no step of this plan
    # can achieve (caught by the estimate-drift self-check).
    # Horizontal probes an index on the delete column for every key;
    # without one it is not a candidate.
    if (
        not force_vertical
        and driving is not None
        and horizontal.io_ms < vertical.io_ms
    ):
        plan.estimated_ms = horizontal.io_ms
        plan.steps = [
            StepPlan(
                TABLE_TARGET,
                BdMethod.NESTED_LOOPS,
                BdPredicate.KEY,
                note="record-at-a-time is cheaper for this few deletes",
            )
        ]
        plan.notes.append(
            f"horizontal {horizontal.io_ms / 1000:.1f}s < "
            f"vertical {vertical.io_ms / 1000:.1f}s"
        )
        return plan

    plan.estimated_ms = vertical.io_ms
    if lanes > 1:
        plan.notes.append(
            f"costed for {lanes} {contention} lane(s): {vertical.detail}"
        )
    method = prefer_method or BdMethod.SORT_MERGE
    hash_fits = rid_hash_fits(db, n_deletes)
    if method is BdMethod.HASH and not hash_fits:
        method = BdMethod.PARTITIONED_HASH
        plan.notes.append(
            "RID hash set exceeds memory: fell back to range partitioning"
        )

    # 1. The driving index (sort/merge on its own key) produces RIDs.
    if driving is not None:
        plan.steps.append(
            StepPlan(
                driving.name,
                BdMethod.SORT_MERGE,
                BdPredicate.KEY,
                note="driving index: sorted delete keys -> RID list",
            )
        )
        plan.sort_rid_list = not driving.clustered
        if driving.clustered:
            plan.notes.append(
                "driving index is clustered: RID list inherits key order "
                "(interesting order, no sort needed)"
            )
    else:
        plan.sort_rid_list = False  # scan already yields RIDs in order

    # 2. Unique secondary indexes, by RID, before the base table (§3.1.3)
    #    so the uniqueness constraint can come back on-line early.
    later: List[IndexInfo] = []
    hash_indexes = table.hash_indexes()
    if hash_indexes:
        plan.notes.append(
            f"{len(hash_indexes)} hash index(es) will be updated "
            "record-at-a-time (vertical bd applies to B-trees only, §5)"
        )
    for index in table.btree_indexes():
        if driving is not None and index.name == driving.name:
            continue
        if index.unique and hash_fits:
            plan.steps.append(
                StepPlan(
                    index.name,
                    BdMethod.HASH,
                    BdPredicate.RID,
                    note="unique index processed first (RID probe)",
                )
            )
        else:
            later.append(index)

    # 3. The base table.
    plan.steps.append(
        StepPlan(
            TABLE_TARGET,
            BdMethod.SORT_MERGE if method is BdMethod.SORT_MERGE else method,
            BdPredicate.RID,
            note="RID-ordered sweep of the heap",
        )
    )

    # 4. Remaining indexes, fed by the projections of the deleted rows.
    for index in later:
        step_method = method
        predicate = (
            BdPredicate.RID if method is not BdMethod.SORT_MERGE
            else BdPredicate.KEY
        )
        plan.steps.append(
            StepPlan(
                index.name,
                step_method,
                predicate,
                note="fed by keys projected from deleted rows"
                if predicate is BdPredicate.KEY
                else "fed by the RID list",
            )
        )
    return plan


def _pick_driving_index(
    table: TableInfo, column: str
) -> Optional[IndexInfo]:
    """Best index on the delete column: clustered > unique > any."""
    candidates = table.indexes_on(column)
    if not candidates:
        return None
    for ix in candidates:
        if ix.clustered:
            return ix
    for ix in candidates:
        if ix.unique:
            return ix
    return candidates[0]
