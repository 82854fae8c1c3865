"""Execution of vertical bulk-delete plans.

``execute_plan`` walks the stage list of a :class:`BulkDeletePlan`
(:mod:`repro.core.stages` — the paper's Figure 3/4/5 DAGs: the driving
index turns sorted delete keys into a RID list, the RID list drives
the base table and the remaining indexes, each structure touched once,
vertically), serially or with the stages after the RID-list barrier
handed to lane regions.

``bulk_delete`` is the one-call public entry point: it plans (or takes
a caller-supplied plan) and executes, falling back to the traditional
executor when the planner decides record-at-a-time is cheaper.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.catalog.database import Database
from repro.catalog.statistics import (
    TableStatistics,
    collect_table_statistics,
)
from repro.core.bulk_ops import BdResult
from repro.core.planner import choose_plan
from repro.core.plans import BdMethod, BulkDeletePlan
from repro.core.stages import (
    DRIVING,
    HASH_INDEX,
    KEY_SORT,
    POST_TABLE,
    PRE_TABLE,
    RID_SORT,
    TABLE,
    Pipe,
    Stage,
    vertical_stages,
)
from repro.errors import PlanningError, PlanValidationError
from repro.obs.trace import maybe_span
from repro.parallel import DEDICATED, LaneScheduler, LaneTask
from repro.storage.disk import DiskStats

#: The lane regions after the RID-list barrier: the RID consumers, then
#: the row consumers.  Stages of one region never share a structure.
_REGIONS = (
    ("pre-table", (PRE_TABLE, TABLE)),
    ("index-maintenance", (POST_TABLE, HASH_INDEX)),
)


@dataclass
class BulkDeleteOptions:
    """Execution knobs (reorganization & hygiene)."""

    #: Compact/merge leaf pages during the sweep (paper §2.3).
    compact_leaves: bool = False
    #: Use the on-the-fly base-node inner update ([26]) instead of the
    #: layer-by-layer rebuild.
    base_node_reorg: bool = False
    #: Free base-table pages that the delete emptied completely.
    reclaim_heap_pages: bool = True
    #: Force all dirty pages to disk at the end (charges the writes).
    flush_at_end: bool = True
    #: Concurrent I/O lanes for the independent plan branches after the
    #: RID-list barrier.  ``1`` (the default) is the strictly serial
    #: paper testbed — it takes the exact serial code path, so its
    #: simulated times are bit-identical to pre-parallelism builds.
    lanes: int = 1
    #: ``"dedicated"`` models one disk per lane (near-linear speedup);
    #: ``"shared"`` models lanes interleaving on one device, which
    #: loses every sequentiality discount and serializes the requests.
    contention: str = DEDICATED
    #: Seed for the scheduler's lane tie-breaks; the same seed replays
    #: the same interleaving (crash sweeps depend on this).
    lane_seed: int = 0
    #: Media recovery layer (:class:`repro.media.MediaRecovery`) to
    #: attach to the buffer pool for the statement's duration: pool
    #: misses then retry transient read faults with backoff and repair
    #: checksum mismatches from full-page images instead of failing.
    media: Optional[object] = None


@dataclass
class BulkDeleteResult:
    """What one bulk delete did and what it cost (simulated)."""

    plan: BulkDeletePlan
    records_deleted: int = 0
    step_results: List[BdResult] = field(default_factory=list)
    elapsed_ms: float = 0.0
    io: Optional[DiskStats] = None
    heap_pages_reclaimed: int = 0
    #: Root :class:`repro.obs.trace.Span` of the execution, when an
    #: observer was attached to the database (``None`` otherwise).
    trace: Optional[object] = None
    #: Per-region :class:`repro.parallel.RegionReport` objects when the
    #: plan ran with ``lanes > 1`` (empty for serial execution).
    parallel_regions: List[object] = field(default_factory=list)

    @property
    def elapsed_seconds(self) -> float:
        return self.elapsed_ms / 1000.0

    @property
    def elapsed_minutes(self) -> float:
        return self.elapsed_ms / 60000.0

    def summary(self) -> str:
        lines = [
            f"deleted {self.records_deleted} records in "
            f"{self.elapsed_seconds:.2f}s (simulated)"
        ]
        for step in self.step_results:
            lines.append(
                f"  {step.structure}: -{step.deleted_count} entries, "
                f"{step.pages_visited} pages visited, "
                f"{step.pages_freed} freed"
            )
        if self.io is not None:
            lines.append(
                f"  io: {self.io.reads} reads / {self.io.writes} writes "
                f"({self.io.random_ios} random)"
            )
        return "\n".join(lines)


def validate_plan(db: Database, plan: BulkDeletePlan) -> None:
    """Reject ``plan`` if the static plan linter finds ERROR findings.

    Runs :func:`repro.analysis.plan_lint.lint_plan` with full catalog
    context; WARNING findings pass (EXPLAIN surfaces them), ERROR
    findings raise :class:`PlanValidationError` before any simulated
    I/O is charged.
    """
    from repro.analysis.findings import errors as error_findings
    from repro.analysis.plan_lint import lint_plan

    broken = error_findings(lint_plan(plan, db))
    if broken:
        detail = "; ".join(
            f"{f.rule_id} @ {f.node}: {f.message}" for f in broken
        )
        raise PlanValidationError(
            f"plan for {plan.table_name} violates "
            f"{len(broken)} invariant(s): {detail}",
            findings=broken,
        )


def execute_plan(
    db: Database,
    plan: BulkDeletePlan,
    keys: Sequence[int],
    options: Optional[BulkDeleteOptions] = None,
    validate: bool = True,
) -> BulkDeleteResult:
    """Run a vertical plan.  ``keys`` is the delete list (column values).

    With ``validate=True`` (the default) the plan is first checked
    against the paper's structural invariants by the static plan
    linter; an invalid plan raises :class:`PlanValidationError`
    *before* the executor charges any simulated I/O for it.

    ``options.media`` attaches a media recovery layer to the buffer
    pool for the statement's duration (the previous attachment is back
    afterwards, even when the statement fails).
    """
    options = options or BulkDeleteOptions()
    with _statement(db, plan, keys, options, validate) as (stages, result):
        if options.lanes == 1:
            _walk(stages, result)
        else:
            _walk_lanes(db, stages, options, result)
    return result


def execute_fragment(
    db: Database,
    plan: BulkDeletePlan,
    keys: Sequence[int],
    options: Optional[BulkDeleteOptions] = None,
    validate: bool = True,
) -> BulkDeleteResult:
    """:func:`execute_plan` for lane tasks: the serial walk only.

    Sharded execution (:mod:`repro.shard.executor`) runs whole
    shard-local statements *as* lane tasks.  A task that could open a
    nested parallel region would re-enter the lane scheduler — and
    reach its clock repositioning and the coordinator's catalog
    mutations — mid-region, so this entry point structurally cannot:
    it rejects ``lanes != 1`` and has no call path to ``_walk_lanes``,
    which is what lets the static lane-safety analysis vouch for the
    fragment tasks.  Statement shell and stages are the ones
    :func:`execute_plan` uses (bit-identical simulated times).
    """
    options = options or BulkDeleteOptions()
    if options.lanes != 1:
        raise PlanningError(
            "execute_fragment is the serial-only executor; fragment "
            f"options request lanes={options.lanes}"
        )
    with _statement(db, plan, keys, options, validate) as (stages, result):
        _walk(stages, result)
    return result


@contextmanager
def _statement(
    db: Database,
    plan: BulkDeletePlan,
    keys: Sequence[int],
    options: BulkDeleteOptions,
    validate: bool,
) -> Iterator[Tuple[List[Stage], BulkDeleteResult]]:
    """The statement shell around a walk of the stages: validate, root
    span and media attachment before; reclaim, flush and the result's
    totals after."""
    table = db.table(plan.table_name)
    if plan.table_step().method is BdMethod.NESTED_LOOPS:
        raise PlanningError(
            "horizontal plans are executed by repro.core.traditional; "
            "use bulk_delete() for automatic dispatch"
        )
    if validate:
        validate_plan(db, plan)
    start_ms = db.clock.now_ms
    io_before = db.disk.stats.snapshot()
    result = BulkDeleteResult(plan=plan)
    obs = db.obs
    pipe = Pipe(db, table, plan, keys, options)
    with db.pool.attached(media=options.media), maybe_span(
        obs,
        f"bulk-delete {plan.table_name}",
        kind="delete",
        target=plan.table_name,
        n_keys=len(keys),
    ) as root:
        yield vertical_stages(pipe), result
        result.records_deleted = len(pipe.rows)
        if options.reclaim_heap_pages:
            with maybe_span(
                obs,
                f"reclaim({plan.table_name})",
                kind="maintenance",
                target=plan.table_name,
            ) as span:
                result.heap_pages_reclaimed = (
                    table.heap.reclaim_empty_pages()
                )
                span.set(pages_reclaimed=result.heap_pages_reclaimed)
        if options.flush_at_end:
            with maybe_span(obs, "flush", kind="flush"):
                db.flush()
        root.set(records_deleted=result.records_deleted)
    result.elapsed_ms = db.clock.now_ms - start_ms
    result.io = db.disk.stats.delta_since(io_before)
    result.trace = getattr(root, "span", None)


def _walk(stages: Sequence[Stage], result: BulkDeleteResult) -> None:
    """Strictly serial single-disk execution — the paper's testbed."""
    for stage in stages:
        step_result = stage.apply()
        if step_result is not None:
            result.step_results.append(step_result)


def _walk_lanes(
    db: Database,
    stages: Sequence[Stage],
    options: BulkDeleteOptions,
    result: BulkDeleteResult,
) -> None:
    """Run the stages after the RID-list barrier on ``options.lanes``.

    The RID list is the barrier: everything after it is a set of
    independent branches (one structure each), executed in two regions
    — the RID consumers (unique-index probes and the base-table sweep),
    then the row consumers (remaining index sweeps and hash index
    maintenance).  Region reports (makespan, per-lane accounting) are
    appended to ``result.parallel_regions``; ``result.step_results``
    ends up in the order the serial walk produces.
    """
    scheduler = LaneScheduler(
        db.disk, options.lanes, options.contention, seed=options.lane_seed
    )
    _walk(
        [s for s in stages if s.role in (KEY_SORT, DRIVING, RID_SORT)],
        result,
    )
    stats = collect_table_statistics(db.table(result.plan.table_name))
    for region, roles in _REGIONS:
        tasks = [
            _lane_task(stage, _estimated_ms(stats, stage))
            for stage in stages
            if stage.role in roles
        ]
        if tasks:
            report = scheduler.run_region(region, tasks, obs=db.obs)
            result.parallel_regions.append(report)
            result.step_results.extend(report.results())


def _lane_task(stage: Stage, estimated_ms: float) -> LaneTask:
    return LaneTask(
        name=stage.name,
        run=stage.apply,
        estimated_ms=estimated_ms,
        target=stage.target,
    )


def _estimated_ms(stats: TableStatistics, stage: Stage) -> float:
    """LPT weight of a stage: the pages its sweep reads."""
    if stage.role == TABLE:
        return float(stats.heap_pages)
    index_stats = stats.indexes.get(stage.target)
    if stage.role == HASH_INDEX or index_stats is None:
        return 0.0
    return float(index_stats.leaf_pages)


def bulk_delete(
    db: Database,
    table_name: str,
    column: str,
    keys: Sequence[int],
    plan: Optional[BulkDeletePlan] = None,
    options: Optional[BulkDeleteOptions] = None,
    prefer_method: Optional[BdMethod] = None,
    force_vertical: bool = True,
    validate: bool = True,
) -> BulkDeleteResult:
    """Plan and execute ``DELETE FROM table WHERE column IN keys``.

    With ``force_vertical=False`` the planner may choose the
    traditional horizontal execution when the delete list is small; the
    result object is shaped the same either way.  ``validate`` runs the
    static plan linter before execution (mainly a guard for
    caller-supplied plans; planner output lints clean by construction).

    This is the one statement entry point for every layout the catalog
    can create.  An LSM-backed table dispatches to
    :func:`repro.lsm.engine.lsm_bulk_delete` (tombstones + FADE
    compactions) and returns its :class:`~repro.lsm.engine
    .LsmDeleteResult`; a range-sharded table dispatches to
    :func:`repro.shard.executor.sharded_bulk_delete` (``options.lanes``
    / ``options.contention`` size the ``shards`` lane region) and
    returns its :class:`~repro.shard.executor.ShardedDeleteResult`.
    """
    table = db.table(table_name)
    if table.lsm is not None:
        from repro.lsm.engine import lsm_bulk_delete
        from repro.lsm.planning import LsmDeletePlan

        lsm_plan = plan if isinstance(plan, LsmDeletePlan) else None
        return lsm_bulk_delete(  # type: ignore[return-value]
            db, table_name, column, keys, plan=lsm_plan
        )
    opts = options or BulkDeleteOptions()
    if table.is_sharded:
        from repro.shard.executor import sharded_bulk_delete
        from repro.shard.planning import (
            ShardedDeletePlan,
            choose_sharded_plan,
        )

        sharded_plan = (
            plan
            if isinstance(plan, ShardedDeletePlan)
            else choose_sharded_plan(
                db, table_name, column, keys,
                lanes=opts.lanes, contention=opts.contention,
                prefer_method=prefer_method,
            )
        )
        return sharded_bulk_delete(  # type: ignore[return-value]
            db, table_name, column, keys,
            options=options, plan=sharded_plan,
            lane_seed=opts.lane_seed, validate=validate,
        )
    if plan is None:
        plan = choose_plan(
            db,
            table_name,
            column,
            len(keys),
            prefer_method=prefer_method,
            force_vertical=force_vertical,
            lanes=opts.lanes,
            contention=opts.contention,
        )
    if plan.table_step().method is BdMethod.NESTED_LOOPS:
        from repro.core.traditional import traditional_delete

        trad = traditional_delete(db, table_name, column, keys, presort=True)
        return BulkDeleteResult(
            plan=plan,
            records_deleted=trad.records_deleted,
            step_results=[],
            elapsed_ms=trad.elapsed_ms,
            io=trad.io,
            trace=trad.trace,
        )
    return execute_plan(db, plan, keys, options, validate=validate)
