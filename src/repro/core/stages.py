"""The vertical plan's stages, defined once (paper §2.1-2.2, Figures 3-5).

A bulk DELETE is *one* operator, ``bd``, piped through a DAG::

    key sort -> driving bd / scan -> RID sort -> pre-table RID probes
             -> base table -> post-table index steps -> hash-index upkeep

:func:`vertical_stages` turns a :class:`~repro.core.plans.BulkDeletePlan`
into that sequence: an ordered list of :class:`Stage` objects over one
shared :class:`Pipe`.  Each stage owns its span, its ``bd`` call and
its result; the pipe carries what one ``bd`` hands the next (sorted
keys, the RID list, the deleted rows) and the statement's one RID hash
set.  A DELETE reaches the ``bd`` primitives only through this module
(the bulk UPDATE applies the sort/merge one to its own old-key list),
and whichever method a stage runs, the sweep kernel underneath gets
the stage's ``redo`` hook and ``undeletable`` set.

Every driver is a way of *walking* the list, not a copy of it:

* **schedule** — :mod:`repro.core.executor` runs the stages back to
  back, or hands the ones after the RID-list barrier to lane regions;
* **journal** — :mod:`repro.recovery.restart` sets each stage's
  ``redo`` hook, materialises the lists in place of the charged sorts
  (``ordered_pairs``) and checkpoints at the stage boundaries;
* **yield** — :mod:`repro.txn.coordinator` runs the stages through the
  table as its critical phase and then one post-table stage per
  call, handing the engine back to user traffic in between.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.btree.tree import BLinkTree
from repro.catalog.catalog import IndexInfo, TableInfo
from repro.catalog.database import Database
from repro.core.bulk_ops import (
    BdResult,
    bd_heap_hash_probe,
    bd_heap_sorted_rids,
    bd_index_hash_probe,
    bd_index_partitioned,
    bd_index_sort_merge,
)
from repro.core.plans import BdMethod, BulkDeletePlan, StepPlan
from repro.core.reorg import sweep_with_base_node_reorg
from repro.obs.trace import maybe_span
from repro.query.hashtable import BoundedHashSet, HashTableOverflowError
from repro.query.sort import ExternalSorter
from repro.storage.rid import RID

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.executor import BulkDeleteOptions

Entry = Tuple[int, int]  # (key, packed rid)
Row = Tuple[RID, Tuple[object, ...]]

#: Stage roles, in plan order.
KEY_SORT = "key-sort"
DRIVING = "driving"
RID_SORT = "rid-sort"
PRE_TABLE = "pre-table"
TABLE = "table"
POST_TABLE = "post-table"
HASH_INDEX = "hash-index"


@dataclass
class Pipe:
    """One statement's context and what flows between its stages."""

    db: Database
    table: TableInfo
    plan: BulkDeletePlan
    #: The delete list; the key sort leaves it ordered.
    keys: Sequence[int]
    options: "BulkDeleteOptions"
    #: Packed RIDs of the victims (driving stage out, RID sort in place).
    rid_list: List[int] = field(default_factory=list)
    #: Deleted rows (table stage out); post-table stages project them.
    rows: List[Row] = field(default_factory=list)
    _rid_set: Optional[BoundedHashSet] = None

    def rid_set(self) -> BoundedHashSet:
        """The statement's RID hash set, built on first use.

        Building is in-memory work (no simulated I/O), so one shared
        set costs what one set per step did.  An input past the memory
        budget raises :class:`HashTableOverflowError` at every call.
        """
        if self._rid_set is None:
            self._rid_set = BoundedHashSet(self.db.memory_bytes).build(
                self.rid_list
            )
        return self._rid_set


@dataclass
class Stage:
    """One named step of the vertical plan."""

    pipe: Pipe
    role: str
    #: Span name, and the lane task's name when a region runs the stage.
    name: str
    #: Structure the stage works on (span and lane-task ``target``).
    target: str
    kind: str = "bd"
    step: Optional[StepPlan] = None
    index: Optional[IndexInfo] = None
    attrs: Dict[str, Any] = field(default_factory=dict)
    #: WAL hook (journal walkers): sees what a page is about to lose —
    #: ``(key, RID)`` entries of a leaf, ``(RID, payload)`` pairs of a
    #: heap page — before the page changes.
    redo: Optional[Callable[[List[Any]], None]] = None
    #: Post-table feed already ordered on stable storage (journal
    #: walkers); replaces the projection and its charged sort.
    ordered_pairs: Optional[Sequence[Entry]] = None
    #: Entries installed by concurrent transactions under direct
    #: propagation (§3.1.2); the sweep leaves them alone.
    undeletable: Set[Entry] = field(default_factory=set)

    def apply(self) -> Optional[BdResult]:
        """Apply the stage inside its span; ``None`` for the sorts."""
        with maybe_span(
            self.pipe.db.obs,
            self.name,
            kind=self.kind,
            target=self.target,
            **self.attrs,
        ) as span:
            role = self.role
            pipe = self.pipe
            if role == KEY_SORT:
                pipe.keys = self._sorted_ints(span, pipe.keys)
                return None
            if role == RID_SORT:
                pipe.rid_list = self._sorted_ints(span, pipe.rid_list)
                return None
            if role == DRIVING:
                result = self._drive()
            elif role == PRE_TABLE:
                result = self._hash_probe()
            elif role == TABLE:
                result = self._sweep_table()
            elif role == POST_TABLE:
                result = self._index_step()
            else:
                result = self._hash_index()
            span.set(
                entries_deleted=result.deleted_count,
                pages_visited=result.pages_visited,
                pages_freed=result.pages_freed,
                partitions=result.partitions,
            )
            if role == TABLE:
                span.set(records_deleted=len(pipe.rows))
        return result

    # -- the sorts -----------------------------------------------------
    def _sorted(self, span: Any, items: Any, width: int) -> List[Any]:
        db = self.pipe.db
        sorter = ExternalSorter(db.disk, db.memory_bytes, width=width)
        out = list(sorter.sort(items))
        span.set(
            tuples=sorter.stats.input_tuples,
            runs=sorter.stats.runs,
            spilled=sorter.stats.spilled,
        )
        return out

    def _sorted_ints(self, span: Any, values: Sequence[int]) -> List[int]:
        return [v for (v,) in self._sorted(span, ((v,) for v in values), 1)]

    # -- one call site per bd primitive --------------------------------
    @property
    def _tree(self) -> BLinkTree:
        assert self.index is not None and self.index.tree is not None
        return self.index.tree

    def _sort_merge(
        self, pairs: Sequence[Entry], match_rid: bool
    ) -> BdResult:
        pipe = self.pipe
        if pipe.options.base_node_reorg:
            return sweep_with_base_node_reorg(
                self._tree,
                pairs,
                pipe.db.disk,
                match_rid=match_rid,
                on_removed=self.redo,
                undeletable=self.undeletable,
            )
        return bd_index_sort_merge(
            self._tree,
            pairs,
            pipe.db.disk,
            match_rid=match_rid,
            compact=pipe.options.compact_leaves,
            on_removed=self.redo,
            undeletable=self.undeletable,
        )

    def _hash_probe(self) -> BdResult:
        pipe = self.pipe
        return bd_index_hash_probe(
            self._tree,
            pipe.rid_set(),
            pipe.db.disk,
            compact=pipe.options.compact_leaves,
            undeletable=self.undeletable,
        )

    def _partitioned(self, pairs: Sequence[Entry]) -> BdResult:
        pipe = self.pipe
        return bd_index_partitioned(
            self._tree,
            pairs,
            pipe.db.memory_bytes,
            pipe.db.disk,
            compact=pipe.options.compact_leaves,
            undeletable=self.undeletable,
        )

    # -- stage bodies --------------------------------------------------
    def _drive(self) -> BdResult:
        """Turn the sorted delete keys into packed RIDs.

        With a driving index this is the first ``bd`` (sort/merge on
        the index's own key); without one, a sequential table scan
        finds the victims (their RIDs arrive in physical order for
        free).
        """
        pipe = self.pipe
        if self.index is None:
            return self._scan()
        bd_result = self._sort_merge(
            [(k, 0) for k in pipe.keys], match_rid=False
        )
        pipe.rid_list = [rid for _, rid in bd_result.deleted]
        return bd_result

    def _scan(self) -> BdResult:
        pipe, table = self.pipe, self.pipe.table
        key_set = set(pipe.keys)
        column_idx = table.schema.column_index(pipe.plan.column)
        result = BdResult(structure=f"{table.name} (scan)")
        for page_id, records in table.heap.scan_pages():
            result.pages_visited += 1
            pipe.db.disk.charge_cpu_records(len(records))
            for slot, payload in records:
                values = table.serializer.unpack(payload)
                if values[column_idx] in key_set:
                    pipe.rid_list.append(RID(page_id, slot).pack())
        return result

    def _sweep_table(self) -> BdResult:
        pipe = self.pipe
        assert self.step is not None
        if self.step.method is BdMethod.HASH:
            pipe.rows, result = bd_heap_hash_probe(
                pipe.table, pipe.rid_set(), pipe.db.disk
            )
        else:
            pipe.rows, result = bd_heap_sorted_rids(
                pipe.table,
                [RID.unpack(r) for r in pipe.rid_list],
                pipe.db.disk,
                compact=pipe.options.compact_leaves,
                on_page_deletes=self.redo,
            )
        return result

    def _index_step(self) -> BdResult:
        """One remaining index, fed by projections of the deleted rows."""
        pipe, index = self.pipe, self.index
        assert self.step is not None and index is not None
        method = self.step.method
        if method is BdMethod.HASH:
            try:
                return self._hash_probe()
            except HashTableOverflowError:
                method = BdMethod.PARTITIONED_HASH
        if self.ordered_pairs is not None:
            return self._sort_merge(self.ordered_pairs, match_rid=True)
        # Compound indexes pack their column tuple into one key here,
        # after which they are handled like single-column indexes.
        pairs = [
            (index.key_for(values, pipe.table.schema), rid.pack())
            for rid, values in pipe.rows
        ]
        if method is BdMethod.PARTITIONED_HASH:
            return self._partitioned(pairs)
        if index.clustered:
            pairs.sort()  # already nearly ordered; cheap
        else:
            with maybe_span(
                pipe.db.obs,
                f"sort(key,RID) {index.name}",
                kind="sort",
                target=index.name,
            ) as span:
                pairs = self._sorted(span, pairs, 2)
        return self._sort_merge(pairs, match_rid=True)

    def _hash_index(self) -> BdResult:
        """Non-B-tree indexes: "updated in the traditional way"."""
        pipe, index = self.pipe, self.index
        assert index is not None
        result = BdResult(structure=index.name)
        for rid, values in pipe.rows:
            key = index.key_for(values, pipe.table.schema)
            if index.hash_index.delete(key, rid.pack()):  # type: ignore[union-attr, attr-defined]
                result.deleted.append((key, rid.pack()))
        pipe.db.disk.charge_cpu_records(len(pipe.rows))
        return result


def vertical_stages(pipe: Pipe) -> List[Stage]:
    """The ordered stages of ``pipe.plan`` (see the module docstring)."""
    table, plan = pipe.table, pipe.plan
    stages = [Stage(pipe, KEY_SORT, "sort(delete keys)", "D", "sort")]
    if plan.driving_index is not None:
        stages.append(Stage(
            pipe, DRIVING, f"bd[sort-merge/key] {plan.driving_index}",
            plan.driving_index,
            index=table.index(plan.driving_index),
            attrs={"driving": True},
        ))
    else:
        stages.append(Stage(
            pipe, DRIVING, f"scan({table.name})", table.name, "scan",
            attrs={"emits": "RID list"},
        ))
    if plan.sort_rid_list:
        stages.append(
            Stage(pipe, RID_SORT, "sort(RID)", plan.table_name, "sort")
        )
    for step in plan.steps_before_table():
        if step.target != plan.driving_index:
            stages.append(Stage(
                pipe, PRE_TABLE, f"bd[hash/rid] {step.target}",
                step.target, step=step,
                index=table.index(step.target),
            ))
    table_step = plan.table_step()
    stages.append(Stage(
        pipe, TABLE,
        f"bd[{table_step.method.value}/rid] {plan.table_name}",
        plan.table_name, step=table_step,
    ))
    for step in plan.steps_after_table():
        stages.append(Stage(
            pipe, POST_TABLE,
            f"bd[{step.method.value}/{step.predicate.value}] {step.target}",
            step.target, step=step, index=table.index(step.target),
        ))
    for index in table.hash_indexes():
        stages.append(Stage(
            pipe, HASH_INDEX, f"hash-index {index.name}",
            index.name, index=index,
        ))
    return stages
