"""Logical bulk-delete plans.

A plan answers the three optimizer questions the paper poses for the
``bd`` operator (Section 2.1):

* **method** — nested-loops (the traditional horizontal path),
  sort/merge, in-memory hash, or range-partitioned hash,
* **order** — which structure is processed first and where the base
  table sits in the sequence (unique indexes are scheduled before the
  table so the uniqueness constraint can be re-enabled early, §3.1.3),
* **primary predicate** — whether entries of an index are located by
  key or by RID.

``BulkDeletePlan.explain`` renders the plan as an operator DAG in the
style of the paper's Figures 3-5.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence


class BdMethod(enum.Enum):
    """Join method used by one ``bd`` operator."""

    SORT_MERGE = "sort-merge"
    HASH = "hash"
    PARTITIONED_HASH = "partitioned-hash"
    NESTED_LOOPS = "nested-loops"  # the traditional, horizontal path


class BdPredicate(enum.Enum):
    """How entries are located in the target structure."""

    KEY = "key"
    RID = "rid"


TABLE_TARGET = "__table__"


@dataclass
class StepPlan:
    """One ``bd`` application: target structure, method, predicate."""

    target: str  # index name, or TABLE_TARGET for the base table
    method: BdMethod
    predicate: BdPredicate
    note: str = ""

    @property
    def is_table(self) -> bool:
        return self.target == TABLE_TARGET

    def describe(self, table_name: str) -> str:
        name = table_name if self.is_table else self.target
        text = f"bd[{self.method.value}/{self.predicate.value}] {name}"
        if self.note:
            text += f"  -- {self.note}"
        return text


@dataclass
class BulkDeletePlan:
    """The full vertical plan for one bulk DELETE statement."""

    table_name: str
    column: str
    driving_index: Optional[str]
    steps: List[StepPlan] = field(default_factory=list)
    sort_rid_list: bool = True
    estimated_ms: Optional[float] = None
    notes: List[str] = field(default_factory=list)
    #: Size of the delete list the plan was costed for.  The static
    #: plan linter uses it to verify hash-method memory feasibility;
    #: ``None`` (a hand-built plan) skips those checks.
    n_deletes: Optional[int] = None
    #: Concurrent I/O lanes the plan was costed for.  ``1`` is the
    #: paper's serial single-disk testbed; ``> 1`` schedules the
    #: independent branches after the RID-list barrier concurrently.
    lanes: int = 1
    #: ``"dedicated"`` (one disk per lane) or ``"shared"`` (lanes
    #: interleave on one device); only meaningful when ``lanes > 1``.
    contention: str = "dedicated"

    @classmethod
    def fixed(
        cls,
        table_name: str,
        column: str,
        driving_index: str,
        probe: Sequence[str] = (),
        sweep: Sequence[str] = (),
        sort_rid_list: bool = True,
    ) -> "BulkDeletePlan":
        """The fixed-shape plan the §3 protocols run (no costing): the
        driving index by sort/merge, ``probe`` indexes by RID hash
        before the table, the RID-ordered heap sweep, then ``sweep``
        indexes by sort/merge."""
        steps = [StepPlan(driving_index, BdMethod.SORT_MERGE, BdPredicate.KEY)]
        steps += [
            StepPlan(name, BdMethod.HASH, BdPredicate.RID) for name in probe
        ]
        steps.append(
            StepPlan(TABLE_TARGET, BdMethod.SORT_MERGE, BdPredicate.RID)
        )
        steps += [
            StepPlan(name, BdMethod.SORT_MERGE, BdPredicate.KEY)
            for name in sweep
        ]
        return cls(
            table_name, column, driving_index, steps,
            sort_rid_list=sort_rid_list,
        )

    def index_steps(self) -> List[StepPlan]:
        return [s for s in self.steps if not s.is_table]

    def table_step(self) -> StepPlan:
        for step in self.steps:
            if step.is_table:
                return step
        raise ValueError("plan has no base-table step")

    def steps_before_table(self) -> List[StepPlan]:
        out: List[StepPlan] = []
        for step in self.steps:
            if step.is_table:
                break
            out.append(step)
        return out

    def steps_after_table(self) -> List[StepPlan]:
        seen_table = False
        out: List[StepPlan] = []
        for step in self.steps:
            if step.is_table:
                seen_table = True
            elif seen_table:
                out.append(step)
        return out

    def explain(self) -> str:
        """Human-readable rendering of the plan DAG."""
        lines = [
            f"BULK DELETE FROM {self.table_name} "
            f"WHERE {self.column} IN (delete list)"
        ]
        if self.driving_index:
            lines.append(
                f"  driving index: {self.driving_index} "
                f"(produces the RID list)"
            )
        else:
            lines.append("  no index on the delete column: table scan "
                         "produces the RID list")
        if self.sort_rid_list:
            lines.append("  sort(RID) before the base-table sweep")
        else:
            lines.append("  RID list already in physical order "
                         "(clustered driving index)")
        if self.lanes > 1:
            lines.append(
                f"  parallelism: {self.lanes} {self.contention} lanes "
                "for the branches after the RID-list barrier"
            )
        for i, step in enumerate(self.steps, start=1):
            lines.append(f"  {i}. {step.describe(self.table_name)}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        if self.estimated_ms is not None:
            lines.append(f"  estimated cost: {self.estimated_ms / 1000:.2f}s")
        return "\n".join(lines)
