"""The paper's contribution: vertical, set-oriented bulk deletes."""

from repro.core.bulk_ops import (
    BdResult,
    bd_heap_hash_probe,
    bd_heap_sorted_rids,
    bd_index_hash_probe,
    bd_index_partitioned,
    bd_index_sort_merge,
)
from repro.core.chunked import (
    ChunkedDelete,
    ChunkedDeleteResult,
    ChunkStats,
    chunked_delete,
)
from repro.core.drop_create import DropCreateResult, drop_create_delete
from repro.core.executor import (
    BulkDeleteOptions,
    BulkDeleteResult,
    bulk_delete,
    execute_plan,
    validate_plan,
)
from repro.core.planner import (
    choose_plan,
    estimate_chunked_ms,
    estimate_horizontal_ms,
    estimate_vertical_ms,
)
from repro.core.plans import (
    TABLE_TARGET,
    BdMethod,
    BdPredicate,
    BulkDeletePlan,
    StepPlan,
)
from repro.core.bulk_update import (
    BulkUpdateResult,
    bulk_update,
    traditional_update,
)
from repro.core.integrity import (
    ConstraintRegistry,
    ForeignKey,
    IntegrityReport,
    OnDelete,
    cascade_bulk_delete,
)
from repro.core.operator import OpNode, build_dag, render_plan_dag
from repro.core.reorg import compact_leaf_level, sweep_with_base_node_reorg
from repro.core.traditional import TraditionalResult, traditional_delete

__all__ = [
    "BdMethod",
    "BulkUpdateResult",
    "ConstraintRegistry",
    "ForeignKey",
    "IntegrityReport",
    "OnDelete",
    "cascade_bulk_delete",
    "bulk_update",
    "build_dag",
    "render_plan_dag",
    "traditional_update",
    "BdPredicate",
    "BdResult",
    "BulkDeleteOptions",
    "BulkDeletePlan",
    "BulkDeleteResult",
    "DropCreateResult",
    "StepPlan",
    "TABLE_TARGET",
    "TraditionalResult",
    "bd_heap_hash_probe",
    "bd_heap_sorted_rids",
    "bd_index_hash_probe",
    "bd_index_partitioned",
    "bd_index_sort_merge",
    "bulk_delete",
    "choose_plan",
    "ChunkStats",
    "ChunkedDelete",
    "ChunkedDeleteResult",
    "chunked_delete",
    "estimate_chunked_ms",
    "compact_leaf_level",
    "drop_create_delete",
    "estimate_horizontal_ms",
    "estimate_vertical_ms",
    "execute_plan",
    "sweep_with_base_node_reorg",
    "traditional_delete",
    "validate_plan",
]
