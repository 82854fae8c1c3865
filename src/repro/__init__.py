"""repro — reproduction of "Efficient Bulk Deletes in Relational Databases".

The public API re-exports the pieces a downstream user needs:

* :class:`Database` — the embedded engine (simulated disk, buffer pool,
  catalog, heap files, B-link trees),
* schema helpers (:class:`TableSchema`, :class:`Attribute`),
* :func:`bulk_delete` — the paper's vertical, set-oriented bulk delete,
* the baselines (:func:`traditional_delete`, :func:`drop_create_delete`),
* the planner (:func:`choose_plan`) and plan/option/result types,
* the static plan linter (:func:`lint_plan` / :func:`validate_plan`)
  from :mod:`repro.analysis`.
"""

from repro.catalog.database import Database
from repro.catalog.schema import Attribute, DataType, TableSchema
from repro.core.bulk_update import (
    BulkUpdateResult,
    bulk_update,
    traditional_update,
)
from repro.core.drop_create import DropCreateResult, drop_create_delete
from repro.core.integrity import (
    ConstraintRegistry,
    OnDelete,
    cascade_bulk_delete,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.plan_lint import lint_plan
from repro.core.executor import (
    BulkDeleteOptions,
    BulkDeleteResult,
    bulk_delete,
    execute_plan,
    validate_plan,
)
from repro.core.planner import choose_plan
from repro.core.plans import BdMethod, BdPredicate, BulkDeletePlan
from repro.core.traditional import TraditionalResult, traditional_delete
from repro.hashindex import HashIndex
from repro.storage.rid import RID

__version__ = "1.0.0"

__all__ = [
    "Attribute",
    "BdMethod",
    "BdPredicate",
    "BulkDeleteOptions",
    "BulkUpdateResult",
    "ConstraintRegistry",
    "OnDelete",
    "BulkDeletePlan",
    "BulkDeleteResult",
    "Database",
    "Finding",
    "HashIndex",
    "Severity",
    "DataType",
    "DropCreateResult",
    "RID",
    "TableSchema",
    "TraditionalResult",
    "bulk_delete",
    "cascade_bulk_delete",
    "bulk_update",
    "choose_plan",
    "drop_create_delete",
    "execute_plan",
    "lint_plan",
    "traditional_delete",
    "traditional_update",
    "validate_plan",
]
