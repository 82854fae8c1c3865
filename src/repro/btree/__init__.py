"""B-link tree index structure (leaf-chained B+-tree)."""

from repro.btree.bulk_insert import BulkInsertResult, bulk_insert_sorted
from repro.btree.maintenance import (
    ReclaimPolicy,
    merge_underfull_leaves,
    validate_tree,
)
from repro.btree.node import MAX_KEY, MIN_KEY, Node, node_capacity
from repro.btree.tree import BLinkTree

__all__ = [
    "BLinkTree",
    "BulkInsertResult",
    "bulk_insert_sorted",
    "MAX_KEY",
    "MIN_KEY",
    "Node",
    "ReclaimPolicy",
    "merge_underfull_leaves",
    "node_capacity",
    "validate_tree",
]
