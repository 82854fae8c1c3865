"""Leaf-level cursors over a B-link tree.

The vertical bulk-delete plans never traverse root-to-leaf per record;
they sweep the chained leaf level from left to right.  ``LeafCursor``
encapsulates that sweep and reports how many leaf pages it touched so
experiments can assert on access patterns.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.btree.node import NO_NODE, Node
from repro.btree.tree import BLinkTree

Entry = Tuple[int, int]


class LeafCursor:
    """Forward-only iterator over the leaves of a tree."""

    def __init__(self, tree: BLinkTree, start_key: Optional[int] = None) -> None:
        self.tree = tree
        self.pages_visited = 0
        if start_key is None:
            self._next_id = tree.first_leaf_id
        else:
            self._next_id = tree.find_leaf(start_key).page_id
            self.pages_visited += tree.height  # the locating descent

    def __iter__(self) -> "LeafCursor":
        return self

    def __next__(self) -> Node:
        if self._next_id == NO_NODE:
            raise StopIteration
        node = self.tree.read_leaf(self._next_id)
        self.pages_visited += 1
        self._next_id = node.right_id
        return node

    def entries(self) -> Iterator[Entry]:
        """Flatten the sweep into a stream of ``(key, value)`` entries."""
        for leaf in self:
            yield from leaf.entries
