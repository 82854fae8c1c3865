"""On-page layout of B-link tree nodes.

Every node — leaf or inner — is one disk page:

* header: level (0 = leaf), flags, entry count, high key (an advisory
  upper-bound hint maintained on splits; single-writer operation never
  depends on it), and left/right sibling page ids.  Per the B-link organization of Lehman & Yao [10]
  the nodes of *every* level are chained, which the paper needed both
  for sequential leaf sweeps and for rebuilding inner levels layer by
  layer.  We additionally keep a *left* link so free-at-empty unlinking
  is O(1); the paper's prototype gets the same effect from its parent
  stack.
* entries: ``(key, value)`` pairs of two 64-bit integers.  In a leaf the
  value is a packed RID (or an arbitrary payload integer); in an inner
  node it is a child page id and ``key`` is the smallest key reachable
  through that child.

On the page the pairs are interleaved (``k0 v0 k1 v1 ...``).  Decoded, a
node is *columnar*: one ``array('q')`` of keys and one of values, so a
point operation bisects, inserts and deletes at C level instead of
building and re-flattening a list of tuples on every page touch.
:func:`unpack_pairs` / :func:`pack_pairs` are that codec, shared with
the hash index's bucket pages.

Header layout (little-endian, 32 bytes)::

    u8  level        u8  flags (bit 0: high key present)
    u16 entry_count  u32 reserved
    i64 high_key     i64 left_sibling   i64 right_sibling
"""

from __future__ import annotations

import struct
import sys
from array import array
from bisect import bisect_left, bisect_right
from typing import Iterable, Optional, Sequence, Tuple

from repro.errors import IndexError_

MIN_KEY = -(1 << 63)
MAX_KEY = (1 << 63) - 1

_HEADER = struct.Struct("<BBHIqqq")
_ENTRY_COUNT = struct.Struct("<H")
_ENTRY_COUNT_OFFSET = 2
HEADER_SIZE = _HEADER.size  # 32
ENTRY_SIZE = 16

_FLAG_HAS_HIGH = 1

#: page id value meaning "no sibling"
NO_NODE = 0

#: Pages are little-endian; ``array`` holds host-order integers.
_BIG_ENDIAN = sys.byteorder == "big"

Entry = Tuple[int, int]


def node_capacity(page_size: int) -> int:
    """Maximum entries that fit into one node page."""
    return (page_size - HEADER_SIZE) // ENTRY_SIZE


# ----------------------------------------------------------------------
# int64-pair <-> page-bytes codec (B-link nodes and hash bucket pages)
# ----------------------------------------------------------------------
def unpack_pairs(
    data: bytes, offset: int, count: int
) -> Tuple[array[int], array[int]]:
    """Decode ``count`` interleaved int64 pairs at ``offset`` into columns."""
    end = offset + ENTRY_SIZE * count
    if end > len(data):
        raise IndexError_(
            f"{count} entries at offset {offset} run past a "
            f"{len(data)}-byte page"
        )
    flat = array("q")
    flat.frombytes(data[offset:end])
    if _BIG_ENDIAN:
        flat.byteswap()
    return flat[0::2], flat[1::2]


def pack_pairs(
    data: bytearray, offset: int, firsts: array[int], seconds: array[int]
) -> None:
    """Interleave two equally long columns into ``data`` at ``offset``.

    Only the bytes of the pairs themselves are written; whatever follows
    them on the page stays as it was.  Raises (writing nothing) when the
    pairs would run past the end of the page.
    """
    size = ENTRY_SIZE * len(firsts)
    if offset + size > len(data):
        raise IndexError_(
            f"{len(firsts)} entries at offset {offset} do not fit a "
            f"{len(data)}-byte page"
        )
    flat = array("q", bytes(size))
    flat[0::2] = firsts
    flat[1::2] = seconds
    if _BIG_ENDIAN:
        flat.byteswap()
    data[offset : offset + size] = flat.tobytes()


def pair_columns(pairs: Iterable[Entry]) -> Tuple[array[int], array[int]]:
    """Split an iterable of int pairs into two ``array('q')`` columns."""
    columns = tuple(zip(*pairs))
    if not columns:
        return array("q"), array("q")
    return array("q", columns[0]), array("q", columns[1])


class Node:
    """Decoded form of one B-link tree node.

    ``keys`` and ``values`` are parallel columns; change them only
    through the methods below, which keep them the same length and drop
    the cached :attr:`entries` view.
    """

    __slots__ = (
        "page_id",
        "level",
        "keys",
        "values",
        "left_id",
        "right_id",
        "high_key",
        "_entries",
    )

    def __init__(
        self,
        page_id: int,
        level: int,
        entries: Iterable[Entry] = (),
        left_id: int = NO_NODE,
        right_id: int = NO_NODE,
        high_key: Optional[int] = None,
    ) -> None:
        self.page_id = page_id
        self.level = level
        self.keys, self.values = pair_columns(entries)
        self.left_id = left_id
        self.right_id = right_id
        self.high_key = high_key
        self._entries: Optional[Tuple[Entry, ...]] = None

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    @property
    def entry_count(self) -> int:
        return len(self.keys)

    @property
    def entries(self) -> Sequence[Entry]:
        """The node as an immutable tuple of ``(key, value)`` pairs.

        The read view of the leaf sweeps, validators and cursors, built
        from the columns at most once until the node next changes.
        Assigning a sequence of pairs replaces the node's contents.
        """
        view = self._entries
        if view is None:
            view = self._entries = tuple(zip(self.keys, self.values))
        return view

    @entries.setter
    def entries(self, entries: Sequence[Entry]) -> None:
        self.keys, self.values = pair_columns(entries)
        self._entries = None

    def first_key(self) -> int:
        if not self.keys:
            raise IndexError_(f"node {self.page_id} is empty")
        return self.keys[0]

    def last_key(self) -> int:
        if not self.keys:
            raise IndexError_(f"node {self.page_id} is empty")
        return self.keys[-1]

    # ------------------------------------------------------------------
    # column operations
    # ------------------------------------------------------------------
    def key_range(self, key: int) -> Tuple[int, int]:
        """``(lo, hi)`` such that ``keys[lo:hi]`` are the entries with ``key``."""
        lo = bisect_left(self.keys, key)
        return lo, bisect_right(self.keys, key, lo)

    def insert_sorted(self, key: int, value: int) -> None:
        """Insert in ``(key, value)`` order, after any equal entry."""
        lo, hi = self.key_range(key)
        self.insert_at(bisect_right(self.values, value, lo, hi), key, value)

    def insert_at(self, pos: int, key: int, value: int) -> None:
        self.keys.insert(pos, key)
        self.values.insert(pos, value)
        self._entries = None

    def delete_at(self, pos: int) -> None:
        del self.keys[pos]
        del self.values[pos]
        self._entries = None

    def split_off(self, mid: int, into: "Node") -> None:
        """Move the entries from position ``mid`` on into ``into``,
        replacing what it held."""
        into.keys, into.values = self.keys[mid:], self.values[mid:]
        del self.keys[mid:]
        del self.values[mid:]
        self._entries = into._entries = None

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def pack_into(self, data: bytearray) -> None:
        """Write header and entries; bytes past the entries are kept."""
        # Entries first: an over-full node raises with the page untouched.
        pack_pairs(data, HEADER_SIZE, self.keys, self.values)
        _HEADER.pack_into(
            data,
            0,
            self.level,
            _FLAG_HAS_HIGH if self.high_key is not None else 0,
            len(self.keys),
            0,
            self.high_key if self.high_key is not None else 0,
            self.left_id,
            self.right_id,
        )

    @classmethod
    def unpack_from(cls, page_id: int, data: bytes) -> "Node":
        level, flags, count, _, high, left, right = _HEADER.unpack_from(data, 0)
        # Once per page touch: fill the slots directly instead of going
        # through ``__init__`` and its pairs-to-columns conversion.
        node = cls.__new__(cls)
        node.page_id = page_id
        node.level = level
        node.keys, node.values = unpack_pairs(data, HEADER_SIZE, count)
        node.left_id = left
        node.right_id = right
        node.high_key = high if flags & _FLAG_HAS_HIGH else None
        node._entries = None
        return node

    # ------------------------------------------------------------------
    # header-only access (no entry is decoded)
    # ------------------------------------------------------------------
    @staticmethod
    def entry_count_of(data: bytes) -> int:
        """Entry count of the node stored in ``data``."""
        return _ENTRY_COUNT.unpack_from(data, _ENTRY_COUNT_OFFSET)[0]

    @staticmethod
    def live_end(data: bytes) -> int:
        """Offset of the first byte past the node's last live entry."""
        return HEADER_SIZE + ENTRY_SIZE * Node.entry_count_of(data)

    @staticmethod
    def replace_entries(data: bytearray, entries: Sequence[Entry]) -> int:
        """Rewrite the entries of the node stored in ``data``, keeping its
        level, links and high key; returns how many entries it held."""
        before = Node.entry_count_of(data)
        pack_pairs(data, HEADER_SIZE, *pair_columns(entries))
        _ENTRY_COUNT.pack_into(data, _ENTRY_COUNT_OFFSET, len(entries))
        return before
