"""Free-space tracking for heap files.

A minimal free-space map in the spirit of McAuliffe et al. [14] as cited
by the paper: per-page free-byte estimates kept in memory, consulted on
insert so the heap does not grow while earlier pages have room (e.g.
after a bulk delete has carved holes into the file).

First fit is answered without sorting the map: for every record size
asked about, a min-heap holds the ids of the pages that gained room for
it.  An entry whose page has since shrunk or left the map is dropped
only when it reaches the top (lazy pruning), so ``record`` stays
O(sizes asked about) and a lookup is amortised O(log n).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, Iterator, List, Optional


class FreeSpaceMap:
    """Tracks approximate free bytes for the pages of one heap file."""

    def __init__(self) -> None:
        self._free: Dict[int, int] = {}
        #: needed bytes -> min-heap of candidate page ids.  Every page
        #: with room for that size is in its heap (a page is pushed when
        #: it gains room); stale entries wait there until they surface.
        self._heaps: Dict[int, List[int]] = {}

    def record(self, page_id: int, free_bytes: int) -> None:
        before = self._free.get(page_id)
        free = self._free[page_id] = max(0, free_bytes)
        for needed, heap in self._heaps.items():
            if free >= needed and (before is None or before < needed):
                heappush(heap, page_id)

    def forget(self, page_id: int) -> None:
        self._free.pop(page_id, None)

    def free_bytes(self, page_id: int) -> int:
        return self._free.get(page_id, 0)

    def find_page_with(self, needed_bytes: int) -> Optional[int]:
        """Return the lowest page id with at least ``needed_bytes``, or
        ``None``.

        First fit in page order keeps inserts clustered towards the
        front of the file.
        """
        free = self._free
        heap = self._heaps.get(needed_bytes)
        if heap is None or len(heap) > 2 * len(free):
            # The first question about this size (a fixed-layout table
            # asks about one), or stale entries outnumber the pages.
            heap = [p for p, f in free.items() if f >= needed_bytes]
            heapify(heap)
            self._heaps[needed_bytes] = heap
        while heap:
            page_id = heap[0]
            if page_id in free and free[page_id] >= needed_bytes:
                return page_id
            heappop(heap)
        return None

    def pages(self) -> Iterator[int]:
        return iter(sorted(self._free))

    def __len__(self) -> int:
        return len(self._free)
