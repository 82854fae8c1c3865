"""Reference page codecs: the per-entry ``struct`` loops the columnar
``array`` codec replaced, kept as the oracle for byte identity.

``use_reference_codec(monkeypatch)`` swaps them in for
:class:`repro.btree.node.Node` and the hash index's bucket pages, so a
test can run one operation sequence twice — once per codec — and compare
the durable images the two runs leave on their disks.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Sequence, Tuple

from repro.btree.node import Node
from repro.hashindex import hash_index
from repro.storage.disk import SimulatedDisk

Entry = Tuple[int, int]

NODE_HEADER = struct.Struct("<BBHIqqq")
BUCKET_HEADER = struct.Struct("<HHq")


def _pack_pairs(data: bytearray, offset: int, entries: Sequence[Entry]) -> None:
    if entries:
        flat: List[int] = []
        for key, value in entries:
            flat.append(key)
            flat.append(value)
        struct.pack_into(f"<{len(flat)}q", data, offset, *flat)


def _unpack_pairs(data: bytes, offset: int, count: int) -> List[Entry]:
    flat = struct.unpack_from(f"<{2 * count}q", data, offset)
    return [(flat[2 * i], flat[2 * i + 1]) for i in range(count)]


def node_pack_into(node: Node, data: bytearray) -> None:
    entries = node.entries
    NODE_HEADER.pack_into(
        data,
        0,
        node.level,
        1 if node.high_key is not None else 0,
        len(entries),
        0,
        node.high_key if node.high_key is not None else 0,
        node.left_id,
        node.right_id,
    )
    _pack_pairs(data, NODE_HEADER.size, entries)


def node_unpack_from(page_id: int, data: bytes) -> Node:
    level, flags, count, _, high, left, right = NODE_HEADER.unpack_from(data, 0)
    return Node(
        page_id,
        level,
        entries=_unpack_pairs(data, NODE_HEADER.size, count),
        left_id=left,
        right_id=right,
        high_key=high if flags & 1 else None,
    )


def node_replace_entries(data: bytearray, entries: Sequence[Entry]) -> int:
    """The leaf edit as it was: decode the whole node, swap, re-encode."""
    node = node_unpack_from(0, data)
    before = node.entry_count
    node.entries = entries
    node_pack_into(node, data)
    return before


def bucket_pack_into(page: "hash_index._BucketPage", data: bytearray) -> None:
    BUCKET_HEADER.pack_into(data, 0, len(page.keys), 0, page.overflow)
    _pack_pairs(data, BUCKET_HEADER.size, list(zip(page.keys, page.values)))


def bucket_unpack(page_id: int, data: bytes) -> "hash_index._BucketPage":
    count, _, overflow = BUCKET_HEADER.unpack_from(data, 0)
    page = hash_index._BucketPage(page_id, overflow=overflow)
    for key, value in _unpack_pairs(data, BUCKET_HEADER.size, count):
        page.append(key, value)
    return page


def use_reference_codec(monkeypatch) -> None:
    monkeypatch.setattr(Node, "pack_into", node_pack_into)
    monkeypatch.setattr(Node, "unpack_from", staticmethod(node_unpack_from))
    monkeypatch.setattr(
        Node, "replace_entries", staticmethod(node_replace_entries)
    )
    monkeypatch.setattr(hash_index._BucketPage, "pack_into", bucket_pack_into)
    monkeypatch.setattr(
        hash_index._BucketPage, "unpack", staticmethod(bucket_unpack)
    )


def durable_pages(disk: SimulatedDisk) -> Dict[int, bytes]:
    """Every page image on ``disk``, freed-but-retained ones included."""
    return {
        page_id: disk.durable_image(page_id)
        for page_id in disk.page_ids() + disk.freed_page_ids()
    }
