"""Composite keys for compound indexes.

The paper (§2.2): "Compound indices on several attributes can be
treated just like indices on a single attribute."  This codec makes
that literal: the values of the indexed columns are packed into one
64-bit integer whose numeric order equals the lexicographic order of
the column tuple, so every B-tree and every ``bd`` operator works on
compound indexes completely unchanged.

Each column is assigned a bit width; widths must sum to <= 63 (the key
stays a non-negative signed 64-bit value).  Values must fit their
width and be non-negative — range violations raise ``SchemaError`` at
insert time rather than silently corrupting key order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import SchemaError

MAX_TOTAL_BITS = 63


@dataclass(frozen=True)
class CompositeKeyCodec:
    """Packs/unpacks column tuples into order-preserving int64 keys."""

    widths: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.widths:
            raise SchemaError("composite key needs at least one column")
        if any(w < 1 for w in self.widths):
            raise SchemaError("composite column widths must be >= 1 bit")
        if sum(self.widths) > MAX_TOTAL_BITS:
            raise SchemaError(
                f"composite key widths sum to {sum(self.widths)} bits; "
                f"at most {MAX_TOTAL_BITS} fit into one key"
            )

    @classmethod
    def of(cls, *widths: int) -> "CompositeKeyCodec":
        return cls(tuple(widths))

    def pack(self, values: Sequence[int]) -> int:
        """Combine column values into one order-preserving key."""
        if len(values) != len(self.widths):
            raise SchemaError(
                f"composite key expects {len(self.widths)} values, "
                f"got {len(values)}"
            )
        key = 0
        for value, width in zip(values, self.widths):
            if not isinstance(value, int) or isinstance(value, bool):
                raise SchemaError(
                    f"composite key component must be an int, got {value!r}"
                )
            if not 0 <= value < (1 << width):
                raise SchemaError(
                    f"value {value} does not fit {width} bits"
                )
            key = (key << width) | value
        return key

    def unpack(self, key: int) -> Tuple[int, ...]:
        """Recover the column values from a packed key."""
        if key < 0:
            raise SchemaError("composite keys are non-negative")
        out: List[int] = []
        for width in reversed(self.widths):
            out.append(key & ((1 << width) - 1))
            key >>= width
        if key:
            raise SchemaError("key has more bits than the codec's widths")
        return tuple(reversed(out))

    def prefix_range(self, prefix: Sequence[int]) -> Tuple[int, int]:
        """Key range ``[lo, hi]`` covering every key with ``prefix``.

        Enables prefix scans on compound indexes (e.g. all entries for
        one ``(ship_year,)`` of a ``(ship_year, store)`` index).
        """
        if not 0 < len(prefix) <= len(self.widths):
            raise SchemaError("prefix length out of range")
        rest = self.widths[len(prefix):]
        rest_bits = sum(rest)
        head = 0
        for value, width in zip(prefix, self.widths):
            if not 0 <= value < (1 << width):
                raise SchemaError(f"value {value} does not fit {width} bits")
            head = (head << width) | value
        lo = head << rest_bits
        hi = lo | ((1 << rest_bits) - 1) if rest_bits else lo
        return lo, hi
