"""Fixed-layout record serialization driven by a table schema.

The paper's table R has ten random-integer attributes and one padding
string bringing each record to 512 bytes (Section 4.1).  Fixed-size
layouts keep the serde trivial and make record sizes — and therefore
page fan-outs — predictable, which the experiments depend on.
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Tuple

from repro.catalog.schema import DataType, TableSchema
from repro.errors import SchemaError


class RecordSerializer:
    """Packs/unpacks value tuples for one :class:`TableSchema`.

    The schema is decided once, here: ``pack`` and ``unpack`` walk
    precomputed column positions instead of re-reading attribute types
    for every record.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        parts: List[str] = ["<"]
        for attr in schema.attributes:
            if attr.data_type is DataType.INT:
                parts.append("q")
            elif attr.data_type is DataType.CHAR:
                parts.append(f"{attr.length}s")
            else:  # pragma: no cover - enum is closed
                raise SchemaError(f"unsupported type {attr.data_type}")
        self._struct = struct.Struct("".join(parts))
        #: ``(position, name, CHAR length or 0 for INT)`` per column.
        self._columns = tuple(
            (position, attr.name, attr.length)
            for position, attr in enumerate(schema.attributes)
        )
        self._char_positions = tuple(
            position for position, _, length in self._columns if length
        )
        fields: List[Tuple[int, int]] = []
        offset = 0
        for _, _, length in self._columns:
            fields.append((offset, length))
            offset += length or 8
        self._fields = tuple(fields)

    def __deepcopy__(self, memo: dict) -> "RecordSerializer":
        # Immutable after ``__init__`` (and ``struct.Struct`` cannot be
        # copied): a forked database shares it.
        return self

    @property
    def record_size(self) -> int:
        return self._struct.size

    def field(self, position: int) -> Tuple[int, int]:
        """``(byte offset, CHAR length or 0 for INT)`` of one column in
        a packed record (the layout has no alignment padding)."""
        return self._fields[position]

    def pack(self, values: Sequence[object]) -> bytes:
        if len(values) != len(self._columns):
            raise SchemaError(
                f"expected {len(self._columns)} values, "
                f"got {len(values)}"
            )
        prepared = list(values)
        for position, name, length in self._columns:
            value = prepared[position]
            if not length:
                if type(value) is not int and (
                    not isinstance(value, int) or isinstance(value, bool)
                ):
                    raise SchemaError(
                        f"attribute {name} expects an int, got {value!r}"
                    )
                continue
            if isinstance(value, str):
                raw = value.encode("utf-8")
            elif isinstance(value, (bytes, bytearray)):
                raw = bytes(value)
            else:
                raise SchemaError(
                    f"attribute {name} expects a string, got {value!r}"
                )
            if len(raw) > length:
                raise SchemaError(
                    f"attribute {name} is CHAR({length}); "
                    f"value of {len(raw)} bytes is too long"
                )
            prepared[position] = raw  # ``struct`` pads with NULs
        return self._struct.pack(*prepared)

    def unpack(self, payload: bytes) -> Tuple[object, ...]:
        if len(payload) != self._struct.size:
            raise SchemaError(
                f"payload of {len(payload)} bytes does not match record "
                f"size {self._struct.size}"
            )
        raw = self._struct.unpack(payload)
        if not self._char_positions:
            return raw
        values = list(raw)
        for position in self._char_positions:
            values[position] = values[position].rstrip(b"\x00").decode("utf-8")
        return tuple(values)
