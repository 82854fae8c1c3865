"""Table schemas: attribute names, types, and lookup helpers."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.errors import CatalogError, SchemaError


class DataType(enum.Enum):
    """Supported column types: 64-bit integers and fixed-width strings."""

    INT = "int"
    CHAR = "char"


@dataclass(frozen=True)
class Attribute:
    """One column of a table."""

    name: str
    data_type: DataType
    length: int = 0  # byte width for CHAR columns; unused for INT

    def __deepcopy__(self, memo: dict) -> "Attribute":
        return self  # frozen: a fork shares it

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")
        if self.data_type is DataType.CHAR and self.length <= 0:
            raise SchemaError(f"CHAR attribute {self.name} needs a length")
        if self.data_type is DataType.INT and self.length:
            raise SchemaError(f"INT attribute {self.name} takes no length")

    @classmethod
    def int_(cls, name: str) -> "Attribute":
        return cls(name, DataType.INT)

    @classmethod
    def char(cls, name: str, length: int) -> "Attribute":
        return cls(name, DataType.CHAR, length)


@dataclass(frozen=True)
class TableSchema:
    """An ordered list of attributes with unique names."""

    name: str
    attributes: Tuple[Attribute, ...]

    def __deepcopy__(self, memo: dict) -> "TableSchema":
        return self  # frozen: a fork shares it

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("table name must be non-empty")
        if not self.attributes:
            raise SchemaError(f"table {self.name} needs at least one column")
        seen = set()
        for attr in self.attributes:
            if attr.name in seen:
                raise SchemaError(
                    f"duplicate column {attr.name} in table {self.name}"
                )
            seen.add(attr.name)

    @classmethod
    def of(cls, name: str, attributes: Sequence[Attribute]) -> "TableSchema":
        return cls(name, tuple(attributes))

    def column_index(self, column: str) -> int:
        for i, attr in enumerate(self.attributes):
            if attr.name == column:
                return i
        raise CatalogError(f"table {self.name} has no column {column}")

    def attribute(self, column: str) -> Attribute:
        return self.attributes[self.column_index(column)]

    def has_column(self, column: str) -> bool:
        return any(attr.name == column for attr in self.attributes)

    @property
    def column_names(self) -> List[str]:
        return [attr.name for attr in self.attributes]
