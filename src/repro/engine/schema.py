"""Table schemas and per-tenant catalogs.

A tenant database owns a :class:`Catalog` of :class:`TableSchema` objects.
A schema lays out its table's row images: :attr:`TableSchema.positions`
maps each column to its place in the stored tuple, :meth:`~TableSchema.image`
builds an image from a column -> value mapping and :meth:`~TableSchema.row`
turns one back into the dict a client sees.
Schemas also drive the size model: each column type has a nominal on-disk
width, so row counts translate into database sizes (Table 3 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from ..errors import SchemaError
from .mvcc import ABSENT, Image, Row
from .sqlmini import ColumnDef

#: Nominal on-disk width in bytes per column type, tuple space included.
#: Calibrated so the TPC-W population model lands on the paper's Table 3
#: sizes (100k items + 100 EBs -> ~0.8 GB).
TYPE_WIDTHS: Dict[str, int] = {
    "INT": 8,
    "INTEGER": 8,
    "BIGINT": 8,
    "FLOAT": 8,
    "DOUBLE": 8,
    "NUMERIC": 12,
    "DATE": 8,
    "TIMESTAMP": 8,
    "TEXT": 64,
    "VARCHAR": 40,
    "CHAR": 16,
    "BLOB": 2048,
}

#: Per-row fixed overhead (tuple header + item pointer), PostgreSQL-like.
ROW_OVERHEAD_BYTES = 32

#: Per-index-entry overhead (btree entry).
INDEX_ENTRY_BYTES = 24


@dataclass
class TableSchema:
    """Schema of one table: ordered columns, primary key, indexes."""

    name: str
    columns: Tuple[ColumnDef, ...]
    indexes: Dict[str, str] = field(default_factory=dict)  # index -> column

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column in table %r" % self.name)
        primaries = [c.name for c in self.columns if c.primary_key]
        if len(primaries) != 1:
            raise SchemaError("table %r must have exactly one primary key "
                              "column, found %d" % (self.name, len(primaries)))
        self._primary_key = primaries[0]
        self._names = tuple(names)
        #: column -> its place in this table's row images.
        self.positions: Dict[str, int] = {
            name: position for position, name in enumerate(names)}

    @property
    def primary_key(self) -> str:
        """Name of the primary-key column."""
        return self._primary_key

    def require_column(self, name: str) -> None:
        """Raise :class:`SchemaError` unless ``name`` is a column."""
        if name not in self.positions:
            raise SchemaError("table %r has no column %r"
                              % (self.name, name))

    def image(self, values: Mapping[str, Any]) -> Image:
        """The stored image of a row given as column -> value; a column
        ``values`` does not name holds :data:`~repro.engine.mvcc.ABSENT`."""
        for name in values:
            self.require_column(name)
        return tuple([values.get(name, ABSENT) for name in self._names])

    def row(self, image: Image) -> Row:
        """``image`` as the dict a client sees, in column order, without
        the columns its INSERT did not set."""
        return {name: value for name, value in zip(self._names, image)
                if value is not ABSENT}

    def add_index(self, index_name: str, column: str) -> None:
        """CREATE INDEX support."""
        self.require_column(column)
        if index_name in self.indexes:
            raise SchemaError("index %r already exists" % index_name)
        self.indexes[index_name] = column

    def row_width_bytes(self) -> int:
        """Nominal stored width of one row, including tuple overhead."""
        width = ROW_OVERHEAD_BYTES
        for column in self.columns:
            width += TYPE_WIDTHS.get(column.type_name, 16)
        # one btree entry for the PK plus one per secondary index
        width += INDEX_ENTRY_BYTES * (1 + len(self.indexes))
        return width


class Catalog:
    """The set of table schemas of one tenant database."""

    def __init__(self) -> None:
        self._tables: Dict[str, TableSchema] = {}

    def create_table(self, schema: TableSchema) -> None:
        """Register a new table schema."""
        if schema.name in self._tables:
            raise SchemaError("table %r already exists" % schema.name)
        self._tables[schema.name] = schema

    def table(self, name: str) -> TableSchema:
        """Look up a schema; raises :class:`SchemaError` if unknown."""
        schema = self._tables.get(name)
        if schema is None:
            raise SchemaError("unknown table %r" % name)
        return schema

    def has_table(self, name: str) -> bool:
        """Whether ``name`` is a known table."""
        return name in self._tables

    def table_names(self) -> Tuple[str, ...]:
        """All table names, in creation order."""
        return tuple(self._tables)

    def get(self, name: str) -> Optional[TableSchema]:
        """Like :meth:`table` but returns ``None`` when unknown."""
        return self._tables.get(name)
