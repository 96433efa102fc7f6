"""Tenant databases: tables of version chains plus secondary indexes.

One :class:`TenantDatabase` is one customer's database inside a shared
DBMS process (the shared process model of Curino et al. that the paper
assumes).  It owns a catalog, the MVCC heap, secondary indexes, a lock
table, and size accounting used by the migration experiments.

The heap stores row images (:data:`~repro.engine.mvcc.Image`, tuples in
schema column order), and index upkeep reads the indexed column by its
schema position; an :data:`~repro.engine.mvcc.ABSENT` value is indexed
under ``None``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, Iterator, Optional, Tuple

from ..errors import SchemaError
from .mvcc import ABSENT, Image, SecondaryIndex, VersionChain
from .schema import Catalog, TableSchema

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment
    from .locks import LockTable


class Table:
    """Heap + indexes of one table inside a tenant database."""

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self.chains: Dict[Hashable, VersionChain] = {}
        self.indexes: Dict[str, SecondaryIndex] = {
            name: SecondaryIndex(column)
            for name, column in schema.indexes.items()
        }

    # ------------------------------------------------------------------
    def chain(self, key: Hashable) -> Optional[VersionChain]:
        """The version chain of ``key``, or None if never written."""
        return self.chains.get(key)

    def install(self, key: Hashable, csn: int, row: Optional[Image],
                horizon: Optional[int] = None) -> None:
        """Install a committed version and maintain secondary indexes.

        With a ``horizon`` (the instance's
        :meth:`~repro.engine.instance.DbmsInstance.prune_horizon`) the
        chain is then pruned to what snapshots at or above it can see.
        """
        chain = self.chains.get(key)
        if chain is None:
            chain = self.chains[key] = VersionChain()
            old = None
        else:
            old = chain.latest()
        chain.install(csn, row)
        if horizon is not None:
            chain.prune(horizon)
        positions = self.schema.positions
        for index in self.indexes.values():
            position = positions[index.column]
            if old is not None:
                value = old[position]
                index.remove(None if value is ABSENT else value, key)
            if row is not None:
                value = row[position]
                index.add(None if value is ABSENT else value, key)

    def create_index(self, index_name: str, column: str) -> None:
        """Build a new secondary index over the latest committed versions."""
        self.schema.add_index(index_name, column)
        index = SecondaryIndex(column)
        position = self.schema.positions[column]
        for key, chain in self.chains.items():
            row = chain.latest()
            if row is not None:
                value = row[position]
                index.add(None if value is ABSENT else value, key)
        self.indexes[index_name] = index

    # ------------------------------------------------------------------
    def latest_rows(self) -> Iterator[Tuple[Hashable, Image]]:
        """Iterate over (key, latest committed row), skipping tombstones."""
        for key, chain in self.chains.items():
            row = chain.latest()
            if row is not None:
                yield key, row

    def visible_rows(self, snapshot_csn: int
                     ) -> Iterator[Tuple[Hashable, Image]]:
        """Iterate over rows visible at ``snapshot_csn``."""
        for key, chain in self.chains.items():
            row = chain.read(snapshot_csn)
            if row is not None:
                yield key, row

    def live_row_count(self) -> int:
        """Number of non-deleted rows in the latest committed state."""
        return sum(1 for _ in self.latest_rows())


class TenantDatabase:
    """One tenant: catalog + tables + lock table + size accounting."""

    def __init__(self, name: str, env: "Environment"):
        from .locks import LockTable

        self.name = name
        self.env = env
        self.catalog = Catalog()
        self.tables: Dict[str, Table] = {}
        self.locks: LockTable = LockTable(env)
        #: Fixed per-database footprint (catalogs, WAL segments, FSM).
        #: Table 3's sizes imply ~200 MB of it on the paper's setup.
        self.fixed_overhead_mb: float = 0.0
        #: Nominal-size multiplier: workloads populated at a row-count
        #: scale of 1/N set this to N so dump/restore timing still sees
        #: the full-scale database size the paper used.
        self.size_multiplier: float = 1.0
        # counters used by experiments
        self.committed_updates = 0
        self.aborted = 0

    # ------------------------------------------------------------------
    def create_table(self, schema: TableSchema) -> None:
        """Register the schema and allocate its heap."""
        self.catalog.create_table(schema)
        self.tables[schema.name] = Table(schema)

    def table(self, name: str) -> Table:
        """Look up a table; raises :class:`SchemaError` if unknown."""
        table = self.tables.get(name)
        if table is None:
            raise SchemaError("tenant %r has no table %r"
                              % (self.name, name))
        return table

    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Nominal on-disk size from row counts and schema widths."""
        total = 0
        for table in self.tables.values():
            total += table.live_row_count() * table.schema.row_width_bytes()
        return int(total * self.size_multiplier
                   + self.fixed_overhead_mb * 1e6)

    def size_mb(self) -> float:
        """Size in megabytes (10^6 bytes, as in the paper's 800 MB)."""
        return self.size_bytes() / 1e6

    def row_count(self) -> int:
        """Total live rows across all tables."""
        return sum(t.live_row_count() for t in self.tables.values())
