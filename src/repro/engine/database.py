"""Tenant databases: tables of row slots plus secondary indexes.

One :class:`TenantDatabase` is one customer's database inside a shared
DBMS process (the shared process model of Curino et al. that the paper
assumes).  It owns a catalog, the MVCC heap, secondary indexes, a lock
table, and size accounting used by the migration experiments.

The heap maps each primary key to a *slot*: a
:class:`~repro.engine.mvcc.VersionChain`, or the bare image of a frozen
row, one version every snapshot sees (:mod:`repro.engine.mvcc`).  Row
images (:data:`~repro.engine.mvcc.Image`) are tuples in schema column
order, and index upkeep reads the indexed column by its schema
position; an :data:`~repro.engine.mvcc.ABSENT` value is indexed under
``None``.  Keys are never removed from the slot dict (a deleted row is
a tombstone chain), so a full scan keeps insertion order.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterator,
    Optional,
    Tuple,
    Union,
)

from ..errors import SchemaError
from .mvcc import ABSENT, FROZEN_CSN, Image, SecondaryIndex, VersionChain
from .schema import Catalog, TableSchema

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment
    from .locks import LockTable


class Table:
    """Heap + indexes of one table inside a tenant database."""

    def __init__(self, schema: TableSchema):
        self.schema = schema
        #: key -> its :class:`VersionChain`, or a frozen row's image.
        self.slots: Dict[Hashable, Union[VersionChain, Image]] = {}
        self.indexes: Dict[str, SecondaryIndex] = {
            name: SecondaryIndex(column)
            for name, column in schema.indexes.items()
        }

    # ------------------------------------------------------------------
    def chain(self, key: Hashable) -> Optional[VersionChain]:
        """The version chain of ``key``, or None if never written.

        A frozen row is thawed in place into its one version at
        :data:`~repro.engine.mvcc.FROZEN_CSN`, which every snapshot
        reads alike; its next install freezes it again.  The executor
        reads slots directly and never thaws on a read.
        """
        slot = self.slots.get(key)
        if slot.__class__ is VersionChain or slot is None:
            return slot
        chain = self.slots[key] = VersionChain(FROZEN_CSN, slot)
        return chain

    def latest(self, key: Hashable) -> Optional[Image]:
        """The newest committed image of ``key`` (None if absent or
        deleted)."""
        slot = self.slots.get(key)
        if slot.__class__ is VersionChain:
            return slot.latest()
        return slot

    def install(self, key: Hashable, csn: int, row: Optional[Image],
                horizon: int = 0) -> bool:
        """Install a committed version and maintain secondary indexes.

        The row is then pruned to what snapshots at or above ``horizon``
        (the instance's
        :meth:`~repro.engine.instance.DbmsInstance.prune_horizon`; 0,
        the default, prunes nothing) can see and frozen when that leaves
        one version, not a tombstone, at or below it; an install onto a
        frozen row thaws it first.  Returns whether ``csn`` is above the
        horizon, i.e. whether a later horizon may still prune or freeze
        the row (:meth:`settle`).
        """
        slots = self.slots
        slot = slots.get(key)
        if slot.__class__ is VersionChain:
            old = slot.latest()
            slot.install(csn, row)
            frozen = slot.vacuum(horizon)
            if frozen is not None:
                slots[key] = frozen
        else:
            old = slot
            if csn <= horizon and row is not None:
                slots[key] = row
            else:
                chain = slots[key] = (VersionChain() if slot is None
                                      else VersionChain(FROZEN_CSN, slot))
                chain.install(csn, row)
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
        return csn > horizon

    def settle(self, key: Hashable, horizon: int) -> None:
        """Prune ``key`` to a newer ``horizon`` and freeze it if that
        leaves one version, not a tombstone, at or below it."""
        slot = self.slots.get(key)
        if slot.__class__ is VersionChain:
            frozen = slot.vacuum(horizon)
            if frozen is not None:
                self.slots[key] = frozen

    def create_index(self, index_name: str, column: str) -> None:
        """Build a new secondary index over the latest committed versions."""
        self.schema.add_index(index_name, column)
        index = SecondaryIndex(column)
        position = self.schema.positions[column]
        for key, row in self.latest_rows():
            value = row[position]
            index.add(None if value is ABSENT else value, key)
        self.indexes[index_name] = index

    # ------------------------------------------------------------------
    def latest_rows(self) -> Iterator[Tuple[Hashable, Image]]:
        """Iterate over (key, latest committed row), skipping tombstones."""
        for key, slot in self.slots.items():
            if slot.__class__ is VersionChain:
                slot = slot.latest()
                if slot is None:
                    continue
            yield key, slot

    def visible_rows(self, snapshot_csn: int
                     ) -> Iterator[Tuple[Hashable, Image]]:
        """Iterate over rows visible at ``snapshot_csn``."""
        for key, slot in self.slots.items():
            if slot.__class__ is VersionChain:
                slot = slot.read(snapshot_csn)
                if slot is None:
                    continue
            yield key, slot

    def live_row_count(self) -> int:
        """Number of non-deleted rows in the latest committed state."""
        return sum(1 for _ in self.latest_rows())

    def census(self) -> Tuple[int, int, int]:
        """``(committed versions, longest chain, frozen rows)``: a
        frozen row counts one version."""
        versions = longest = frozen = 0
        for slot in self.slots.values():
            if slot.__class__ is VersionChain:
                count = slot.version_count()
            else:
                count, frozen = 1, frozen + 1
            versions += count
            longest = max(longest, count)
        return versions, longest, frozen


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
