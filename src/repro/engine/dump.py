"""Logical dump and restore — the pg_dump / psql-restore stand-in.

Step 1 of the paper's migration creates a snapshot of the master with a
*dump transaction* while customer transactions keep running; Step 2
recreates the database on the destination from that snapshot.  The paper
notes (Section 5.5) that restoring is much slower than dumping because the
destination "not only inserts data but also alters the attributes of the
databases and creates indexes", which is why larger databases accumulate
more syncsets and migrate superlinearly slower (Figure 9).

There is one snapshot data path, cut three ways (DBLog's certified
cuts: a full dump is the single-chunk cut):

* :func:`dump_stream` emits a tenant as :class:`SnapshotChunk` pieces,
  all captured at one snapshot CSN, and :func:`restore_stream` installs
  them.  The serial strategy is the one-chunk cut — one chunk of the
  whole tenant, so its restore pays :func:`restore_duration` of the
  whole database, the superlinear index-build term of Figure 9.
* The pipelined strategy is the N-chunk cut of the same stream: dump,
  ship and restore overlap (correct under a live write stream because
  the migration pins the snapshot CSN on the source, so the vacuum
  horizon keeps every version visible there until the pin goes), and
  each chunk pays the linear insert cost of its own size — which is
  exactly where pipelining beats the serial cut on large tenants.
* The watermark strategy cuts the *live* state with
  :func:`watermark_select` instead of a frozen CSN.

Every cut pays disk I/O through the same two calls, so customer traffic
and the WAL contend with all of them alike: :func:`paced_read` (one
read slice at the dump rate) and :func:`install_chunk` (the write paced
to a target duration in ``rates.chunk_mb`` slices, then one
:meth:`~repro.engine.instance.DbmsInstance.install` at a fresh CSN).

Every path here moves the source's row images by reference: a committed
image is never written again (DESIGN.md §4b item 10), so a chunk and the
destination's restored versions share the tuples the source's chains
hold, and a tenant copy costs its chains and indexes, not a second set
of rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Dict, Generator, Hashable, List, Optional, Tuple

from ..errors import NodeCrashed, ReproError
from .instance import DbmsInstance
from .mvcc import Image
from .schema import TableSchema
from .sqlmini import ColumnDef


@dataclass
class TransferRates:
    """Throughput model for dump and restore.

    ``restore_mb_s`` is deliberately several times slower than
    ``dump_mb_s``; above ``base_mb`` :func:`restore_duration` adds the
    n·log n index-build term that makes Figure 9 superlinear.
    """

    dump_mb_s: float = 40.0
    restore_mb_s: float = 10.0
    base_mb: float = 800.0
    chunk_mb: float = 32.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not value > 0:
                raise ValueError("TransferRates.%s must be positive, "
                                 "got %r" % (name, value))


@dataclass
class SchemaSpec:
    """Serializable description of one table's schema."""

    name: str
    columns: Tuple[ColumnDef, ...]
    indexes: Dict[str, str] = field(default_factory=dict)

    def to_schema(self) -> TableSchema:
        """Materialise a fresh TableSchema (indexes added separately)."""
        return TableSchema(self.name, self.columns)


def schema_specs(tenant: Any) -> List[SchemaSpec]:
    """One :class:`SchemaSpec` per table of ``tenant``, catalog order."""
    specs = []
    for table_name in tenant.catalog.table_names():
        schema = tenant.table(table_name).schema
        specs.append(SchemaSpec(table_name, schema.columns,
                                dict(schema.indexes)))
    return specs


def create_from_schemas(instance: DbmsInstance, tenant_name: str,
                        schemas: List[SchemaSpec],
                        fixed_overhead_mb: float = 0.0,
                        size_multiplier: float = 1.0) -> Any:
    """Create an empty tenant shell on ``instance`` from schema specs.

    Shared by both restores (the chunk stream and the watermark walk):
    the destination needs the tables and size-accounting knobs in place
    before the first row lands.  Secondary indexes are *not* created
    here — see :func:`finalize_indexes`.  Returns the tenant database.
    """
    tenant = instance.create_tenant(tenant_name)
    tenant.fixed_overhead_mb = fixed_overhead_mb
    tenant.size_multiplier = size_multiplier
    for spec in schemas:
        tenant.create_table(spec.to_schema())
    return tenant


def finalize_indexes(tenant: Any, schemas: List[SchemaSpec]) -> None:
    """Create any secondary indexes the copy does not have yet.

    The one index builder: every restore defers index creation until
    after the bulk load (the build time is already inside the pacing
    model); idempotent so a resumed restore may call it again.
    """
    for spec in schemas:
        table = tenant.table(spec.name)
        for index_name, column in spec.indexes.items():
            if index_name not in table.indexes:
                table.create_index(index_name, column)


#: Extra restore time fraction per decade of size above ``base_mb``.
INDEX_LOG_COEFF = 0.35


def restore_duration(size_mb: float, rates: TransferRates) -> float:
    """Closed-form restore time: linear insert cost + index-build term."""
    base = size_mb / rates.restore_mb_s
    if size_mb <= rates.base_mb:
        return base
    decades = math.log10(size_mb / rates.base_mb)
    return base * (1.0 + INDEX_LOG_COEFF * decades * math.log2(
        size_mb / rates.base_mb))


# ----------------------------------------------------------------------
# disk I/O shared by every snapshot cut
# ----------------------------------------------------------------------

#: A chunk's rows: table name -> primary key -> row image.
ChunkRows = Dict[str, Dict[Hashable, Image]]


def paced_read(instance: DbmsInstance, size_mb: float,
               rates: TransferRates) -> Generator[Any, Any, None]:
    """Read one ``size_mb`` slice off ``instance``'s disk at the dump rate.

    The read is charged to the disk (so it contends with foreground
    commits and the WAL), then paced down to ``rates.dump_mb_s``:
    parsing and output formatting keep a dump below raw disk bandwidth.
    """
    yield from instance.disk.read(size_mb)
    read_bw = instance.disk.spec.read_bandwidth_mb_s
    pace = size_mb / rates.dump_mb_s - size_mb / read_bw
    if pace > 0:
        yield instance.env.timeout(pace)


def install_chunk(instance: DbmsInstance, tenant: Any, rows: ChunkRows,
                  size_mb: float, duration: float, rates: TransferRates
                  ) -> Generator[Any, Any, None]:
    """Write ``size_mb`` to ``instance``'s disk, then install ``rows``.

    The write goes in ``max(1, ceil(size_mb / rates.chunk_mb))`` equal
    slices, each paced so the whole write takes ``duration`` (a 0 s
    target charges the disk write alone); a crash is checked after every
    slice.  The rows then land as fresh versions at one new CSN through
    :meth:`~repro.engine.instance.DbmsInstance.install`, so a row a
    resumed or re-delivered chunk lands on again is pruned to the
    instance's horizon.
    Raises :class:`NodeCrashed` if ``instance`` crashed.
    """
    slices = max(1, int(math.ceil(size_mb / rates.chunk_mb)))
    piece = size_mb / slices
    spec = instance.disk.spec
    for _slice in range(slices):
        if piece > 0:
            yield from instance.disk.write(piece)
            io_time = spec.seek_latency + piece / spec.write_bandwidth_mb_s
            pace = duration / slices - io_time
            if pace > 0:
                yield instance.env.timeout(pace)
        if instance.crashed:
            raise NodeCrashed(instance.name, "crashed during restore")
    instance.install(tenant, ((table_name, key, row)
                              for table_name, table_rows in rows.items()
                              for key, row in table_rows.items()))


# ----------------------------------------------------------------------
# the chunk stream: serial (one chunk) and pipelined (N chunks) cuts
# ----------------------------------------------------------------------

@dataclass
class SnapshotChunk:
    """One piece of a streamed logical snapshot.

    Chunk 0 additionally carries the schema specs so the destination can
    create the tenant before any data lands.  All chunks are captured at
    the same ``snapshot_csn``, so the stream as a whole is one
    consistent snapshot however many chunks it is cut into; the serial
    strategy's snapshot is the single chunk of a one-chunk plan.
    """

    tenant_name: str
    snapshot_csn: int
    index: int
    total: int
    size_mb: float
    total_size_mb: float
    rows: ChunkRows
    schemas: List[SchemaSpec] = field(default_factory=list)
    fixed_overhead_mb: float = 0.0
    size_multiplier: float = 1.0


class SnapshotTruncated(RuntimeError):
    """The chunk stream ended before the final chunk arrived."""


class SnapshotTooOld(ReproError):
    """A dump asked for a snapshot the source has already vacuumed.

    PostgreSQL's "snapshot too old": a prune has used a horizon above
    the snapshot CSN, so versions visible there may be gone.  A dump
    whose snapshot is pinned for as long as it may be read never sees
    this.
    """


def plan_chunks(size_mb: float, chunk_mb: float) -> int:
    """Number of chunks a ``size_mb`` tenant streams in (always >= 1)."""
    if size_mb <= 0:
        return 1
    return max(1, int(math.ceil(size_mb / chunk_mb)))


def dump_stream(instance: DbmsInstance, tenant_name: str,
                snapshot_csn: int, rates: TransferRates, sink: Any,
                chunk_mb: float | None = None,
                start_index: int = 0,
                total_chunks: int | None = None,
                total_size_mb: float | None = None
                ) -> Generator[Any, Any, int]:
    """Dump ``tenant_name`` as a stream of :class:`SnapshotChunk`.

    Each chunk is read from the master's disk in :func:`paced_read`
    slices of at most ``rates.chunk_mb`` (a one-chunk plan of a large
    tenant reads many), and handed to ``sink.put`` (a
    :class:`~repro.sim.Channel`-like object) *before* the next chunk is
    read — so a full sink exerts back-pressure on the dump itself.  A
    source crash is checked before every chunk and after every read
    slice.  The sink is closed on success; on failure the caller owns
    tearing the sink down.  Returns the number of chunks emitted.

    Resume support: a journalled re-entry passes ``start_index`` (the
    lowest chunk index any destination still needs) together with the
    chunk plan frozen at the *original* dump start (``total_chunks``,
    ``total_size_mb``) — the tenant keeps growing under load, so the
    plan must not be re-derived.  The migration's pin keeps the versions
    visible at ``snapshot_csn`` through even a crash-and-restart of the
    source, so the resumed slices are byte-identical to the originals;
    a snapshot below the source's
    :attr:`~repro.engine.instance.DbmsInstance.vacuumed_through` raises
    :class:`SnapshotTooOld` instead of capturing pruned rows.
    """
    if snapshot_csn < instance.vacuumed_through:
        raise SnapshotTooOld(
            "%s: snapshot %d of %r is below the vacuum horizon %d"
            % (instance.name, snapshot_csn, tenant_name,
               instance.vacuumed_through))
    tenant = instance.tenant(tenant_name)
    size_mb = (total_size_mb if total_size_mb is not None
               else tenant.size_mb())
    chunk_cap = chunk_mb if chunk_mb is not None else rates.chunk_mb
    total = (total_chunks if total_chunks is not None
             else plan_chunks(size_mb, chunk_cap))
    if not 0 <= start_index <= total:
        raise ValueError("start_index %d outside the %d-chunk plan"
                         % (start_index, total))
    # Capture the row set at the snapshot CSN up front: the pin keeps
    # the same versions visible for the whole dump, so slicing the
    # capture across chunk emissions changes nothing.
    schemas = schema_specs(tenant)
    captured = {table_name: dict(tenant.table(table_name)
                                 .visible_rows(snapshot_csn))
                for table_name in tenant.catalog.table_names()}
    row_count = sum(len(rows) for rows in captured.values())
    # One pass over the capture deals each chunk its share of the rows;
    # a resume first skips the shares of the chunks it does not re-send.
    flat = ((table_name, key, row)
            for table_name, rows in captured.items()
            for key, row in rows.items())
    dealt = start_index * row_count // total
    next(islice(flat, dealt, dealt), None)
    for index in range(start_index, total):
        if instance.crashed:
            raise NodeCrashed(instance.name, "crashed during dump")
        chunk_size = size_mb / total
        remaining = chunk_size
        while remaining > 0:
            piece = min(rates.chunk_mb, remaining)
            yield from paced_read(instance, piece, rates)
            remaining -= piece
            if instance.crashed:
                raise NodeCrashed(instance.name, "crashed during dump")
        share = (index + 1) * row_count // total - dealt
        dealt += share
        if total == 1:
            # The one chunk of a one-chunk plan is the capture itself.
            rows = captured
        else:
            rows = {}
            for table_name, key, row in islice(flat, share):
                rows.setdefault(table_name, {})[key] = row
        chunk = SnapshotChunk(
            tenant_name, snapshot_csn, index, total, chunk_size, size_mb,
            rows, schemas if index == 0 else [],
            tenant.fixed_overhead_mb, tenant.size_multiplier)
        yield from sink.put(chunk)
    sink.close()
    return total - start_index


def restore_stream(instance: DbmsInstance, source: Any,
                   rates: TransferRates,
                   tenant_name: str | None = None,
                   resume_from: int = 0,
                   schemas: List[SchemaSpec] | None = None,
                   expected_total: int | None = None,
                   on_chunk: Any = None
                   ) -> Generator[Any, Any, str]:
    """Recreate a tenant on ``instance`` from a chunk stream.

    ``source.get`` must yield :class:`SnapshotChunk` objects in order
    and then the :data:`~repro.sim.CLOSED` sentinel.  Each chunk is
    bulk-loaded by :func:`install_chunk`, paced to
    ``restore_duration(chunk.size_mb)`` — the incremental
    index-maintenance model: a one-chunk (serial) stream pays the
    whole-database n·log n index-build that makes Figure 9 superlinear,
    while small pipelined chunks never cross ``base_mb`` and dodge it.
    Secondary indexes are finalised after the last chunk.  Returns the
    tenant name; raises :class:`SnapshotTruncated` if the stream closes
    early.

    Resume support: a journalled re-entry passes ``resume_from`` (the
    count of chunks already installed durably — they are never
    re-shipped) and the ``schemas`` captured at dump start, since chunk
    0 (which normally carries them) is exactly what a resume skips.
    With ``resume_from > 0`` the existing partial tenant is reused; a
    re-delivered chunk (a rewind inside a resumed stream) re-installs
    identical rows at a fresh CSN, which is value-idempotent.
    ``on_chunk(chunk)`` is called after each durable install, so the
    caller can journal the per-node high-water mark.
    """
    from ..sim.sync import CLOSED
    name = tenant_name
    tenant = None
    spec_schemas: List[SchemaSpec] = list(schemas) if schemas else []
    if resume_from:
        if tenant_name is None or not instance.has_tenant(tenant_name):
            raise SnapshotTruncated(
                "resume at chunk %d of %r but no partial copy exists"
                % (resume_from, tenant_name))
        tenant = instance.tenant(tenant_name)
    received = resume_from
    expected = expected_total if expected_total is not None else 0
    while True:
        chunk = yield from source.get()
        if chunk is CLOSED:
            break
        if instance.crashed:
            raise NodeCrashed(instance.name, "crashed during restore")
        if tenant is None:
            name = tenant_name or chunk.tenant_name
            if instance.has_tenant(name):
                # Re-entry from chunk 0 of a kept partial copy (a ship
                # retry inside a resumed stream): reuse, re-install.
                tenant = instance.tenant(name)
            else:
                tenant = create_from_schemas(
                    instance, name, chunk.schemas or spec_schemas,
                    chunk.fixed_overhead_mb, chunk.size_multiplier)
        if chunk.schemas:
            spec_schemas = list(chunk.schemas)
        expected = chunk.total
        yield from install_chunk(
            instance, tenant, chunk.rows, chunk.size_mb,
            restore_duration(chunk.size_mb, rates), rates)
        received = max(received, chunk.index + 1)
        if on_chunk is not None:
            on_chunk(chunk)
    if tenant is None or received != expected:
        raise SnapshotTruncated(
            "stream for %r ended after %d of %d chunks"
            % (name, received, expected))
    if instance.crashed:
        # The crash landed while we waited for end-of-stream.
        raise NodeCrashed(instance.name, "crashed during restore")
    finalize_indexes(tenant, spec_schemas)
    assert name is not None
    return name


# ----------------------------------------------------------------------
# the watermark (virtual) cut: chunk selects over the live state
# ----------------------------------------------------------------------

#: A position in the watermark key walk: ``(table_name, key)`` of the
#: last row the previous chunk covered, or ``None`` at the start.
WatermarkCursor = Optional[Tuple[str, Hashable]]


def watermark_select(instance: DbmsInstance, tenant_name: str,
                     cursor: WatermarkCursor, max_rows: int,
                     mb_per_row: float, rates: TransferRates
                     ) -> Generator[Any, Any,
                                    Tuple[List[Tuple[str, Hashable, Image]],
                                          WatermarkCursor]]:
    """One chunked watermark select over the *live* table state.

    Unlike :func:`dump_stream` there is no frozen snapshot CSN: the
    select reads the latest committed rows strictly after ``cursor`` in
    ``(table, key)`` order, up to ``max_rows`` of them, capturing the
    row images synchronously (one MVCC read per chain head) and then
    paying one :func:`paced_read` of their size — so chunk selects
    contend with foreground commits and the WAL exactly like a dump
    slice does.  Returns ``(rows, next_cursor)`` where ``rows`` is a
    list of ``(table, key, row)`` (the source's shared image) and
    ``next_cursor`` is ``None`` once the key walk is exhausted.
    Correctness under concurrent writes comes from the low/high
    watermark bracket the caller places around this select, not from
    MVCC snapshots.
    """
    tenant = instance.tenant(tenant_name)
    rows: List[Tuple[str, Hashable, Image]] = []
    next_cursor: WatermarkCursor = None
    for table_name in sorted(tenant.catalog.table_names()):
        if cursor is not None and table_name < cursor[0]:
            continue
        table = tenant.table(table_name)
        latest = dict(table.latest_rows())
        for key in sorted(latest):
            if (cursor is not None and table_name == cursor[0]
                    and not key > cursor[1]):
                continue
            rows.append((table_name, key, latest[key]))
            if len(rows) >= max_rows:
                next_cursor = (table_name, key)
                break
        if next_cursor is not None:
            break
    if instance.crashed:
        raise NodeCrashed(instance.name, "crashed during chunk select")
    chunk_mb = mb_per_row * len(rows)
    if chunk_mb > 0:
        yield from paced_read(instance, chunk_mb, rates)
    return rows, next_cursor
