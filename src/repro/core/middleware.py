"""The Madeus middleware: workers, router, and the migration manager.

This is the pure-middleware proxy of Figure 2.  Customers connect through
:meth:`Middleware.connect` and send statements through
:meth:`Middleware.submit`; a *worker* (Algorithm 1/2) executes inline on
the customer's connection, classifying each statement, forwarding it to
the tenant's master node, maintaining the master logical clock (MLC), and
building syncset buffers.  :meth:`Middleware.migrate` hands over to the
*manager* (Algorithm 3, :mod:`repro.core.migration`), which walks the
four migration steps with a conductor and players (Algorithms 4/5)
chosen by the propagation policy — Madeus or any of the Table-2
baselines.

This module owns the request path and the per-tenant state it reads
and writes; the migration machine lives in :mod:`repro.core.migration`,
its durable records in :mod:`repro.core.journal`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Set,
)

from ..cluster.cluster import Cluster
from ..engine.dump import TransferRates
from ..engine.session import Session, SessionResult
from ..engine.sqlmini import parse
from ..errors import NetworkDown, RoutingError
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from ..sim.events import Event
from ..sim.sync import Gate
from . import migration
from .journal import (
    JOURNAL_ABANDONED,
    JOURNAL_ACTIVE,
    JOURNAL_COMPLETED,
    JOURNAL_SUSPENDED,
    HandoverRecord,
    Journal,
    MigrationJournal,
    MigrationReport,
)
from .operations import Operation, OpKind, TxnTracker
from .policy import MADEUS, PropagationPolicy
from .region import COMMIT_CLASS, FIRST_READ_CLASS, CriticalRegion
from .ssb import ReplicationLog, SyncsetBuffer
from .watermark import SnapshotStrategy

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment

#: An enum member read through its class costs a metaclass lookup, and
#: :meth:`Middleware.submit` compares the kind several times a statement.
_BEGIN, _FIRST_READ, _READ, _WRITE, _COMMIT, _ABORT = OpKind

#: The journal records and the report are defined next to the machine
#: that writes them and re-exported here, their long-standing home.
__all__ = [
    "JOURNAL_ABANDONED",
    "JOURNAL_ACTIVE",
    "JOURNAL_COMPLETED",
    "JOURNAL_SUSPENDED",
    "Connection",
    "HandoverRecord",
    "MIGRATION_DEFAULTS",
    "Middleware",
    "MiddlewareConfig",
    "MigrationJournal",
    "MigrationOptions",
    "MigrationReport",
    "TenantState",
]


@dataclass(frozen=True)
class MigrationOptions:
    """Per-migration knobs for :meth:`Middleware.migrate`.

    The one options class whose fields default to ``None``, meaning
    "not set here": a migration runs on the call's options laid
    :meth:`over` :attr:`MiddlewareConfig.migration` laid over
    :data:`MIGRATION_DEFAULTS` (:meth:`Middleware.resolve_options`), so
    a caller names only what it changes and every default is written
    once, in that constant.
    """

    #: Dump/restore throughput model.
    rates: Optional[TransferRates] = None
    #: Extra nodes fed the snapshot + syncset stream (Section 4.2).
    standbys: Optional[Sequence[str]] = None
    #: How the initial copy is produced — a
    #: :class:`~repro.core.watermark.SnapshotStrategy` (or its string
    #: value): ``SERIAL``, ``PIPELINED``, or ``WATERMARK``.
    strategy: Optional[SnapshotStrategy] = None
    #: Chunk size for the streamed dump (unset -> ``rates.chunk_mb``).
    chunk_mb: Optional[float] = None
    #: Journal per-migration progress (frozen chunk plan, snapshot CSN,
    #: per-node installed chunks, catch-up low-water mark) so a source
    #: crash *suspends* the migration instead of aborting it, and
    #: :meth:`Middleware.resume_migration` can re-enter from the journal
    #: after the source recovers — without re-dumping what already
    #: landed.
    resume: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.chunk_mb is not None and not self.chunk_mb > 0:
            raise ValueError("MigrationOptions.chunk_mb must be positive, "
                             "got %r" % (self.chunk_mb,))
        object.__setattr__(self, "strategy",
                           SnapshotStrategy.coerce(self.strategy))
        if self.standbys is not None:
            object.__setattr__(self, "standbys", tuple(self.standbys))

    def over(self, base: "MigrationOptions") -> "MigrationOptions":
        """``base`` with every field that is set here laid over it."""
        return replace(base, **{
            name: value for name, value in vars(self).items()
            if value is not None})


#: What a migration does where neither the call nor the config says
#: otherwise.  ``chunk_mb`` stays unset: it follows the resolved
#: ``rates``.
MIGRATION_DEFAULTS = MigrationOptions(
    rates=TransferRates(), standbys=(),
    strategy=SnapshotStrategy.PIPELINED, resume=False)


@dataclass
class MiddlewareConfig:
    """Tunables of the middleware itself."""

    #: Propagation protocol (Madeus by default; see ``repro.core.policy``).
    policy: PropagationPolicy = MADEUS
    #: Abort the migration if the slave has not caught up by this many
    #: simulated seconds after propagation starts (None = never).
    catchup_deadline: Optional[float] = None
    #: Drop the tenant from the source node after switch-over.
    drop_source_copy: bool = False
    #: What every migration of this middleware starts from; the options
    #: of one :meth:`Middleware.migrate` call override it field by field.
    migration: MigrationOptions = MigrationOptions()


@dataclass
class TenantState:
    """Per-tenant middleware state (MLC, critical region, log, gate)."""

    name: str
    mlc: int = 0
    region: CriticalRegion = None  # type: ignore[assignment]
    #: Allocated, not-yet-committed SSBs (one set however many slaves
    #: replay the tenant).
    open_ssbs: Set[SyncsetBuffer] = field(default_factory=set)
    gate: Gate = None  # type: ignore[assignment]
    active_txns: int = 0
    drain_waiters: List[Event] = field(default_factory=list)
    propagator: Any = None
    #: The live migration's replication log (SSBs, or row post-images
    #: with lo/hi markers under a watermark snapshot); ``None`` outside
    #: a migration.
    log: Optional[ReplicationLog] = None
    #: Additional slaves fed during a multi-slave migration
    #: (Section 4.2: "Madeus can propagate syncsets to multiple slaves
    #: at the same time"), each through its own cursor of the log;
    #: node name -> propagator.
    standby_propagators: Dict[str, Any] = field(default_factory=dict)
    failed_standbys: List[str] = field(default_factory=list)
    # statistics
    operations_seen: int = 0
    commits_seen: int = 0
    read_only_commits: int = 0
    aborts_seen: int = 0

    @property
    def migrating(self) -> bool:
        """Whether a migration holds the tenant (its log is open)."""
        return self.log is not None

    def all_propagators(self) -> List[Any]:
        """Every live propagation engine, the primary first."""
        engines = [self.propagator] if self.propagator is not None else []
        engines.extend(self.standby_propagators.values())
        return engines


class Connection:
    """One customer connection proxied by the middleware."""

    def __init__(self, middleware: "Middleware", tenant: str):
        self.middleware = middleware
        self.tenant = tenant
        self.tracker = TxnTracker()
        self.ssb: Optional[SyncsetBuffer] = None
        self.in_active_txn = False
        self._node_name: Optional[str] = None
        self._session: Optional[Session] = None
        # statistics
        self.statements = 0
        self.errors = 0

    def session(self) -> Session:
        """The master-side session, re-bound after switch-over."""
        node_name = self.middleware._routes.get(self.tenant)
        if node_name is None:
            node_name = self.middleware.route(self.tenant)  # raises
        if self._session is None or self._node_name != node_name:
            instance = self.middleware.cluster.node(node_name).instance
            self._session = Session(instance, self.tenant)
            self._node_name = node_name
        return self._session


class Middleware:
    """A pure-middleware database proxy with live migration."""

    def __init__(self, env: "Environment", cluster: Cluster,
                 config: Optional[MiddlewareConfig] = None):
        self.env = env
        self.cluster = cluster
        self.config = config or MiddlewareConfig()
        #: Span/event recorder on the simulated clock; every migration
        #: emits phase spans (dump -> restore -> catch-up -> handover).
        self.tracer = Tracer(env)
        #: Structured counters/gauges/histograms for the whole stack.
        self.metrics = MetricsRegistry()
        self.cluster.network.bind_obs(self.metrics)
        self._tenants: Dict[str, TenantState] = {}
        #: Routing table, handover records and migration journals (the
        #: middleware's stable storage; see :mod:`repro.core.journal`).
        self.journal = Journal(env, self.tracer, self.metrics)
        self._routes = self.journal.routes
        self.reports: List[MigrationReport] = []

    # ------------------------------------------------------------------
    # tenant management / routing
    # ------------------------------------------------------------------
    def register_tenant(self, tenant: str, node_name: str) -> TenantState:
        """Register a tenant hosted on ``node_name``."""
        if tenant in self._tenants:
            raise RoutingError("tenant %r already registered" % tenant)
        self.cluster.node(node_name)  # validate
        state = TenantState(tenant)
        state.region = CriticalRegion(self.env, "region.%s" % tenant)
        state.gate = Gate(self.env, is_open=True)
        self._tenants[tenant] = state
        self._routes[tenant] = node_name
        return state

    def route(self, tenant: str) -> str:
        """Current master node of a tenant."""
        node = self._routes.get(tenant)
        if node is None:
            raise RoutingError("tenant %r is not registered" % tenant)
        return node

    def tenants(self) -> List[str]:
        """Every registered tenant name, sorted."""
        return sorted(self._tenants)

    def owners(self, tenant: str) -> List[str]:
        """The node(s) that own ``tenant`` — by design exactly one.

        Outside a handover (or once the journal record resolved) this is
        the routing entry.  With an in-doubt :class:`HandoverRecord` the
        recovery rule applies without mutating anything: ``prepared``
        rolls back (source owns), ``ready`` rolls forward (destination
        owns — it already holds every remotely-committed transaction).
        A list so tests can assert ``len(owners(t)) == 1`` as the
        exactly-one-owner invariant rather than trusting the type.
        """
        return self.journal.owners(tenant, self.route(tenant))

    def recover_routing(self, tenant: str) -> str:
        """Resolve an in-doubt handover after a crash; return the owner.

        Applies the :class:`HandoverRecord` recovery rule *with* side
        effects: a ``ready`` record commits (the destination drained
        every remotely-committed transaction before the record was
        marked ready, so rolling forward loses nothing), a ``prepared``
        record rolls back to the source.  Either way the tenant's
        migration scaffolding is torn down and the gate reopens, so the
        single surviving owner serves reads and writes again.
        """
        return migration.recover_routing(self, tenant)

    def migration_journal(self, tenant: str) -> Optional[MigrationJournal]:
        """The most recent resume journal of ``tenant`` (or ``None``)."""
        return self.journal.migrations.get(tenant)

    def tenant_state(self, tenant: str) -> TenantState:
        """Middleware-side state of a tenant."""
        state = self._tenants.get(tenant)
        if state is None:
            raise RoutingError("tenant %r is not registered" % tenant)
        return state

    def connect(self, tenant: str) -> Connection:
        """Open a customer connection to a tenant."""
        self.tenant_state(tenant)  # validate
        return Connection(self, tenant)

    def disconnect(self, conn: Connection) -> None:
        """Abandon a connection whose customer side went away.

        The server-side unwind a real DBMS performs when it loses the
        client socket: any in-flight transaction is rolled back and the
        gate slot it held is released, so an abandoned connection (a
        router shard crashing mid-transaction, a client process dying)
        can never wedge a handover drain.  Idempotent.
        """
        state = self.tenant_state(conn.tenant)
        self._connection_lost(conn, state)

    def draining(self, tenant: str) -> bool:
        """Whether ``tenant``'s gate is closed (handover in progress).

        The router tier consults this before admitting a new
        transaction: a draining tenant's BEGINs are parked router-side
        in a bounded queue instead of piling onto the middleware gate.
        """
        return not self.tenant_state(tenant).gate.is_open

    # ------------------------------------------------------------------
    # the worker (Algorithms 1 and 2), inline on the customer connection
    # ------------------------------------------------------------------
    def submit(self, conn: Connection, sql: str,
               cpu_cost: Optional[float] = None
               ) -> Generator[Any, Any, SessionResult]:
        """Proxy one customer statement to the tenant's master.

        The customer -> middleware and middleware -> master hops each pay
        one network round trip; the worker logic itself is free (the
        paper measured the middleware node as ~100% idle).  This is the
        one generator frame between the customer and ``Session.execute``
        (a frame costs host time on every kernel event that resumes
        through it): what a kind of statement does to the SSB, the MLC
        and the gate is plain code around the one master hop.
        """
        state = self._tenants.get(conn.tenant)
        if state is None:
            state = self.tenant_state(conn.tenant)  # raises
        was_update = conn.tracker.is_update
        operation = conn.tracker.classify(parse(sql), sql, cpu_cost)
        kind = operation.kind
        conn.statements += 1
        state.operations_seen += 1
        network = self.cluster.network
        # customer -> middleware hop
        try:
            yield from network.round_trip()
        except NetworkDown as exc:
            conn.errors += 1
            self._connection_lost(conn, state)
            return SessionResult(kind="error", error=str(exc))
        region = txn = None
        if kind is _BEGIN:
            # Suspended during switch-over: new transactions wait at the
            # gate; running ones drain (Algorithm 3 lines 14-17).
            opened = state.gate.wait()
            if not self.env.take(opened):
                yield opened
            state.active_txns += 1
            conn.in_active_txn = True
        elif kind is _FIRST_READ:
            # Algorithm 1 lines 1-10: execute, tag STS, allocate the SSB.
            region = state.region
            waiter = region.enter(FIRST_READ_CLASS)
            if waiter is not None:
                yield waiter
        elif kind is _COMMIT and was_update:
            # Algorithm 1 lines 16-29: execute, tag ETS, bump MLC, link.
            # A read-only commit changes no snapshot state: no MLC bump,
            # no critical region (Algorithm 2), nothing to replay.
            region = state.region
            waiter = region.enter(COMMIT_CLASS)
            if waiter is not None:
                yield waiter
            # Capture the row post-images *before* forwarding: the session
            # drops its Transaction the instant the engine commit returns.
            session = conn._session
            txn = session.txn if session is not None else None
        try:
            # middleware -> master hop plus execution.  A link outage
            # surfaces as an error result, like a proxy returning 503;
            # the master-side transaction (which never saw the statement)
            # is rolled back, as a real server does when it loses the
            # client connection.
            try:
                yield from network.round_trip()
            except NetworkDown as exc:
                session = conn._session
                if session is not None and session.in_transaction:
                    session.reset()
                result = SessionResult(kind="error", error=str(exc))
            else:
                result = yield from conn.session().execute(
                    operation.statement, cpu_cost=operation.cpu_cost)
            if kind is _COMMIT and result.ok:
                if was_update:
                    self._committed(conn, state, operation, txn)
                else:
                    # The mapping function maps a read-only transaction
                    # to the empty set under every policy.
                    state.commits_seen += 1
                    state.read_only_commits += 1
                    self._transaction_ended(conn, state, aborted=False)
            elif kind is _ABORT or not result.ok:
                # Client rollback, the master refusing or never seeing
                # the statement (crash, outage), or an engine-initiated
                # abort (first-updater-wins): the master already rolled
                # the transaction back; discard the SSB and release the
                # gate slot.
                self._transaction_ended(conn, state, aborted=True)
            elif kind is _FIRST_READ:
                ssb = SyncsetBuffer(sts=state.mlc,
                                    txn_label=operation.txn_label)
                ssb.save(operation)
                conn.ssb = ssb
                state.open_ssbs.add(ssb)
            elif conn.ssb is not None and (
                    kind is _WRITE
                    or (kind is _READ
                        and not self.config.policy.minimum_set)):
                # Algorithm 1 lines 11-15 and 30-33 / Algorithm 2: the
                # minimum-set policies discard non-first reads; B-ALL
                # keeps them so the slave can replay entire transactions.
                conn.ssb.save(operation)
        finally:
            if region is not None:
                region.leave()
        if kind is not _BEGIN and not result.ok:
            conn.errors += 1
        return result

    def _committed(self, conn: Connection, state: TenantState,
                   operation: Operation, txn: Any) -> None:
        """An update transaction committed: tag ETS, bump MLC, link."""
        state.commits_seen += 1
        log = state.log
        if (log is not None and log.images and txn is not None
                and txn.write_order):
            writes = txn.writes
            log.append(tuple((table_name, key, writes[(table_name, key)])
                             for table_name, key in txn.write_order))
        ssb = conn.ssb
        if ssb is not None:
            ssb.ets = state.mlc
            ssb.save(operation)
        state.mlc += 1
        if ssb is not None:
            conn.ssb = None
            state.open_ssbs.discard(ssb)
            if log is not None and not log.images:
                ssb.linked_at = self.env.now
                log.append(ssb)
            if state.propagator is not None or state.standby_propagators:
                for propagator in state.all_propagators():
                    if log is not None:
                        propagator.notify_linked()
                    propagator.notify_open_changed()
        self._transaction_closed(conn, state)

    # ------------------------------------------------------------------
    def _transaction_ended(self, conn: Connection, state: TenantState,
                           aborted: bool) -> None:
        """Discard the SSB (mapping function: aborted/failed -> empty)."""
        if conn.ssb is not None:
            state.open_ssbs.discard(conn.ssb)
            conn.ssb = None
            if state.propagator is not None or state.standby_propagators:
                for propagator in state.all_propagators():
                    propagator.notify_open_changed()
        if aborted:
            state.aborts_seen += 1
            # the engine already rolled back; re-sync the tracker
            if conn.tracker.in_txn:
                conn.tracker.reset()
        self._transaction_closed(conn, state)

    def _connection_lost(self, conn: Connection,
                         state: TenantState) -> None:
        """Unwind one connection whose customer hop hit an outage."""
        session = conn._session
        if session is not None and session.in_transaction:
            session.reset()
        self._transaction_ended(conn, state, aborted=True)

    def _transaction_closed(self, conn: Connection,
                            state: TenantState) -> None:
        if not conn.in_active_txn:
            return
        conn.in_active_txn = False
        if state.active_txns > 0:
            state.active_txns -= 1
        if state.active_txns == 0 and not state.gate.is_open:
            waiters, state.drain_waiters = state.drain_waiters, []
            for event in waiters:
                event.succeed()

    # ------------------------------------------------------------------
    # the manager (Algorithm 3): four-step live migration
    # ------------------------------------------------------------------
    def migrate(self, tenant: str, destination: str,
                options: Optional[MigrationOptions] = None
                ) -> Generator[Any, Any, MigrationReport]:
        """Live-migrate ``tenant`` to node ``destination``.

        Steps: (1) snapshot the master inside the critical region so the
        MTS is a clean commit boundary; (2) ship + restore on the
        destination — streamed in overlapping chunks by default, or the
        serial paper-faithful chain with
        ``MigrationOptions(strategy=SnapshotStrategy.SERIAL)``; (3)
        propagate syncsets under the configured policy until caught up;
        (4) suspend new transactions, drain, switch over, resume.

        All per-migration knobs live on :class:`MigrationOptions`, the
        only way to pass them (what ``options`` leaves unset comes from
        :attr:`MiddlewareConfig.migration`); ``options.standbys`` names
        additional nodes that receive the snapshot and the same syncset
        stream concurrently (Section 4.2) — they end up as consistent
        warm replicas, and a standby that fails mid-migration is dropped
        without stopping the migration.
        """
        return migration.migrate(self, tenant, destination, options)

    def resume_migration(self, tenant: str,
                         options: Optional[MigrationOptions] = None
                         ) -> Generator[Any, Any, MigrationReport]:
        """Re-enter an interrupted migration from its journal.

        The counterpart of :meth:`recover_routing` for whole
        migrations: where recovery resolves the in-doubt *handover* and
        keeps the surviving owner, resume picks the journalled
        migration back up after the crashed master recovered — skipping
        every chunk all destinations already installed and replaying
        only the log backlog that accumulated since, instead of
        re-dumping from scratch.

        Invariants (asserted by the race sweep in
        ``tests/test_resume_race.py``): exactly one owner at every
        re-entry offset, no remotely-committed transaction lost, and no
        chunk double-shipped.  Raises :class:`MigrationError` when
        there is nothing to resume and :class:`SourceCrashed` when the
        journalled source is still down.
        """
        return migration.resume(self, tenant, options)

    def resolve_options(self, options: Optional[MigrationOptions]
                        ) -> MigrationOptions:
        """``options`` over the config's over :data:`MIGRATION_DEFAULTS`."""
        if options is not None and not isinstance(options,
                                                  MigrationOptions):
            raise TypeError(
                "migrate() takes a MigrationOptions instance, got %r; "
                "the old rates/standbys call shapes were removed"
                % (type(options).__name__,))
        configured = self.config.migration
        opts = (options or configured).over(configured).over(
            MIGRATION_DEFAULTS)
        if opts.chunk_mb is None:
            opts = replace(opts, chunk_mb=opts.rates.chunk_mb)
        return opts

    def fail_standby(self, tenant: str, node_name: str) -> None:
        """Drop a failed standby slave and continue the migration.

        Section 4.2: "If a slave fails, Madeus discards the slave and
        continues to propagate the remaining syncsets to the others."
        The standby's backlog is discarded and its propagator told to
        wind down; the primary slave (and other standbys) are
        unaffected.  (This manual hook shares its teardown with the
        automatic crash-detection path of the migration machine.)
        """
        migration.fail_standby(self, tenant, node_name)
