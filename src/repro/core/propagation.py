"""Syncset propagation: the conductor and players (Algorithms 4 and 5).

Two propagation engines implement all four middlewares of Table 2:

* :class:`SerialReplayer` (B-ALL, B-MIN) replays committed SSBs one
  after another in master commit-completion order, one operation at a
  time.
* :class:`Conductor` (B-CON, Madeus) groups the SSBs it reads by STS
  and coordinates concurrent players in rounds keyed by the slave
  logical clock (SLC): all first reads sharing an STS propagate
  concurrently; writes stream FIFO per player; then the commits whose
  ETS falls before the next snapshot point propagate — concurrently
  under Madeus (CON-COM, enabling group commit on the slave), one at a
  time under B-CON, each commit paying the pool's competition for the
  commit mutex.  Each conductor records its replay schedule in its own
  :class:`~repro.check.LsirValidator`.

Every engine — these two and the watermark path's
:class:`~repro.core.watermark.ChangeStreamApplier` — reads the
migration's :class:`~repro.core.ssb.ReplicationLog` through its own
named cursor, reports the same :class:`PropagationStats`, signals the
manager through ``caught_up`` events, and has one backlog
(:meth:`_BasePropagator._backlog`): its cursor's lag plus the records
it holds but has not started.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from heapq import heappop, heappush
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Any,
    Callable,
    Dict,
    Generator,
    List,
    Optional,
    Tuple,
)

from ..check import LsirValidator
from ..engine.session import Session
from ..engine.sqlmini import Begin, Commit
from ..errors import MigrationError, NetworkDown, NodeCrashed
from ..obs.trace import ROUND
from ..sim.events import Event
from ..sim.sync import CountdownLatch, backoff_delay
from .operations import Operation, OpKind
from .policy import PropagationPolicy
from .ssb import LogCursor, SyncsetBuffer

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.instance import DbmsInstance
    from ..net.network import Network
    from ..obs.metrics import MetricsRegistry
    from ..obs.trace import Tracer
    from ..sim.core import Environment

#: Size of the player thread pool competing for the commit mutex.
PLAYER_POOL = 32

#: Catch-up divergence watchdog (:func:`divergence_watchdog`, armed only
#: with a ``catchup_deadline``): sample the backlog every interval (sim
#: seconds) and abort once it has grown strictly monotonically across
#: the window of samples by at least the minimum growth, in syncsets.
DIVERGENCE_INTERVAL = 5.0
DIVERGENCE_WINDOW = 6
DIVERGENCE_MIN_GROWTH = 64

_BEGIN = Begin()
_COMMIT = Commit()


@dataclass
class PropagationStats:
    """Counters shared by both propagation engines."""

    syncsets_replayed: int = 0
    operations_replayed: int = 0
    first_reads_replayed: int = 0
    writes_replayed: int = 0
    commits_replayed: int = 0
    rounds: int = 0
    max_concurrent_players: int = 0
    commit_mutex_waits: int = 0
    net_retries: int = 0


class _BasePropagator:
    """Shared plumbing: slave replay of single operations."""

    #: The LSIR recorder of this engine's schedule.  Only a
    #: :class:`Conductor` keeps one: B-ALL, B-MIN and the row-image
    #: change-stream applier make no LSIR promise.
    validator: Optional[LsirValidator] = None

    def __init__(self, env: "Environment", cursor: LogCursor,
                 slave: "DbmsInstance", tenant_name: str,
                 network: "Network", policy: PropagationPolicy,
                 open_ssbs: AbstractSet[SyncsetBuffer] = frozenset(),
                 tracer: Optional["Tracer"] = None,
                 metrics: Optional["MetricsRegistry"] = None,
                 metrics_prefix: str = "propagation"):
        self.env = env
        self.cursor = cursor
        #: The tenant's open (allocated, uncommitted) SSBs.
        self.open_ssbs = open_ssbs
        self.slave = slave
        self.tenant_name = tenant_name
        self.network = network
        self.policy = policy
        self.tracer = tracer
        self.metrics = metrics
        self.metrics_prefix = metrics_prefix
        self.stats = PropagationStats()
        #: ``(field name, gauge)`` per stats field, resolved at the
        #: first publish: an engine that never publishes adds no
        #: instrument to the registry (or to an exported trace).
        self._stat_gauges: Optional[List[Tuple[str, Any]]] = None
        self._stop_requested = False
        self._link_signal: Optional[Event] = None
        self._open_signal: Optional[Event] = None
        self._caught_up_waiters: List[Event] = []
        self._drained_waiters: List[Event] = []
        self._failed_waiters: List[Event] = []
        #: Non-None once replay hit an unrecoverable fault (slave crash /
        #: link lost past the retry budget); holds the reason string.
        self.failed: Optional[str] = None
        self.process = None  # set by start()

    # ------------------------------------------------------------------
    # manager-facing API
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the propagation process."""
        self.process = self.env.process(self._run(),
                                        name="%s.propagator"
                                        % self.policy.name)

    def request_stop(self) -> None:
        """Ask the engine to exit once fully drained."""
        self._stop_requested = True
        self.notify_linked()

    def wait_caught_up(self) -> Event:
        """Event firing next time the backlog is momentarily empty."""
        event = Event(self.env)
        self._caught_up_waiters.append(event)
        # Nudge an idle engine so it re-evaluates its lag: an adopted
        # engine that drained while the migration was parked sits in
        # _wait_for_work(), and without a wake-up a waiter registered
        # by the resuming manager would only fire when fresh workload
        # happens to arrive.
        self.notify_linked()
        return event

    def wait_fully_drained(self) -> Event:
        """Event firing when backlog, in-flight, and open SSBs are gone."""
        event = Event(self.env)
        if self.failed is not None:
            # Nothing left to drain towards; release the waiter at once.
            event.succeed()
            return event
        self._drained_waiters.append(event)
        return event

    def wait_failed(self) -> Event:
        """Event firing when replay dies on a fault (see :attr:`failed`)."""
        event = Event(self.env)
        if self.failed is not None:
            event.succeed(self.failed)
            return event
        self._failed_waiters.append(event)
        return event

    # ------------------------------------------------------------------
    # worker-facing signals
    # ------------------------------------------------------------------
    def notify_linked(self) -> None:
        """Called by workers when a record is appended to the log."""
        if self._link_signal is not None and not self._link_signal.triggered:
            self._link_signal.succeed()

    def notify_open_changed(self) -> None:
        """Called by workers when an open SSB resolves (commit/abort)."""
        if self._open_signal is not None and not self._open_signal.triggered:
            self._open_signal.succeed()

    # ------------------------------------------------------------------
    # internal helpers
    # ------------------------------------------------------------------
    def _publish_stats(self) -> None:
        """Mirror the cumulative stats into the metrics registry."""
        if self.metrics is None:
            return
        if self._stat_gauges is None:
            self._stat_gauges = [
                (field.name, self.metrics.gauge(
                    "%s.%s" % (self.metrics_prefix, field.name)))
                for field in fields(self.stats)]
        stats = self.stats
        for name, gauge in self._stat_gauges:
            gauge.set(getattr(stats, name))

    def _fire_caught_up(self) -> None:
        self._publish_stats()
        waiters, self._caught_up_waiters = self._caught_up_waiters, []
        if waiters and self.tracer is not None:
            self.tracer.event("propagation.caught_up",
                              engine=self.policy.name,
                              backlog=self._backlog())
        for event in waiters:
            event.succeed()

    def _fire_drained(self) -> None:
        self._publish_stats()
        waiters, self._drained_waiters = self._drained_waiters, []
        for event in waiters:
            event.succeed()

    def _fail(self, reason: str) -> None:
        """Mark replay dead and wake the manager; idempotent.

        Fires the failure *and* drain waiters (there will never be more
        progress to wait for) but never the caught-up waiters: a dead
        slave is not a caught-up slave.
        """
        if self.failed is not None:
            return
        self.failed = reason
        self._stop_requested = True
        if self.tracer is not None:
            self.tracer.event("propagation.failed",
                              engine=self.policy.name, reason=reason,
                              backlog=self._backlog())
        self._on_fail()
        waiters, self._failed_waiters = self._failed_waiters, []
        for event in waiters:
            event.succeed(reason)
        self._fire_drained()

    def _on_fail(self) -> None:
        """Engine-specific cleanup hook run once on failure."""

    def _in_flight(self) -> int:
        raise NotImplementedError

    def _held(self) -> int:
        """Records read off the cursor and not yet started."""
        return 0

    def _backlog(self) -> int:
        """Replication units not yet replayed: the cursor's lag plus
        the records this engine holds but has not started."""
        return self.cursor.pending + self._held()

    def _is_drained(self) -> bool:
        return (self.cursor.drained and self._held() == 0
                and self._in_flight() == 0 and not self.open_ssbs)

    def _wait_for_work(self) -> Generator:
        self._link_signal = Event(self.env)
        yield self._link_signal
        self._link_signal = None

    #: Resend budget for one hop across a transient link outage.
    NET_RETRY_LIMIT = 6
    NET_RETRY_BASE = 0.05
    NET_RETRY_CAP = 1.0

    #: The slave counts as "caught up" once the replay lag is this many
    #: replication units or fewer.  Under heavy workload the pipe never
    #: hits a strictly empty instant (commits arrive every few
    #: milliseconds), so — like any practical migration controller —
    #: the manager moves to Step 4 at a small bounded lag and drains the
    #: remainder there.
    CATCHUP_THRESHOLD = 8

    def _resend(self, down: NetworkDown, hop: Callable[..., Generator],
                *args: Any) -> Generator:
        """Resend ``hop(*args)``, which just raised ``down``, with capped
        exponential backoff; re-raise the last outage past the budget.

        Callers run the first attempt inline and enter here only on an
        outage, so a fault-free hop costs no extra generator frame.
        """
        for attempt in range(1, self.NET_RETRY_LIMIT + 1):
            self.stats.net_retries += 1
            yield self.env.timeout(backoff_delay(
                attempt, self.NET_RETRY_BASE, self.NET_RETRY_CAP))
            try:
                yield from hop(*args)
                return
            except NetworkDown as again:
                down = again
        raise down

    def _replay_statement(self, session: Session,
                          operation: Operation) -> Generator:
        """Forward one operation to the slave and await its response.

        Transient :class:`NetworkDown` hops are resent (:meth:`_resend`;
        replay is idempotent up to the statement: nothing reached the
        slave).  A crashed slave raises :class:`NodeCrashed` so the
        manager can discard or fail over.
        """
        try:
            yield from self.network.round_trip()
        except NetworkDown as down:
            yield from self._resend(down, self.network.round_trip)
        result = yield from session.execute(operation.statement,
                                            cpu_cost=operation.cpu_cost)
        if not result.ok:
            if self.slave.crashed:
                raise NodeCrashed(self.slave.name,
                                  "crashed during syncset replay")
            raise MigrationError(
                "slave replay failed for %r: %s — the LSIR guarantees "
                "conflict-free replay, so this indicates a protocol bug"
                % (operation.sql, result.error))
        self.stats.operations_replayed += 1

    def _run(self) -> Generator:  # pragma: no cover - abstract
        raise NotImplementedError
        yield


class SerialReplayer(_BasePropagator):
    """Serial propagation in master commit order (B-ALL and B-MIN).

    The log's order is commit-completion order on the master; the
    replayer drains it with a single slave session, one operation at a
    time — "each syncset is processed individually" as the paper puts it.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: The backlog, a heap of ``(linked_at, ssb_id, ssb)``: the pair
        #: is unique, so pops come in master commit-completion order
        #: and two SSBs are never compared.
        self._queue: List[Tuple[float, int, SyncsetBuffer]] = []
        self._busy = False

    def _in_flight(self) -> int:
        return (1 if self._busy else 0) + len(self._queue)

    def _held(self) -> int:
        return len(self._queue)

    def _run(self) -> Generator:
        session = Session(self.slave, self.tenant_name)
        while True:
            # Collect anything committed since the last look.
            for ssb in self.cursor.take():
                heappush(self._queue,
                         (ssb.linked_at or 0.0, ssb.ssb_id, ssb))
            if not self._queue:
                if self._stop_requested and self._is_drained():
                    self._fire_drained()
                    return
                self._fire_caught_up()
                yield from self._wait_for_work()
                continue
            ssb = heappop(self._queue)[2]
            self._busy = True
            try:
                yield from self._replay_serial(session, ssb)
            except (NodeCrashed, NetworkDown) as exc:
                session.reset()
                self._busy = False
                self._fail(str(exc))
                return
            self._busy = False

    def _replay_serial(self, session: Session,
                       ssb: SyncsetBuffer) -> Generator:
        self.stats.max_concurrent_players = max(
            self.stats.max_concurrent_players, 1)
        yield from self._replay_statement(
            session, Operation(OpKind.BEGIN, "BEGIN", _BEGIN))
        self.stats.operations_replayed -= 1  # BEGIN is bookkeeping
        for entry in ssb.entries:
            if entry.kind == OpKind.COMMIT:
                yield from self._replay_statement(
                    session, Operation(OpKind.COMMIT, "COMMIT", _COMMIT,
                                       entry.cpu_cost))
                self.stats.commits_replayed += 1
            elif entry.kind == OpKind.FIRST_READ:
                yield from self._replay_statement(session, entry)
                self.stats.first_reads_replayed += 1
            elif entry.kind == OpKind.WRITE:
                yield from self._replay_statement(session, entry)
                self.stats.writes_replayed += 1
            else:  # plain reads (B-ALL keeps them)
                yield from self._replay_statement(session, entry)
        ssb.propagated_at = self.env.now
        self.stats.syncsets_replayed += 1
        if self.stats.syncsets_replayed % 64 == 0:
            self._publish_stats()


class _PlayerHandle:
    """Conductor-side view of one player replaying one SSB."""

    __slots__ = ("ssb", "commit_order", "done")

    def __init__(self, env: "Environment", ssb: SyncsetBuffer):
        self.ssb = ssb
        self.commit_order = Event(env)
        self.done = Event(env)


class Conductor(_BasePropagator):
    """Round-based concurrent propagation (Algorithm 4).

    Each round: pick the smallest STS over committed *and open* SSBs;
    wait for open transactions at that snapshot point to resolve;
    propagate that STS group's first reads concurrently; then release
    the commits whose ETS precedes the next snapshot point —
    concurrently when the policy allows (Madeus), one at a time
    otherwise (B-CON).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: SSBs read off the cursor and not yet played, by STS (in
        #: commit order within a group).
        self._by_sts: Dict[int, List[SyncsetBuffer]] = {}
        self._awaiting: List[_PlayerHandle] = []
        self._active_players = 0
        self.validator = LsirValidator()

    def _record(self, ssb: SyncsetBuffer, kind: str,
                write_index: int = -1) -> None:
        ets = ssb.ets if ssb.ets is not None else -1
        self.validator.record(ssb.ssb_id, ssb.sts, ets, kind,
                              self.env.now, write_index)

    def _in_flight(self) -> int:
        return self._active_players

    def _held(self) -> int:
        return sum(len(group) for group in self._by_sts.values())

    def _pull(self) -> None:
        """Group the SSBs appended since the last look by STS.  A
        discarded cursor's backlog is dropped, held groups included."""
        if not self.cursor.active:
            self._by_sts.clear()
        for ssb in self.cursor.take():
            self._by_sts.setdefault(ssb.sts, []).append(ssb)

    def _smallest_sts(self) -> Optional[int]:
        """GetSmallestSTS() over held *and open* SSBs: including the
        open ones keeps the SLC from advancing past a running
        transaction's snapshot point."""
        candidates = [ssb.sts for ssb in self.open_ssbs]
        if self._by_sts:
            candidates.append(min(self._by_sts))
        return min(candidates) if candidates else None

    def _publish_players(self) -> None:
        """Track the live player count (and its high-water mark)."""
        if self.metrics is not None:
            self.metrics.gauge("%s.players"
                               % self.metrics_prefix).set(
                self._active_players)

    # ------------------------------------------------------------------
    def _on_fail(self) -> None:
        # Unpark players waiting for a commit order so their processes can
        # observe the dead slave and exit instead of hanging forever.
        parked, self._awaiting = self._awaiting, []
        for handle in parked:
            if not handle.commit_order.triggered:
                handle.commit_order.succeed()

    def _run(self) -> Generator:
        while True:
            if self.failed is not None:
                return
            self._pull()
            # Lag = committed-but-unstarted syncsets plus players still
            # replaying writes.  Players parked awaiting a commit order
            # are NOT lag: the LSIR forbids releasing a commit while an
            # older-snapshot transaction is still running on the master
            # (rule 1-b), so that pool is the structural replication
            # window, ~master concurrency deep, and never drains under
            # load.  Step 4 suspends new transactions, the window
            # empties, and the strict drain below completes.
            in_writes = max(0, self._active_players - len(self._awaiting))
            if self._backlog() + in_writes <= self.CATCHUP_THRESHOLD:
                self._fire_caught_up()
            smallest = self._smallest_sts()
            if smallest is None:
                if self._awaiting:
                    # No pending or open SSBs anywhere: every held-back
                    # commit may go out (any future first read will carry
                    # a strictly larger STS).
                    yield from self._release_commits(None)
                    continue
                if self._active_players == 0:
                    self._fire_caught_up()
                    if self._stop_requested and self._is_drained():
                        self._fire_drained()
                        return
                yield from self._wait_for_work()
                continue
            slc = smallest
            # Wait until no *running* transaction still has this snapshot
            # point: its syncset (if any) belongs in this round.
            while any(ssb.sts == slc for ssb in self.open_ssbs):
                self._open_signal = Event(self.env)
                yield self._open_signal
                self._open_signal = None
            self._pull()
            group = self._by_sts.pop(slc, [])
            if not group and not self._awaiting:
                continue
            self.stats.rounds += 1
            round_span = None
            if self.tracer is not None:
                round_span = self.tracer.start(
                    "round", kind=ROUND, slc=slc, group=len(group),
                    awaiting=len(self._awaiting))
            # Order the first operations of the whole STS group at once.
            latch = CountdownLatch(self.env, len(group))
            for ssb in group:
                handle = _PlayerHandle(self.env, ssb)
                self._awaiting.append(handle)
                self._active_players += 1
                self.stats.max_concurrent_players = max(
                    self.stats.max_concurrent_players, self._active_players)
                self.env.process(self._player(handle, latch),
                                 name="player.%d" % ssb.ssb_id)
            self._publish_players()
            yield latch.wait()
            # Next snapshot point bounds the commit batch (Equation 1):
            # commits with oldSLC <= ETS <= newSLC - 1 may go out now.
            self._pull()
            next_sts = self._smallest_sts()
            upper = (next_sts - 1) if next_sts is not None else None
            yield from self._release_commits(upper)
            if round_span is not None:
                self.tracer.finish(round_span,
                                   players=self._active_players)
            self._publish_stats()

    def _release_commits(self, upper: Optional[int]) -> Generator:
        """Order the commits whose ETS is within the round's bound."""
        batch = [h for h in self._awaiting
                 if upper is None or (h.ssb.ets or 0) <= upper]
        if not batch:
            return
        selected = set(id(h) for h in batch)
        self._awaiting = [h for h in self._awaiting
                          if id(h) not in selected]
        batch.sort(key=lambda h: (h.ssb.ets or 0, h.ssb.ssb_id))
        if self.policy.concurrent_commits:
            for handle in batch:
                handle.commit_order.succeed()
            yield self.env.all_of([h.done for h in batch])
        else:
            # Serial commit propagation in master commit order; the
            # conductor waits for each commit before releasing the next
            # one (B-CON / Daudjee-Salem rule).
            for handle in batch:
                handle.commit_order.succeed()
                yield handle.done

    # ------------------------------------------------------------------
    def _player(self, handle: _PlayerHandle,
                latch: CountdownLatch) -> Generator:
        """Algorithm 5: first op, then writes FIFO, then ordered commit."""
        ssb = handle.ssb
        session = Session(self.slave, self.tenant_name)
        arrived = False
        try:
            yield from self._replay_statement(
                session, Operation(OpKind.BEGIN, "BEGIN", _BEGIN))
            self.stats.operations_replayed -= 1
            self._record(ssb, "first_read")
            yield from self._replay_statement(session, ssb.first_operation)
            self.stats.first_reads_replayed += 1
            arrived = True
            latch.arrive()
            for index, entry in enumerate(ssb.write_operations):
                self._record(ssb, "write", index)
                yield from self._replay_statement(session, entry)
                self.stats.writes_replayed += 1
            yield handle.commit_order
            if not self.policy.concurrent_commits:
                # The conductor releases B-CON's commits one at a time,
                # so they are serial already; what is left to charge is
                # the paper's "all players compete for the pthread mutex
                # at every commit time" — a futex round per contender.
                self.stats.commit_mutex_waits += 1
                penalty = (self.policy.commit_mutex_penalty
                           * (PLAYER_POOL - 1))
                if penalty > 0:
                    yield self.env.timeout(penalty)
            self._record(ssb, "commit")
            yield from self._replay_statement(
                session, Operation(OpKind.COMMIT, "COMMIT", _COMMIT,
                                   ssb.commit_operation.cpu_cost))
            self.stats.commits_replayed += 1
        except (NodeCrashed, NetworkDown) as exc:
            # The slave died (or the link to it did) under this player.
            # Unwind so the conductor and its siblings are not left
            # waiting on us, then flag the whole engine as failed.
            session.reset()
            if not arrived:
                latch.arrive()
            try:
                self._awaiting.remove(handle)
            except ValueError:
                pass
            self._active_players -= 1
            self._publish_players()
            if not handle.done.triggered:
                handle.done.succeed()
            self._fail(str(exc))
            return
        ssb.propagated_at = self.env.now
        self.stats.syncsets_replayed += 1
        self._active_players -= 1
        self._publish_players()
        handle.done.succeed()


def make_propagator(env: "Environment", cursor: LogCursor,
                    slave: "DbmsInstance", tenant_name: str,
                    network: "Network", policy: PropagationPolicy,
                    open_ssbs: AbstractSet[SyncsetBuffer] = frozenset(),
                    tracer: Optional["Tracer"] = None,
                    metrics: Optional["MetricsRegistry"] = None,
                    metrics_prefix: str = "propagation"
                    ) -> _BasePropagator:
    """Instantiate the propagation engine a policy calls for."""
    engine_cls = Conductor if policy.concurrent_first_writes \
        else SerialReplayer
    return engine_cls(env, cursor, slave, tenant_name, network, policy,
                      open_ssbs, tracer=tracer, metrics=metrics,
                      metrics_prefix=metrics_prefix)


def divergence_watchdog(env: "Environment", tracer: "Tracer", tenant: str,
                        backlog: Callable[[], int], fired: Event,
                        control: Dict[str, bool]) -> Generator:
    """Abort-early detector over the primary replay backlog.

    Samples ``backlog()`` each :data:`DIVERGENCE_INTERVAL` (the primary
    engine's backlog, read live, so a promoted standby's engine is
    followed automatically) and fires once the backlog has grown
    *strictly monotonically* across :data:`DIVERGENCE_WINDOW` samples
    by at least :data:`DIVERGENCE_MIN_GROWTH`.  A healthy catch-up
    oscillates toward zero and never sustains that, so a positive signal
    means replay throughput is provably below the master's commit rate
    — the situation the paper reports as "N/A".
    """
    samples: List[int] = []
    while not control["stop"]:
        yield env.timeout(DIVERGENCE_INTERVAL)
        if control["stop"]:
            return
        samples.append(backlog())
        if len(samples) > DIVERGENCE_WINDOW:
            samples.pop(0)
        if (len(samples) == DIVERGENCE_WINDOW
                and all(later > earlier for earlier, later
                        in zip(samples, samples[1:]))
                and (samples[-1] - samples[0]
                     >= DIVERGENCE_MIN_GROWTH)):
            tracer.event("migration.diverging", tenant=tenant,
                         samples=list(samples))
            if not fired.triggered:
                fired.succeed()
            return
