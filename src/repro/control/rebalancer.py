"""The continuous rebalancer: sense -> detect -> plan -> act.

:class:`Rebalancer` closes the loop that ROADMAP item 1 left open: it
wires the :class:`~repro.control.watcher.LoadWatcher` (sampling load
from the middleware's commit and WAL-flush counters), the
:class:`~repro.control.detector.HotspotDetector` (hysteresis, so a
borderline node never ping-pongs), and the
:class:`~repro.control.planner.Planner` (Section 4.5.2 cost-ranked
moves) onto a service-mode
:class:`~repro.core.scheduler.MigrationScheduler` — every chosen move
is submitted live and journalled, under the scheduler's retry budget
(a crash-parked move is resumed from its journal) and a
max-concurrent-moves budget.

The decision loop emits three trace markers per round, all under the
``rebalance.`` prefix so gates can audit the control plane from the
trace alone:

* ``rebalance.decide`` (span) — one planning round: hot nodes seen,
  moves chosen;
* ``rebalance.submit`` (event) — one move handed to the scheduler,
  with its predicted cost;
* ``rebalance.settle`` (event) — that move's job finished: outcome and
  observed cost, for the predicted-vs-observed error the report
  carries.

The settable knobs live on :class:`RebalanceOptions`, each with its
default beside it.  Every move migrates on
:data:`~repro.control.planner.MOVE_OPTIONS` laid over the middleware's
config, so it is journalled on any middleware.  The sampling and
planning cadence (:data:`SAMPLE_INTERVAL`, :data:`DECIDE_EVERY`) are
module constants, and the loop watches every node of the cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, List, Optional, Set

from ..core.middleware import Middleware
from ..core.scheduler import (
    MigrationScheduler,
    ScheduleOptions,
    ScheduleReport,
)
from ..errors import MigrationError
from ..obs.trace import SPAN
from .detector import HotspotDetector
from .planner import MOVE_OPTIONS, PlannedMove, Planner
from .watcher import ClusterView, LoadWatcher


#: Sim seconds between load samples.
SAMPLE_INTERVAL = 1.0
#: Planning cadence: decide every N samples.
DECIDE_EVERY = 2


@dataclass(frozen=True)
class RebalanceOptions:
    """Per-rebalancer knobs; callers name only what they change."""

    # -- sensing -------------------------------------------------------
    #: Samples in the rolling rate window.
    window: int = 5
    # -- hotspot detection / planning ----------------------------------
    #: Sim seconds a node (after cooling) and a tenant (after moving)
    #: are left alone — the anti-ping-pong dwell.
    cooldown: float = 30.0

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")


@dataclass
class MoveRecord:
    """One move through its whole life: decided -> submitted -> settled."""

    tenant: str
    source: str
    destination: str
    decided_at: float
    #: Planner's Section 4.5.2 prediction, sim seconds.
    predicted_cost: float
    #: Windowed commit rate and size that drove the decision.
    rate: float = 0.0
    size_mb: float = 0.0
    #: Scheduler outcome ("pending" until settled).
    outcome: str = "pending"
    attempts: int = 0
    resumes: int = 0
    settled_at: Optional[float] = None
    #: Measured end-to-end migration time of the ok attempt.
    observed_cost: Optional[float] = None

    @property
    def cost_error(self) -> Optional[float]:
        """Relative |predicted - observed| / observed, once settled ok."""
        if self.observed_cost is None or self.observed_cost <= 0:
            return None
        return (abs(self.predicted_cost - self.observed_cost)
                / self.observed_cost)


@dataclass
class RebalanceReport:
    """Everything one rebalancer run reports."""

    started_at: float = 0.0
    ended_at: float = 0.0
    #: Load samples taken and planning rounds run.
    samples: int = 0
    decisions: int = 0
    #: Every move decided, in decision order.
    moves: List[MoveRecord] = field(default_factory=list)
    #: The underlying scheduler's report (set by :meth:`Rebalancer.stop`).
    schedule: Optional[ScheduleReport] = None

    @property
    def mean_cost_error(self) -> float:
        """Mean relative predicted-vs-observed cost error (ok moves)."""
        errors = [move.cost_error for move in self.moves
                  if move.cost_error is not None]
        if not errors:
            return 0.0
        return sum(errors) / len(errors)


class Rebalancer:
    """Keep a cluster balanced by migrating tenants off hot nodes.

    Usage::

        rebalancer = Rebalancer(middleware,
                                RebalanceOptions(cooldown=20.0))
        rebalancer.start()                      # spawns the loop
        env.run(until=300.0)
        report = yield from rebalancer.stop()   # inside a process
        # or: proc = env.process(rebalancer.stop()); env.run();
        #     report = proc.value
    """

    def __init__(self, middleware: Middleware,
                 options: Optional[RebalanceOptions] = None):
        self.middleware = middleware
        self.env = middleware.env
        self.options = opts = options or RebalanceOptions()
        self.watcher = LoadWatcher(middleware, window=opts.window)
        self.detector = HotspotDetector(cooldown=opts.cooldown)
        self.planner = Planner(middleware, cooldown=opts.cooldown)
        # Two moves in flight at once; every move gets two scheduler
        # re-attempts, which resume a crash-parked move's journal.
        self.scheduler = MigrationScheduler(middleware, ScheduleOptions(
            max_concurrent=2, retry_limit=2))
        self.report = RebalanceReport()
        self._running = False
        self._in_flight: Set[str] = set()
        self._settlers: List[Any] = []

    # ------------------------------------------------------------------
    def in_flight(self) -> List[str]:
        """Tenants with a move currently in flight, sorted."""
        return sorted(self._in_flight)

    # ------------------------------------------------------------------
    def run(self) -> Generator[Any, Any, None]:
        """Process body: the sense/detect/plan/act loop.

        Runs until :meth:`stop` clears the flag; usually spawned via
        :meth:`start`.
        """
        if self._running:
            raise MigrationError("rebalancer is already running")
        self._running = True
        self.scheduler.start_service()
        self.report.started_at = self.env.now
        samples_since_decide = 0
        while self._running:
            yield self.env.timeout(SAMPLE_INTERVAL)
            if not self._running:
                break
            view = self.watcher.sample_once()
            hot = self.detector.observe(view)
            self.report.samples += 1
            samples_since_decide += 1
            if samples_since_decide >= DECIDE_EVERY:
                samples_since_decide = 0
                self._decide(view, hot)

    def start(self, name: str = "rebalancer") -> Any:
        """Spawn :meth:`run` as a process."""
        return self.env.process(self.run(), name=name)

    def stop(self) -> Generator[Any, Any, RebalanceReport]:
        """Process body: stop deciding, drain every move, and report."""
        if not self._running:
            raise MigrationError("rebalancer is not running")
        self._running = False
        schedule = yield from self.scheduler.stop_service()
        live = [settler for settler in self._settlers
                if not settler.triggered]
        if live:
            yield self.env.all_of(live)
        self.report.schedule = schedule
        self.report.ended_at = self.env.now
        return self.report

    # ------------------------------------------------------------------
    def _decide(self, view: ClusterView, hot: List[str]) -> None:
        """One planning round: rank moves, submit within budget."""
        tracer = self.middleware.tracer
        span = tracer.start("rebalance.decide", kind=SPAN,
                            hot=list(hot),
                            imbalance=round(view.imbalance, 6),
                            in_flight=len(self._in_flight))
        budget = (self.scheduler.options.max_concurrent
                  - len(self._in_flight))
        moves = self.planner.plan(view, hot, now=self.env.now,
                                  in_flight=self.in_flight(),
                                  budget=budget)
        for move in moves:
            self._submit(move)
        self.report.decisions += 1
        tracer.finish(span, submitted=len(moves))

    def _submit(self, move: PlannedMove) -> None:
        """Hand one planned move to the scheduler and watch it settle."""
        record = MoveRecord(
            tenant=move.tenant, source=move.source,
            destination=move.destination, decided_at=self.env.now,
            predicted_cost=move.predicted_cost, rate=move.rate,
            size_mb=move.size_mb)
        self.report.moves.append(record)
        self.planner.note_move(move.tenant, self.env.now)
        self._in_flight.add(move.tenant)
        self.middleware.tracer.event(
            "rebalance.submit", tenant=move.tenant,
            source=move.source, destination=move.destination,
            predicted_cost=round(move.predicted_cost, 6))
        player = self.scheduler.submit(move.tenant, move.destination,
                                       MOVE_OPTIONS)
        self._settlers.append(self.env.process(
            self._settle(record, player),
            name="rebalance.settle.%s" % move.tenant))

    def _settle(self, record: MoveRecord,
                player: Any) -> Generator[Any, Any, None]:
        """Wait for one move's job and fold the outcome back in."""
        outcome = yield player
        record.outcome = outcome.outcome
        record.attempts = outcome.attempts
        record.resumes = outcome.resumes
        record.settled_at = self.env.now
        if outcome.outcome == "ok" and outcome.report is not None:
            record.observed_cost = outcome.report.migration_time
        for node in outcome.excluded_destinations:
            # Fleet-level excluded-destination memory: a node that died
            # under one move is no target for the next rounds either.
            self.planner.exclude_destination(node, self.env.now)
        self._in_flight.discard(record.tenant)
        self.middleware.tracer.event(
            "rebalance.settle", tenant=record.tenant,
            destination=record.destination, outcome=record.outcome,
            attempts=record.attempts,
            predicted_cost=round(record.predicted_cost, 6),
            observed_cost=(round(record.observed_cost, 6)
                           if record.observed_cost is not None
                           else None))
