"""Parallel multi-tenant migration scheduling.

The paper's Section 5.5 experiment migrates tenants one at a time; a
consolidation or evacuation event in a real fleet rarely has that
luxury.  :class:`MigrationScheduler` runs N tenant migrations as
concurrent sim-clock players over one :class:`Middleware`:

* each submitted job is a full four-step :meth:`Middleware.migrate`;
* jobs admitted together contend honestly for the network — their
  snapshot streams split per-link bandwidth via the shared-link model
  (:meth:`~repro.net.Network.bulk_transfer`) instead of each seeing the
  full rate;
* restores interleave chunk-by-chunk on a shared destination: order
  within one tenant stays sequential (the restore stream), but
  independent tenants overlap, bounded by the admission cap;
* the admission order is a policy knob — ``fifo`` (submission order),
  ``round-robin`` (interleave by source node, spreading load across
  egress links), or ``smallest-first`` (shortest-job-first on tenant
  size, minimising mean wait).

All knobs live on :class:`ScheduleOptions`, each with its default
beside it.

One failed job never stops the schedule: per-job errors are captured on
the :class:`JobOutcome` and the remaining jobs keep running — mirroring
how the fault-tolerant single-migration path degrades (drop a standby,
keep going) rather than cancelling everything.

Scheduler-level recovery: with ``retry_limit > 0`` a failed or aborted
job requeues with capped exponential backoff instead of giving up.  The
scheduler remembers destinations that died under the job
(*excluded-destination memory*) and retries into the next alternate
named at :meth:`MigrationScheduler.submit` time, so one faulted
migration neither wedges the schedule nor keeps retrying into the same
dead node.  A :class:`~repro.errors.SourceCrashed` abort of an
unjournalled migration is final — the paper's rule is to abort and
keep serving from the source.  A journalled
(:attr:`MigrationOptions.resume`) migration is suspended instead, and
the scheduler, within its retry budget, waits for the crashed master's
recovery (:meth:`~repro.engine.instance.DbmsInstance.wait_recovered`)
and re-enters it via :meth:`Middleware.resume_migration` — skipping
every chunk the destination already installed instead of re-dumping
from scratch.  The journal decides, not the job: every attempt of a
job whose tenant's journal is suspended, parked by this job or by an
earlier schedule, resumes it toward the journal's destination.
Non-ok outcomes are stamped with the fault windows that overlapped the
job (:attr:`JobOutcome.fault_events`), so an injected-fault abort is
distinguishable from a logic error straight from the report.

Besides the batch submit-then-run shape, the scheduler has a *service
mode* for long-running control planes (the continuous rebalancer):
:meth:`MigrationScheduler.start_service` opens a persistent schedule,
:meth:`MigrationScheduler.submit` then admits each job immediately
(still bounded by ``max_concurrent`` and returning the job's player
process so the caller can wait on it), and
:meth:`MigrationScheduler.stop_service` drains the in-flight jobs and
returns the accumulated :class:`ScheduleReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from ..errors import (
    CatchUpTimeout,
    MigrationError,
    NetworkDown,
    NodeCrashed,
    SourceCrashed,
)
from ..obs.trace import FAULT, SPAN
from ..sim.sync import Semaphore, backoff_delay
from .middleware import (
    JOURNAL_SUSPENDED,
    Middleware,
    MigrationOptions,
    MigrationReport,
)

#: Admission-order policies understood by :class:`ScheduleOptions`.
SCHEDULE_POLICIES = ("fifo", "round-robin", "smallest-first")


@dataclass(frozen=True)
class ScheduleOptions:
    """Per-schedule knobs for :class:`MigrationScheduler`; callers name
    only what they change::

        ScheduleOptions(policy="smallest-first", max_concurrent=2)
    """

    #: Admission order: one of :data:`SCHEDULE_POLICIES`.
    policy: str = "fifo"
    #: Cap on migrations in flight at once; ``0`` means unlimited.
    max_concurrent: int = 0
    #: Re-attempts per job after a failed/aborted migration (0 = give up
    #: immediately).
    retry_limit: int = 0
    #: Capped exponential backoff between attempts, in sim seconds
    #: (:func:`~repro.sim.sync.backoff_delay`).
    retry_base: float = 0.5
    retry_cap: float = 5.0

    def __post_init__(self) -> None:
        if self.policy not in SCHEDULE_POLICIES:
            raise ValueError("unknown schedule policy %r; expected one "
                             "of %s" % (self.policy,
                                        ", ".join(SCHEDULE_POLICIES)))
        if self.max_concurrent < 0:
            raise ValueError("max_concurrent must be >= 0")
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")
        if self.retry_base < 0 or self.retry_cap < 0:
            raise ValueError("retry backoff must be >= 0")


@dataclass
class JobOutcome:
    """What happened to one submitted migration."""

    tenant: str
    source: str
    destination: str
    submitted_at: float
    started_at: float = 0.0
    ended_at: float = 0.0
    #: "ok", "aborted" (clean abort, tenant stays on source),
    #: "suspended" (journalled migration parked by a source crash and
    #: not resumed within the retry budget), or "failed" (rejected or
    #: torn down by an unrecovered fault).
    outcome: str = "pending"
    error: Optional[str] = None
    report: Optional[MigrationReport] = None
    #: Migration attempts made (1 = no retry was needed).
    attempts: int = 0
    #: Attempts that re-entered the tenant's suspended journal
    #: (:meth:`Middleware.resume_migration`) rather than starting over.
    resumes: int = 0
    #: Destinations this job gave up on (the node died under the
    #: attempt); retries skip them.
    excluded_destinations: List[str] = field(default_factory=list)
    #: Fault windows (``fault``-kind trace spans) overlapping the job,
    #: stamped on every non-ok outcome: ``{"fault", "kind", "target",
    #: "start", "end"}`` records, ``end`` ``None`` while unrecovered.
    #: Empty on a non-ok outcome means no injected fault overlapped —
    #: the failure is the migration's own doing.
    fault_events: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def queue_wait(self) -> float:
        """Sim time spent waiting for admission."""
        return self.started_at - self.submitted_at


@dataclass
class ScheduleReport:
    """Everything one scheduler run reports."""

    policy: str
    max_concurrent: int
    started_at: float = 0.0
    ended_at: float = 0.0
    #: Jobs in admission order (the order the policy chose).
    jobs: List[JobOutcome] = field(default_factory=list)
    #: High-water mark of migrations in flight at once.
    max_in_flight: int = 0
    #: Per-port busy fraction over the schedule window, keyed by port
    #: name (``node0.egress`` ...); only ports that carried bytes.
    link_utilisation: Dict[str, float] = field(default_factory=dict)

    @property
    def wall_clock(self) -> float:
        """Sim time from first admission to last completion."""
        return self.ended_at - self.started_at

    @property
    def ok_count(self) -> int:
        """Jobs that finished with outcome ``ok``."""
        return sum(1 for job in self.jobs if job.outcome == "ok")

    @property
    def retry_count(self) -> int:
        """Total re-attempts across all jobs."""
        return sum(max(0, job.attempts - 1) for job in self.jobs)

    @property
    def total_queue_wait(self) -> float:
        """Summed admission wait across all jobs."""
        return sum(job.queue_wait for job in self.jobs)

    def job(self, tenant: str) -> JobOutcome:
        """The outcome for ``tenant``'s migration."""
        for outcome in self.jobs:
            if outcome.tenant == tenant:
                return outcome
        raise KeyError("no job for tenant %r" % tenant)


@dataclass
class _ScheduleSession:
    """Mutable state shared by the jobs of one open schedule."""

    report: ScheduleReport
    span: Any
    gate: Optional[Semaphore]
    concurrent_gauge: Any
    service: bool = False
    in_flight: int = 0
    players: List[Any] = field(default_factory=list)


class MigrationScheduler:
    """Run several tenant migrations concurrently over one middleware.

    Usage is submit-then-run::

        scheduler = MigrationScheduler(mw, ScheduleOptions(
            policy="smallest-first", max_concurrent=2))
        scheduler.submit("A", "node1")
        scheduler.submit("B", "node1")
        report = yield from scheduler.run()      # inside a process
        # or: proc = scheduler.start(); env.run(); proc.value

    ``run`` admits jobs in the order the policy dictates, bounded by
    ``max_concurrent``, and returns a :class:`ScheduleReport` once every
    job has finished one way or another.

    For a long-running control plane the batch shape inverts into
    *service mode*::

        scheduler.start_service()
        proc = scheduler.submit("A", "node1")    # admitted immediately
        yield proc                               # wait for that one job
        report = yield from scheduler.stop_service()

    A service-mode :meth:`submit` returns the job's player process (its
    ``value`` is the :class:`JobOutcome`), still bounded by
    ``max_concurrent`` and covered by the same retries and resumes.
    """

    def __init__(self, middleware: Middleware,
                 options: Optional[ScheduleOptions] = None,
                 router: Optional[Any] = None):
        self.middleware = middleware
        self.env = middleware.env
        self.options = options or ScheduleOptions()
        #: Optional router tier (:class:`~repro.router.RouterFleet`):
        #: each completed job pushes a route invalidation for its
        #: tenant, so shard caches stop bouncing off the old master
        #: instead of waiting for the stale-route detection path.
        self.router = router
        self._pending: List[Tuple[str, str, Optional[MigrationOptions],
                                  Tuple[str, ...]]] = []
        self._session: Optional[_ScheduleSession] = None

    # ------------------------------------------------------------------
    def submit(self, tenant: str, destination: str,
               options: Optional[MigrationOptions] = None,
               alternates: Sequence[str] = ()) -> Optional[Any]:
        """Queue one migration; runs when :meth:`run` admits it.

        Every attempt runs on ``options`` laid over the middleware's
        config (:meth:`Middleware.resolve_options`).  ``alternates``
        names fallback destinations for the retry policy: when an
        attempt's destination dies, the excluded-destination memory
        skips it and the next alternate is tried instead.  With
        ``retry_limit == 0`` (the default) they are never consulted.

        While a service session is open (:meth:`start_service`) the job
        is instead admitted immediately and the player process is
        returned, so the caller can ``yield`` it to await that one job.
        """
        if options is not None and not isinstance(options,
                                                  MigrationOptions):
            raise TypeError("submit() takes a MigrationOptions "
                            "instance, got %r"
                            % (type(options).__name__,))
        session = self._session
        if session is not None:
            if not session.service:
                raise MigrationError(
                    "cannot submit to a schedule that is already "
                    "running")
            return self._spawn_job(session, tenant, destination,
                                   options, tuple(alternates))
        self._pending.append((tenant, destination, options,
                              tuple(alternates)))
        return None

    # ------------------------------------------------------------------
    def _ordered_jobs(self) -> List[Tuple[str, str,
                                          Optional[MigrationOptions],
                                          Tuple[str, ...]]]:
        """Pending jobs in the admission order the policy dictates."""
        jobs = list(self._pending)
        policy = self.options.policy
        if policy == "fifo":
            return jobs
        if policy == "smallest-first":
            def tenant_size(job: Tuple) -> float:
                tenant = job[0]
                source = self.middleware.route(tenant)
                instance = self.middleware.cluster.node(source).instance
                return instance.tenant(tenant).size_mb()
            return sorted(jobs, key=tenant_size)
        # round-robin: one job per source node per cycle, so concurrent
        # admissions spread across egress links instead of piling onto
        # one node's port.
        buckets: Dict[str, List[Tuple]] = {}
        for job in jobs:
            buckets.setdefault(self.middleware.route(job[0]),
                               []).append(job)
        ordered: List[Tuple] = []
        queues = list(buckets.values())
        while queues:
            queues = [queue for queue in queues if queue]
            for queue in queues:
                if queue:
                    ordered.append(queue.pop(0))
        return ordered

    # -- session plumbing ----------------------------------------------
    def _open_session(self, service: bool,
                      jobs_hint: int) -> _ScheduleSession:
        """Start a schedule span and the shared admission state."""
        if self._session is not None:
            raise MigrationError("schedule is already running")
        opts = self.options
        report = ScheduleReport(policy=opts.policy,
                                max_concurrent=opts.max_concurrent,
                                started_at=self.env.now)
        schedule_span = self.middleware.tracer.start(
            "schedule", kind=SPAN, policy=opts.policy,
            max_concurrent=opts.max_concurrent,
            jobs=jobs_hint)
        gate: Optional[Semaphore] = None
        if opts.max_concurrent > 0:
            gate = Semaphore(self.env, value=opts.max_concurrent)
        session = _ScheduleSession(
            report=report, span=schedule_span, gate=gate,
            concurrent_gauge=self.middleware.metrics.gauge(
                "scheduler.concurrent"),
            service=service)
        self._session = session
        return session

    def _close_session(self, session: _ScheduleSession) -> ScheduleReport:
        """Stamp the report, finish the span, and reset the scheduler."""
        report = session.report
        report.ended_at = self.env.now
        network = self.middleware.cluster.network
        for name, port in sorted(network.link_ports().items()):
            if port.bytes_mb <= 0:
                continue
            utilisation = port.utilisation(since=report.started_at)
            report.link_utilisation[name] = utilisation
            self.middleware.metrics.gauge(
                "scheduler.link.%s.utilisation" % name).set(utilisation)
        self.middleware.tracer.finish(
            session.span, ok=report.ok_count,
            max_in_flight=report.max_in_flight,
            wall_clock=report.wall_clock)
        self._session = None
        self._pending = []
        return report

    def _spawn_job(self, session: _ScheduleSession, tenant: str,
                   destination: str,
                   options: Optional[MigrationOptions],
                   alternates: Tuple[str, ...]) -> Any:
        """Admit one job into the open session; returns its player."""
        outcome = JobOutcome(tenant=tenant,
                             source=self.middleware.route(tenant),
                             destination=destination,
                             submitted_at=self.env.now)
        session.report.jobs.append(outcome)
        player = self.env.process(
            self._job_player(session, outcome, options, alternates),
            name="schedule.%s" % tenant)
        session.players.append(player)
        return player

    # -- per-job helpers -----------------------------------------------
    @staticmethod
    def _next_destination(outcome: JobOutcome,
                          candidates: List[str]) -> Optional[str]:
        """First candidate not yet excluded by a dead-node retry."""
        for name in candidates:
            if name not in outcome.excluded_destinations:
                return name
        return None

    def _clear_orphan_copy(self, outcome: JobOutcome,
                           destination: str) -> None:
        """Drop a partial tenant copy an aborted attempt left behind.

        Aborts intentionally leave the slave copy in place (players
        may still be draining against it); a retry into the same
        live node must clear it or the restore would collide.
        """
        instance = self.middleware.cluster.node(destination).instance
        if (not instance.crashed
                and self.middleware.route(outcome.tenant)
                != destination
                and instance.has_tenant(outcome.tenant)):
            instance.drop_tenant(outcome.tenant)

    def _stamp_fault_events(self, outcome: JobOutcome) -> None:
        """Record fault windows overlapping the job on its outcome.

        Aborted/failed jobs become auditable from the report alone:
        an empty list on a non-ok outcome means no injected fault
        overlapped the job, i.e. the failure was the migration's
        own doing rather than chaos.
        """
        for span in self.middleware.tracer.find(kind=FAULT):
            if span.start > outcome.ended_at:
                continue
            if (span.end is not None
                    and span.end < outcome.submitted_at):
                continue
            outcome.fault_events.append({
                "fault": span.name,
                "kind": span.attrs.get("fault_kind"),
                "target": span.attrs.get("target"),
                "start": span.start,
                "end": span.end,
            })

    def _job_player(self, session: _ScheduleSession, outcome: JobOutcome,
                    options: Optional[MigrationOptions],
                    alternates: Tuple[str, ...]) -> Generator:
        opts = self.options
        metrics = self.middleware.metrics
        tracer = self.middleware.tracer
        report = session.report
        if session.gate is not None:
            yield from session.gate.acquire()
        outcome.started_at = self.env.now
        metrics.histogram("scheduler.queue_wait").observe(
            outcome.queue_wait)
        session.in_flight += 1
        report.max_in_flight = max(report.max_in_flight,
                                   session.in_flight)
        session.concurrent_gauge.set(session.in_flight)
        job_span = tracer.start(
            "schedule.job", kind=SPAN, parent=session.span,
            tenant=outcome.tenant, destination=outcome.destination,
            queue_wait=outcome.queue_wait)
        candidates = [outcome.destination] + [
            name for name in alternates
            if name != outcome.destination]
        try:
            while True:
                # The journal, not this job's history, decides: a parked
                # migration is resumed toward its own destination,
                # whichever schedule parked it.
                journal = self.middleware.migration_journal(
                    outcome.tenant)
                resuming = (journal is not None
                            and journal.state == JOURNAL_SUSPENDED)
                if resuming:
                    destination = journal.destination
                else:
                    destination = self._next_destination(outcome,
                                                         candidates)
                    if destination is None:
                        # Every candidate died under an attempt; the
                        # last error already describes the failure.
                        break
                outcome.destination = destination
                outcome.attempts += 1
                retriable = False
                try:
                    if resuming:
                        outcome.resumes += 1
                        outcome.report = yield from \
                            self.middleware.resume_migration(
                                outcome.tenant, options)
                    else:
                        outcome.report = \
                            yield from self.middleware.migrate(
                                outcome.tenant, destination, options)
                    outcome.outcome = "ok"
                    if self.router is not None:
                        self.router.invalidate(outcome.tenant)
                    break
                except SourceCrashed as exc:
                    journal = self.middleware.migration_journal(
                        outcome.tenant)
                    suspended = (journal is not None
                                 and journal.state
                                 == JOURNAL_SUSPENDED)
                    if (not suspended
                            or outcome.attempts > opts.retry_limit):
                        # Final without a journal to re-enter (the
                        # paper's rule: abort and keep the source) or
                        # without retry budget to wait for recovery.
                        outcome.outcome = ("suspended" if suspended
                                           else "aborted")
                        outcome.error = str(exc)
                        break
                    outcome.outcome = "suspended"
                    outcome.error = str(exc)
                    source_instance = self.middleware.cluster.node(
                        journal.source).instance
                    yield source_instance.wait_recovered()
                    delay = backoff_delay(outcome.attempts,
                                          opts.retry_base, opts.retry_cap)
                    metrics.counter("scheduler.resumes").inc()
                    tracer.event("schedule.resume",
                                 tenant=outcome.tenant,
                                 attempt=outcome.attempts,
                                 delay=delay,
                                 phase=journal.suspend_phase)
                    yield self.env.timeout(delay)
                    continue
                except CatchUpTimeout as exc:
                    outcome.outcome = "aborted"
                    outcome.error = str(exc)
                    retriable = True
                except (MigrationError, NetworkDown,
                        NodeCrashed) as exc:
                    outcome.outcome = "failed"
                    outcome.error = str(exc)
                    retriable = True
                if (not retriable
                        or outcome.attempts > opts.retry_limit):
                    break
                dest_instance = self.middleware.cluster.node(
                    destination).instance
                if dest_instance.crashed:
                    # Excluded-destination memory: never retry into
                    # the node that just died under this job.
                    outcome.excluded_destinations.append(destination)
                if self._next_destination(outcome, candidates) is None:
                    break
                delay = backoff_delay(outcome.attempts, opts.retry_base,
                                      opts.retry_cap)
                metrics.counter("scheduler.retries").inc()
                tracer.event("schedule.retry", tenant=outcome.tenant,
                             attempt=outcome.attempts, delay=delay,
                             excluded=list(
                                 outcome.excluded_destinations))
                yield self.env.timeout(delay)
                retry_into = self._next_destination(outcome, candidates)
                if retry_into is not None:
                    self._clear_orphan_copy(outcome, retry_into)
        finally:
            outcome.ended_at = self.env.now
            if outcome.outcome != "ok":
                self._stamp_fault_events(outcome)
            session.in_flight -= 1
            session.concurrent_gauge.set(session.in_flight)
            tracer.finish(job_span, outcome=outcome.outcome,
                          attempts=outcome.attempts,
                          resumes=outcome.resumes,
                          destination=outcome.destination)
            metrics.counter("scheduler.jobs_%s"
                            % outcome.outcome).inc()
            if session.gate is not None:
                session.gate.release()
        # The player's value: service-mode callers yield the process
        # returned by submit() and read the outcome straight off it.
        return outcome

    # -- batch mode ----------------------------------------------------
    def run(self) -> Generator[Any, Any, ScheduleReport]:
        """Process body: admit, migrate, collect, report."""
        session = self._open_session(service=False,
                                     jobs_hint=len(self._pending))
        for tenant, destination, options, alternates in \
                self._ordered_jobs():
            self._spawn_job(session, tenant, destination, options,
                            alternates)
        if session.players:
            yield self.env.all_of(session.players)
        return self._close_session(session)

    def start(self, name: str = "scheduler") -> Any:
        """Spawn :meth:`run` as a process; its ``value`` is the report."""
        return self.env.process(self.run(), name=name)

    # -- service mode --------------------------------------------------
    def start_service(self) -> None:
        """Open a persistent schedule that admits jobs as they arrive.

        While the service is open, :meth:`submit` spawns the job
        immediately (bounded by ``max_concurrent``) and returns its
        player process.  Close with :meth:`stop_service`.  Jobs queued
        before the service opened are rejected — service mode is for
        control planes that decide as they go, not for batches.
        """
        if self._pending:
            raise MigrationError(
                "cannot open a service over %d batch-queued jobs; "
                "run() them first" % len(self._pending))
        self._open_session(service=True, jobs_hint=0)

    @property
    def service_open(self) -> bool:
        """Whether a service session is accepting live submissions."""
        session = self._session
        return session is not None and session.service

    def drain(self) -> Generator[Any, Any, None]:
        """Process body: wait until every admitted job has finished.

        New jobs may be submitted while draining; they are waited on
        too.  The service stays open afterwards.
        """
        session = self._session
        if session is None or not session.service:
            raise MigrationError("no service session to drain")
        while True:
            live = [player for player in session.players
                    if not player.triggered]
            if not live:
                return
            yield self.env.all_of(live)

    def stop_service(self) -> Generator[Any, Any, ScheduleReport]:
        """Process body: drain every job, then close and report."""
        session = self._session
        if session is None or not session.service:
            raise MigrationError("no service session to stop")
        yield from self.drain()
        return self._close_session(session)
