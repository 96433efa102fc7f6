"""Scheduled fault injection on the simulated clock.

The :class:`FaultInjector` turns a declarative
:class:`~repro.faults.plan.FaultPlan` into simulation processes: one
arming process per fault, which waits for its trigger (absolute time, or
a named migration phase opening plus an offset), injects the fault
against the live cluster, and — for bounded faults — heals it after
``duration`` seconds.

Every injection emits a ``fault.injected`` trace event, opens a
``fault``-kind span named after the spec (closed again on recovery, so
overlapping faults show up as overlapping spans — permanent faults leave
theirs open), and bumps the ``faults.injected`` (and
``faults.injected.<kind>``) counters plus the ``faults.active`` gauge;
recoveries mirror that with ``fault.recovered`` / ``faults.recovered``.
That makes chaos runs auditable purely from the exported trace, which is
what ``scripts/gate.py`` gates on in CI.

Multi-fault plans: specs arm independently (overlap is the norm), and a
spec with ``after=<name>`` waits on a trigger event the named fault
succeeds when it injects (or, with ``after_event="recovered"``, heals).
Arming order is deterministic — plan order, or a seeded shuffle with
``seed=`` — so chains and ties replay identically for a fixed seed.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional

from ..obs.trace import FAULT, PHASE
from ..sim.events import Event
from .plan import (
    BANDWIDTH,
    CRASH,
    DISK_STALL,
    LATENCY,
    LINK_DOWN,
    ROUTER_CRASH,
    FaultPlan,
    FaultSpec,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.cluster import Cluster
    from ..obs.metrics import MetricsRegistry
    from ..obs.trace import Tracer
    from ..sim.core import Environment


class FaultInjector:
    """Schedules the faults of a plan against a cluster."""

    #: How often a phase-anchored fault re-checks the tracer for its
    #: trigger span, in simulated seconds.
    POLL_INTERVAL = 0.05

    def __init__(self, env: "Environment", cluster: "Cluster",
                 plan: FaultPlan,
                 tracer: Optional["Tracer"] = None,
                 metrics: Optional["MetricsRegistry"] = None,
                 seed: Optional[int] = None,
                 routers: Optional[Dict[str, Any]] = None):
        self.env = env
        self.cluster = cluster
        self.plan = plan
        #: Router shards by name (``RouterFleet.shard_map()``), the
        #: targets of ``router_crash`` specs.
        self.routers: Dict[str, Any] = routers or {}
        # Fail fast: a malformed plan is a construction error, not
        # something to discover only when the run calls start().
        plan.validate()
        for spec in plan:
            if spec.kind == ROUTER_CRASH and spec.target not in self.routers:
                raise ValueError(
                    "fault %r targets unknown router shard %r "
                    "(known: %s)"
                    % (spec.name, spec.target,
                       ", ".join(sorted(self.routers)) or "<none>"))
        self.tracer = tracer
        self.metrics = metrics
        #: Shuffle the arming order deterministically (None = plan
        #: order).  Arming order breaks simultaneous-trigger ties, so a
        #: seed explores different interleavings while every individual
        #: run stays exactly reproducible.
        self.seed = seed
        #: (sim time, spec) pairs, in injection order.
        self.injected: List[tuple] = []
        self.recovered: List[tuple] = []
        self._started = False
        #: Per-fault lifecycle triggers for ``after`` chains:
        #: (fault name, "injected" | "recovered") -> Event.
        self._triggers: Dict[tuple, Event] = {}
        #: Open ``fault``-kind span per injected fault name.
        self._spans: Dict[str, Any] = {}
        #: Injected-but-not-healed specs by name; what :meth:`close`
        #: drains at run end.
        self._active: Dict[str, FaultSpec] = {}
        self._closed = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Validate the plan and spawn one arming process per fault."""
        if self._started:
            raise RuntimeError("fault injector already started")
        self.plan.validate()
        if any(spec.phase is not None for spec in self.plan) \
                and self.tracer is None:
            raise ValueError("phase-anchored faults need a tracer")
        self._started = True
        specs = list(self.plan)
        if any(spec.kind in (LINK_DOWN, LATENCY, BANDWIDTH)
               for spec in specs):
            # Link state may now flip mid-flight; disable the network's
            # coalesced round-trip fast path so every hop keeps its own
            # outage/degradation check at the exact per-hop timestamps.
            # BANDWIDTH stays in the list although no hop carries bytes
            # any more (a collapse only reprices bulk_transfer streams):
            # the flag is a mode of the whole run, and dropping it would
            # put a bandwidth-only plan on the coalesced simulator while
            # every other network-fault plan runs the per-hop one.
            self.cluster.network.coalesce_hops = False
        if self.seed is not None:
            random.Random(self.seed).shuffle(specs)
        for spec in specs:
            self.env.process(self._arm(spec), name="fault.%s" % spec.name)

    def trigger(self, name: str, moment: str = "injected") -> Event:
        """The simulation event that fires when fault ``name`` reaches
        ``moment`` (``"injected"`` or ``"recovered"``).

        Already-passed moments return an already-triggered event, so
        late subscribers (and ``after`` chains armed in any order) never
        miss their trigger.
        """
        key = (name, moment)
        event = self._triggers.get(key)
        if event is None:
            event = Event(self.env, name="fault.%s.%s" % (name, moment))
            self._triggers[key] = event
        return event

    def _fire_trigger(self, name: str, moment: str) -> None:
        event = self.trigger(name, moment)
        if not event.triggered:
            event.succeed()

    # ------------------------------------------------------------------
    def _arm(self, spec: FaultSpec) -> Generator[Any, Any, None]:
        if spec.phase is not None:
            while not self._phase_open(spec.phase):
                yield self.env.timeout(self.POLL_INTERVAL)
        if spec.after is not None:
            yield self.trigger(spec.after, spec.after_event)
        if spec.at > 0:
            yield self.env.timeout(spec.at)
        yield from self._inject(spec)

    def _phase_open(self, phase_name: str) -> bool:
        for span in reversed(self.tracer.spans):
            if span.kind == PHASE and span.name == phase_name:
                return True
        return False

    # ------------------------------------------------------------------
    def _inject(self, spec: FaultSpec) -> Generator[Any, Any, None]:
        self.injected.append((self.env.now, spec))
        self._active[spec.name] = spec
        self._record("fault.injected", spec)
        if self.tracer is not None:
            self._spans[spec.name] = self.tracer.start(
                spec.name, kind=FAULT, fault_kind=spec.kind,
                target=spec.target, duration=spec.duration,
                after=spec.after or "")
        if self.metrics is not None:
            self.metrics.counter("faults.injected").inc()
            self.metrics.counter("faults.injected.%s" % spec.kind).inc()
            self.metrics.gauge("faults.active").inc()
        self._fire_trigger(spec.name, "injected")
        if spec.kind == CRASH:
            yield from self._run_crash(spec)
        elif spec.kind == LINK_DOWN:
            yield from self._run_link_down(spec)
        elif spec.kind == LATENCY:
            yield from self._run_degrade(spec, latency=True)
        elif spec.kind == BANDWIDTH:
            yield from self._run_degrade(spec, latency=False)
        elif spec.kind == DISK_STALL:
            yield from self._run_disk_stall(spec)
        elif spec.kind == ROUTER_CRASH:
            yield from self._run_router_crash(spec)

    def _record(self, event_name: str, spec: FaultSpec) -> None:
        if self.tracer is not None:
            self.tracer.event(event_name, fault=spec.name, kind=spec.kind,
                              target=spec.target, duration=spec.duration)

    def close(self) -> None:
        """Retire faults still active at run end; idempotent.

        Permanent faults (``duration == 0``) never heal, so without
        this the ``faults.active`` gauge reports phantom active faults
        after the horizon closes — a soak run's final metrics would
        look like an outage in progress.  Each still-active fault gets
        its span finished with ``outcome="unrecovered"``, one
        ``fault.unrecovered`` event, a ``faults.unrecovered`` counter
        bump, and a gauge decrement.  Chain triggers do *not* fire —
        an unrecovered fault still never "recovered".
        """
        if self._closed:
            return
        self._closed = True
        for name in sorted(self._active):
            spec = self._active.pop(name)
            self._record("fault.unrecovered", spec)
            span = self._spans.pop(spec.name, None)
            if span is not None:
                self.tracer.finish(span, outcome="unrecovered")
            if self.metrics is not None:
                self.metrics.counter("faults.unrecovered").inc()
                self.metrics.gauge("faults.active").dec()

    def _heal(self, spec: FaultSpec) -> None:
        self.recovered.append((self.env.now, spec))
        self._active.pop(spec.name, None)
        self._record("fault.recovered", spec)
        span = self._spans.pop(spec.name, None)
        if span is not None:
            self.tracer.finish(span, outcome="recovered")
        if self.metrics is not None:
            self.metrics.counter("faults.recovered").inc()
            self.metrics.gauge("faults.active").dec()
        self._fire_trigger(spec.name, "recovered")

    # -- kind handlers -------------------------------------------------
    def _run_crash(self, spec: FaultSpec) -> Generator[Any, Any, None]:
        instance = self.cluster.node(spec.target).instance
        instance.crash()
        if spec.duration > 0:
            yield self.env.timeout(spec.duration)
            yield from instance.restart()
            self._heal(spec)

    def _run_link_down(self, spec: FaultSpec) -> Generator[Any, Any, None]:
        net = self.cluster.network
        net.fail_link()
        if spec.duration > 0:
            yield self.env.timeout(spec.duration)
            net.restore_link()
            self._heal(spec)

    def _run_degrade(self, spec: FaultSpec,
                     latency: bool) -> Generator[Any, Any, None]:
        net = self.cluster.network
        if latency:
            net.degrade(latency_scale=spec.factor)
        else:
            net.degrade(bandwidth_scale=spec.factor)
        if spec.duration > 0:
            yield self.env.timeout(spec.duration)
            if latency:
                net.degrade(latency_scale=1.0 / spec.factor)
            else:
                net.degrade(bandwidth_scale=1.0 / spec.factor)
            self._heal(spec)

    def _run_disk_stall(self, spec: FaultSpec) -> Generator[Any, Any, None]:
        disk = self.cluster.node(spec.target).instance.disk
        yield from disk.stall(spec.duration)
        self._heal(spec)

    def _run_router_crash(self, spec: FaultSpec
                          ) -> Generator[Any, Any, None]:
        shard = self.routers[spec.target]
        shard.crash()
        if spec.duration > 0:
            yield self.env.timeout(spec.duration)
            shard.restart()
            self._heal(spec)
