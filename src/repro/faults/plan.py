"""Declarative fault plans.

A :class:`FaultPlan` is an ordered list of named :class:`FaultSpec`
records — *what* breaks, *where*, *when*, and for *how long* — that the
:class:`~repro.faults.injector.FaultInjector` schedules on the simulated
clock.  Keeping the plan declarative (and JSON round-trippable) makes
chaos scenarios seedable, diffable, and replayable: the same plan plus
the same workload seed reproduces the same run exactly.

Fault kinds
-----------

``crash``
    Kill the DBMS instance on ``target`` at a statement boundary; with
    ``duration > 0`` it restarts after WAL-replay recovery.
``link_down``
    Transient cluster-link outage for ``duration`` seconds; in-flight
    and new :meth:`Network.message` calls raise ``NetworkDown``.
``latency``
    Multiply the one-way network latency by ``factor`` for ``duration``.
``bandwidth``
    Divide the network bandwidth by ``factor`` for ``duration``
    (bandwidth collapse).
``disk_stall``
    Occupy the disk head of ``target`` for ``duration`` seconds (queued
    I/O waits; nothing errors).
``router_crash``
    Kill the router shard named ``target``: parked and in-flight client
    requests fail with unknown outcome and clients reconnect to a
    surviving shard; with ``duration > 0`` the shard restarts (empty,
    cold routing cache) after ``duration`` seconds.

``at`` is an offset in simulated seconds — from injector start when
``phase`` is ``None``, otherwise from the moment the named migration
phase (``dump`` / ``restore`` / ``catch-up`` / ``handover``) first opens.

Overlapping and chained faults
------------------------------

A plan may compose any number of concurrent faults; each spec arms
independently, so two specs with overlapping windows simply overlap
(e.g. a ``link_down`` on the ship route *while* a standby crashes).
``after`` chains a spec to another fault in the same plan: the spec
waits until the named fault is *injected* — or, with
``after_event="recovered"``, until it has *healed* — before its own
``at`` offset starts counting.  That expresses fault-during-recovery
races ("crash the destination the moment the network outage ends")
declaratively, and :class:`FaultPlan.validate` rejects unknown
references, cycles, and waits on a recovery that can never happen
(a permanent fault).  Trigger ordering stays deterministic: the
injector arms specs in a seedable order and every trigger is a
simulation event, so the same plan + seed replays identically.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, Iterable, List, Optional

from ..obs.trace import PHASE_ORDER

CRASH = "crash"
LINK_DOWN = "link_down"
LATENCY = "latency"
BANDWIDTH = "bandwidth"
DISK_STALL = "disk_stall"
ROUTER_CRASH = "router_crash"

#: Every fault kind the injector knows how to schedule.
FAULT_KINDS = (CRASH, LINK_DOWN, LATENCY, BANDWIDTH, DISK_STALL,
               ROUTER_CRASH)

#: Kinds that hit one node (and therefore require a ``target``).
NODE_KINDS = (CRASH, DISK_STALL)

#: Kinds whose ``target`` names a router shard instead of a node.
ROUTER_KINDS = (ROUTER_CRASH,)

#: Lifecycle moments of another fault a spec may chain to via ``after``.
AFTER_EVENTS = ("injected", "recovered")


@dataclass(frozen=True)
class FaultSpec:
    """One named fault to inject."""

    name: str
    kind: str
    #: Offset in simulated seconds (from injector start / phase open).
    at: float = 0.0
    #: Node name for node faults; ignored by network faults.
    target: str = ""
    #: Outage / downtime / stall length; 0 means permanent for ``crash``
    #: and ``link_down`` (never recovered within the run).
    duration: float = 0.0
    #: Degradation severity: latency multiplier or bandwidth divisor.
    factor: float = 10.0
    #: Arm when this migration phase opens instead of at absolute time.
    phase: Optional[str] = None
    #: Chain to another fault in the plan: wait until that fault fires
    #: (or heals, with ``after_event="recovered"``) before ``at`` runs.
    after: Optional[str] = None
    #: Which lifecycle moment of ``after`` to wait for.
    after_event: str = "injected"

    @property
    def permanent(self) -> bool:
        """Whether this fault never heals within the run.

        Disk stalls always end (their validation requires a positive
        duration); every other kind with ``duration == 0`` holds for
        the rest of the run and never emits ``fault.recovered``.
        """
        return self.kind != DISK_STALL and self.duration == 0

    def validate(self) -> None:
        """Raise ``ValueError`` on a malformed spec."""
        if not self.name:
            raise ValueError("fault needs a non-empty name")
        if self.kind not in FAULT_KINDS:
            raise ValueError("unknown fault kind %r (one of %s)"
                             % (self.kind, ", ".join(FAULT_KINDS)))
        if self.kind in NODE_KINDS and not self.target:
            raise ValueError("fault %r (%s) needs a target node"
                             % (self.name, self.kind))
        if self.kind in ROUTER_KINDS and not self.target:
            raise ValueError("fault %r (%s) needs a target router shard"
                             % (self.name, self.kind))
        if self.at < 0:
            raise ValueError("fault %r: negative offset %r"
                             % (self.name, self.at))
        if self.duration < 0:
            raise ValueError("fault %r: negative duration %r"
                             % (self.name, self.duration))
        if self.kind in (LATENCY, BANDWIDTH) and self.factor <= 0:
            raise ValueError("fault %r: factor must be positive"
                             % self.name)
        if self.kind == DISK_STALL and self.duration <= 0:
            raise ValueError("fault %r: a disk stall needs a positive "
                             "duration" % self.name)
        if self.phase is not None and self.phase not in PHASE_ORDER:
            raise ValueError("fault %r: unknown phase %r (one of %s)"
                             % (self.name, self.phase,
                                ", ".join(PHASE_ORDER)))
        if self.after_event not in AFTER_EVENTS:
            raise ValueError(
                "fault %r: unknown after_event %r (one of %s)"
                % (self.name, self.after_event, ", ".join(AFTER_EVENTS)))
        if self.after is not None and self.after == self.name:
            raise ValueError("fault %r cannot chain to itself"
                             % self.name)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable record."""
        return asdict(self)


@dataclass
class FaultPlan:
    """An ordered, validated collection of faults."""

    faults: List[FaultSpec] = field(default_factory=list)

    def add(self, name: str, kind: str, **kwargs: Any) -> FaultSpec:
        """Append a new spec (validated immediately) and return it."""
        spec = FaultSpec(name=name, kind=kind, **kwargs)
        spec.validate()
        self.faults.append(spec)
        return spec

    def validate(self) -> None:
        """Validate every spec and the ``after`` dependency graph.

        Beyond per-spec validation and duplicate names, this rejects
        chains that can never fire: references to unknown faults,
        dependency cycles, and ``after_event="recovered"`` waits on a
        permanent fault (one that never heals).
        """
        by_name: Dict[str, FaultSpec] = {}
        for spec in self.faults:
            spec.validate()
            if spec.name in by_name:
                raise ValueError("duplicate fault name %r" % spec.name)
            by_name[spec.name] = spec
        for spec in self.faults:
            if spec.after is None:
                continue
            upstream = by_name.get(spec.after)
            if upstream is None:
                raise ValueError(
                    "fault %r chains after unknown fault %r"
                    % (spec.name, spec.after))
            if spec.after_event == "recovered" and upstream.permanent:
                raise ValueError(
                    "fault %r waits for recovery of %r, which is "
                    "permanent and never recovers"
                    % (spec.name, spec.after))
        # Cycle check: follow the (single-parent) ``after`` links.
        for spec in self.faults:
            slow = spec
            visited = {spec.name}
            while slow.after is not None:
                slow = by_name[slow.after]
                if slow.name in visited:
                    raise ValueError(
                        "fault dependency cycle through %r" % slow.name)
                visited.add(slow.name)

    def to_dicts(self) -> List[Dict[str, Any]]:
        """The plan as plain records (for JSON export / logging)."""
        return [spec.to_dict() for spec in self.faults]

    @classmethod
    def from_dicts(cls, records: Iterable[Dict[str, Any]]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dicts` output.

        A record with keys :class:`FaultSpec` does not know raises a
        named ``ValueError`` (not a bare dataclass ``TypeError``), so a
        typo in a hand-written plan points at the offending fault.
        """
        known = {f.name for f in fields(FaultSpec)}
        specs = []
        for record in records:
            unknown = sorted(set(record) - known)
            if unknown:
                raise ValueError(
                    "fault %r has unknown key%s %s (known: %s)"
                    % (record.get("name", "<unnamed>"),
                       "s" if len(unknown) > 1 else "",
                       ", ".join(repr(key) for key in unknown),
                       ", ".join(sorted(known))))
            specs.append(FaultSpec(**record))
        plan = cls(specs)
        plan.validate()
        return plan

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)
