"""One place that decides whether a run was right.

The paper's correctness argument is Theorem 2: a slave that replays its
master's syncsets under the LSIR (Definition 3) ends in the master's
state.  :class:`LsirValidator` checks the first half on every replay
engine that promises the LSIR (a
:class:`~repro.core.propagation.Conductor`: B-CON and Madeus, standbys
included; the engine that ends a migration fills
``MigrationReport.lsir_violations``), and :func:`states_equal` the
second at every handover (``MigrationReport.consistent`` and
``standby_consistency``).  :func:`judge` reads both from every report
of a run, with one owner per tenant and the kv ledger
(:func:`audit_kv_tenant`), into one :class:`Verdict`: the soak,
rebalance, router bench and chaos reports are ok only when it is.

At run time this module imports nothing from ``repro``, so
:mod:`repro.core` imports it without a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover
    from .core.journal import MigrationReport
    from .core.middleware import Middleware
    from .engine.database import TenantDatabase
    from .engine.mvcc import Image
    from .engine.schema import TableSchema
    from .workload.simplekv import KvWorkloadResult


# ---------------------------------------------------------------------------
# LSIR schedule validation (Definition 3)
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class ReplayEvent:
    """One observed propagation event on the slave."""

    ssb_id: int
    sts: int
    ets: int
    kind: str            # "first_read" | "write" | "commit"
    write_index: int     # ordinal among this SSB's writes (-1 otherwise)
    time: float
    sequence: int        # tie-break for same-instant events


def _replay_order(event: ReplayEvent) -> Tuple[float, int]:
    """When ``event`` was replayed (its sequence breaks a tie)."""
    return event.time, event.sequence


def _before(a: ReplayEvent, b: ReplayEvent) -> bool:
    """``_replay_order(a) < _replay_order(b)``, without the tuples."""
    return a.time < b.time or (a.time == b.time and a.sequence < b.sequence)


class LsirValidator:
    """Collects one engine's slave replay events and checks them
    against the LSIR (STS / ETS are one tenant's MLC values, so each
    :class:`~repro.core.propagation.Conductor` owns one).

    :meth:`record` files each event where :meth:`violations` reads it:
    per SSB the last first read, the last commit and every write in
    record order.
    """

    def __init__(self) -> None:
        #: ssb -> its last recorded first read.
        self.first_reads: Dict[int, ReplayEvent] = {}
        #: ssb -> its last recorded commit.
        self.commits: Dict[int, ReplayEvent] = {}
        #: ssb -> its writes, in record order.
        self.writes: Dict[int, List[ReplayEvent]] = {}
        self._sequence = 0

    def record(self, ssb_id: int, sts: int, ets: int, kind: str,
               time: float, write_index: int = -1) -> None:
        """Record one replay event (called by players)."""
        self._sequence += 1
        event = ReplayEvent(ssb_id, sts, ets, kind, write_index, time,
                            self._sequence)
        if kind == "first_read":
            self.first_reads[ssb_id] = event
        elif kind == "commit":
            self.commits[ssb_id] = event
        else:
            self.writes.setdefault(ssb_id, []).append(event)

    def violations(self) -> List[str]:
        """All LSIR violations in the recorded schedule (empty = valid).

        Rules (1-a) and (1-b) take one merge of the first reads sorted
        by STS and the commits sorted by ETS, first reads ahead at a
        tie, and one pass: the commits passed have a smaller ETS, so
        must precede the first read at hand (1-a); the first reads
        passed have an STS no larger, so must precede the commit at
        hand (1-b).  Only the latest-replayed one of another SSB needs
        checking, so the pass keeps the two latest-replayed of each
        kind.  Nothing is allocated per first read or commit but the two
        sorted lists, and rule (2) sorts one SSB's writes at a time.
        """
        problems: List[str] = []
        first_reads, commits = self.first_reads, self.commits
        reads = sorted(first_reads.values(), key=attrgetter("sts"))
        ends = sorted(commits.values(), key=attrgetter("ets"))
        # The latest- and second-latest-replayed first read and commit.
        read, prior_read = None, None
        commit, prior_commit = None, None
        r = c = 0
        while r < len(reads) or c < len(ends):
            if c == len(ends) or (r < len(reads)
                                  and reads[r].sts <= ends[c].ets):
                event = reads[r]
                r += 1
                other = (commit if commit is None
                         or commit.ssb_id != event.ssb_id else prior_commit)
                if other is not None and _before(event, other):
                    problems.append(
                        "rule 1-a: commit ets=%d (ssb %d) must precede "
                        "first read sts=%d (ssb %d)"
                        % (other.ets, other.ssb_id, event.sts, event.ssb_id))
                if read is None or _before(read, event):
                    read, prior_read = event, read
                elif prior_read is None or _before(prior_read, event):
                    prior_read = event
            else:
                event = ends[c]
                c += 1
                other = (read if read is None
                         or read.ssb_id != event.ssb_id else prior_read)
                if other is not None and _before(event, other):
                    problems.append(
                        "rule 1-b: first read sts=%d (ssb %d) must precede "
                        "commit ets=%d (ssb %d)"
                        % (other.sts, other.ssb_id, event.ets, event.ssb_id))
                if commit is None or _before(commit, event):
                    commit, prior_commit = event, commit
                elif prior_commit is None or _before(prior_commit, event):
                    prior_commit = event
        # Rule (2): write order within each SSB is FIFO.
        for ssb_id, ssb_writes in self.writes.items():
            indexed = sorted(ssb_writes, key=_replay_order)
            indices = [e.write_index for e in indexed]
            if indices != sorted(indices):
                problems.append("rule 2: writes of ssb %d replayed out of "
                                "order: %s" % (ssb_id, indices))
        # Sanity: a commit never precedes its own first read or writes.
        for ssb_id, end in commits.items():
            start = first_reads.get(ssb_id)
            if start is not None and not _before(start, end):
                problems.append("ssb %d committed before its first read"
                                % ssb_id)
        return problems


# ---------------------------------------------------------------------------
# consistency (Theorem 2)
# ---------------------------------------------------------------------------

def _latest_state(tenant: "TenantDatabase"
                  ) -> Dict[str, Dict[Hashable, "Image"]]:
    """table -> key -> latest committed image (tombstones skipped)."""
    return {name: dict(table.latest_rows())
            for name, table in tenant.tables.items()}


def _items(schema: "TableSchema", row: Optional["Image"]
           ) -> Optional[Tuple]:
    """A row as its sorted items: how a difference names it."""
    return None if row is None else tuple(sorted(schema.row(row).items()))


def _same_state(master: "TenantDatabase",
                slave: "TenantDatabase") -> bool:
    """Whether both tenants hold the same tables and, in each, the same
    key -> latest image map: every master row is the slave's row under
    its key, and the live-row counts agree.  Copies neither state."""
    if master.tables.keys() != slave.tables.keys():
        return False
    for name, table in master.tables.items():
        other = slave.tables[name]
        rows = 0
        for key, row in table.latest_rows():
            found = other.latest(key)
            if found is not row and found != row:
                return False
            rows += 1
        if rows != other.live_row_count():
            return False
    return True


def states_equal(master: "TenantDatabase",
                 slave: "TenantDatabase") -> Tuple[bool, List[str]]:
    """Compare the logical states of two tenants (Theorem 2 check).

    Returns (equal, differences); differences name the first few
    mismatching tables/keys for debuggability.

    Snapshot-equivalence is equality of the key -> row maps, so equal
    states -- every handover of a correct run -- are settled by one
    walk that probes the slave per master key and allocates nothing per
    row; only states that differ pay for copying both and the sorted
    walk that names the differences.
    """
    if _same_state(master, slave):
        return True, []
    master_state, slave_state = _latest_state(master), _latest_state(slave)
    differences: List[str] = []
    for table in sorted(set(master_state) | set(slave_state)):
        m_rows = master_state.get(table)
        s_rows = slave_state.get(table)
        if m_rows is None or s_rows is None:
            differences.append("table %r missing on %s"
                               % (table, "slave" if s_rows is None
                                  else "master"))
            continue
        schema = master.tables[table].schema
        keys = set(m_rows) | set(s_rows)
        for key in sorted(keys, key=repr):
            m_row = _items(schema, m_rows.get(key))
            s_row = _items(schema, s_rows.get(key))
            if m_row != s_row:
                differences.append(
                    "table %r key %r: master=%r slave=%r"
                    % (table, key, m_row, s_row))
                if len(differences) >= 20:
                    return False, differences
    return not differences, differences


# ---------------------------------------------------------------------------
# the kv ledger
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KvAudit:
    """One tenant's final ``kv`` values against its acknowledged ledger."""

    #: Acknowledged increments missing from the table.
    lost_increments: int
    #: Increments in the table that no client saw acknowledged.
    phantom_increments: int
    #: Keys whose value is below / above their acknowledged count.
    keys_below: int
    keys_above: int


def audit_kv_tenant(middleware: "Middleware", tenant: str,
                    result: "KvWorkloadResult") -> KvAudit:
    """Compare ``tenant``'s ``kv`` table on its owner with ``result``.

    Every key starts at 0 and every committed update adds 1, so a key
    must hold exactly its acknowledged increment count; a key missing
    on the owner, or deleted there, holds 0 and has lost them all.
    """
    owner = middleware.cluster.node(middleware.route(tenant)).instance
    table = owner.tenant(tenant).table("kv")
    schema = table.schema
    lost = phantom = below = above = 0
    for key, increments in result.committed_increments.items():
        image = table.latest(key)
        got = 0 if image is None else schema.row(image).get("v", 0)
        if got < increments:
            below += 1
            lost += increments - got
        elif got > increments:
            above += 1
            phantom += got - increments
    return KvAudit(lost, phantom, below, above)


# ---------------------------------------------------------------------------
# one verdict per run
# ---------------------------------------------------------------------------

@dataclass(kw_only=True)
class Verdict:
    """Whether a run was right: ``ok`` when nothing was lost, phantoms
    stayed within their allowance and both violation lists are empty."""

    #: Acknowledged increments missing from the final owner copies.
    lost_commits: int = 0
    #: Keys whose final value fell *below* the acknowledged count.
    value_mismatches: int = 0
    #: Increments beyond the acknowledged count: COMMITs that executed
    #: but whose reply died in a crashed router shard (never acked).
    phantom_increments: int = 0
    #: Their allowance: ``writes_per_txn`` times the router tier's
    #: ``acks_dropped`` counter (0 without a router tier).
    phantom_bound: int = 0
    owner_violations: List[str] = field(default_factory=list)
    migration_violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Nothing in :meth:`problems`."""
        return not self.problems()

    def problems(self) -> List[str]:
        """What makes the verdict not ok, one line each."""
        found = []
        if self.lost_commits or self.value_mismatches:
            found.append("%d acknowledged increments lost, %d keys below "
                         "their acknowledged count"
                         % (self.lost_commits, self.value_mismatches))
        if self.phantom_increments > self.phantom_bound:
            found.append("%d phantom increments exceed the bound %d"
                         % (self.phantom_increments, self.phantom_bound))
        return found + self.owner_violations + self.migration_violations


def owner_violations(middleware: "Middleware", tenants: Iterable[str],
                     where: str) -> List[str]:
    """One line per tenant that has not exactly one owner."""
    problems = []
    for tenant in tenants:
        owners = middleware.owners(tenant)
        if len(owners) != 1:
            problems.append("%s: tenant %s has owners %r"
                            % (where, tenant, owners))
    return problems


def migration_violations(reports: Iterable["MigrationReport"]
                         ) -> List[str]:
    """One line per report that ended inconsistent (the destination or a
    surviving standby) or with LSIR violations."""
    problems = []
    for report in reports:
        found = ["standby %s inconsistent" % name for name, equal
                 in sorted(report.standby_consistency.items()) if not equal]
        if report.consistent is False:
            found.insert(0, "inconsistent (%s)"
                         % "; ".join(report.inconsistencies[:3]))
        if report.lsir_violations:
            found.append("%d LSIR violations (%s)"
                         % (len(report.lsir_violations),
                            report.lsir_violations[0]))
        if found:
            problems.append("%s migration of %s %s->%s ended %s: %s"
                            % (report.policy, report.tenant,
                               report.source, report.destination,
                               report.outcome, ", ".join(found)))
    return problems


def judge(middleware: "Middleware", tenants: Iterable[str],
          ledgers: Optional[Mapping[str, "KvWorkloadResult"]] = None, *,
          phantom_bound: int = 0,
          verdict: Optional[Verdict] = None) -> Verdict:
    """The verdict on a quiesced run over ``middleware``: one owner per
    tenant of ``tenants``, each kv ledger of ``ledgers`` (tenant -> its
    clients' acknowledged increments) against the owner's table with
    ``phantom_bound`` phantoms allowed, and every report of
    ``middleware.reports``.  Adds to ``verdict`` (a fresh one by
    default), so a run that checked owners along the way keeps those
    findings."""
    verdict = Verdict() if verdict is None else verdict
    verdict.owner_violations += owner_violations(middleware, tenants,
                                                 "final")
    for tenant, ledger in (ledgers or {}).items():
        audit = audit_kv_tenant(middleware, tenant, ledger)
        verdict.lost_commits += audit.lost_increments
        verdict.value_mismatches += audit.keys_below
        verdict.phantom_increments += audit.phantom_increments
    verdict.phantom_bound = phantom_bound
    verdict.migration_violations += migration_violations(middleware.reports)
    return verdict
