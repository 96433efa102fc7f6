"""Executable form of the paper's theory (Sections 2-3 and the appendix).

This module turns the paper's definitions into checkable artefacts:

* the six transactional dependency types (Definition 1 + intra/inter),
* recorded histories (via the engine's observer hook),
* dependency extraction over a history,
* the mapping function's output contract (Definition 2),
* an LSIR schedule validator (Definition 3): given the (STS, ETS) tags of
  syncsets and the observed slave replay schedule, check rules (1-a),
  (1-b), and (2), and
* the master/slave state-equality check behind Theorem 2.

Every B-CON / Madeus migration checks its conductor's replay schedule
against the LSIR and the two nodes' states at handover; the test suite
also checks that schedules violating the LSIR are detected.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..engine.database import TenantDatabase
from ..engine.instance import Observer
from ..engine.mvcc import Row
from ..engine.transaction import Transaction


class DependencyType(enum.Enum):
    """The six dependency types of Section 2.2."""

    INTRA_WR = "intra-wr"
    INTER_WR = "inter-wr"
    INTRA_RW = "intra-rw"
    INTER_RW = "inter-rw"
    INTRA_WW = "intra-ww"
    INTER_WW = "inter-ww"


#: Dependencies the slave must replay (Lemma 3).
NECESSARY_DEPENDENCIES = frozenset({
    DependencyType.INTER_WR,
    DependencyType.INTER_RW,
    DependencyType.INTRA_RW,
    DependencyType.INTRA_WW,
})

#: Dependencies the slave may discard (Lemmas 1 and 2).
UNNECESSARY_DEPENDENCIES = frozenset({
    DependencyType.INTER_WW,
    DependencyType.INTRA_WR,
})


@dataclass
class RecordedOp:
    """One read or write observed by the history recorder."""

    txn_id: int
    kind: str          # "read" | "write"
    table: str
    key: Hashable
    sequence: int      # global arrival order


@dataclass
class RecordedTxn:
    """Summary of one transaction's lifetime in a history."""

    txn_id: int
    tenant: str
    snapshot_csn: Optional[int] = None
    commit_csn: Optional[int] = None
    status: str = "active"
    reads: List[RecordedOp] = field(default_factory=list)
    writes: List[RecordedOp] = field(default_factory=list)

    @property
    def is_committed_update(self) -> bool:
        """Mapping-function rule: only these produce syncsets."""
        return self.status == "committed" and bool(self.writes)


class HistoryRecorder(Observer):
    """Engine observer that captures a full history for analysis."""

    def __init__(self) -> None:
        self.transactions: Dict[int, RecordedTxn] = {}
        self._sequence = 0

    # -- Observer interface ------------------------------------------------
    def on_begin(self, txn: Transaction) -> None:
        self.transactions[txn.txn_id] = RecordedTxn(txn.txn_id, txn.tenant)

    def on_read(self, txn_id: int, table: str, key: Hashable,
                version_csn: int) -> None:
        record = self.transactions.get(txn_id)
        if record is None:
            return
        self._sequence += 1
        record.reads.append(RecordedOp(txn_id, "read", table, key,
                                       self._sequence))

    def on_write(self, txn_id: int, table: str, key: Hashable) -> None:
        record = self.transactions.get(txn_id)
        if record is None:
            return
        self._sequence += 1
        record.writes.append(RecordedOp(txn_id, "write", table, key,
                                        self._sequence))

    def on_commit(self, txn: Transaction) -> None:
        record = self.transactions.get(txn.txn_id)
        if record is None:
            return
        record.status = "committed"
        record.snapshot_csn = txn.snapshot_csn
        record.commit_csn = txn.commit_csn

    def on_abort(self, txn: Transaction) -> None:
        record = self.transactions.get(txn.txn_id)
        if record is None:
            return
        record.status = "aborted"
        record.snapshot_csn = txn.snapshot_csn

    # -- dependency extraction ----------------------------------------------
    def committed_updates(self) -> List[RecordedTxn]:
        """Committed update transactions, in commit order."""
        txns = [t for t in self.transactions.values()
                if t.is_committed_update]
        txns.sort(key=lambda t: t.commit_csn or 0)
        return txns

    def extract_dependencies(self) -> List[Tuple[DependencyType, int, int]]:
        """All dependencies among committed transactions.

        Returns (type, txn_i, txn_j) triples.  WR/WW dependencies are
        derived from commit-order adjacency of versions; RW dependencies
        from reads of versions whose successors were written by others.
        The extraction is deliberately simple (quadratic) — it is a test
        oracle, not a production path.
        """
        committed = [t for t in self.transactions.values()
                     if t.status == "committed"]
        dependencies: List[Tuple[DependencyType, int, int]] = []
        # Index writes per item in commit order.
        writers: Dict[Tuple[str, Hashable], List[RecordedTxn]] = {}
        for txn in sorted(committed, key=lambda t: t.commit_csn or 0):
            for op in txn.writes:
                writers.setdefault((op.table, op.key), []).append(txn)
        for txn in committed:
            # intra-ww: two writes of the same item within one txn
            seen: Dict[Tuple[str, Hashable], int] = {}
            for op in txn.writes:
                item = (op.table, op.key)
                if item in seen:
                    dependencies.append(
                        (DependencyType.INTRA_WW, txn.txn_id, txn.txn_id))
                seen[item] = op.sequence
            for op in txn.reads:
                item = (op.table, op.key)
                item_writers = writers.get(item, [])
                for writer in item_writers:
                    if writer.txn_id == txn.txn_id:
                        # wr or rw within one transaction
                        write_seq = min(w.sequence for w in writer.writes
                                        if (w.table, w.key) == item)
                        if write_seq < op.sequence:
                            dependencies.append((DependencyType.INTRA_WR,
                                                 txn.txn_id, txn.txn_id))
                        else:
                            dependencies.append((DependencyType.INTRA_RW,
                                                 txn.txn_id, txn.txn_id))
                        continue
                    if (writer.commit_csn is not None
                            and txn.snapshot_csn is not None):
                        if writer.commit_csn <= txn.snapshot_csn:
                            dependencies.append((DependencyType.INTER_WR,
                                                 writer.txn_id, txn.txn_id))
                        else:
                            dependencies.append((DependencyType.INTER_RW,
                                                 txn.txn_id, writer.txn_id))
        # inter-ww: consecutive writers of the same item
        for item, item_writers in writers.items():
            for earlier, later in zip(item_writers, item_writers[1:]):
                dependencies.append((DependencyType.INTER_WW,
                                     earlier.txn_id, later.txn_id))
        return dependencies


# ---------------------------------------------------------------------------
# mapping function contract (Definition 2)
# ---------------------------------------------------------------------------

def mapping_function_output(kinds: Sequence[str],
                            committed: bool,
                            is_update: bool) -> List[str]:
    """Reference implementation of Definition 2 over operation kinds.

    ``kinds`` is the master transaction's operation-kind sequence using
    labels ``first_read``/``read``/``write``/``commit``/``abort``.
    Returns the syncset's operation kinds (empty for read-only or
    aborted transactions).
    """
    if not committed or not is_update:
        return []
    output: List[str] = []
    for kind in kinds:
        if kind == "first_read":
            output.append("first_read")
        elif kind == "write":
            output.append("write")
        elif kind == "commit":
            output.append("commit")
        # later reads and aborts are discarded
    return output


# ---------------------------------------------------------------------------
# LSIR schedule validation (Definition 3)
# ---------------------------------------------------------------------------

@dataclass
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


class LsirValidator:
    """Collects one engine's slave replay events and checks them
    against the LSIR (STS / ETS are one tenant's MLC values, so each
    :class:`~repro.core.propagation.Conductor` owns one)."""

    def __init__(self) -> None:
        self.events: List[ReplayEvent] = []
        self._sequence = 0

    def record(self, ssb_id: int, sts: int, ets: int, kind: str,
               time: float, write_index: int = -1) -> None:
        """Record one replay event (called by players)."""
        self._sequence += 1
        self.events.append(ReplayEvent(ssb_id, sts, ets, kind, write_index,
                                       time, self._sequence))

    def violations(self) -> List[str]:
        """All LSIR violations in the recorded schedule (empty = valid).

        Rules (1-a) and (1-b) take one sort of the first reads and
        commits by STS / ETS, first reads ahead at a tie, and one pass:
        the commits passed have a smaller ETS, so must precede the first
        read at hand (1-a); the first reads passed have an STS no
        larger, so must precede the commit at hand (1-b).  Only the
        latest-replayed one of another SSB needs checking.
        """
        problems: List[str] = []
        first_reads: Dict[int, ReplayEvent] = {}
        commits: Dict[int, ReplayEvent] = {}
        writes: Dict[int, List[ReplayEvent]] = {}
        for event in self.events:
            if event.kind == "first_read":
                first_reads[event.ssb_id] = event
            elif event.kind == "commit":
                commits[event.ssb_id] = event
            else:
                writes.setdefault(event.ssb_id, []).append(event)
        latest: List[List[ReplayEvent]] = [[], []]  # first reads, commits
        for _value, is_commit, event in sorted(
                [(read.sts, 0, read) for read in first_reads.values()]
                + [(commit.ets, 1, commit) for commit in commits.values()],
                key=lambda item: item[:2]):
            other = next((e for e in reversed(latest[1 - is_commit])
                          if e.ssb_id != event.ssb_id), None)
            late = (other is not None
                    and _replay_order(event) < _replay_order(other))
            if late and is_commit:
                problems.append(
                    "rule 1-b: first read sts=%d (ssb %d) must precede "
                    "commit ets=%d (ssb %d)"
                    % (other.sts, other.ssb_id, event.ets, event.ssb_id))
            elif late:
                problems.append(
                    "rule 1-a: commit ets=%d (ssb %d) must precede "
                    "first read sts=%d (ssb %d)"
                    % (other.ets, other.ssb_id, event.sts, event.ssb_id))
            latest[is_commit] = sorted(latest[is_commit] + [event],
                                       key=_replay_order)[-2:]
        # Rule (2): write order within each SSB is FIFO.
        for ssb_id, ssb_writes in writes.items():
            indexed = sorted(ssb_writes, key=_replay_order)
            indices = [e.write_index for e in indexed]
            if indices != sorted(indices):
                problems.append("rule 2: writes of ssb %d replayed out of "
                                "order: %s" % (ssb_id, indices))
        # Sanity: a commit never precedes its own first read or writes.
        for ssb_id, commit in commits.items():
            read = first_reads.get(ssb_id)
            if (read is not None
                    and _replay_order(commit) <= _replay_order(read)):
                problems.append("ssb %d committed before its first read"
                                % ssb_id)
        return problems

    @property
    def is_valid(self) -> bool:
        """Whether the recorded schedule satisfies the LSIR."""
        return not self.violations()


# ---------------------------------------------------------------------------
# consistency (Theorem 2)
# ---------------------------------------------------------------------------

def _latest_state(tenant: TenantDatabase
                  ) -> Dict[str, Dict[Hashable, Row]]:
    """table -> key -> latest committed row (tombstones skipped)."""
    return {name: dict(table.latest_rows())
            for name, table in tenant.tables.items()}


def states_equal(master: TenantDatabase,
                 slave: TenantDatabase) -> Tuple[bool, List[str]]:
    """Compare the logical states of two tenants (Theorem 2 check).

    Returns (equal, differences); differences name the first few
    mismatching tables/keys for debuggability.

    Snapshot-equivalence is equality of the key -> row maps, so equal
    states -- every handover of a correct run -- are settled by one
    dict comparison; only states that differ pay for the sorted
    fingerprint walk that names the differences.
    """
    if _latest_state(master) == _latest_state(slave):
        return True, []
    master_state = master.state_fingerprint()
    slave_state = slave.state_fingerprint()
    differences: List[str] = []
    for table in sorted(set(master_state) | set(slave_state)):
        m_rows = master_state.get(table)
        s_rows = slave_state.get(table)
        if m_rows is None or s_rows is None:
            differences.append("table %r missing on %s"
                               % (table, "slave" if s_rows is None
                                  else "master"))
            continue
        keys = set(m_rows) | set(s_rows)
        for key in sorted(keys, key=repr):
            if m_rows.get(key) != s_rows.get(key):
                differences.append(
                    "table %r key %r: master=%r slave=%r"
                    % (table, key, m_rows.get(key), s_rows.get(key)))
                if len(differences) >= 20:
                    return False, differences
    return not differences, differences
