"""Syncset buffers (SSB) and the syncset list (SSL) — Figures 3 and 4.

An SSB belongs to one transaction: it stores the start timestamp (STS,
the MLC value when the first read executed), the end timestamp (ETS, the
MLC value when the commit executed), and the syncset entries — the
minimum query set produced by the mapping function — in a FIFO queue, so
write order (LSIR rule 2) is preserved by construction.

The SSL groups committed SSBs by STS: all SSBs sharing an STS may have
their first reads propagated concurrently (Section 4.1).  It also tracks
*open* SSBs (allocated at first read, not yet committed) so the conductor
never advances the SLC past a still-running transaction's snapshot point —
the invariant the consistency proof (Appendix D) relies on.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Deque, Dict, List, Optional, Set

from .operations import Operation, OpKind


class SyncsetBuffer:
    """One transaction's syncset: STS, ETS, and FIFO operation entries."""

    _ids = itertools.count(1)

    __slots__ = ("ssb_id", "sts", "ets", "entries", "txn_label",
                 "linked_at", "propagated_at")

    def __init__(self, sts: int, txn_label: Optional[int] = None):
        self.ssb_id: int = next(SyncsetBuffer._ids)
        self.sts = sts
        self.ets: Optional[int] = None
        self.entries: Deque[Operation] = deque()
        self.txn_label = txn_label
        self.linked_at: Optional[float] = None
        self.propagated_at: Optional[float] = None

    def save(self, operation: Operation) -> None:
        """Append one operation (FIFO, preserving write order)."""
        self.entries.append(operation)

    @property
    def first_operation(self) -> Operation:
        """The snapshot-creating first operation."""
        if not self.entries:
            raise ValueError("empty SSB %d" % self.ssb_id)
        return self.entries[0]

    @property
    def write_operations(self) -> List[Operation]:
        """The write operations, in original order."""
        return [op for op in self.entries if op.kind == OpKind.WRITE]

    @property
    def commit_operation(self) -> Operation:
        """The trailing commit operation."""
        if not self.entries or self.entries[-1].kind != OpKind.COMMIT:
            raise ValueError("SSB %d has no commit entry" % self.ssb_id)
        return self.entries[-1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return ("<SSB %d sts=%s ets=%s ops=%d>"
                % (self.ssb_id, self.sts, self.ets, len(self.entries)))


class SyncsetList:
    """The SSL: committed SSBs grouped by STS, plus open-SSB tracking."""

    def __init__(self) -> None:
        self._by_sts: Dict[int, List[SyncsetBuffer]] = {}
        #: A transaction is open once, however many slaves replay it:
        #: a standby's list shares this set with its primary's
        #: (:meth:`standby`).
        self._open: Set[SyncsetBuffer] = set()
        # statistics
        self.linked_total = 0

    def standby(self) -> "SyncsetList":
        """A list for a standby slave created mid-migration: it shares
        this list's open set and starts with a copy of its backlog."""
        other = SyncsetList()
        other._open = self._open
        for group in self._by_sts.values():
            for ssb in group:
                other._by_sts.setdefault(ssb.sts, []).append(ssb)
                other.linked_total += 1
        return other

    # ------------------------------------------------------------------
    # open-SSB lifecycle (allocated at first read; resolved at txn end)
    # ------------------------------------------------------------------
    def register_open(self, ssb: SyncsetBuffer) -> None:
        """Track an allocated, not-yet-committed SSB."""
        self._open.add(ssb)

    def resolve_open(self, ssb: SyncsetBuffer) -> None:
        """Forget an open SSB (its transaction ended)."""
        self._open.discard(ssb)

    def open_count(self) -> int:
        """Number of transactions with allocated, uncommitted SSBs."""
        return len(self._open)

    # ------------------------------------------------------------------
    # linked SSBs
    # ------------------------------------------------------------------
    def link(self, ssb: SyncsetBuffer, now: float) -> None:
        """Link a committed SSB (Algorithm 1 line 24)."""
        if ssb.ets is None:
            raise ValueError("cannot link SSB %d without an ETS"
                             % ssb.ssb_id)
        ssb.linked_at = now
        self._by_sts.setdefault(ssb.sts, []).append(ssb)
        self.linked_total += 1

    def pending_count(self) -> int:
        """Linked SSBs not yet handed to players."""
        return sum(len(group) for group in self._by_sts.values())

    def is_empty(self) -> bool:
        """No linked SSBs awaiting propagation."""
        return not self._by_sts

    def smallest_sts(self) -> Optional[int]:
        """GetSmallestSTS() over linked *and open* SSBs.

        Including open SSBs is what keeps the SLC from advancing past a
        running transaction's snapshot point.
        """
        candidates: List[int] = []
        if self._by_sts:
            candidates.append(min(self._by_sts))
        if self._open:
            candidates.append(min(ssb.sts for ssb in self._open))
        return min(candidates) if candidates else None

    def smallest_linked_sts(self) -> Optional[int]:
        """Smallest STS over linked SSBs only."""
        return min(self._by_sts) if self._by_sts else None

    def open_with_sts(self, sts: int) -> int:
        """How many open SSBs have the given STS."""
        return sum(1 for ssb in self._open if ssb.sts == sts)

    def take_group(self, sts: int) -> List[SyncsetBuffer]:
        """Remove and return every linked SSB with the given STS."""
        return self._by_sts.pop(sts, [])

    def take_all(self) -> List[SyncsetBuffer]:
        """Remove and return all linked SSBs in (STS, ETS) order."""
        drained: List[SyncsetBuffer] = []
        for sts in sorted(self._by_sts):
            drained.extend(sorted(self._by_sts[sts],
                                  key=lambda s: (s.ets, s.ssb_id)))
        self._by_sts.clear()
        return drained
