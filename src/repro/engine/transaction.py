"""Transaction objects with snapshot-isolation state.

A :class:`Transaction` carries its snapshot CSN (assigned lazily, just
before its first operation executes — Section 3.1 of the paper assumes this
realistic implicit snapshot creation), its private write set and the
locks it holds.
"""

from __future__ import annotations

import enum
import itertools
from typing import Dict, Hashable, List, Optional, Set, Tuple

from ..errors import InvalidTransactionState
from .mvcc import Image

LockKey = Tuple[str, Hashable]


class TxnStatus(enum.Enum):
    """Lifecycle states of a transaction."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """One client transaction executing on a tenant database under SI."""

    _ids = itertools.count(1)

    __slots__ = ("txn_id", "tenant", "status", "snapshot_csn", "commit_csn",
                 "writes", "write_order", "held_locks", "waiting_on",
                 "started_at", "finished_at")

    def __init__(self, tenant: str, started_at: float):
        self.txn_id: int = next(Transaction._ids)
        self.tenant = tenant
        self.status = TxnStatus.ACTIVE
        #: CSN of the snapshot read by this transaction; None until the
        #: first operation executes (implicit snapshot creation).
        self.snapshot_csn: Optional[int] = None
        #: CSN assigned at commit (update transactions only).
        self.commit_csn: Optional[int] = None
        #: (table, key) -> latest uncommitted row image (None = delete).
        self.writes: Dict[LockKey, Optional[Image]] = {}
        #: Keys in first-write order, for deterministic install order.
        self.write_order: List[LockKey] = []
        self.held_locks: Set[LockKey] = set()
        self.waiting_on: Optional[LockKey] = None
        self.started_at = started_at
        self.finished_at: Optional[float] = None

    # ------------------------------------------------------------------
    @property
    def is_active(self) -> bool:
        """Whether the transaction can still execute operations."""
        return self.status == TxnStatus.ACTIVE

    @property
    def is_update(self) -> bool:
        """Whether the transaction has written anything so far."""
        return bool(self.writes)

    def require_active(self) -> None:
        """Raise unless the transaction is still active."""
        if self.status != TxnStatus.ACTIVE:
            raise InvalidTransactionState(
                "transaction %d is %s" % (self.txn_id, self.status.value))

    # ------------------------------------------------------------------
    def record_write(self, key: LockKey, row: Optional[Image]) -> None:
        """Buffer an uncommitted write of ``key``."""
        if key not in self.writes:
            self.write_order.append(key)
        self.writes[key] = row

    def own_write(self, key: LockKey) -> Tuple[bool, Optional[Image]]:
        """(has_written, value) for reads that must see own writes."""
        if key in self.writes:
            return True, self.writes[key]
        return False, None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return ("<Txn %d %s tenant=%s snap=%s writes=%d>"
                % (self.txn_id, self.status.value, self.tenant,
                   self.snapshot_csn, len(self.writes)))
