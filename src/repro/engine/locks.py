"""Row write locks implementing the first-updater-wins rule.

Section 2.3 of the paper: when transaction ``T_i`` updates item ``x`` it
takes a write lock.  A concurrent ``T_j`` attempting to update ``x`` blocks
behind the lock; if ``T_i`` then commits, ``T_j`` aborts; if ``T_i``
aborts, ``T_j`` proceeds.  If ``T_i`` already committed before ``T_j``'s
attempt (i.e. the newest committed version postdates ``T_j``'s snapshot),
``T_j`` aborts immediately without waiting for its own commit.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Hashable, Tuple

from ..errors import TransactionAborted
from ..sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment
    from .transaction import Transaction

LockKey = Tuple[str, Hashable]  # (table name, primary key)


class _LockEntry:
    __slots__ = ("owner", "waiters")

    def __init__(self, owner: "Transaction"):
        self.owner = owner
        self.waiters: Deque[Tuple["Transaction", Event]] = deque()


class LockTable:
    """Per-tenant write locks with first-updater-wins conflict handling."""

    def __init__(self, env: "Environment"):
        self.env = env
        self._entries: Dict[LockKey, _LockEntry] = {}
        # statistics
        self.conflicts = 0
        self.wait_aborts = 0

    def holder(self, key: LockKey):
        """The transaction currently holding ``key``'s lock, or None."""
        entry = self._entries.get(key)
        return entry.owner if entry is not None else None

    def try_acquire(self, txn: "Transaction", key: LockKey) -> Event:
        """Claim the write lock on ``key`` for ``txn``.

        Returns an event: it succeeds when the lock is granted and *fails*
        with :class:`TransactionAborted` if a concurrent holder commits
        first (first-updater-wins).  Re-acquiring a held lock succeeds
        immediately.
        """
        event = Event(self.env)
        entry = self._entries.get(key)
        if entry is None:
            self._entries[key] = _LockEntry(txn)
            txn.held_locks.add(key)
            event.succeed()
        elif entry.owner is txn:
            event.succeed()
        else:
            self.conflicts += 1
            txn.waiting_on = key
            entry.waiters.append((txn, event))
        return event

    def release_all(self, txn: "Transaction", committed: bool) -> None:
        """Release every lock ``txn`` holds.

        ``committed=True`` aborts all waiters (the first updater won);
        ``committed=False`` hands each lock to its oldest waiter.
        Also withdraws ``txn`` from any wait queue it is parked in.
        """
        for key in list(txn.held_locks):
            entry = self._entries.get(key)
            if entry is None or entry.owner is not txn:
                continue
            if committed:
                self._abort_waiters(entry)
                del self._entries[key]
            else:
                self._grant_next(key, entry)
        txn.held_locks.clear()
        if txn.waiting_on is not None:
            self._withdraw(txn)

    def _abort_waiters(self, entry: _LockEntry) -> None:
        while entry.waiters:
            waiter, event = entry.waiters.popleft()
            waiter.waiting_on = None
            self.wait_aborts += 1
            event.fail(TransactionAborted(
                "first-updater-wins: concurrent writer committed first"))

    def _grant_next(self, key: LockKey, entry: _LockEntry) -> None:
        if not entry.waiters:
            del self._entries[key]
            return
        waiter, event = entry.waiters.popleft()
        entry.owner = waiter
        waiter.waiting_on = None
        waiter.held_locks.add(key)
        event.succeed()

    def _withdraw(self, txn: "Transaction") -> None:
        key = txn.waiting_on
        txn.waiting_on = None
        entry = self._entries.get(key)
        if entry is None:
            return
        remaining = deque((t, e) for t, e in entry.waiters if t is not txn)
        entry.waiters = remaining

    def lock_count(self) -> int:
        """Number of currently held locks."""
        return len(self._entries)

    def waiter_count(self) -> int:
        """Number of transactions parked behind locks."""
        return sum(len(e.waiters) for e in self._entries.values())
