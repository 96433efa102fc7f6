"""The worker critical region (Algorithm 1 lines 2-9 / 17-28).

The region's invariants are stated in the algorithm's comments: while a
first read is being executed "there is no commit operation executed", and
vice versa.  Two first reads may overlap (they only read the MLC), and two
commits may overlap (each atomically tags its ETS and increments the MLC),
which is what preserves group commit on the master.  We therefore model
the region as a *class-exclusion lock*: holders of the same class share
it, holders of different classes exclude each other — a read/write-lock
generalisation.  The manager's Step-1 snapshot (Algorithm 3 lines 1-5)
enters in the commit-excluding class so the MLC cannot change while the
MTS is captured.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional, Tuple

from ..sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment

#: Class identifier for snapshot-creating first reads (and the manager's
#: MTS capture, which must also exclude commits).
FIRST_READ_CLASS = "first_read"
#: Class identifier for commit operations.
COMMIT_CLASS = "commit"


class CriticalRegion:
    """Class-exclusion lock with FIFO fairness between classes.

    Waiters queue in arrival order; when the region drains, the longest
    waiting request and every immediately following request of the same
    class are admitted together (batch grant), so neither class starves.
    """

    def __init__(self, env: "Environment", name: str = "region"):
        self.env = env
        self.name = name
        self._active_class: Optional[str] = None
        self._active_count = 0
        self._waiters: Deque[Tuple[str, Event]] = deque()
        # statistics
        self.entries = 0
        self.contended_entries = 0

    def enter(self, op_class: str) -> Optional[Event]:
        """Enter the region in ``op_class``.

        Returns None when the caller is admitted at once (no kernel
        event), otherwise the waiter event the caller must yield: it
        fires when the region admits the caller's class batch.
        """
        self.entries += 1
        if (self._active_count == 0
                or (self._active_class == op_class and not self._waiters)):
            self._active_class = op_class
            self._active_count += 1
            return None
        self.contended_entries += 1
        waiter = Event(self.env)
        self._waiters.append((op_class, waiter))
        return waiter

    def leave(self) -> None:
        """Leave the region; admits the next class batch if drained."""
        if self._active_count <= 0:
            raise RuntimeError("leave() on an empty critical region %r"
                               % self.name)
        self._active_count -= 1
        if self._active_count == 0:
            self._active_class = None
            self._admit_batch()

    def _admit_batch(self) -> None:
        if not self._waiters:
            return
        head_class, _head_event = self._waiters[0]
        self._active_class = head_class
        while self._waiters and self._waiters[0][0] == head_class:
            _cls, event = self._waiters.popleft()
            self._active_count += 1
            event.succeed()

    @property
    def busy(self) -> bool:
        """Whether any holder is inside the region."""
        return self._active_count > 0
