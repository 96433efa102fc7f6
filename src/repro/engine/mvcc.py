"""Multi-version storage: version chains with snapshot visibility.

Each (table, primary key) slot holds a :class:`VersionChain` of committed
versions tagged with the commit sequence number (CSN) that installed them.
A transaction reading at snapshot ``s`` sees the newest version whose CSN
is ``<= s`` — exactly the SI read rule of Section 1 of the paper: the
transaction "detects all the changes made by other transactions committed
before [it] starts" and nothing committed later.

Uncommitted writes never enter a chain; they live in the writing
transaction's private write set until commit installs them atomically.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Tuple

Row = Dict[str, Any]


class VersionChain:
    """Committed versions of one row, ascending by CSN.

    A version value of ``None`` is a tombstone (the row was deleted).
    """

    __slots__ = ("csns", "rows")

    def __init__(self) -> None:
        self.csns: List[int] = []
        self.rows: List[Optional[Row]] = []

    def install(self, csn: int, row: Optional[Row]) -> None:
        """Append the version committed at ``csn`` (must be the newest)."""
        if self.csns and csn <= self.csns[-1]:
            raise ValueError("non-monotonic CSN %d after %d"
                             % (csn, self.csns[-1]))
        self.csns.append(csn)
        self.rows.append(row)

    def read(self, snapshot_csn: int) -> Optional[Row]:
        """Newest version visible at ``snapshot_csn`` (None if absent)."""
        csns = self.csns
        if not csns:
            return None
        # Read-latest fast path: most reads run at a snapshot at or past
        # the newest committed version, so skip the binary search.
        if snapshot_csn >= csns[-1]:
            return self.rows[-1]
        index = bisect.bisect_right(csns, snapshot_csn) - 1
        if index < 0:
            return None
        return self.rows[index]

    def latest(self) -> Optional[Row]:
        """The newest committed version regardless of snapshots."""
        return self.rows[-1] if self.rows else None

    def latest_csn(self) -> int:
        """CSN of the newest committed version, 0 if none."""
        return self.csns[-1] if self.csns else 0

    def version_count(self) -> int:
        """Number of committed versions in the chain."""
        return len(self.csns)

    def prune(self, horizon_csn: int) -> int:
        """Drop versions superseded before ``horizon_csn``; returns count.

        Keeps the newest version at or below the horizon (it is still
        visible to snapshots at the horizon) plus everything newer.  This
        is the vacuum analogue; nothing in the engine calls it yet
        (ROADMAP direction 1's bounded-memory audit will).
        """
        keep_from = bisect.bisect_right(self.csns, horizon_csn) - 1
        if keep_from <= 0:
            return 0
        del self.csns[:keep_from]
        del self.rows[:keep_from]
        return keep_from


class SecondaryIndex:
    """A non-unique index over the *latest committed* versions.

    The executor uses it to find candidate primary keys, then re-checks
    visibility and the predicate against the reader's snapshot, mirroring
    how a btree probe is followed by a heap visibility check.
    """

    __slots__ = ("column", "entries")

    def __init__(self, column: str):
        self.column = column
        self.entries: Dict[Any, set] = {}

    def add(self, value: Any, key: Any) -> None:
        """Index ``key`` under ``value``."""
        self.entries.setdefault(value, set()).add(key)

    def remove(self, value: Any, key: Any) -> None:
        """Drop ``key`` from ``value``'s posting set, if present."""
        keys = self.entries.get(value)
        if keys is None:
            return
        keys.discard(key)
        if not keys:
            del self.entries[value]

    def lookup(self, value: Any) -> Tuple[Any, ...]:
        """Candidate primary keys whose latest version had ``value``."""
        return tuple(self.entries.get(value, ()))

    def entry_count(self) -> int:
        """Total number of (value, key) postings."""
        return sum(len(keys) for keys in self.entries.values())
