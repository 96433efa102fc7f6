"""Multi-version storage: version chains with snapshot visibility.

Each (table, primary key) slot holds the committed versions of one row,
each tagged with the commit sequence number (CSN) that installed it.  A
transaction reading at snapshot ``s`` sees the newest version whose CSN
is ``<= s`` — exactly the SI read rule of Section 1 of the paper: the
transaction "detects all the changes made by other transactions committed
before [it] starts" and nothing committed later.

Uncommitted writes never enter a slot; they live in the writing
transaction's private write set until commit installs them atomically.

Versions no snapshot can see any more are dropped: every install prunes
its row to the instance's vacuum horizon, the oldest snapshot still
held (:meth:`~repro.engine.instance.DbmsInstance.prune_horizon`), and
an install above the horizon is pruned again once the horizon passes
it (the instance's freeze FIFO).  A row therefore holds the newest
version at or below the horizon plus the versions committed after it,
however long the run.

A row left with one version at or below the horizon, not a tombstone,
is *frozen*, PostgreSQL's rule for a tuple older than every live
snapshot (Ports & Grittner): its slot holds the bare image, no
:class:`VersionChain`, and every snapshot reads it.  An install onto a
frozen slot thaws it into a chain whose older version is stamped at
:data:`FROZEN_CSN`, at or below every horizon a frozen row can exist
under.  Tombstones stay chains.

A committed row image is an :data:`Image`: a plain tuple of the row's
values in its table's schema column order
(:attr:`~repro.engine.schema.TableSchema.positions` maps a column to its
place).  A column the row's INSERT did not set holds :data:`ABSENT`,
which every reader takes for ``None``; ``SELECT *`` leaves it out.  A
tuple cannot be written in place, so the snapshot paths share images
between tenant copies instead of copying them; what clients see is
a :data:`Row` dict the executor builds per result.  Most rows have one
version and one key per index value, and the structures below are
laid out for that case (DESIGN.md §4b item 10).
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple, Union

#: A row as a client sees it: column name -> value.
Row = Dict[str, Any]
#: A committed row as the heap stores it: values in schema column order.
Image = Tuple[Any, ...]


class _Absent:
    """The type of :data:`ABSENT` (one instance)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "ABSENT"


#: What an image holds for a column its INSERT did not set, and the
#: ``dict.get`` default no stored posting can be (keys are never it).
ABSENT = _Absent()

#: The CSN a frozen version reads as: the first one
#: :meth:`DbmsInstance.next_csn` hands out, so at or below every
#: snapshot that can be live while a frozen row exists.
FROZEN_CSN = 1


class VersionChain:
    """Committed versions of one row, ascending by CSN.

    A version value of ``None`` is a tombstone (the row was deleted).
    CSNs are positive (:meth:`DbmsInstance.next_csn` counts from 1): an
    empty chain reports ``latest_csn() == 0`` and every install must
    exceed the newest CSN.  The newest version is the ``_csn`` /
    ``_row`` pair; older versions, oldest first, fill the parallel
    ``_old_csns`` / ``_old_rows`` lists, which are ``None`` until a
    second version arrives.  ``VersionChain(FROZEN_CSN, image)`` is a
    frozen row's one version as a chain.
    """

    __slots__ = ("_csn", "_row", "_old_csns", "_old_rows")

    def __init__(self, csn: int = 0, row: Optional[Image] = None) -> None:
        self._csn = csn
        self._row = row
        self._old_csns: Optional[List[int]] = None
        self._old_rows: Optional[List[Optional[Image]]] = None

    def install(self, csn: int, row: Optional[Image]) -> None:
        """Append the version committed at ``csn`` (must be the newest)."""
        if csn <= self._csn:
            raise ValueError("non-monotonic CSN %d after %d"
                             % (csn, self._csn))
        if self._csn:
            if self._old_csns is None:
                self._old_csns = [self._csn]
                self._old_rows = [self._row]
            else:
                self._old_csns.append(self._csn)
                self._old_rows.append(self._row)
        self._csn = csn
        self._row = row

    def read(self, snapshot_csn: int) -> Optional[Image]:
        """Newest version visible at ``snapshot_csn`` (None if absent)."""
        # Read-latest fast path: most reads run at a snapshot at or past
        # the newest committed version (an empty chain's is 0).
        if snapshot_csn >= self._csn:
            return self._row
        csns = self._old_csns
        if csns is None:
            return None
        index = bisect.bisect_right(csns, snapshot_csn) - 1
        if index < 0:
            return None
        return self._old_rows[index]

    def latest(self) -> Optional[Image]:
        """The newest committed version regardless of snapshots."""
        return self._row

    def latest_csn(self) -> int:
        """CSN of the newest committed version, 0 if none."""
        return self._csn

    def version_count(self) -> int:
        """Number of committed versions in the chain."""
        if self._old_csns is None:
            return 1 if self._csn else 0
        return len(self._old_csns) + 1

    def prune(self, horizon_csn: int) -> int:
        """Drop versions superseded before ``horizon_csn``; returns count.

        Keeps the newest version at or below the horizon (it is still
        visible to snapshots at the horizon) plus everything newer.  This
        is the vacuum analogue; :meth:`vacuum` runs it.
        """
        csns = self._old_csns
        if csns is None:
            return 0
        if horizon_csn >= self._csn:
            keep_from = len(csns)
        else:
            keep_from = bisect.bisect_right(csns, horizon_csn) - 1
        if keep_from <= 0:
            return 0
        if keep_from == len(csns):
            self._old_csns = self._old_rows = None
        else:
            del csns[:keep_from]
            del self._old_rows[:keep_from]
        return keep_from

    def vacuum(self, horizon_csn: int) -> Optional[Image]:
        """:meth:`prune` to ``horizon_csn``; then the image to freeze.

        That is the one version left when it is at or below the horizon
        and not a tombstone (every snapshot sees it), else ``None``.
        :meth:`Table.install <repro.engine.database.Table.install>` and
        :meth:`Table.settle <repro.engine.database.Table.settle>` call
        it with the instance's horizon.
        """
        self.prune(horizon_csn)
        if self._old_csns is None and self._csn <= horizon_csn:
            return self._row
        return None


class SecondaryIndex:
    """A non-unique index over the *latest committed* versions.

    The executor uses it to find candidate primary keys, then re-checks
    visibility and the predicate against the reader's snapshot, mirroring
    how a btree probe is followed by a heap visibility check.
    """

    __slots__ = ("column", "entries")

    def __init__(self, column: str):
        self.column = column
        #: value -> posting.  A posting is the one key indexed under the
        #: value until a second key arrives; then it is a ``set`` that
        #: stays a set even when it shrinks back to one key, so
        #: :meth:`lookup` keeps the set's iteration order.  Keys are
        #: hashable, so a key is never a ``set``.
        self.entries: Dict[Any, Union[Hashable, Set[Hashable]]] = {}

    def add(self, value: Any, key: Any) -> None:
        """Index ``key`` under ``value``."""
        entries = self.entries
        posting = entries.get(value, ABSENT)
        if posting is ABSENT:
            entries[value] = key
        elif posting.__class__ is set:
            posting.add(key)
        elif posting is not key and posting != key:
            entries[value] = {posting, key}

    def remove(self, value: Any, key: Any) -> None:
        """Drop ``key`` from ``value``'s posting, if present."""
        entries = self.entries
        posting = entries.get(value, ABSENT)
        if posting.__class__ is set:
            posting.discard(key)
            if not posting:
                del entries[value]
        elif posting is not ABSENT and (posting is key or posting == key):
            del entries[value]

    def lookup(self, value: Any) -> Tuple[Any, ...]:
        """Candidate primary keys whose latest version had ``value``."""
        posting = self.entries.get(value, ABSENT)
        if posting.__class__ is set:
            return tuple(posting)
        if posting is ABSENT:
            return ()
        return (posting,)

    def entry_count(self) -> int:
        """Total number of (value, key) postings."""
        return sum(len(posting) if posting.__class__ is set else 1
                   for posting in self.entries.values())
