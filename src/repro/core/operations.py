"""The middleware's view of customer operations.

Madeus interposes on every statement a customer sends, parses it, and
classifies it into the categories the LSIR cares about: the *first read*
of a transaction (which creates the snapshot), later reads, writes,
commits, and aborts.  The classification is purely syntactic plus
per-connection transaction state — exactly what a wire-protocol proxy can
see.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Optional

from ..engine.sqlmini import (
    _WRITE_TYPES,
    Begin,
    Commit,
    Rollback,
    Select,
    Statement,
    parse,
)
from ..errors import SqlError


class OpKind(enum.Enum):
    """Middleware classification of one statement."""

    BEGIN = "begin"
    FIRST_READ = "first_read"
    READ = "read"
    WRITE = "write"
    COMMIT = "commit"
    ABORT = "abort"


@dataclass(slots=True)
class Operation:
    """One classified statement flowing through the middleware.

    ``cpu_cost`` is the execution-cost annotation carried by the workload
    template (a TPC-W best-sellers query costs more than a point lookup);
    the slave replay uses the same cost, so replaying is as expensive as
    the original execution — an assumption the paper shares.
    """

    kind: OpKind
    sql: str
    statement: Statement
    cpu_cost: Optional[float] = None
    #: middleware-assigned transaction sequence (for reports/validation)
    txn_label: Optional[int] = None


class TxnTracker:
    """Per-connection transaction-state machine for classification.

    The proxy cannot know in advance whether a transaction will turn out
    to be read-only; it therefore treats the first read of *every*
    transaction as a potential snapshot-creating first read (Algorithm 1)
    and discards the syncset buffer at commit time if no write occurred
    (the mapping function's rule (1)).
    """

    _labels = itertools.count(1)

    def __init__(self) -> None:
        self.in_txn = False
        self.saw_first_operation = False
        self.is_update = False
        self.label: Optional[int] = None

    def classify(self, statement: Statement, sql: str,
                 cpu_cost: Optional[float] = None) -> Operation:
        """Classify one statement and advance the state machine."""
        # AST nodes are never subclassed: dispatch on the class itself.
        cls = statement.__class__
        if cls is Begin:
            if self.in_txn:
                raise SqlError("nested BEGIN on one connection")
            self.in_txn = True
            self.saw_first_operation = False
            self.is_update = False
            self.label = next(TxnTracker._labels)
            return Operation(OpKind.BEGIN, sql, statement, cpu_cost,
                             self.label)
        if cls is Commit:
            label = self.label
            self._finish()
            return Operation(OpKind.COMMIT, sql, statement, cpu_cost, label)
        if cls is Rollback:
            label = self.label
            self._finish()
            return Operation(OpKind.ABORT, sql, statement, cpu_cost, label)
        if not self.in_txn:
            # Autocommit statement: treated as its own tiny transaction by
            # the caller; classification is still read/write.
            kind = OpKind.WRITE if cls in _WRITE_TYPES else OpKind.READ
            return Operation(kind, sql, statement, cpu_cost, None)
        if cls in _WRITE_TYPES:
            # "No blind writes" (Section 3.1): the workload always reads
            # first, so a write can never be the first operation.  Guard
            # anyway: a blind first write both creates the snapshot and
            # modifies data; Madeus treats it as first operation and
            # write combined.  The mapping function keeps it.
            kind = (OpKind.WRITE if self.saw_first_operation
                    else OpKind.FIRST_READ)
            self.saw_first_operation = True
            self.is_update = True
            return Operation(kind, sql, statement, cpu_cost, self.label)
        if cls is Select:
            if not self.saw_first_operation:
                self.saw_first_operation = True
                return Operation(OpKind.FIRST_READ, sql, statement,
                                 cpu_cost, self.label)
            return Operation(OpKind.READ, sql, statement, cpu_cost,
                             self.label)
        # DDL inside a transaction: classify as a write.
        self.is_update = True
        self.saw_first_operation = True
        return Operation(OpKind.WRITE, sql, statement, cpu_cost, self.label)

    def classify_text(self, sql: str,
                      cpu_cost: Optional[float] = None) -> Operation:
        """Parse then classify raw SQL text."""
        return self.classify(parse(sql), sql, cpu_cost)

    def reset(self) -> None:
        """Forget any open transaction (engine-initiated abort)."""
        self._finish()

    def _finish(self) -> None:
        self.in_txn = False
        self.saw_first_operation = False
        self.is_update = False
        self.label = None
