"""Client sessions: the statement-at-a-time interface to an instance.

A :class:`Session` is what a connection looks like to a client (or to the
middleware, which holds one master-side session per customer connection
and slave-side sessions inside its players).  It tracks the current
transaction, routes BEGIN/COMMIT/ROLLBACK, converts engine-initiated
aborts into error results, and accepts raw SQL text or pre-parsed ASTs.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Union

from ..errors import NodeCrashed, SchemaError, SqlError, TransactionAborted
from .instance import BASE_STATEMENT_CPU, END_CPU, PER_ROW_CPU, DbmsInstance
from .mvcc import Row
from .sqlmini import (
    Begin,
    Commit,
    Insert,
    Rollback,
    Select,
    Statement,
    Update,
    parse,
)
from .transaction import Transaction, TxnStatus

_ACTIVE = TxnStatus.ACTIVE


class SessionResult:
    """Outcome of one statement as seen by the client.

    ``kind`` is ``"rows"``, ``"affected"``, ``"ok"`` or ``"error"``;
    ``ok`` (whether the statement succeeded) is derived from it once,
    at construction, because every layer above reads it.
    """

    __slots__ = ("kind", "rows", "affected", "error", "commit_csn", "ok")

    def __init__(self, kind: str, rows: Optional[List[Row]] = None,
                 affected: int = 0, error: Optional[str] = None,
                 commit_csn: Optional[int] = None):
        self.kind = kind
        self.rows: List[Row] = [] if rows is None else rows
        self.affected = affected
        self.error = error
        self.commit_csn = commit_csn
        self.ok = kind != "error"

    def __repr__(self) -> str:
        return ("SessionResult(kind=%r, rows=%r, affected=%r, error=%r, "
                "commit_csn=%r)" % (self.kind, self.rows, self.affected,
                                    self.error, self.commit_csn))

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.kind, self.rows, self.affected, self.error,
                 self.commit_csn)
                == (other.kind, other.rows, other.affected, other.error,
                    other.commit_csn))


class Session:
    """One client connection to a tenant on a DBMS instance."""

    def __init__(self, instance: DbmsInstance, tenant_name: str):
        self.instance = instance
        self.tenant_name = tenant_name
        self.txn: Optional[Transaction] = None
        # statistics
        self.statements = 0
        self.aborts_seen = 0

    # ------------------------------------------------------------------
    @property
    def in_transaction(self) -> bool:
        """Whether an explicit transaction is open."""
        return self.txn is not None and self.txn.is_active

    def execute(self, statement: Union[str, Statement],
                cpu_cost: Optional[float] = None
                ) -> Generator[Any, Any, SessionResult]:
        """Run one statement; never raises for transaction conflicts.

        Engine-initiated aborts (first-updater-wins) surface as an
        ``error`` result after the transaction has been rolled back, like
        a PostgreSQL ``ERROR: could not serialize access``.

        This is the one engine generator a statement resumes through:
        its CPU grant, service time, per-row CPU, lock waits and (for a
        COMMIT) WAL flush are all waited here, around the instance's
        non-waiting :meth:`~DbmsInstance.admit` and
        :meth:`~DbmsInstance.finish_commit`.  CPU is held for the
        service time and released *before* any lock wait, so a
        transaction blocked on a row lock does not occupy a core.
        """
        if isinstance(statement, str):
            try:
                statement = parse(statement)
            except SqlError as exc:
                return SessionResult(kind="error", error=str(exc))
        self.statements += 1
        # AST nodes are never subclassed: dispatch on the class itself.
        cls = statement.__class__
        if cls is Begin:
            return self._begin()
        if cls is Rollback:
            return self._rollback()
        instance = self.instance
        txn = self.txn
        if cls is Commit:
            if txn is None or txn.status is not _ACTIVE:
                return SessionResult(kind="error",
                                     error="no transaction in progress")
            try:
                if instance.crashed:
                    instance._require_up()  # raises
                core = instance.cpu.request()
                if not core.processed:
                    yield core
                wait = instance.env.hold(END_CPU)
                if wait is not None:
                    yield wait
                instance.cpu.release(core)
                if txn.writes:
                    # Durability first: wait for the (possibly grouped)
                    # WAL flush; the CPU wait may have straddled a crash.
                    if instance.crashed:
                        instance._require_up()  # raises
                    yield instance.wal.commit()
                csn = instance.finish_commit(txn)
            except NodeCrashed as exc:
                self._drop_dead_txn()
                return SessionResult(kind="error", error=str(exc))
            self.txn = None
            return SessionResult(kind="ok", commit_csn=csn)
        try:
            executor = instance.admit(txn, self.tenant_name)
            env = instance.env
            core = instance.cpu.request()
            if not core.processed:
                yield core
            wait = env.hold(
                BASE_STATEMENT_CPU if cpu_cost is None else cpu_cost)
            if wait is not None:
                yield wait
            instance.cpu.release(core)
            instance.statements_executed += 1
            if instance._m_statements is not None:
                instance._m_statements.inc()
            if cls is Select:
                result = executor.select(txn, statement)  # cannot wait
            elif cls is Update:
                result = yield from executor.update(txn, statement)
            elif cls is Insert:
                result = yield from executor.insert(txn, statement)
            else:
                result = yield from executor.execute(txn, statement)
            extra = PER_ROW_CPU * (len(result.rows) + result.affected)
            if extra > 0:
                wait = env.hold(extra)
                if wait is not None:
                    yield wait
        except TransactionAborted as exc:
            self.aborts_seen += 1
            if self.txn is not None:
                instance.abort(self.txn)
                self.txn = None
            return SessionResult(kind="error", error=str(exc))
        except (SchemaError, SqlError) as exc:
            # Statement-level error: PostgreSQL would poison the txn; we
            # abort it for simplicity, which is the strictest behaviour.
            if self.txn is not None:
                instance.abort(self.txn)
                self.txn = None
            return SessionResult(kind="error", error=str(exc))
        except NodeCrashed as exc:
            # The backend died under us; the transaction died with it.
            self._drop_dead_txn()
            return SessionResult(kind="error", error=str(exc))
        if result.rows:
            return SessionResult(kind="rows", rows=result.rows)
        if result.affected:
            return SessionResult(kind="affected", affected=result.affected)
        return SessionResult(kind="rows", rows=result.rows)

    # ------------------------------------------------------------------
    def _begin(self) -> SessionResult:
        txn = self.txn
        if txn is not None and txn.status is _ACTIVE:
            return SessionResult(kind="error",
                                 error="transaction already in progress")
        try:
            self.txn = self.instance.begin(self.tenant_name)
        except NodeCrashed as exc:
            return SessionResult(kind="error", error=str(exc))
        return SessionResult(kind="ok")

    def _drop_dead_txn(self) -> None:
        """Roll back a transaction orphaned by a node crash."""
        self.aborts_seen += 1
        if self.txn is not None and self.txn.is_active:
            self.instance.abort(self.txn)
        self.txn = None

    def _rollback(self) -> SessionResult:
        if self.txn is not None and self.txn.is_active:
            self.instance.abort(self.txn)
        self.txn = None
        return SessionResult(kind="ok")

    def reset(self) -> None:
        """Abort any open transaction (connection close)."""
        if self.txn is not None and self.txn.is_active:
            self.instance.abort(self.txn)
        self.txn = None
