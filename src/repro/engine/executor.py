"""Statement execution against a tenant database under SI.

The executor evaluates parsed mini-SQL statements for one transaction:
reads resolve against the transaction's snapshot (own writes first),
writes follow the first-updater-wins protocol of Section 2.3 (immediate
abort when the newest committed version postdates the snapshot; queue
behind a concurrent writer's lock otherwise).

Execution methods are generators because lock acquisition can block in
simulated time; they raise :class:`TransactionAborted` on conflicts, which
the session layer converts into an engine-initiated rollback.

Rows are read and written as images (:data:`~repro.engine.mvcc.Image`):
tuples indexed by :attr:`TableSchema.positions`, where
:data:`~repro.engine.mvcc.ABSENT` marks a column the row's INSERT did
not set and reads as ``None`` (an expression naming it is an unknown
column).  INSERT builds the image straight from the statement and
UPDATE builds a new one from the visible image; committed images are
never written again, so they are shared, not copied.  SELECT hands
every client fresh dicts in schema column order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Hashable,
    List,
    Optional,
    Tuple,
)

from ..errors import SchemaError, SqlError, TransactionAborted
from .database import Table, TenantDatabase
from .mvcc import ABSENT, Image, Row, VersionChain
from .schema import TableSchema
from .sqlmini import (
    BinaryOp,
    ColumnRef,
    Comparison,
    CreateIndex,
    CreateTable,
    Delete,
    Insert,
    Literal,
    Select,
    Statement,
    Update,
)
from .transaction import Transaction

@dataclass(slots=True)
class ExecResult:
    """Outcome of one statement: result rows or an affected-row count."""

    rows: List[Row] = field(default_factory=list)
    affected: int = 0


def _evaluate(expression: Any, row: Image,
              positions: Dict[str, int]) -> Any:
    """Evaluate a SET/SELECT expression against the current row."""
    if isinstance(expression, Literal):
        return expression.value
    if isinstance(expression, ColumnRef):
        position = positions.get(expression.name)
        if position is None or row[position] is ABSENT:
            raise SqlError("unknown column %r in expression"
                           % expression.name)
        return row[position]
    if isinstance(expression, BinaryOp):
        left = _evaluate(expression.left, row, positions)
        right = _evaluate(expression.right, row, positions)
        if expression.op == "+":
            return left + right
        if expression.op == "-":
            return left - right
        if expression.op == "*":
            return left * right
        raise SqlError("unsupported operator %r" % expression.op)
    raise SqlError("unsupported expression %r" % (expression,))


def _matches(row: Image, where: Tuple[Comparison, ...],
             positions: Dict[str, int]) -> bool:
    """Whether ``row`` satisfies every conjunct of ``where`` (whose
    columns :meth:`Executor._candidates` has checked)."""
    for comparison in where:
        actual = row[positions[comparison.column]]
        expected = comparison.value
        op = comparison.op
        if actual is None or actual is ABSENT:
            return False
        if op == "=":
            ok = actual == expected
        elif op == "!=":
            ok = actual != expected
        elif op == "<":
            ok = actual < expected
        elif op == "<=":
            ok = actual <= expected
        elif op == ">":
            ok = actual > expected
        else:  # >=
            ok = actual >= expected
        if not ok:
            return False
    return True


class Executor:
    """Executes statements for transactions of one tenant database."""

    def __init__(self, database: TenantDatabase,
                 take_snapshot: Callable[[], int],
                 current_csn: Callable[[], int]):
        self.database = database
        self._take_snapshot = take_snapshot
        self._current_csn = current_csn

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    def execute(self, txn: Optional[Transaction],
                statement: Statement) -> Generator[Any, Any, ExecResult]:
        """Execute a DELETE or DDL statement; a generator that may wait
        on locks.

        The session calls :meth:`select`, :meth:`update` and
        :meth:`insert` directly (the request path's statements), so a
        statement resumes through no dispatch frame of its own.
        """
        # AST nodes are never subclassed: dispatch on the class itself.
        cls = statement.__class__
        if cls is Delete:
            return (yield from self._delete(txn, statement))
        if cls is CreateTable:
            return self._create_table(statement)
        if cls is CreateIndex:
            return self._create_index(statement)
        raise SqlError("executor cannot run %r"
                       % statement.__class__.__name__)

    # ------------------------------------------------------------------
    # snapshot handling
    # ------------------------------------------------------------------
    def _ensure_snapshot(self, txn: Transaction) -> int:
        """Implicit snapshot creation just before the first operation.

        The snapshot is taken through the instance, which holds the
        vacuum horizon at it until the transaction commits or aborts.
        """
        if txn.snapshot_csn is None:
            txn.snapshot_csn = self._take_snapshot()
        return txn.snapshot_csn

    # ------------------------------------------------------------------
    # candidate row resolution
    # ------------------------------------------------------------------
    def _candidates(self, txn: Optional[Transaction], table: Table,
                    where: Tuple[Comparison, ...]) -> List[Hashable]:
        """Candidate primary keys for a WHERE clause.

        Prefers a primary-key equality probe, then a secondary-index
        probe, then a full scan.  Own uncommitted writes are always added
        because indexes only cover committed versions.
        """
        schema = table.schema
        columns = schema.positions
        for comparison in where:
            if comparison.column not in columns:
                schema.require_column(comparison.column)  # raises
        primary_key = schema._primary_key
        keys: Optional[List[Hashable]] = None
        for comparison in where:
            if comparison.op != "=":
                continue
            if comparison.column == primary_key:
                keys = [comparison.value]
                break
        if keys is None:
            for comparison in where:
                if comparison.op != "=":
                    continue
                for index in table.indexes.values():
                    if index.column == comparison.column:
                        keys = list(index.lookup(comparison.value))
                        break
                if keys is not None:
                    break
        if keys is None:
            keys = list(table.slots.keys())
        if txn is not None:
            table_name = schema.name
            for (name, key) in txn.write_order:
                if name == table_name and key not in keys:
                    keys.append(key)
        return keys

    def _visible_row(self, txn: Optional[Transaction], table: Table,
                     key: Hashable, snapshot_csn: int) -> Optional[Image]:
        """Snapshot read of one key, honouring own uncommitted writes."""
        if txn is not None and txn.writes:
            written, value = txn.own_write((table.schema.name, key))
            if written:
                return value
        slot = table.slots.get(key)
        if slot.__class__ is VersionChain:
            return slot.read(snapshot_csn)
        return slot  # None or a frozen row, which every snapshot sees

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def select(self, txn: Optional[Transaction],
               statement: Select) -> ExecResult:
        """A snapshot read never waits, so unlike the writes it is a
        plain function (the session calls it without a generator)."""
        table = (self.database.tables.get(statement.table)
                 or self.database.table(statement.table))  # raises
        snapshot = (self._ensure_snapshot(txn) if txn is not None
                    else self._current_csn())
        schema = table.schema
        positions = schema.positions
        where = statement.where
        images: List[Image] = []
        for key in self._candidates(txn, table, where):
            row = self._visible_row(txn, table, key, snapshot)
            if row is None or not _matches(row, where, positions):
                continue
            images.append(row)
        if statement.order_by is not None:
            schema.require_column(statement.order_by)
            position = positions[statement.order_by]

            def order(image: Image) -> Tuple[bool, Any]:
                value = image[position]
                if value is ABSENT:
                    value = None
                return value is None, value
            images.sort(key=order, reverse=statement.descending)
        if statement.limit is not None:
            images = images[:statement.limit]
        columns = statement.columns
        if not columns:
            return ExecResult(rows=[schema.row(image) for image in images])
        for column in columns:
            if column not in positions:
                schema.require_column(column)  # raises
        return ExecResult(rows=[
            {column: (None if image[positions[column]] is ABSENT
                      else image[positions[column]])
             for column in columns}
            for image in images])

    # ------------------------------------------------------------------
    # write-path helpers
    # ------------------------------------------------------------------
    def _acquire_write(self, txn: Transaction, table: Table,
                       key: Hashable) -> Generator[Any, Any, None]:
        """First-updater-wins write access to (table, key).

        Raises :class:`TransactionAborted` immediately when the newest
        committed version postdates the snapshot, or later if a concurrent
        lock holder commits first.  A frozen row predates every
        snapshot, so it never does.
        """
        snapshot = self._ensure_snapshot(txn)
        slot = table.slots.get(key)
        if slot.__class__ is VersionChain and slot.latest_csn() > snapshot:
            raise TransactionAborted(
                "first-updater-wins: item already updated by a newer commit")
        lock_key = (table.schema.name, key)
        grant = self.database.locks.try_acquire(txn, lock_key)
        if not grant.env.take(grant):
            yield grant  # may raise TransactionAborted via event failure
        # Re-check after a wait: the previous holder must have aborted, so
        # the newest committed version is unchanged, but be defensive.
        slot = table.slots.get(key)
        if slot.__class__ is VersionChain and slot.latest_csn() > snapshot:
            raise TransactionAborted(
                "first-updater-wins: newer version appeared while waiting")

    # ------------------------------------------------------------------
    # UPDATE / DELETE / INSERT
    # ------------------------------------------------------------------
    def update(self, txn: Optional[Transaction],
               statement: Update) -> Generator[Any, Any, ExecResult]:
        if txn is None:
            raise SqlError("UPDATE requires a transaction")
        table = (self.database.tables.get(statement.table)
                 or self.database.table(statement.table))  # raises
        snapshot = self._ensure_snapshot(txn)
        positions = table.schema.positions
        places = []
        for column, expression in statement.assignments:
            position = positions.get(column)
            if position is None:
                table.schema.require_column(column)  # raises
            places.append((position, expression))
        affected = 0
        for key in self._candidates(txn, table, statement.where):
            row = self._visible_row(txn, table, key, snapshot)
            if row is None or not _matches(row, statement.where, positions):
                continue
            yield from self._acquire_write(txn, table, key)
            new_row = list(row)
            for position, expression in places:
                new_row[position] = _evaluate(expression, row, positions)
            txn.record_write((statement.table, key), tuple(new_row))
            affected += 1
        return ExecResult(affected=affected)

    def _delete(self, txn: Optional[Transaction],
                statement: Delete) -> Generator[Any, Any, ExecResult]:
        if txn is None:
            raise SqlError("DELETE requires a transaction")
        table = self.database.table(statement.table)
        snapshot = self._ensure_snapshot(txn)
        affected = 0
        positions = table.schema.positions
        for key in self._candidates(txn, table, statement.where):
            row = self._visible_row(txn, table, key, snapshot)
            if row is None or not _matches(row, statement.where, positions):
                continue
            yield from self._acquire_write(txn, table, key)
            txn.record_write((statement.table, key), None)
            affected += 1
        return ExecResult(affected=affected)

    def insert(self, txn: Optional[Transaction],
               statement: Insert) -> Generator[Any, Any, ExecResult]:
        if txn is None:
            raise SqlError("INSERT requires a transaction")
        table = (self.database.tables.get(statement.table)
                 or self.database.table(statement.table))  # raises
        snapshot = self._ensure_snapshot(txn)
        schema = table.schema
        positions = schema.positions
        row = [ABSENT] * len(positions)
        for column, value in zip(statement.columns, statement.values):
            position = positions.get(column)
            if position is None:
                schema.require_column(column)  # raises
            row[position] = value
        key = row[positions[schema.primary_key]]
        if key is None or key is ABSENT:
            raise SchemaError("INSERT into %r must set the primary key %r"
                              % (schema.name, schema.primary_key))
        if self._visible_row(txn, table, key, snapshot) is not None:
            raise SchemaError("duplicate primary key %r in %r"
                              % (key, schema.name))
        yield from self._acquire_write(txn, table, key)
        txn.record_write((schema.name, key), tuple(row))
        return ExecResult(affected=1)

    # ------------------------------------------------------------------
    # DDL (auto-committed; used by tenant setup)
    # ------------------------------------------------------------------
    def _create_table(self, statement: CreateTable) -> ExecResult:
        self.database.create_table(TableSchema(statement.table,
                                               statement.columns))
        return ExecResult(affected=0)

    def _create_index(self, statement: CreateIndex) -> ExecResult:
        table = self.database.table(statement.table)
        table.create_index(statement.name, statement.column)
        return ExecResult(affected=0)
