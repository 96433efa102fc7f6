"""Storage-engine substrate: a PostgreSQL-like DBMS, from scratch.

Multi-version concurrency control with snapshot isolation and the
first-updater-wins rule, a shared-process multi-tenant instance model, a
WAL with group commit, a periodic checkpointer, a simulated disk, and a
mini-SQL dialect with parser, executor, sessions, and logical
dump/restore.
"""

from .checkpoint import Checkpointer, CheckpointSpec
from .database import Table, TenantDatabase
from .disk import Disk, DiskSpec
from .dump import (
    LogicalSnapshot,
    SchemaSpec,
    SnapshotChunk,
    SnapshotTruncated,
    TransferRates,
    dump,
    dump_stream,
    restore,
    restore_duration,
    restore_stream,
)
from .executor import ExecResult, Executor
from .instance import DbmsInstance, Observer
from .locks import LockTable
from .mvcc import SecondaryIndex, VersionChain
from .schema import Catalog, TableSchema
from .session import Session, SessionResult
from .sqlmini import (
    AlterTable,
    Begin,
    ColumnDef,
    Commit,
    CreateIndex,
    CreateTable,
    Delete,
    Insert,
    Rollback,
    Select,
    Statement,
    Update,
    is_read_statement,
    is_write_statement,
    parse,
)
from .transaction import Transaction, TxnStatus
from .wal import WalWriter

__all__ = [
    "AlterTable",
    "Begin",
    "Catalog",
    "Checkpointer",
    "CheckpointSpec",
    "ColumnDef",
    "Commit",
    "CreateIndex",
    "CreateTable",
    "DbmsInstance",
    "Delete",
    "Disk",
    "DiskSpec",
    "ExecResult",
    "Executor",
    "Insert",
    "LockTable",
    "LogicalSnapshot",
    "Observer",
    "Rollback",
    "SchemaSpec",
    "SecondaryIndex",
    "Select",
    "Session",
    "SessionResult",
    "SnapshotChunk",
    "SnapshotTruncated",
    "Statement",
    "Table",
    "TableSchema",
    "TenantDatabase",
    "Transaction",
    "TransferRates",
    "TxnStatus",
    "Update",
    "VersionChain",
    "WalWriter",
    "dump",
    "dump_stream",
    "is_read_statement",
    "is_write_statement",
    "parse",
    "restore",
    "restore_duration",
    "restore_stream",
]
