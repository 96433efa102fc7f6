"""Storage-engine substrate: a PostgreSQL-like DBMS, from scratch.

Multi-version concurrency control with snapshot isolation and the
first-updater-wins rule, a shared-process multi-tenant instance model, a
WAL with group commit, a periodic checkpointer, a simulated disk, and a
mini-SQL dialect with parser, executor, sessions, and logical
dump/restore.
"""

from .database import TenantDatabase
from .dump import (
    SnapshotTruncated,
    TransferRates,
    dump,
    dump_stream,
    restore,
    restore_duration,
    restore_stream,
)
from .executor import ExecResult
from .instance import DbmsInstance
from .session import Session, SessionResult
from .sqlmini import parse

__all__ = [
    "DbmsInstance",
    "ExecResult",
    "Session",
    "SessionResult",
    "SnapshotTruncated",
    "TenantDatabase",
    "TransferRates",
    "dump",
    "dump_stream",
    "parse",
    "restore",
    "restore_duration",
    "restore_stream",
]
