"""Storage-engine substrate: a PostgreSQL-like DBMS, from scratch.

Multi-version concurrency control with snapshot isolation and the
first-updater-wins rule, a shared-process multi-tenant instance model, a
WAL with group commit, a periodic checkpointer, a simulated disk, and a
mini-SQL dialect with parser, executor, sessions, and the logical
dump/restore chunk stream.
"""

from .database import TenantDatabase
from .dump import (
    SnapshotTooOld,
    SnapshotTruncated,
    TransferRates,
    dump_stream,
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
    "SnapshotTooOld",
    "SnapshotTruncated",
    "TenantDatabase",
    "TransferRates",
    "dump_stream",
    "parse",
    "restore_duration",
    "restore_stream",
]
