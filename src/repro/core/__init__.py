"""Madeus — the paper's primary contribution.

The pure-middleware live-migration proxy: operation classification,
syncset buffers (SSB) and the replication log, the master/slave logical
clocks, the critical region, the LSIR, the conductor/player propagation
engines, the migration manager, and the three baseline policies of
Table 2.
"""

from .middleware import (
    Middleware,
    MiddlewareConfig,
    MigrationOptions,
)
from .operations import Operation, OpKind, TxnTracker
from .pipeline import ChunkFeed
from .policy import (
    ALL_POLICIES,
    B_ALL,
    B_CON,
    B_MIN,
    MADEUS,
    feature_matrix,
    policy_by_name,
)
from .scheduler import (
    MigrationScheduler,
    ScheduleOptions,
)
from .region import (
    COMMIT_CLASS,
    FIRST_READ_CLASS,
    CriticalRegion,
)
from .ssb import SyncsetBuffer
from .watermark import SnapshotStrategy

__all__ = [
    "ALL_POLICIES",
    "B_ALL",
    "B_CON",
    "B_MIN",
    "COMMIT_CLASS",
    "ChunkFeed",
    "CriticalRegion",
    "FIRST_READ_CLASS",
    "MADEUS",
    "Middleware",
    "MiddlewareConfig",
    "MigrationOptions",
    "MigrationScheduler",
    "OpKind",
    "Operation",
    "ScheduleOptions",
    "SnapshotStrategy",
    "SyncsetBuffer",
    "TxnTracker",
    "feature_matrix",
    "policy_by_name",
]
