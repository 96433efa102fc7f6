"""Madeus — the paper's primary contribution.

The pure-middleware live-migration proxy: operation classification,
syncset buffers/list (SSB/SSL), the master/slave logical clocks, the
critical region, the LSIR, the conductor/player propagation engines, the
migration manager, and the three baseline policies of Table 2.
"""

from .middleware import (
    Connection,
    Middleware,
    MiddlewareConfig,
    MigrationOptions,
    MigrationReport,
    TenantState,
)
from .operations import Operation, OpKind, TxnTracker
from .pipeline import ChangeTap, ChunkFeed, ChunkReader
from .policy import (
    ALL_POLICIES,
    B_ALL,
    B_CON,
    B_MIN,
    MADEUS,
    PropagationPolicy,
    feature_matrix,
    policy_by_name,
)
from .propagation import Conductor, PropagationStats, SerialReplayer
from .scheduler import (
    SCHEDULE_POLICIES,
    JobOutcome,
    MigrationScheduler,
    ScheduleOptions,
    ScheduleReport,
)
from .region import (
    COMMIT_CLASS,
    FIRST_READ_CLASS,
    CriticalRegion,
)
from .ssb import SyncsetBuffer, SyncsetList
from .watermark import ChangeStreamApplier, SnapshotStrategy
from .theory import (
    NECESSARY_DEPENDENCIES,
    UNNECESSARY_DEPENDENCIES,
    DependencyType,
    HistoryRecorder,
    LsirValidator,
    ReplayEvent,
    mapping_function_output,
    states_equal,
)

__all__ = [
    "ALL_POLICIES",
    "B_ALL",
    "B_CON",
    "B_MIN",
    "COMMIT_CLASS",
    "ChangeStreamApplier",
    "ChangeTap",
    "ChunkFeed",
    "ChunkReader",
    "Conductor",
    "Connection",
    "CriticalRegion",
    "DependencyType",
    "FIRST_READ_CLASS",
    "HistoryRecorder",
    "JobOutcome",
    "LsirValidator",
    "MADEUS",
    "Middleware",
    "MiddlewareConfig",
    "MigrationOptions",
    "MigrationReport",
    "MigrationScheduler",
    "NECESSARY_DEPENDENCIES",
    "OpKind",
    "Operation",
    "PropagationPolicy",
    "PropagationStats",
    "ReplayEvent",
    "SCHEDULE_POLICIES",
    "ScheduleOptions",
    "ScheduleReport",
    "SerialReplayer",
    "SnapshotStrategy",
    "SyncsetBuffer",
    "SyncsetList",
    "TenantState",
    "TxnTracker",
    "UNNECESSARY_DEPENDENCIES",
    "feature_matrix",
    "mapping_function_output",
    "policy_by_name",
    "states_equal",
]
