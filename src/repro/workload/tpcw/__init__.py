"""TPC-W workload: schema, population (Table 3), mixes, interactions,
emulated browsers."""

from .browser import EbConfig, TenantMetrics, start_tenant_load
from .interactions import INTERACTIONS, EbState, IdAllocator, TpcwContext
from .mixes import (
    UPDATE_INTERACTIONS,
    mix_weights,
    update_fraction,
)
from .population import (
    PAPER_TABLE3,
    PopulationParams,
    nominal_database_size_mb,
    populate,
)
from .schema import all_schemas

__all__ = [
    "EbConfig", "EbState", "INTERACTIONS", "IdAllocator", "PAPER_TABLE3",
    "PopulationParams", "TenantMetrics", "TpcwContext",
    "UPDATE_INTERACTIONS", "all_schemas", "mix_weights",
    "nominal_database_size_mb", "populate", "start_tenant_load",
    "update_fraction",
]
