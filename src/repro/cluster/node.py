"""Cluster nodes: one DBMS instance per node, shared process model.

Figure 1 of the paper: each node runs a single DBMS instance hosting
multiple tenant databases; Madeus runs on its own node and routes customer
operations to the node that owns their tenant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from ..engine.checkpoint import CheckpointSpec
from ..engine.disk import DiskSpec
from ..engine.instance import DbmsInstance, Observer

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment


@dataclass
class NodeSpec:
    """Hardware/software configuration of one node.

    Defaults mirror the paper's testbed: one 4-core Xeon E3-1220 and one
    SATA HDD per machine.
    """

    cpu_cores: int = 4
    disk: DiskSpec = field(default_factory=DiskSpec)
    checkpoint: Optional[CheckpointSpec] = None


class Node:
    """A physical machine running one shared-process DBMS instance."""

    def __init__(self, env: "Environment", name: str,
                 spec: Optional[NodeSpec] = None,
                 observer: Optional[Observer] = None):
        self.env = env
        self.name = name
        self.spec = spec or NodeSpec()
        self.instance = DbmsInstance(
            env, name,
            cpu_cores=self.spec.cpu_cores,
            disk_spec=self.spec.disk,
            checkpoint_spec=self.spec.checkpoint,
            observer=observer,
        )

    def tenants(self) -> Dict[str, object]:
        """The tenant databases hosted on this node."""
        return dict(self.instance.tenants)

    def hosts(self, tenant_name: str) -> bool:
        """Whether this node hosts ``tenant_name``."""
        return self.instance.has_tenant(tenant_name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Node %s tenants=%s>" % (self.name,
                                         sorted(self.instance.tenants))
