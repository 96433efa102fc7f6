"""Cluster nodes: one DBMS instance per node, shared process model.

Figure 1 of the paper: each node runs a single DBMS instance hosting
multiple tenant databases; Madeus runs on its own node and routes customer
operations to the node that owns their tenant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..engine.checkpoint import CheckpointSpec
from ..engine.instance import DbmsInstance

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment


@dataclass
class NodeSpec:
    """Software configuration of one node.

    The hardware is the paper's testbed on every node: one 4-core Xeon
    E3-1220 (:data:`repro.engine.instance.CPU_CORES`) and one SATA HDD
    (a default :class:`~repro.engine.disk.DiskSpec`).
    """

    checkpoint: Optional[CheckpointSpec] = None


class Node:
    """A physical machine running one shared-process DBMS instance."""

    def __init__(self, env: "Environment", name: str,
                 spec: Optional[NodeSpec] = None):
        self.env = env
        self.name = name
        self.spec = spec or NodeSpec()
        self.instance = DbmsInstance(env, name,
                                     checkpoint_spec=self.spec.checkpoint)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Node %s tenants=%s>" % (self.name,
                                         sorted(self.instance.tenants))
