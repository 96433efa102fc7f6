"""Cluster substrate: nodes hosting DBMS instances on a simulated LAN."""

from .cluster import Cluster
from .node import NodeSpec

__all__ = ["Cluster", "NodeSpec"]
