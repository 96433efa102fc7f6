"""Cluster assembly: nodes + network."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from ..errors import RoutingError
from ..net.network import Network, NetworkSpec
from .node import Node, NodeSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Environment


class Cluster:
    """A set of nodes on one LAN."""

    def __init__(self, env: "Environment",
                 network_spec: Optional[NetworkSpec] = None):
        self.env = env
        self.network = Network(env, network_spec)
        self.nodes: Dict[str, Node] = {}

    def add_node(self, name: str, spec: Optional[NodeSpec] = None) -> Node:
        """Provision a new node."""
        if name in self.nodes:
            raise RoutingError("node %r already exists" % name)
        node = Node(self.env, name, spec)
        self.nodes[name] = node
        return node

    def node(self, name: str) -> Node:
        """Look up a node by name."""
        node = self.nodes.get(name)
        if node is None:
            raise RoutingError("unknown node %r" % name)
        return node
