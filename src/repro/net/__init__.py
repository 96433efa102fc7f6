"""Simulated cluster network (1-GbE-style LAN)."""

from .network import Network, NetworkSpec

__all__ = ["Network", "NetworkSpec"]
