"""Hotspot detection with hysteresis.

A node is *hot* when its load has exceeded :data:`ENTER_RATIO` times
the cluster mean for :data:`SUSTAIN` consecutive samples; it stays hot
until load drops below :data:`EXIT_RATIO` times the mean.  The enter
threshold sits strictly above the exit threshold, and leaving the hot
state starts a ``cooldown`` window during which the node cannot
re-enter — the classic two-threshold-plus-dwell shape that keeps a
borderline node from ping-ponging tenants back and forth.  The three
are module constants, read at each call; only the cooldown is
settable (:class:`~repro.control.rebalancer.RebalanceOptions`).

All comparisons are strict, so a load sitting *exactly* on a threshold
never changes state: hysteresis with a dead band, not a knife edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .watcher import ClusterView

#: A node enters the hot state above this multiple of the mean load...
ENTER_RATIO = 1.5
#: ...and leaves it below this one (the dead band lies between).
EXIT_RATIO = 1.1
#: Consecutive samples above the enter threshold that make a node hot.
SUSTAIN = 2


@dataclass
class _NodeState:
    """Per-node detector memory."""

    streak: int = 0
    hot: bool = False
    cooling_until: float = field(default=-1.0)


class HotspotDetector:
    """Classify nodes hot/cold from successive :class:`ClusterView`.

    Call :meth:`observe` once per watcher sample; it returns the nodes
    currently hot, sorted by load (heaviest first) for deterministic
    downstream planning.
    """

    def __init__(self, cooldown: float = 30.0):
        if cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        self.cooldown = cooldown
        self._nodes: Dict[str, _NodeState] = {}

    def _state(self, node: str) -> _NodeState:
        state = self._nodes.get(node)
        if state is None:
            state = _NodeState()
            self._nodes[node] = state
        return state

    # ------------------------------------------------------------------
    def observe(self, view: ClusterView) -> List[str]:
        """Fold one sample into the per-node state machines.

        Returns the currently-hot nodes, heaviest first.
        """
        loads = view.node_loads
        mean = (sum(loads.values()) / len(loads)) if loads else 0.0
        now = view.at
        hot: List[str] = []
        for node in sorted(loads):
            load = loads[node]
            state = self._state(node)
            if state.hot:
                if load < EXIT_RATIO * mean:
                    state.hot = False
                    state.streak = 0
                    state.cooling_until = now + self.cooldown
                else:
                    hot.append(node)
                continue
            if now < state.cooling_until:
                # Cooling off after leaving the hot state: the streak
                # does not accumulate, so a node never re-enters within
                # one cooldown window.
                state.streak = 0
                continue
            if mean > 0 and load > ENTER_RATIO * mean:
                state.streak += 1
                if state.streak >= SUSTAIN:
                    state.hot = True
                    hot.append(node)
            else:
                state.streak = 0
        return sorted(hot, key=lambda name: (-loads[name], name))

    # ------------------------------------------------------------------
    def is_hot(self, node: str) -> bool:
        """Whether ``node`` is currently classified hot."""
        state = self._nodes.get(node)
        return state is not None and state.hot

    def cooling_until(self, node: str) -> float:
        """Sim time the node's post-hot cooldown ends (-1 if never hot)."""
        state = self._nodes.get(node)
        return state.cooling_until if state is not None else -1.0
