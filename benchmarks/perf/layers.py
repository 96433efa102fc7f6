"""Host self-time per layer, and the traced run's host-clock spans.

The traced run wraps each measured section in ``cProfile`` (the method
``scripts/profile_sim.py`` uses) and charges every function's *self*
time to the layer that owns its module.  Self-time of builtins and
standard-library helpers is charged to the layer of the ``repro``
function that called them, which cProfile records per caller; what has
no ``repro`` caller lands in ``other``.  Nothing inside ``src/`` is
touched: the propagation players and the kernel loop have no public
call boundary to wrap, so the profiler is the boundary.
"""

from __future__ import annotations

import os
import pstats
import time
from typing import Any, Dict, List, Optional

#: Module (path below ``repro/``, without ``.py``) -> layer; a whole
#: package maps through its directory name.
_MODULE_LAYERS = {
    "sim": "sim", "net": "net", "cluster": "cluster",
    "engine/sqlmini": "engine.sqlmini",
    "engine/wal": "engine.wal", "engine/disk": "engine.wal",
    "engine/checkpoint": "engine.wal",
    "engine/dump": "engine.dump",
    "engine": "engine.exec",
    "core/middleware": "core.request", "core/operations": "core.request",
    "core/pipeline": "core.snapshot", "core/watermark": "core.snapshot",
    "core/scheduler": "core.scheduler",
    "core": "core.propagation",
    "router": "router", "faults": "faults", "obs": "obs",
    "metrics": "obs", "workload": "workload",
}

LAYERS = ("sim", "net", "cluster", "engine.sqlmini", "engine.exec",
          "engine.wal", "engine.dump", "core.request", "core.propagation",
          "core.snapshot", "core.scheduler", "router", "faults", "obs",
          "workload", "other")

_MARKER = os.sep + "repro" + os.sep


def layer_of(filename: str) -> Optional[str]:
    """The layer owning ``filename``; ``None`` outside ``repro``."""
    index = filename.rfind(_MARKER)
    if index < 0:
        return None
    module = filename[index + len(_MARKER):].replace(os.sep, "/")
    module = module[:-3] if module.endswith(".py") else module
    package = module.split("/", 1)[0]
    return _MODULE_LAYERS.get(module, _MODULE_LAYERS.get(package, "other"))


def self_time_by_layer(profiler: Any) -> Dict[str, float]:
    """Host self-seconds per layer from a (disabled) ``cProfile``."""
    totals = {layer: 0.0 for layer in LAYERS}
    for function, record in pstats.Stats(profiler).stats.items():
        self_time, callers = record[2], record[4]
        layer = layer_of(function[0])
        if layer is not None:
            totals[layer] += self_time
            continue
        # A builtin or library helper: split by caller.  The per-caller
        # self times sum to the function's self time, except for a
        # root with no caller at all.
        charged = 0.0
        for caller, caller_record in callers.items():
            totals[layer_of(caller[0]) or "other"] += caller_record[2]
            charged += caller_record[2]
        totals["other"] += self_time - charged
    return totals


class HostSpans:
    """Spans kept in memory until the run ends: name, parent, and the
    host wall-clock interval (or, for :meth:`child`, a duration on the
    benchmark's host clock)."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []

    def start(self, name: str, parent: Optional[int] = None,
              **attrs: Any) -> int:
        self.spans.append({"id": len(self.spans), "name": name,
                           "parent": parent,
                           "host_start_s": time.perf_counter(),
                           "host_end_s": None, **attrs})
        return len(self.spans) - 1

    def finish(self, span_id: int) -> None:
        self.spans[span_id]["host_end_s"] = time.perf_counter()

    def child(self, parent: int, name: str, host_s: float,
              **attrs: Any) -> None:
        self.spans.append({"id": len(self.spans), "name": name,
                           "parent": parent, "host_s": host_s, **attrs})
