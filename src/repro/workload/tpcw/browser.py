"""Emulated browsers (EBs) and the app-server tier.

Each EB is a closed-loop client: think, pick an interaction from the
mix, run it as one transaction through the middleware, record the
response time, repeat.  Interactions that abort (first-updater-wins
conflicts) are recorded separately and the EB simply moves on, as the
TPC-W kit's error handling does.

The Tomcat tier is modelled as one extra LAN round trip plus a small
fixed service delay per interaction; the paper's app-server nodes were
never the bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator, List

from ...core.middleware import Middleware
from ...errors import NetworkDown
from ...sim.monitor import CounterSeries, SampleSeries
from ...sim.rand import RandomStream, StreamFactory
from .interactions import INTERACTIONS, EbState, TpcwContext
from .mixes import UPDATE_INTERACTIONS, mix_weights

if TYPE_CHECKING:  # pragma: no cover
    from ...sim.core import Environment


#: Fixed app-server (servlet) processing delay per interaction, seconds.
_APPSERVER_DELAY = 0.002

#: CPU-cost scale applied to every statement, placing the Figure-5
#: knee: 1.35 puts the 2-second threshold between 600 and 700
#: paper-EBs with the network's ``coalesce_hops`` off; with it on (the
#: default) 700 EBs reads 8 % lower, just under the threshold.
CPU_SCALE = 1.35


@dataclass
class EbConfig:
    """Load-generator knobs for one tenant's EB population."""

    ebs: int = 100
    mix: str = "ordering"
    #: Mean think time between interactions (exponential; spec: 7 s).
    think_time: float = 7.0


@dataclass
class TenantMetrics:
    """Per-tenant observables the figures are drawn from."""

    tenant: str
    #: Per-interaction response times (seconds).
    response_times: SampleSeries = field(
        default_factory=lambda: SampleSeries("rt"))
    #: Completed-interaction timestamps (throughput).
    completions: CounterSeries = field(
        default_factory=lambda: CounterSeries("tput"))
    interactions: int = 0
    update_interactions: int = 0
    aborted_interactions: int = 0
    errors: List[str] = field(default_factory=list)

    def mean_response_time(self, start: float = 0.0,
                           end: float = float("inf")) -> float:
        """Mean response time over a window."""
        return self.response_times.mean(start, end)

    def throughput(self, start: float, end: float) -> float:
        """Interactions per second over a window."""
        return self.completions.rate(start, end)


def emulated_browser(env: "Environment", middleware: Middleware,
                     tenant: str, ctx: TpcwContext, config: EbConfig,
                     rng: RandomStream, metrics: TenantMetrics,
                     eb_index: int) -> Generator[Any, Any, None]:
    """One EB's closed loop."""
    state = EbState(customer_id=1 + (eb_index % max(1, ctx.customers)))
    conn = middleware.connect(tenant)
    submit = middleware.submit
    network = middleware.cluster.network
    names, weights = mix_weights(config.mix)
    hold = env.hold
    while True:
        wait = hold(rng.exponential(config.think_time))
        if wait is not None:
            yield wait
        name = rng.weighted_choice(names, weights)
        steps = INTERACTIONS[name](ctx, state, rng, CPU_SCALE)
        started = env.now
        try:
            # app-server hop: one LAN round trip + servlet processing
            yield from network.round_trip()
            wait = hold(_APPSERVER_DELAY)
            if wait is not None:
                yield wait
            # BEGIN, the steps, COMMIT; not ok if any statement aborted
            # (the engine already rolled the transaction back, as on
            # first-updater-wins: no ROLLBACK is sent).
            result = yield from submit(conn, "BEGIN")
            if result.ok:
                for sql, cpu_cost in steps:
                    result = yield from submit(conn, sql, cpu_cost=cpu_cost)
                    if not result.ok:
                        break
                else:
                    result = yield from submit(conn, "COMMIT")
            ok = result.ok
        except NetworkDown:
            # The browser sees a connection error and moves on; the
            # middleware already rolled back anything half-done.
            ok = False
        finished = env.now
        metrics.interactions += 1
        if name in UPDATE_INTERACTIONS:
            metrics.update_interactions += 1
        if ok:
            metrics.response_times.record(finished, finished - started)
            metrics.completions.record(finished)
        else:
            metrics.aborted_interactions += 1


def start_tenant_load(env: "Environment", middleware: Middleware,
                      tenant: str, ctx: TpcwContext, config: EbConfig,
                      seed: int = 0) -> TenantMetrics:
    """Spawn ``config.ebs`` emulated browsers; returns live metrics."""
    metrics = TenantMetrics(tenant)
    streams = StreamFactory(seed)
    for index in range(config.ebs):
        rng = streams.stream("%s-eb-%d" % (tenant, index))
        env.process(
            emulated_browser(env, middleware, tenant, ctx, config, rng,
                             metrics, index),
            name="%s-eb-%d" % (tenant, index))
    return metrics
