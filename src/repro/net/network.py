"""Simulated LAN: per-hop latency plus shared-link bandwidth.

The paper's testbed connects all machines over 1-Gbps Ethernet.  Customer
operations, syncset propagation, and the snapshot transfer all cross this
network; only the snapshot transfer is large enough for bandwidth to
matter, but modelling it keeps Step 2 honest on big databases.

There is one bandwidth model.  :meth:`Network.message` and
:meth:`Network.round_trip` carry no payload and pay latency only; every
byte that is big enough to matter — the serial snapshot as one stream,
the pipelined and watermark snapshots chunk by chunk through
:meth:`Network.pump_chunks` — crosses :meth:`Network.bulk_transfer`:
every node has an egress and an ingress :class:`LinkPort`, and
concurrent streams crossing the same port *split its bandwidth*
(processor sharing) instead of each getting the full rate.  A stream's
instantaneous rate is the minimum of its share on the source's egress
and the destination's ingress port, re-evaluated whenever a stream
joins or leaves either port — so two tenants migrating over the same
source→destination pair each see half the link, while migrations
between disjoint node pairs do not contend at all.  A lone stream on
idle ports takes exactly ``latency + size / bandwidth``.

The link can also degrade (see :mod:`repro.faults`): latency spikes
multiply the cost of every hop, bandwidth collapse divides the rate of
every stream, and a transient outage (:meth:`Network.fail_link`)
surfaces a :class:`~repro.errors.NetworkDown` to in-flight hops and
transfers -- the transfer was under way when the cable was pulled, so
the caller finds out mid-flight, not at its next send.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Tuple

from ..errors import NetworkDown, NodeCrashed
from ..sim.events import Event, Interrupt
from ..sim.sync import CLOSED

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import MetricsRegistry
    from ..sim.core import Environment

#: Residual megabytes below which a shared-link transfer is complete
#: (one thousandth of a byte; guards float accumulation).
_STREAM_EPS = 1e-9


@dataclass
class NetworkSpec:
    """Latency/bandwidth envelope of the cluster LAN."""

    #: One-way message latency (switch + stack), ~0.1 ms on a quiet GbE.
    latency: float = 0.0001
    #: Aggregate link bandwidth in MB/s (1 Gbps ~ 125 MB/s).
    bandwidth_mb_s: float = 125.0


class _Stream:
    """One in-flight bulk transfer on the shared-link model."""

    __slots__ = ("size_mb", "remaining_mb", "changed")

    def __init__(self, size_mb: float):
        self.size_mb = size_mb
        self.remaining_mb = size_mb
        #: Event the ports trigger when membership changes; replaced by
        #: the transfer loop on every pacing iteration.
        self.changed: Optional[Event] = None


class LinkPort:
    """One direction of a node's network interface (egress or ingress).

    Concurrent bulk streams crossing the same port split its bandwidth
    equally (processor sharing).  The port does no pacing itself — it
    tracks membership, answers :meth:`share`, and pokes every member's
    ``changed`` event when the population shifts so in-flight transfers
    re-derive their rate.
    """

    def __init__(self, env: "Environment", name: str,
                 bandwidth_mb_s: float):
        self.env = env
        self.name = name
        self.bandwidth_mb_s = bandwidth_mb_s
        self._streams: List[_Stream] = []
        # statistics
        self.transfers = 0
        self.bytes_mb = 0.0
        self.max_streams = 0
        self._busy_time = 0.0
        self._busy_since: Optional[float] = None
        self._gauge: Any = None

    @property
    def active_streams(self) -> int:
        """Number of bulk streams currently crossing this port."""
        return len(self._streams)

    def share(self) -> float:
        """Instantaneous per-stream bandwidth under equal sharing."""
        return self.bandwidth_mb_s / max(1, len(self._streams))

    def utilisation(self, since: float = 0.0) -> float:
        """Fraction of sim time since ``since`` the port moved bytes."""
        busy = self._busy_time
        if self._busy_since is not None:
            busy += self.env.now - self._busy_since
        horizon = self.env.now - since
        return busy / horizon if horizon > 0 else 0.0

    def join(self, stream: _Stream) -> None:
        if not self._streams:
            self._busy_since = self.env.now
        self._streams.append(stream)
        self.transfers += 1
        self.max_streams = max(self.max_streams, len(self._streams))
        if self._gauge is not None:
            self._gauge.set(len(self._streams))
        self.notify(exclude=stream)

    def leave(self, stream: _Stream) -> None:
        self._streams.remove(stream)
        self.bytes_mb += stream.size_mb - stream.remaining_mb
        if not self._streams and self._busy_since is not None:
            self._busy_time += self.env.now - self._busy_since
            self._busy_since = None
        if self._gauge is not None:
            self._gauge.set(len(self._streams))
        self.notify(exclude=stream)

    def notify(self, exclude: Optional[_Stream] = None) -> None:
        """Wake every paced transfer so it recomputes its rate."""
        for member in self._streams:
            if member is exclude:
                continue
            event = member.changed
            if event is not None and not event.triggered:
                event.succeed()


class Network:
    """The cluster LAN: latency hops plus per-port shared bandwidth."""

    def __init__(self, env: "Environment", spec: NetworkSpec | None = None):
        self.env = env
        self.spec = spec or NetworkSpec()
        # degradation state (see repro.faults): multiplicative so
        # overlapping faults compose instead of clobbering each other
        self.latency_factor = 1.0
        self.bandwidth_factor = 1.0
        self._down_count = 0
        #: While True, :meth:`round_trip` coalesces its two latency
        #: hops into one ``2 * latency`` timeout: the same arrival
        #: *time* with half the kernel events, but not the same arrival
        #: *order* — one event instead of two takes a different
        #: place among the events of its instant, and on a saturated
        #: node that order decides who queues behind whom (Figure 5 at
        #: 700 EBs, quick profile: mean response time 282 ms with it,
        #: 307 ms without, 8 % apart and on either side of the
        #: medium / heavy band edge).  It is a second model, not a
        #: free optimisation.  Also only valid while link state cannot
        #: change mid-flight, so the fault injector clears it before
        #: arming any network fault (outage or degradation), restoring
        #: the exact per-hop check schedule (see :meth:`round_trip`).
        self.coalesce_hops = True
        # statistics
        self.messages = 0
        self.messages_failed = 0
        self.bytes_moved = 0.0
        self.outages = 0
        #: Per-node directional ports for the shared-link model, keyed
        #: by ``(node, "egress"|"ingress")`` and created on first use.
        self._ports: Dict[Tuple[str, str], LinkPort] = {}
        self._metrics: Optional["MetricsRegistry"] = None

    # ------------------------------------------------------------------
    # fault surface
    # ------------------------------------------------------------------

    @property
    def is_down(self) -> bool:
        """True while at least one link outage is active."""
        return self._down_count > 0

    def fail_link(self) -> None:
        """Start an outage; nested outages stack until each is restored."""
        self._down_count += 1
        self.outages += 1
        if self._metrics is not None:
            self._metrics.counter("net.outages").inc()

    def restore_link(self) -> None:
        """End one outage started by :meth:`fail_link`."""
        if self._down_count > 0:
            self._down_count -= 1

    def degrade(self, latency_scale: float = 1.0,
                bandwidth_scale: float = 1.0) -> None:
        """Multiply effective latency / divide effective bandwidth.

        Apply the inverse scale to undo one degradation, or call
        :meth:`restore_quality` to clear everything at once.
        """
        self.latency_factor *= latency_scale
        self.bandwidth_factor *= bandwidth_scale
        self._reprice_streams()

    def restore_quality(self) -> None:
        """Reset latency/bandwidth degradation to the healthy baseline."""
        self.latency_factor = 1.0
        self.bandwidth_factor = 1.0
        self._reprice_streams()

    def _reprice_streams(self) -> None:
        """Make in-flight shared-link transfers re-derive their rate."""
        for port in self._ports.values():
            port.notify()

    def _check_link(self) -> None:
        if self._down_count > 0:
            self.messages_failed += 1
            if self._metrics is not None:
                self._metrics.counter("net.messages_failed").inc()
            raise NetworkDown("cluster link is down")

    # ------------------------------------------------------------------
    # traffic
    # ------------------------------------------------------------------

    def message(self) -> Generator[Any, Any, None]:
        """One latency-only hop, no payload.

        The control hop that opens every :meth:`bulk_transfer`, and the
        single-hop primitive the unit tests drive; customer operations
        go through :meth:`round_trip`, which does not call this.
        Raises :class:`NetworkDown` if an outage is active when the hop
        starts *or* when it lands.  Bytes go through
        :meth:`bulk_transfer`.
        """
        self._check_link()
        self.messages += 1
        wait = self.env.hold(self.spec.latency * self.latency_factor)
        if wait is not None:
            yield wait
        self._check_link()

    def round_trip(self) -> Generator[Any, Any, None]:
        """A request hop followed by a response hop.

        An operation and its ack take ``2 * latency`` either way; while
        :attr:`coalesce_hops` holds, it is billed as a single timeout
        instead of two chained hops, halving the event cost of every
        customer operation — and changing where the reply falls among
        same-instant events (see the attribute: not result-neutral at
        saturation).  Coalesced, the link is checked at departure and
        at landing.  Per hop (as under any fault injector), each hop is
        priced at its own start and the link is checked at departure,
        at the request's landing (the instant the response departs, so
        one check serves both) and at the response's landing: the two
        :meth:`message` hops without their frames.
        """
        env = self.env
        if self.coalesce_hops:
            if self._down_count:
                self._check_link()  # raises
            self.messages += 2
            wait = env.hold(2.0 * self.spec.latency * self.latency_factor)
            if wait is not None:
                yield wait
            if self._down_count:
                self._check_link()  # raises
            return
        if self._down_count:
            self._check_link()  # raises
        self.messages += 1
        wait = env.hold(self.spec.latency * self.latency_factor)
        if wait is not None:
            yield wait
        if self._down_count:
            self._check_link()  # raises
        self.messages += 1
        wait = env.hold(self.spec.latency * self.latency_factor)
        if wait is not None:
            yield wait
        if self._down_count:
            self._check_link()  # raises

    # ------------------------------------------------------------------
    # shared-link (per-port processor-sharing) model
    # ------------------------------------------------------------------

    def port(self, node: str, direction: str) -> LinkPort:
        """The named node's :class:`LinkPort` (``egress``/``ingress``).

        Ports are created lazily with the cluster link bandwidth, so a
        node that never takes part in a bulk transfer costs nothing.
        """
        if direction not in ("egress", "ingress"):
            raise ValueError("direction must be egress or ingress, got "
                             "%r" % (direction,))
        key = (node, direction)
        port = self._ports.get(key)
        if port is None:
            port = LinkPort(self.env, "%s.%s" % (node, direction),
                            self.spec.bandwidth_mb_s)
            if self._metrics is not None:
                port._gauge = self._metrics.gauge(
                    "net.link.%s.streams" % port.name)
            self._ports[key] = port
        return port

    def link_ports(self) -> Dict[str, LinkPort]:
        """Snapshot of all materialised ports, keyed by port name."""
        return {port.name: port for port in self._ports.values()}

    def bulk_transfer(self, source: str, destination: str,
                      size_mb: float) -> Generator[Any, Any, None]:
        """Ship ``size_mb`` from ``source`` to ``destination``.

        Bandwidth is shared per *port*: the stream's instantaneous rate
        is the smaller of its equal share on the source's egress port
        and on the destination's ingress port, re-evaluated whenever
        another stream joins or leaves either port (or the link
        degrades).  Remaining bytes are carried across rate
        changes, so a stream never pays for bandwidth it did not get —
        and never double-pays after an interrupt, because membership is
        torn down in a ``finally``.

        Raises :class:`NetworkDown` if an outage is active at the start,
        after the latency hop, or at completion.
        """
        yield from self.message()
        if size_mb > 0:
            egress = self.port(source, "egress")
            ingress = self.port(destination, "ingress")
            stream = _Stream(size_mb)
            egress.join(stream)
            ingress.join(stream)
            try:
                while stream.remaining_mb > _STREAM_EPS:
                    rate = (min(egress.share(), ingress.share())
                            / self.bandwidth_factor)
                    stream.changed = Event(self.env)
                    started = self.env.now
                    done = self.env.timeout(stream.remaining_mb / rate)
                    try:
                        yield self.env.any_of([done, stream.changed])
                    finally:
                        # also runs on Interrupt/close, so a torn-down
                        # stream is still credited for the bytes it
                        # moved in its final partial interval
                        elapsed = self.env.now - started
                        stream.remaining_mb = max(
                            0.0, stream.remaining_mb - elapsed * rate)
                stream.remaining_mb = 0.0  # absorb the epsilon tail
            finally:
                # The single accounting path, crash/interrupt included:
                # the network-wide byte counter moves with the actual
                # bytes the stream carried, never the advertised size —
                # a stream torn down mid-flight (caller interrupt or a
                # node crash unwinding the pump) credits only its
                # partial progress, exactly like the per-port counters
                # credited in leave().
                self.bytes_moved += (stream.size_mb
                                     - stream.remaining_mb) * 1e6
                stream.changed = None
                egress.leave(stream)
                ingress.leave(stream)
        self._check_link()

    def pump_chunks(self, reader: Any, sink: Any,
                    route: Tuple[str, str]
                    ) -> Generator[Any, Any, int]:
        """Bounded-buffer shipper for the pipelined snapshot path.

        Moves :class:`~repro.engine.dump.SnapshotChunk` objects from a
        :class:`~repro.core.pipeline.ChunkReader` across the link into a
        destination-side :class:`~repro.sim.Channel`, one bulk transfer
        per chunk, while later chunks are still being dumped.  The sink's
        bounded capacity is the back-pressure: a slow destination disk
        blocks :meth:`Channel.put`, which stops this pump from reading
        the feed, which in turn stalls the dump.

        Failure handling is link-shaped: a :class:`NetworkDown` (outage
        mid-transfer) or :class:`NodeCrashed` (stream torn down at
        either end) is *delivered into the sink* via ``fail`` so the
        consumer observes it at its next ``get``, and the pump exits
        quietly — the migration orchestrator owns retries.  Returns the
        number of chunks shipped.

        Each chunk crosses the shared-link model (:meth:`bulk_transfer`)
        from ``route[0]`` to ``route[1]`` and contends with other
        streams on those ports.
        """
        shipped = 0
        try:
            while True:
                chunk = yield from reader.get()
                if chunk is CLOSED:
                    sink.close()
                    return shipped
                yield from self.bulk_transfer(
                    route[0], route[1], chunk.size_mb)
                yield from sink.put(chunk)
                shipped += 1
                if self._metrics is not None:
                    self._metrics.counter("net.chunks_shipped").inc()
        except Interrupt:
            return shipped
        except (NetworkDown, NodeCrashed) as exc:
            sink.fail(exc)
            return shipped

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def bind_obs(self, metrics: "MetricsRegistry") -> None:
        """Mirror outage/failure counters into a metrics registry."""
        self._metrics = metrics
        for port in self._ports.values():
            port._gauge = metrics.gauge("net.link.%s.streams" % port.name)
