"""Client behaviour processes: mobility and publishing.

Mobility pattern (paper §5.1): "Each mobile client disconnects and
reconnects from time to time, and the location of each time of connection
is randomly chosen from all base stations. The lengths of connection
periods and disconnection periods for mobile clients are random variables
that satisfy the exponential distribution."

The *timing* above is fixed; *where* a client reconnects and *which*
topics publishers favour are pluggable (``WorkloadSpec.mobility_model`` /
``topic_skew``, resolved through :mod:`repro.workload.models`). The
defaults make exactly the draws the paper's code made, so seeded default
runs are bit-identical.

Publishing: every client publishes at exponential intervals (mean five
minutes) while connected; publishes that would fall into a disconnection
period are skipped (a detached device cannot publish). Topics are uniform
floats in ``[0, 1)`` on the primary ``topic`` attribute (Zipf-sliced when
skew is on); subscriptions are contiguous topic ranges, so on the broker
side each published event is resolved by
:meth:`repro.pubsub.filter_table.FilterTable.match` — one interval stab per
neighbour decides where to forward, and a loop over the local client
entries picks the recipients.

Only silent moves are simulated (paper §5.1); the proclaimed-move API is
exercised by unit tests and examples instead. Rapid-fire silent moves are
legitimate here: reconnects can outrun the handoff control messages of the
previous move, which is why every connect carries a monotone epoch (see
:meth:`repro.pubsub.client.Client.connect`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.process import Process, spawn
from repro.workload.models import TopicSampler, make_mobility_model
from repro.workload.spec import SECONDS, WorkloadSpec
from repro.workload.generator import build_population

if TYPE_CHECKING:  # pragma: no cover
    from repro.pubsub.client import Client
    from repro.pubsub.system import PubSubSystem

__all__ = ["Workload"]


class Workload:
    """Drives the paper's workload on a :class:`PubSubSystem`.

    Construction creates the population and starts all processes; call
    :meth:`stop` at the end of the measurement window (the runner then
    performs the drain phase).
    """

    def __init__(self, system: "PubSubSystem", spec: WorkloadSpec) -> None:
        self.system = system
        self.spec = spec
        self.mobility = make_mobility_model(
            spec.mobility_model, spec.mobility_params
        )
        self.mobility.bind(system)
        self.topics = TopicSampler(spec.topic_skew)
        self.static_clients, self.mobile_clients = build_population(system, spec)
        self._processes: list[Process] = []
        self._stopped = False
        # processes ride the sans-IO clock facade, so the same workload
        # drives the simulated and the live (asyncio) drivers unchanged
        clock = system.clock
        # initial attachment: everyone connects at its home broker at t=0
        for client in self.static_clients + self.mobile_clients:
            client.connect(client.home_broker)
        for client in self.static_clients + self.mobile_clients:
            self._processes.append(
                spawn(
                    clock,
                    self._publisher(client),
                    start_delay=spec.warmup_ms,
                    name=f"pub/{client.id}",
                )
            )
        for client in self.mobile_clients:
            self._processes.append(
                spawn(
                    clock,
                    self._mover(client),
                    start_delay=spec.warmup_ms,
                    name=f"move/{client.id}",
                )
            )

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------
    def _publisher(self, client: "Client"):
        rng = self.system.streams.stream(f"workload/publish/{client.id}")
        mean_ms = self.spec.publish_interval_s * SECONDS
        while True:
            yield rng.exponential(mean_ms)
            if self._stopped:
                return
            if client.connected:
                client.publish(topic=self.topics.draw(rng))

    def _mover(self, client: "Client"):
        rng = self.system.streams.stream(f"workload/mobility/{client.id}")
        conn_ms = self.spec.mean_connected_s * SECONDS
        disc_ms = self.spec.mean_disconnected_s * SECONDS
        while True:
            yield rng.exponential(conn_ms)
            if self._stopped:
                return
            if client.connected:  # a broker crash may have detached it already
                client.disconnect()
            yield rng.exponential(disc_ms)
            if self._stopped:
                # leave the client disconnected; the drain phase reconnects it
                return
            target = self.mobility.next_broker(rng, client)
            if not client.connected:  # a repair round may have reattached it
                client.connect(target)

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """End the measurement window: freeze all behaviour processes and
        close the metrics window (:meth:`MetricsHub.close_window`)."""
        self._stopped = True
        for proc in self._processes:
            proc.interrupt()
        self.system.metrics.close_window()

    def reconnect_all(self) -> None:
        """Reattach every disconnected client at its last-visited broker
        (home broker if it never moved) — the drain-phase preamble shared
        by the experiment runner and the live drivers."""
        for client in self.all_clients:
            if not client.connected:
                target = (
                    client.last_broker
                    if client.last_broker is not None
                    else client.home_broker
                )
                client.connect(target)

    @property
    def all_clients(self) -> list["Client"]:
        return self.static_clients + self.mobile_clients
