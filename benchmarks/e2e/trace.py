"""Span tracer for the traced pass: the layers' entry points, wrapped from outside.

A span is recorded each time control crosses into a layer (a call from one
layer into the same layer is not a boundary and records nothing). The
wrappers are installed at class level *before* ``build_system`` because
``LinkLayer`` and ``register_broker`` pin bound methods at construction.

Self time of a span is its duration minus the part its child spans cover.
The tracer keeps per-(layer, function) aggregates of calls / inclusive /
self time plus the first ``max_spans`` raw spans; nothing is written until
the run has ended. The cost of the empty span is measured during the run
and taken out of the self times (see :class:`SpanCostMeter`).
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from typing import Any, Callable, Iterable, Optional

__all__ = ["Tracer", "FnStat", "SpanCost", "SpanCostMeter", "install_layers"]

#: pseudo-layer of callbacks that reach the scheduler without a traced entry
#: point; its share is reported as ``trace.unattributed_share``
UNATTRIBUTED = "unattributed"


class FnStat:
    """Aggregate of every span of one wrapped function."""

    __slots__ = ("layer", "name", "calls", "nested", "incl_s", "self_s",
                 "child_calls")

    def __init__(self, layer: str, name: str) -> None:
        self.layer = layer
        self.name = name
        self.clear()

    def clear(self) -> None:
        #: spans: calls that crossed into the layer
        self.calls = 0
        #: calls from inside the same layer (no span)
        self.nested = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.child_calls = 0

    @property
    def invocations(self) -> int:
        return self.calls + self.nested


class SpanCost:
    """Calibrated cost of one empty span, split by where it is booked."""

    def __init__(self, inner_s: float, outer_s: float) -> None:
        #: the part measured inside the span itself (its own self time)
        self.inner_s = inner_s
        #: the part that lands in the parent's self time
        self.outer_s = outer_s

    @property
    def total_s(self) -> float:
        return self.inner_s + self.outer_s


class Tracer:
    def __init__(
        self,
        max_spans: int = 10_000,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.clock = clock
        self.max_spans = max_spans
        # open spans: [layer, child_seconds, child_calls, span_id]
        self._stack: list[list] = []
        self._next_id = 0
        self.stats: dict[tuple[str, str], FnStat] = {}
        #: raw spans: (id, parent_id or -1, layer, name, start, end)
        self.spans: list[tuple] = []
        #: seconds covered by spans that have no parent
        self.root_s = 0.0
        #: counts and sums kept by result hooks (see install_layers)
        self.counts: Counter = Counter()
        #: value samples kept by result hooks
        self.samples: dict[str, list] = {}
        #: entry points named in the layer map but absent from the code
        self.missing: list[str] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def stat(self, layer: str, name: str) -> FnStat:
        key = (layer, name)
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = FnStat(layer, name)
        return st

    def wrap(
        self,
        fn: Callable,
        layer: str,
        name: Optional[str] = None,
        on_result: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` with a span of ``layer`` around every boundary-crossing call.

        ``on_result(result, *args)`` runs after the span has closed, so its
        cost is booked to the caller, not to the layer being measured.
        """
        st = self.stat(layer, name or getattr(fn, "__qualname__", repr(fn)))
        stack = self._stack
        clock = self.clock
        spans = self.spans
        max_spans = self.max_spans
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] == layer:
                st.nested += 1
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [layer, 0.0, 0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                st.calls += 1
                st.incl_s += dt
                st.self_s += dt - frame[1]
                st.child_calls += frame[2]
                if parent is not None:
                    parent[1] += dt
                    parent[2] += 1
                else:
                    tracer.root_s += dt
                if sid < max_spans:
                    spans.append(
                        (sid, parent[3] if parent is not None else -1,
                         layer, st.name, t0, t1)
                    )
            if on_result is not None:
                on_result(result, *args)
            return result

        traced._e2e_layer = layer  # type: ignore[attr-defined]
        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def adopt(self, callback: Callable, layer: str = UNATTRIBUTED) -> Callable:
        """A scheduled callback, traced under ``layer`` unless it already
        is a traced entry point."""
        if getattr(callback, "_e2e_layer", None) is not None:
            return callback
        name = getattr(callback, "__qualname__", type(callback).__name__)
        return self.wrap(callback, layer, f"callback:{name}")

    def patch(
        self,
        owner: Any,
        attr: str,
        layer: str,
        on_result: Optional[Callable] = None,
        around: Optional[Callable[[Callable], Callable]] = None,
    ) -> bool:
        """Replace ``owner.attr`` (a class or module attribute) by its traced
        form, together with every alias of it in ``owner``'s namespace.

        ``around(fn) -> fn`` is applied inside the span (used to trace the
        callbacks a scheduling call is handed). A missing attribute is noted
        in :attr:`missing` and skipped, so a refactor of a private name
        degrades the split (the time shows up as unattributed) instead of
        breaking the benchmark.
        """
        namespace = vars(owner)
        original = namespace.get(attr)
        owner_name = owner.__name__
        if original is None:
            self.missing.append(f"{owner_name}.{attr}")
            return False
        inner = around(original) if around is not None else original
        traced = self.wrap(inner, layer, f"{owner_name}.{attr}", on_result)
        for alias, value in list(namespace.items()):
            if value is original:
                self._patches.append((owner, alias, original))
                setattr(owner, alias, traced)
        return True

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Forget everything recorded so far (set-up is not part of the
        traced phases). In place: the wrappers hold on to these objects."""
        for st in self.stats.values():
            st.clear()
        self.spans.clear()
        self.counts.clear()
        for values in self.samples.values():
            values.clear()
        self.root_s = 0.0
        self._next_id = 0

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def layer_self_s(self, cost: Optional[SpanCost] = None) -> dict[str, float]:
        """Span-cost-corrected self seconds per layer. Sub-layers
        (``"wire/codec"``) fold into the layer before the slash."""
        out: dict[str, float] = {}
        for st in self.stats.values():
            layer = st.layer.split("/", 1)[0]
            out[layer] = out.get(layer, 0.0) + corrected_self(st, cost)
        return out

    def span_count(self) -> int:
        return sum(st.calls for st in self.stats.values())

    def invocations(self, layer: str, *names: str) -> int:
        """Calls of ``layer``'s wrapped functions (all of them, or just
        ``names``), whether or not they crossed a layer boundary."""
        return sum(
            st.invocations for (lay, name), st in self.stats.items()
            if lay == layer and (not names or name in names)
        )

    def fn_self_s(
        self, layer: str, names: Iterable[str],
        cost: Optional[SpanCost] = None,
    ) -> float:
        return sum(
            corrected_self(st, cost)
            for name in names
            if (st := self.stats.get((layer, name))) is not None
        )

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "layer", "name", "start_s",
                               "end_s"],
                    "spans": self.spans,
                    "aggregates": [
                        {"layer": st.layer, "name": st.name,
                         "calls": st.calls, "incl_s": st.incl_s,
                         "self_s": st.self_s, "child_calls": st.child_calls}
                        for st in self.stats.values()
                    ],
                },
                fh,
            )


def corrected_self(st: FnStat, cost: Optional[SpanCost]) -> float:
    """Self time with the tracer's own cost taken out, floored at zero."""
    if cost is None:
        return st.self_s
    return max(
        0.0,
        st.self_s - st.calls * cost.inner_s - st.child_calls * cost.outer_s,
    )


class SpanCostMeter:
    """Measures the empty-span cost a little at a time, between the slices
    of the run it is for, so that it sees the host at the speeds the run
    sees it (one calibration up front read 0.64–0.93 µs on the same box
    within a minute).

    Each sample calls an empty function ``calls`` times from inside a
    parent span, once bare and once traced: the traced spans' own recorded
    time is the inner cost, and the rest of the slowdown is what each child
    call adds to its parent's self time.
    """

    def __init__(self, calls: int = 64) -> None:
        tracer = Tracer(max_spans=0)

        def empty() -> None:
            return None

        def loop(fn: Callable[[], None]) -> float:
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            return time.perf_counter() - t0

        self._empty = empty
        self._traced_empty = tracer.wrap(empty, "child", "empty")
        self._inner = tracer.stat("child", "empty")
        self._loop = tracer.wrap(loop, "parent", "loop")
        self._calls = calls
        self._samples = 0
        self._bare_s = 0.0
        self._traced_s = 0.0

    def sample(self) -> None:
        self._bare_s += self._loop(self._empty)
        self._traced_s += self._loop(self._traced_empty)
        self._samples += 1

    def cost(self) -> SpanCost:
        n = self._samples * self._calls
        if n == 0:
            return SpanCost(0.0, 0.0)
        total = max(0.0, (self._traced_s - self._bare_s) / n)
        inner = min(self._inner.self_s / n, total)
        return SpanCost(inner, total - inner)


# ----------------------------------------------------------------------
# the layer map: which entry points belong to which layer
# ----------------------------------------------------------------------
#: layer -> [(module, class or None for module-level, [attribute names])].
#: Public entry points first; the private names are the callbacks a layer
#: hands to the scheduler, which would otherwise run unattributed.
LAYER_MAP: dict[str, list[tuple[str, Optional[str], list[str]]]] = {
    "links": [
        ("repro.network.links", "LinkLayer", [
            "broker_to_broker", "unicast", "broker_to_client",
            "client_to_broker", "cancel_downlink_pending",
            "requeue_downlink_unacked", "downlink_backlog",
            "_deliver_broker", "_deliver_broker_batch", "_deliver_guarded",
            "_deliver_uplink",
        ]),
        ("repro.network.links", "_WirelessChannel", ["_finish"]),
    ],
    "broker": [
        ("repro.pubsub.broker", "Broker", [
            "receive", "receive_batch", "deliver_to_client",
            "local_subscribe", "local_unsubscribe", "local_unsubscribe_key",
            "migration_install_toward", "migration_remove_from",
            "migration_mirror_sent", "migration_mirror_received",
            "new_queue", "get_queue", "drop_queue",
        ]),
    ],
    "matching": [
        ("repro.pubsub.filter_table", "FilterTable", [
            "match_neighbors", "match_clients",
        ]),
    ],
    "control": [
        ("repro.pubsub.filter_table", "FilterTable", [
            "add_broker_filter", "remove_broker_filter", "advertised_add",
            "advertised_remove", "advertised_has", "advertised_get",
            "advertised_count", "set_client_entry", "remove_client_entry",
            "remove_entry_by_key",
        ]),
    ],
    "mobility": [
        ("repro.mobility.base", "MobilityProtocol", [
            "on_proclaimed_disconnect", "on_event_for_client",
            "install_recovered", "quiescent",
        ]),
    ],
    "workload": [
        ("repro.pubsub.client", "Client", [
            "connect", "disconnect", "publish", "_on_downlink",
        ]),
        ("repro.sim.process", "Process", ["_resume", "interrupt"]),
        ("repro.workload.mobility_model", "Workload", [
            "reconnect_all",
        ]),
    ],
    "metrics": [
        ("repro.metrics.hub", "MetricsHub", [
            "account", "on_client_connect", "on_client_disconnect",
            "on_publish", "on_delivery", "on_loss", "on_recoverable_drop",
        ]),
    ],
    "reliability": [
        ("repro.pubsub.reliability", "ReliabilityManager", [
            "send", "on_ack", "on_deliver", "reclaim_link",
            "on_client_detach", "on_broker_crash", "on_overlay_repair",
            "pop_links_for_client", "retire_link", "_on_timeout",
            "_fire_ack",
        ]),
    ],
    "wal": [
        ("repro.pubsub.wal", "DurabilityManager", [
            "on_publish", "on_deliver", "on_settled", "on_client_delivered",
            "checkpoint", "replay", "replay_events", "dead_letter",
            "dead_letter_events", "rehome_session", "on_session_transfer",
        ]),
    ],
    "recovery": [
        ("repro.pubsub.recovery", "RecoveryCoordinator", [
            "guarded", "reroute", "on_publish", "on_dropped_message",
            "_apply_crash", "_apply_partition", "_apply_restart", "_repair",
        ]),
    ],
    "wire": [
        ("repro.drivers.socket", "SocketTransport", [
            "_dispatch_to_node", "_fire_timer", "remote_on_disconnect",
            "remote_on_proclaimed_disconnect", "remote_quiescent",
            "shutdown_peers",
        ]),
        ("repro.drivers.socket", "BrokerPeer", ["hello"]),
    ],
    "wire/codec": [
        ("repro.drivers.socket", None, [
            "encode_control", "decode_control", "encode_frame",
        ]),
        ("repro.wire.framing", "FrameDecoder", ["feed"]),
    ],
}

#: every concrete protocol overrides these, so they are wrapped on each
#: subclass of MobilityProtocol rather than on the base
_MOBILITY_HOOKS = ["on_connect", "on_disconnect", "on_proclaimed_disconnect",
                   "on_event_for_client", "on_control", "install_recovered",
                   "quiescent"]


def _all_subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_all_subclasses(sub))
    return out


class _TracedSocket:
    """The three socket calls ``BrokerPeer`` makes, with ``recv`` timed as
    the coordinator's wait for its peer."""

    def __init__(self, sock: Any, tracer: Tracer) -> None:
        self._sock = sock
        self.recv = tracer.wrap(sock.recv, "wire/wait", "socket.recv")
        self.sendall = tracer.wrap(sock.sendall, "wire/io", "socket.sendall")

    def close(self) -> None:
        self._sock.close()


def install_layers(tracer: Tracer) -> None:
    """Patch every entry point of :data:`LAYER_MAP` plus the special cases
    (scheduler, matching results, mobility timers, peer sockets)."""
    counts = tracer.counts
    samples = tracer.samples

    for layer, groups in LAYER_MAP.items():
        for module_name, class_name, attrs in groups:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            for attr in attrs:
                tracer.patch(owner, attr, layer)

    # -- scheduler: root span, schedule calls, and adoption of callbacks
    #    that no layer claims ------------------------------------------
    def adopting(schedule: Callable) -> Callable:
        def call(clock, delay, callback, *args):
            return schedule(clock, delay, tracer.adopt(callback), *args)
        return call

    from repro.drivers.live import VirtualClock, _HeapClock
    from repro.sim.core import Simulator

    for attr in ("schedule", "schedule_at", "schedule_fifo"):
        tracer.patch(Simulator, attr, "sim", around=adopting)
    for attr in ("run", "step", "peek"):
        tracer.patch(Simulator, attr, "sim")
    for attr in ("call_later", "call_later_fifo"):
        tracer.patch(_HeapClock, attr, "sim", around=adopting)
    tracer.patch(_HeapClock, "peek", "sim")
    tracer.patch(VirtualClock, "run", "sim")

    # -- matching: table reads, with hit and table-size observations ----
    from repro.pubsub.filter_table import FilterTable

    samples["matching.table_filters"] = table_sizes = []

    def sample_table(table: Any) -> None:
        # every 64th call: the distribution an index has to win on,
        # weighted by how often each table is read
        if counts["matching.calls"] & 63 == 0:
            table_sizes.append(
                len(table.clients)
                + sum(table.broker_filter_count(n) for n in table.neighbors)
            )

    def on_match(result, table, *_args) -> None:
        sample_table(table)
        nbrs, entries = result
        counts["matching.calls"] += 1
        counts["matching.events"] += 1
        counts["matching.nbr_hits"] += len(nbrs)
        counts["matching.entry_hits"] += len(entries)
        if nbrs or entries:
            counts["matching.calls_with_hit"] += 1

    def on_match_batch(results, table, items, *_args) -> None:
        sample_table(table)
        counts["matching.calls"] += 1
        counts["matching.batch_calls"] += 1
        counts["matching.batch_events"] += len(items)
        counts["matching.events"] += len(items)
        hit = False
        for nbrs, entries in results:
            counts["matching.nbr_hits"] += len(nbrs)
            counts["matching.entry_hits"] += len(entries)
            hit = hit or bool(nbrs or entries)
        if hit:
            counts["matching.calls_with_hit"] += 1

    tracer.patch(FilterTable, "match", "matching", on_result=on_match)
    tracer.patch(FilterTable, "match_batch", "matching",
                 on_result=on_match_batch)

    # -- control: covering checks and withdrawal candidates -------------
    def on_covers(result, *_args) -> None:
        counts["control.covers_checks"] += 1
        if result:
            counts["control.covers_hits"] += 1

    def on_candidates(result, *_args) -> None:
        counts["control.withdrawals"] += 1
        counts["control.withdraw_candidates"] += len(result)

    tracer.patch(FilterTable, "advertised_covers", "control",
                 on_result=on_covers)
    tracer.patch(FilterTable, "covered_candidates", "control",
                 on_result=on_candidates)

    # -- mobility: the hooks of every protocol, and its timers ----------
    # importing the package imports every registered protocol
    from repro.mobility import MobilityProtocol

    for cls in _all_subclasses(MobilityProtocol):
        for attr in _MOBILITY_HOOKS:
            if attr in vars(cls):
                tracer.patch(cls, attr, "mobility")

    def mobility_timer(later: Callable) -> Callable:
        def call(protocol, broker, delay, fn, *args):
            return later(protocol, broker, delay,
                         tracer.adopt(fn, "mobility"), *args)
        return call

    tracer.patch(MobilityProtocol, "later", "mobility", around=mobility_timer)

    # -- wire: time blocked on the peer ----------------------------------
    from repro.drivers.socket import BrokerPeer

    rtts = samples["wire.dispatch_rtt_s"] = []
    clock = tracer.clock

    def timed_dispatch(dispatch: Callable) -> Callable:
        def call(peer, *args, **kwargs):
            t0 = clock()
            try:
                return dispatch(peer, *args, **kwargs)
            finally:
                rtts.append(clock() - t0)
        return call

    def traced_socket(connect: Callable) -> Callable:
        def call(peer, *args, **kwargs):
            connect(peer, *args, **kwargs)
            peer.sock = _TracedSocket(peer.sock, tracer)
        return call

    tracer.patch(BrokerPeer, "dispatch", "wire", around=timed_dispatch)
    tracer.patch(BrokerPeer, "connect", "wire", around=traced_socket)
