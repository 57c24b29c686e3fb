"""The layer seam, structurally (docs/ARCHITECTURE.md, "Layer seam").

The four opt-in layers — wireless faults, crash repair, ACK/retransmit,
WAL — reach the kernel only through hook points that they claim once, in
``register``, before any broker, client or protocol binds them. A layer
that is off is absent: the kernel holds no handle to test. These tests
keep it that way without running a scenario (the fixed-seed digests of
``tests/test_outcome_digests.py`` hold the behaviour).
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import re

import pytest

import repro.mobility
from repro.network.faults import FaultProfile
from repro.network.recovery import CrashPlan
from repro.pubsub import messages as m
from repro.pubsub.filters import RangeFilter
from repro.pubsub.system import PubSubSystem

#: the modules that must not know which layers exist
KERNEL = ["repro.network.links", "repro.pubsub.broker", "repro.pubsub.client"] + [
    info.name
    for info in pkgutil.iter_modules(repro.mobility.__path__, "repro.mobility.")
]

#: names a layer handle goes by, as an attribute or as a local alias
HANDLES = {"reliability", "recovery", "durability", "faults",
           "fault_injector", "rel", "rec", "dur"}


def _terminal(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _truth_operands(expr: ast.AST):
    """The operands whose truth ``expr`` reads, through ``not``/``and``/``or``."""
    if isinstance(expr, ast.BoolOp):
        for value in expr.values:
            yield from _truth_operands(value)
    elif isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.Not):
        yield from _truth_operands(expr.operand)
    else:
        yield expr


def _presence_tests(tree: ast.AST):
    """``handle is (not) None`` comparisons and bare-handle truth tests."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
            operands = [node.left, *node.comparators]
            if any(isinstance(o, ast.Constant) and o.value is None
                   for o in operands):
                yield from (o for o in operands if _terminal(o) in HANDLES)
        elif isinstance(node, (ast.If, ast.IfExp, ast.While)):
            yield from (o for o in _truth_operands(node.test)
                        if _terminal(o) in HANDLES)


@pytest.mark.parametrize("module_name", KERNEL)
def test_the_kernel_reads_no_layer_handle(module_name):
    module = importlib.import_module(module_name)
    tree = ast.parse(inspect.getsource(module))
    reads = [
        f"{module_name}:{node.lineno} .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and node.attr in ("reliability", "durability", "recovery")
    ]
    tests = [f"{module_name}:{node.lineno} {ast.unparse(node)}"
             for node in _presence_tests(tree)]
    assert reads == [] and tests == []


def test_the_ast_walk_sees_what_it_forbids():
    bad = ast.parse(
        "rec = self.system.recovery\n"
        "if rec is not None:\n    pass\n"
        "if None is self.faults:\n    pass\n"
        "x = 1 if self.net.reliability else 2\n"
        "while not dur and ready:\n    pass\n"
        "if handler is None or self.queue_cap is not None:\n    pass\n"
    )
    assert sorted(ast.unparse(n) for n in _presence_tests(bad)) == [
        "dur", "rec", "self.faults", "self.net.reliability"]


# ---------------------------------------------------------------------------
# what a built system holds
# ---------------------------------------------------------------------------
FULL = dict(
    faults=FaultProfile(deliver_loss=0.1),
    crashes=CrashPlan.parse(crashes=["1@60"]),
    reliable=True,
    durable=True,
)
SEAM_ORDER = ["LinkFaultInjector", "RecoveryCoordinator",
              "ReliabilityManager", "DurabilityManager"]


def test_a_plain_system_has_every_hook_point_on_the_plain_path():
    system = PubSubSystem(grid_k=2)
    assert system.layers == []
    assert (system.fault_injector, system.recovery, system.reliability,
            system.durability) == (None,) * 4
    kernel_side = vars(system.hooks)
    assert len(kernel_side) == 20
    assert all(point in ([], {}, set()) for point in kernel_side.values())
    net = system.net
    assert (net._injectors, net._blocked, net._stale, net._wideners) == (
        [], [], [], [])
    assert net._stamp() == () and net._push == system.clock.call_later_fifo
    client = system.add_client(RangeFilter(0.0, 1.0), broker=0)
    assert net._downlinks[client.id].faults == []
    for broker in system.brokers.values():
        assert broker._send_final == broker._send_deliver
        assert broker._dispatch == broker._CORE_DISPATCH
    assert system.protocol._timer_guard == []
    system.close()  # nothing to release, and no handle to ask


def test_layers_register_in_the_documented_order():
    system = PubSubSystem(grid_k=2, **FULL)
    assert [type(layer).__name__ for layer in system.layers] == SEAM_ORDER
    assert system.layers == [system.fault_injector, system.recovery,
                             system.reliability, system.durability]
    # any subset keeps its relative order
    partial = PubSubSystem(grid_k=2, reliable=True, faults=FULL["faults"])
    assert [type(layer).__name__ for layer in partial.layers] == [
        SEAM_ORDER[0], SEAM_ORDER[2]]


def test_a_layered_system_claims_its_hook_points_once():
    system = PubSubSystem(grid_k=2, **FULL)
    hooks, net = system.hooks, system.net
    rec, rel, dur = system.recovery, system.reliability, system.durability
    assert net._injectors == [system.fault_injector]
    assert (net._blocked, net._stale) == ([rec._blocked], [rec._stale])
    assert net._stamp() == rec.generation
    assert net._push == net._push_guarded
    assert net._wideners == [rel.reclaim_link]
    assert hooks.down_brokers is rec.down
    assert hooks.final_sender == [rel.send]
    assert hooks.broker_rx == {m.AckMessage: rel.on_ack,
                               m.SessionTransfer: dur.on_session_transfer}
    assert hooks.client_rx == {m.ReliableDeliver: rel.on_deliver}
    assert hooks.backlog_source == [dur.replay_events]
    assert hooks.subscribe == [dur.open_session]
    # fixed-for-a-run policy is decided here, not per message: under the
    # reliability layer the cumulative ACK is the WAL cursor, not the app
    # receipt, and a durable run never writes a live broker's window off
    assert hooks.settled == [dur.on_settled] and hooks.delivered == []
    assert rel._write_off is False
    for name, point in vars(hooks).items():
        assert len(point) <= 2, name  # nobody registered twice
    best_effort = PubSubSystem(grid_k=2, durable=True)
    assert best_effort.hooks.delivered == [
        best_effort.durability.on_client_delivered]
    assert PubSubSystem(grid_k=2, reliable=True).reliability._write_off is True


def test_the_constructor_assigns_nothing_onto_the_transport():
    source = inspect.getsource(PubSubSystem.__init__)
    wiring = source[source.index("build_transport"):]
    assert re.findall(r"self\.net\.\w+\s*=[^=]", wiring) == []
    assert "register(hooks, self.net)" in wiring
