"""Tests of the benchmark harness itself (collected by the tier-1 run).

The five ``--quick`` measurements run side by side: their timings mean
nothing here, only that every declared metric comes out, under a legal
name, and that the simulated results repeat.
"""

from __future__ import annotations

import io
import json
import re
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stdout
from dataclasses import replace

import pytest

from benchmarks.e2e import __main__ as cli
from benchmarks.e2e import child, compare, runner
from benchmarks.e2e.metrics import END_TO_END, PER_LAYER, Metric
from benchmarks.e2e.trace import SpanCost, Tracer, corrected_self

child.add_src_to_path()
from benchmarks.e2e.workloads import BUNDLES, WORKLOADS, build_config  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def quick_reports():
    with ThreadPoolExecutor(max_workers=len(WORKLOADS)) as pool:
        futures = {
            name: pool.submit(runner.measure, name, 1, reps=1, quick=True,
                              trace=True)
            for name in WORKLOADS
        }
        return {name: f.result() for name, f in futures.items()}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_declared_metric_is_emitted(quick_reports, name):
    report = quick_reports[name]
    # untraced, traced and tracemalloc runs agreed on the simulated results,
    # or the report would carry a failed check
    assert report["status"] == "ok", report
    assert set(report["metrics"]) == {m.name for m in END_TO_END}
    assert set(report["layers"]) == {m.name for m in PER_LAYER}
    assert report["trace_missing"] == []
    assert report["failed_deliveries_share"] == 0.0
    for metric in END_TO_END:
        assert report["metrics"][metric.name]["median"] > 0, metric.name
    assert report["layers"]["trace.unattributed_share"] < 0.1


def test_layers_show_up_where_their_workload_loads_them(quick_reports):
    layers = {name: r["layers"] for name, r in quick_reports.items()}
    assert layers["lossy_durable"]["reliability.frames"] > 0
    assert layers["lossy_durable"]["wal.appends"] > 0
    assert layers["wire_socket"]["wire.dispatches"] > 0
    assert layers["wire_socket"]["wire.peer_wait_s"] > 0
    assert layers["churn_subunsub"]["control.covers_checks"] > 0
    for name in ("fanout_steady", "churn_mhh", "churn_subunsub"):
        assert layers[name]["reliability.self_share"] == 0
        assert layers[name]["wal.self_share"] == 0
        assert layers[name]["wire.self_share"] == 0


def test_metric_names_are_legal():
    names = [m.name for m in END_TO_END + PER_LAYER] + list(WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_a_second_quick_run_has_the_same_digest(quick_reports):
    again = runner._collect(runner._spawn("churn_mhh", 1, "--quick"))
    assert again["sim_digest"] == quick_reports["churn_mhh"]["sim_digest"]


def test_benchmark_json_lists_what_the_harness_emits():
    spec = json.loads((child.ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER]
    assert all(0 < m.bound <= 0.25 for m in END_TO_END)


# ----------------------------------------------------------------------
# a run that raises
# ----------------------------------------------------------------------
def _boom(_seed):
    raise RuntimeError("boom")


def test_a_workload_that_raises_counts_as_all_failed(monkeypatch, capsys):
    monkeypatch.setitem(
        WORKLOADS, "churn_mhh", replace(WORKLOADS["churn_mhh"], make=_boom))
    code = child.main(["--workload", "churn_mhh", "--quick"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["status"] == "error"
    assert result["failed_deliveries_share"] == 1.0
    assert "boom" in result["error"]

    # the parent turns that child into a failed report and a non-zero exit
    monkeypatch.setattr(runner, "_spawn", lambda *a, **k: None)
    monkeypatch.setattr(runner, "_collect", lambda _proc: result)
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["--workload", "churn_mhh", "--quick"])
    assert code == 1
    assert "churn_mhh.failed_deliveries_share 1.0" in out.getvalue()


def test_a_bundle_whose_field_is_gone_is_unavailable(monkeypatch):
    monkeypatch.setitem(BUNDLES, "legacy", {"no_such_field": 1})
    assert build_config("churn_mhh", 1, bundle="legacy") is None
    assert build_config("churn_mhh", 1, bundle="default") is not None


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def test_self_time_is_span_minus_children():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    helper = tracer.wrap(lambda: None, "x", "helper")
    inner = tracer.wrap(lambda: None, "x", "inner")
    mid = tracer.wrap(lambda: inner(), "y", "mid")

    def outer_body():
        helper()  # same layer: no boundary, no span, no clock reading
        mid()

    outer = tracer.wrap(outer_body, "x", "outer")
    outer()

    # clock: outer 0..5, mid 1..4, inner 2..3
    st = {name: stat for (_layer, name), stat in tracer.stats.items()}
    assert (st["outer"].incl_s, st["outer"].self_s) == (5.0, 2.0)
    assert (st["mid"].incl_s, st["mid"].self_s) == (3.0, 2.0)
    assert (st["inner"].incl_s, st["inner"].self_s) == (1.0, 1.0)
    assert (st["helper"].calls, st["helper"].nested) == (0, 1)
    assert st["outer"].child_calls == 1 and st["mid"].child_calls == 1
    assert tracer.layer_self_s() == {"x": 3.0, "y": 2.0}
    assert tracer.root_s == 5.0
    assert tracer.span_count() == 3
    # raw spans carry their parent
    assert [(s[0], s[1], s[3]) for s in sorted(tracer.spans)] == [
        (0, -1, "outer"), (1, 0, "mid"), (2, 1, "inner")]
    # the calibrated span cost comes out of the span and out of its parent
    cost = SpanCost(inner_s=0.1, outer_s=0.2)
    assert corrected_self(st["outer"], cost) == pytest.approx(2.0 - 0.1 - 0.2)
    assert corrected_self(st["inner"], cost) == pytest.approx(1.0 - 0.1)
    tracer.reset()
    assert tracer.layer_self_s() == {"x": 0.0, "y": 0.0}


def test_patch_wraps_aliases_and_uninstalls():
    class Thing:
        def send(self):
            return "sent"

        alias = send

    tracer = Tracer()
    assert tracer.patch(Thing, "send", "links")
    assert not tracer.patch(Thing, "gone", "links")
    assert tracer.missing == ["Thing.gone"]
    assert Thing().alias() == "sent" and Thing().send() == "sent"
    assert tracer.invocations("links", "Thing.send") == 2
    tracer.uninstall()
    assert Thing.alias is Thing.send and not hasattr(Thing.send, "_e2e_layer")


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
def _v(median, lo=None, hi=None):
    return {"median": median, "min": median if lo is None else lo,
            "max": median if hi is None else hi, "n": 3}


def test_compare_verdicts():
    wall = Metric("run_wall_s", "s", "lower", "host", 0.10)
    rate = Metric("deliveries_per_s", "1/s", "higher", "host", 0.10)
    hops = Metric("overhead_hops_per_handoff", "hops", "lower", "simulated",
                  0.02)
    assert compare.verdict(wall, _v(10, 9.8, 10.2), _v(10.3, 10.1, 10.5)) \
        == "unchanged"
    assert compare.verdict(wall, _v(10, 9.8, 10.2), _v(12, 11.8, 12.2)) \
        == "worse"
    assert compare.verdict(wall, _v(10, 9.8, 10.2), _v(8, 7.9, 8.1)) \
        == "better"
    assert compare.verdict(rate, _v(100, 99, 101), _v(120, 119, 121)) \
        == "better"
    # spread wider than the bound: cannot tell
    assert compare.verdict(wall, _v(10, 9, 11), _v(10.2, 9.5, 11.5)) \
        == "unresolved"
    # a big move whose ranges still overlap is not resolved either
    assert compare.verdict(wall, _v(10, 9, 12.5), _v(12, 11, 13)) \
        == "unresolved"
    # simulated metrics are exact
    assert compare.verdict(hops, _v(33.9), _v(33.9)) == "unchanged"
    assert compare.verdict(hops, _v(33.9), _v(33.91)) == "worse"
    assert compare.verdict(hops, _v(33.9), _v(33.0)) == "better"


def test_compare_flags_failed_deliveries_and_digest():
    def side(failed, digest):
        return {"meta": {"seed": 1, "quick": False}, "workloads": {"w": {
            "failed_deliveries_share": failed, "sim_digest": digest,
            "metrics": {m.name: _v(1.0) for m in END_TO_END}}}}

    rows, worse = compare.compare(side(0.0, "aa"), side(0.0, "aa"))
    assert not worse and {r[5] for r in rows} == {"unchanged"}
    rows, worse = compare.compare(side(0.0, "aa"), side(0.001, "bb"))
    assert worse
    by_metric = {r[1]: r[5] for r in rows}
    assert by_metric["failed_deliveries_share"] == "worse"
    assert by_metric["sim_digest"] == "changed"
