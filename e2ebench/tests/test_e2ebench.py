"""Tests for the end-to-end benchmark.

Run from the repository root::

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from ledger import Ledger, LedgerProfiler, UnknownLayer, callback_layer  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402
from repro.sim.timers import PeriodicTimer, Timeout  # noqa: E402
from repro.units import US  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


# -- owner -> layer rollup -------------------------------------------------------


def test_callbacks_map_to_their_package():
    point = workloads.build_fanin(0, None, 0)
    tester = point.cp.tester
    sim = point.cp.sim
    assert callback_layer(point.cp.fabric.ports[0].deliver) == "net"
    assert callback_layer(tester.switch.receive) == "pswitch"
    assert callback_layer(tester.nic.receive) == "fpga"
    assert callback_layer(tester.nic.schedulers[0]._tick) == "fpga"
    assert callback_layer(point.sampler._sample) == "measure"
    # A timer counts toward the layer of the callback it fires.
    assert callback_layer(PeriodicTimer(sim, 10, point.sampler._sample)._fire) == "measure"
    assert callback_layer(Timeout(sim, 10, tester.nic.receive)._expire) == "fpga"


def test_unknown_owner_fails_loudly():
    with pytest.raises(UnknownLayer):
        callback_layer(lambda: None)
    with pytest.raises(UnknownLayer):
        callback_layer([].append)


def test_profiled_run_rolls_up_by_layer():
    ledger = Ledger()
    point = workloads.build_fanin(0, None, 0)
    workloads.instrument(point, ledger)
    point.cp.sim.enable_profiling(LedgerProfiler(ledger))
    with ledger.span("sim", "run"):
        point.cp.run(30 * US)
    for layer in ("sim", "net", "pswitch", "fpga", "cc", "measure"):
        assert ledger.self_s[layer] > 0.0, layer
    for layer in ("obs", "fluid", "serve", "parallel", "workload"):
        assert ledger.self_s[layer] == 0.0, layer
    assert ledger.count("net.deliver") > 0
    assert ledger.count("fpga._tick") > 0


# -- self time = span - children --------------------------------------------------


def test_self_time_on_a_synthetic_span_tree():
    """run[0,10] > { net[1,4] > cc[2,3] } and fpga[5,9]."""
    clock = FakeClock()
    ledger = Ledger(clock)

    def cc_call():
        clock.t = 3.0

    def net_call():
        clock.t = 2.0
        cc()
        clock.t = 4.0

    cc = ledger.wrap("cc", "on_event", cc_call)
    net = ledger.wrap("net", "send", net_call)
    with ledger.span("sim", "run"):
        clock.t = 1.0
        net()
        clock.t = 5.0
        with ledger.span("fpga", "drain"):
            clock.t = 9.0
        clock.t = 10.0
    assert ledger.self_s["sim"] == pytest.approx(3.0)
    assert ledger.self_s["net"] == pytest.approx(2.0)
    assert ledger.self_s["cc"] == pytest.approx(1.0)
    assert ledger.self_s["fpga"] == pytest.approx(4.0)
    assert sum(ledger.self_s.values()) == pytest.approx(10.0)
    assert ledger.total_s["net.send"] == pytest.approx(3.0)


def test_engine_callbacks_subtract_their_nested_spans():
    """run[0,10]: callback A (4 s) holding a 1 s cc span, callback B (3 s)."""
    clock = FakeClock()
    ledger = Ledger(clock)

    def cc_call():
        clock.t += 1.0

    cc = ledger.wrap("cc", "on_event", cc_call)
    with ledger.span("sim", "run"):
        clock.t = 1.0
        cc()
        ledger.callback("fpga", "_drain", 4.0)
        ledger.callback("net", "deliver", 3.0)
        clock.t = 10.0
    assert ledger.self_s["fpga"] == pytest.approx(3.0)
    assert ledger.self_s["cc"] == pytest.approx(1.0)
    assert ledger.self_s["net"] == pytest.approx(3.0)
    assert ledger.self_s["sim"] == pytest.approx(3.0)


def test_swap_class_keeps_behaviour_and_counts_calls():
    class Slotted:
        __slots__ = ("value",)

        def __init__(self) -> None:
            self.value = 0

        def bump(self, by: int) -> int:
            self.value += by
            return self.value

    ledger = Ledger()
    obj = Slotted()
    ledger.swap_class(obj, "net", ("bump",))
    assert isinstance(obj, Slotted)
    assert obj.bump(2) == 2 and obj.bump(3) == 5
    assert ledger.count("net.bump") == 2


# -- host-speed probe --------------------------------------------------------------


def test_probe_returns_the_result_and_a_host_factor():
    result, factor = probe.on_reference_host(lambda: 7)
    assert result == 7
    assert 0.05 < factor < 20.0


def test_probe_time_scales_with_its_event_count():
    small = min(probe.probe_seconds(5_000) for _ in range(3))
    large = min(probe.probe_seconds(50_000) for _ in range(3))
    assert large > 3 * small


def test_pool_probe_and_stamp_run_in_the_pool():
    from repro.parallel import CampaignRunner

    with CampaignRunner(workers=2).start() as runner:
        assert 0.0 < workloads.pool_probe(runner) < 5.0
        stamps = runner.run(workloads.pool_stamp, [()] * 2).values()
    assert stamps[0] == stamps[1]
    assert stamps[0]["engine_backend"] in ("python", "compiled")
    assert stamps[0]["datapath_port"] in (["CPort"], ["_PyPort"])


# -- campaign split ----------------------------------------------------------------


def cold_job(kind: str, wall: float, tasks: list, round_trip: float) -> "workloads.ColdJob":
    stats = {"campaign_wall_s": wall, "task_wall_s_total": sum(tasks),
             "task_wall_s_max": max(tasks), "task_wall_s_mean": sum(tasks) / len(tasks),
             "workers": 2}
    document = {"submitted_unix": 100.0, "started_unix": 100.001,
                "result": {"stats": stats}}
    return workloads.ColdJob({"kind": kind}, round_trip, document)


@pytest.mark.parametrize("rounds", [1, 5])
def test_campaign_split_does_not_depend_on_run_length(rounds):
    ledger = Ledger(clock=FakeClock())
    jobs = [cold_job("fluid", 1.0, [0.5, 0.5, 0.5, 0.5], 1.01),
            cold_job("sweep", 0.4, [0.3, 0.3], 0.41)]
    traced = [workloads.Round(1.5, jobs) for _ in range(rounds)]
    out = workloads.Outcome()
    hits = [0.002] * 10
    counters = {"repro_serve_cache_hits_total": 20.0,
                "repro_serve_jobs_coalesced_total": 2.0 * rounds}
    sent = {"hits": 20, "duplicates": 2 * rounds}
    m = workloads.campaign_ledger(ledger, traced, hits, hits, counters, sent, out)
    assert out.failures == []
    # Four 0.5 s tasks on 2 workers fill the 1 s job: no dispatch time.
    assert m["parallel.dispatch_ms"] == pytest.approx((0.0 + 100.0) / 2)
    assert m["parallel.busy_frac"] == pytest.approx((1.0 + 0.75) / 2)
    assert m["serve.hit_frac"] == 1.0 and m["serve.coalesced"] == 1.0
    # Covered: queue wait + campaign wall; the rest of each round trip is not.
    covered = rounds * (2 * 0.001 + 1.4)
    assert m["unattributed_frac"] == pytest.approx(1 - covered / (rounds * 1.42 + 0.02))


def test_campaign_split_fails_when_the_sweep_did_no_work():
    out = workloads.Outcome()
    traced = [workloads.Round(1.0, [cold_job("fluid", 1.0, [0.5, 0.5], 1.0)])]
    counters = {"repro_serve_cache_hits_total": 1.0, "repro_serve_jobs_coalesced_total": 1.0}
    workloads.campaign_ledger(Ledger(clock=FakeClock()), traced, [0.002], [0.002],
                              counters, {"hits": 1, "duplicates": 1}, out)
    assert any("sweep did no work" in failure for failure in out.failures)


# -- metric names ------------------------------------------------------------------


def test_metric_names_and_units_are_well_formed():
    names = [name for name, _ in workloads.PER_LAYER + workloads.END_TO_END]
    assert len(names) == len(set(names))
    for name, unit in workloads.PER_LAYER + workloads.END_TO_END:
        assert NAME.match(name), name
        assert UNIT.match(unit), unit


def test_benchmark_json_lists_the_measured_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(workloads.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


# -- smoke runs --------------------------------------------------------------------


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_of_each_workload(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3",
                     "--seconds", "0.01", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = workloads.PER_LAYER if trace == "1" else workloads.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(expected)
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert info["stamp"]["engine_backend"] in ("python", "compiled")
    assert info["stamp"]["datapath_port"] and info["stamp"]["datapath_queue"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "fanin_dcqcn", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
