"""The benchmark's workloads, each driven through the public API.

A workload function takes ``(name, seed, seconds, workdir, trace)`` and returns
an :class:`Outcome`: operations attempted and failed, the failures'
messages, the metrics, and a stamp of what actually ran.  With
``trace=False`` it reports the end-to-end metrics; with ``trace=True`` it
alternates untraced and traced repetitions and reports the per-layer
ledger (see ``README.md`` in this directory for the metric map).
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from repro import ControlPlane, TestConfig
from repro.core.sweep import steady_state_flow_rates
from repro.measure.fairness import jain_index
from repro.obs import flight, parse_prometheus_text
from repro.parallel import CampaignRunner
from repro.serve import ReproServer, ServeClient, ServeError
from repro.sim.engine import Simulator
from repro.units import US
from repro.workload import ClosedLoopGenerator, FlowSlot
from repro.workload.distributions import WEBSEARCH_CDF_POINTS, EmpiricalCdf

from ledger import Ledger, LedgerProfiler, layer_of_module
from probe import REFERENCE_S, on_reference_host, probe_seconds

clock = time.perf_counter

#: Every per-layer metric a traced run reports, in print order.
PER_LAYER = (
    ("sim.self_us_per_pkt", "us"), ("sim.events_per_pkt", "count"),
    ("sim.cancelled_frac", "ratio"),
    ("net.self_us_per_pkt", "us"), ("net.deliver_calls_per_pkt", "count"),
    ("net.queue_drops", "count"), ("net.ecn_marks", "count"),
    ("pswitch.self_us_per_pkt", "us"), ("pswitch.delivered_frac", "ratio"),
    ("fpga.self_us_per_pkt", "us"), ("fpga.ticks_per_sche", "count"),
    ("fpga.timeouts", "count"), ("fpga.rtx", "count"),
    ("fpga.rmw_conflicts", "count"),
    ("cc.self_us_per_pkt", "us"), ("cc.calls_per_pkt", "count"),
    ("measure.self_us_per_pkt", "us"), ("workload.us_per_flow", "us"),
    ("obs.self_us_per_pkt", "us"), ("obs.notes_per_pkt", "count"),
    ("obs.spools", "count"), ("obs.spool_ms", "ms"),
    ("core.build_s", "s"), ("parallel.pool_start_s", "s"),
    ("fluid.cell_s", "s"), ("parallel.busy_frac", "ratio"),
    ("parallel.dispatch_ms", "ms"),
    ("serve.queue_wait_ms", "ms"), ("serve.overhead_ms", "ms"),
    ("serve.cache_get_ms", "ms"), ("serve.cache_put_ms", "ms"),
    ("serve.hit_frac", "ratio"), ("serve.coalesced", "ratio"),
    ("serve.hit_ms_p50", "ms"), ("serve.hit_ms_p90", "ms"),
    ("trace_overhead_frac", "ratio"), ("unattributed_frac", "ratio"),
)

#: Every end-to-end metric an untraced run reports.
END_TO_END = (
    ("setup_s", "s"), ("cold_result_s", "s"), ("rate_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: Modules a fresh interpreter imports before each workload can start.
IMPORTS = {
    "packet": "import numpy, repro.core.control_plane, repro.workload, repro.obs.flight",
    "serve": "import repro.serve",
}


@dataclass
class Outcome:
    attempted: int = 0
    failures: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    stamp: dict = field(default_factory=dict)
    #: How many samples each median was taken over.
    samples: dict = field(default_factory=dict)
    #: The end-to-end metrics before host-speed scaling, and the median
    #: host factor (see ``probe.py``).
    raw: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.fail(message)


# -- shared measurements ---------------------------------------------------------


IMPORT_SAMPLES = 7


def import_seconds(kind: str, repeats: int = IMPORT_SAMPLES) -> float:
    """Median wall time for a fresh interpreter to import a workload's
    modules (interpreter start included).  Not scaled by the host probe:
    import time does not follow it."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    samples = []
    for _ in range(repeats):
        start = clock()
        subprocess.run([sys.executable, "-c", IMPORTS[kind]], env=env, check=True)
        samples.append(clock() - start)
    return statistics.median(samples)


def _vm_hwm_kb(pid: str) -> int:
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:  # the process ended between listing and reading
        return 0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def child_pids() -> list[str]:
    """Pids of this process's children that have not been reaped."""
    pids = []
    for task in Path("/proc/self/task").iterdir():
        pids += (task / "children").read_text().split()
    return pids


def peak_rss_mb(with_children: bool = False) -> float:
    """Peak resident memory of this process, plus the peaks of its live
    children (the daemon's pool) when asked."""
    kb = _vm_hwm_kb("self")
    if with_children:
        kb += sum(_vm_hwm_kb(pid) for pid in child_pids())
    return kb / 1024.0


def core_name(cls: type, names: tuple[str, ...]) -> str:
    """The datapath core a class really runs: the first of ``names`` in
    its MRO (``CPort`` vs ``_PyPort``, ``CQueue`` vs ``_PyDropTailQueue``)."""
    for base in cls.__mro__:
        if base.__name__ in names:
            return base.__name__
    return cls.__name__


PORT_CORES = ("CPort", "_PyPort")
QUEUE_CORES = ("CQueue", "_PyDropTailQueue")


def stamp(point: "Point") -> dict:
    """What one built point really ran: the engine backend and the
    datapath core classes of its ports and queues."""
    sim = point.cp.sim
    ports = [port for device in (point.cp.tester.switch, point.cp.tester.nic,
                                 point.cp.fabric) for port in device.ports]
    return {
        "engine_backend": sim.backend_name,
        "engine_requested": sim.backend_requested,
        "datapath_port": sorted({core_name(type(p), PORT_CORES) for p in ports}),
        "datapath_queue": sorted({core_name(type(p.queue), QUEUE_CORES) for p in ports}),
    }


def quantile(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]


# -- packet workloads ------------------------------------------------------------


@dataclass
class Point:
    """One built packet scenario."""

    cp: ControlPlane
    #: Long-lived flows to stop before the drain (fan-in only).
    flow_ids: list = field(default_factory=list)
    sampler: Any = None
    generator: Optional[ClosedLoopGenerator] = None
    recorder: Any = None


def build_fanin(seed: int, ledger: Optional[Ledger], task: int) -> Point:
    """The fan-in scenario ``run_sweep_point`` builds: 3 long-lived DCQCN
    flows into one port, 4 MB buffer, rate sampler on."""
    cp = ControlPlane()
    tester = cp.deploy(TestConfig(cc_algorithm="dcqcn", n_test_ports=4, seed=seed))
    cp.wire_loopback_fabric()
    sampler = tester.enable_rate_sampling(period_ps=500 * US)
    flow_ids = cp.start_flows(size_packets=10**9, pattern="fan_in")
    return Point(cp, flow_ids=flow_ids, sampler=sampler)


#: Sim time after stopping long-lived flows for in-flight packets to land,
#: so DATA, ACK and INFO counts can be compared.
DRAIN_PS = 200 * US


def simulate(point: Point, duration_ps: int) -> None:
    """Run the point, then stop its long-lived flows and drain."""
    point.cp.run(duration_ps)
    if point.flow_ids:
        for flow_id in point.flow_ids:
            point.cp.tester.nic.stop_flow(flow_id)
        point.cp.run(DRAIN_PS)


#: WebSearch flow sizes divided by 10, as in ``examples/websearch_fct.py``.
SCALED_WEBSEARCH = EmpiricalCdf(
    tuple((size // 10, prob) for size, prob in WEBSEARCH_CDF_POINTS)
)


def build_incast(seed: int, ledger: Optional[Ledger], task: int) -> Point:
    """Closed-loop WebSearch incast: 3 senders x 32 slots into one port,
    DCTCP, 100 KB bottleneck buffer, flight recorder armed the way a
    ``--results-dir`` campaign task arms it."""
    cp = ControlPlane()
    tester = cp.deploy(TestConfig(cc_algorithm="dctcp", n_test_ports=4, seed=seed))
    cp.wire_loopback_fabric(queue_capacity_bytes=100_000)
    generator = ClosedLoopGenerator(
        tester,
        SCALED_WEBSEARCH,
        [FlowSlot(src, 3) for src in range(3) for _ in range(32)],
        rng=np.random.default_rng(seed),
    )
    recorder = flight.begin_task(task)
    if ledger is not None:
        ledger.swap_class(recorder, "obs", ("record", "spool"))
    flight.attach_control_plane(cp, recorder)
    generator.start()
    return Point(cp, generator=generator, recorder=recorder)


def instrument(point: Point, ledger: Ledger) -> None:
    """Span the cross-layer calls on the objects of one built point."""
    cp = point.cp
    tester = cp.tester
    for device in (tester.switch, tester.nic, cp.fabric):
        layer = layer_of_module(type(device).__module__)
        for port in device.ports:
            port._receive = ledger.wrap(layer, "receive", port._receive)
            ledger.swap_class(port, "net", ("send",))
    algorithm = tester.algorithm
    for name in ("on_event", "slow_path", "on_flow_start"):
        setattr(algorithm, name, ledger.wrap("cc", name, getattr(algorithm, name)))
    nic = tester.nic
    nic.start_flow = ledger.wrap("fpga", "start_flow", nic.start_flow)
    nic.completion_callbacks[:] = [
        ledger.wrap(layer_of_module(type(cb.__self__).__module__), cb.__name__, cb)
        for cb in nic.completion_callbacks
    ]
    tester.fct.add = ledger.wrap("measure", "fct_add", tester.fct.add)
    data_generator = tester.switch.data_generator
    if data_generator.on_generate is not None:
        data_generator.on_generate = ledger.wrap(
            "measure", "meter", data_generator.on_generate
        )


def collect(point: Point) -> dict:
    """The simulated counters of a finished point (seed-independent
    checks read these; repetitions must reproduce them exactly)."""
    cp = point.cp
    tester = cp.tester
    counters = dict(cp.read_measurements())
    queues = [port.queue for port in cp.fabric.ports]
    counters["fabric.drops"] = sum(q.stats.dropped_packets for q in queues)
    counters["fabric.ecn_marks"] = sum(q.stats.ecn_marked_packets for q in queues)
    counters["fabric.max_backlog"] = max(q.stats.max_backlog_bytes for q in queues)
    counters["switch.data_received"] = tester.switch.receiver.data_received
    counters["sim.events"] = cp.sim.events_executed
    counters["sim.cancelled"] = cp.sim.events_cancelled
    counters["fct.count"] = len(tester.fct)
    hooks = [cp.sim, cp.fabric, tester.nic] + [port.queue for port in cp.fabric.ports]
    counters["obs.hooked"] = sum(getattr(c, "_flight", None) is not None for c in hooks)
    if point.sampler is not None:
        rates = steady_state_flow_rates(point.sampler)
        counters["fairness"] = jain_index(rates) if rates else 0.0
    if point.generator is not None:
        counters["flows_started"] = point.generator.flows_started
        counters["flows_completed"] = point.generator.flows_completed
    return counters


def check_fanin(counters: dict, out: Outcome) -> None:
    data = counters["switch.data_generated"]
    acks = counters["switch.acks_generated"]
    # Module B turns every returning ACK, NACK and CNP into one INFO.
    returned = acks + counters["switch.nacks_generated"] + counters["switch.cnps_generated"]
    out.check(data > 0, "fanin: no DATA generated")
    out.check(data == acks, f"fanin: {data} DATA but {acks} ACKs after the drain")
    out.check(counters["switch.infos_generated"] == returned,
              f"fanin: {counters['switch.infos_generated']} INFOs for {returned} ACK/NACK/CNPs")
    out.check(counters["fabric.drops"] == 0, f"fanin: {counters['fabric.drops']} drops")
    out.check(counters["fairness"] > 0.9, f"fanin: fairness {counters['fairness']:.3f}")
    out.check(counters["obs.hooked"] == 0, "fanin: a flight recorder is attached")


def check_incast(counters: dict, out: Outcome) -> None:
    out.check(counters["fct.count"] > 0, "incast: no flow completed")
    out.check(counters["fabric.drops"] > 0, "incast: no drops on the shallow buffer")
    out.check(counters["fpga.timeouts_fired"] > 0, "incast: no timeouts fired")
    out.check(counters["obs.hooked"] > 0, "incast: no flight recorder is attached")


@dataclass
class PacketScenario:
    build: Callable[..., Point]
    check: Callable[[dict, Outcome], None]
    duration_ps: int


SCENARIOS = {
    "fanin_dcqcn": PacketScenario(build_fanin, check_fanin, 1500 * US),
    "incast_websearch_dctcp": PacketScenario(build_incast, check_incast, 500 * US),
}


@dataclass
class Rep:
    counters: dict
    build_s: float
    run_s: float
    wall_s: float
    stamp: dict
    #: Host factor measured around an untraced repetition (``probe.py``).
    factor: float = 1.0

    @property
    def data(self) -> int:
        return self.counters["switch.data_generated"]


def run_rep(
    scenario: PacketScenario, seed: int, task: int, out: Outcome,
    ledger: Optional[Ledger] = None,
) -> Rep:
    """One repetition: build, run for the scenario's sim time, collect.
    With a ledger, every step is spanned and the engine profiled."""
    start = clock()
    if ledger is None:
        point = scenario.build(seed, None, task)
        built = clock()
        simulate(point, scenario.duration_ps)
        ran = clock()
        counters = collect(point)
        finish_flight(point, out)
        return Rep(counters, built - start, ran - built, clock() - start, stamp(point))
    with ledger.span("core", "build"):
        point = scenario.build(seed, ledger, task)
        instrument(point, ledger)
        point.cp.sim.enable_profiling(LedgerProfiler(ledger))
    built = clock()
    with ledger.span("sim", "run"):
        simulate(point, scenario.duration_ps)
    ran = clock()
    with ledger.span("measure", "collect"):
        counters = collect(point)
    if point.recorder is not None:
        with ledger.span("obs", "finish"):
            finish_flight(point, out)
    return Rep(counters, built - start, ran - built, clock() - start, stamp(point))


def finish_flight(point: Point, out: Outcome) -> None:
    """Check the spool loads, then finalize the task's recorder."""
    recorder = point.recorder
    if recorder is None:
        return
    path = flight.task_dump_path(flight.autodump_config()["dir"], recorder.meta["task"])
    try:
        dump = flight.load_dump(path)
    except (OSError, ValueError) as exc:
        out.fail(f"incast: flight spool does not load: {exc}")
    else:
        out.check(dump["events_recorded"] > 0, "incast: flight spool is empty")
    flight.end_task(recorder, ok=True)


#: Inputs per packet run: repetition ``i`` of seed ``s`` simulates input
#: seed ``INPUTS * s + i % INPUTS``, so a run covers several flow mixes
#: and each input still repeats (repeats must match exactly).
INPUTS = 4


def median_of_inputs(reps: list, value: Callable[[Rep], float]) -> float:
    """Median over inputs of each input's median, so every input weighs
    the same however many repetitions it got."""
    per_input = [
        statistics.median(value(r) for r in reps[start::INPUTS])
        for start in range(min(len(reps), INPUTS))
    ]
    return statistics.median(per_input)


def run_packet(name: str, seed: int, seconds: float, workdir: Path, trace: bool) -> Outcome:
    scenario = SCENARIOS[name]
    out = Outcome()
    flight.configure_autodump(workdir)  # arms only points that begin a task
    try:
        imports_s = 0.0 if trace else import_seconds("packet")
        ledger = Ledger() if trace else None
        reps: list[Rep] = []
        traced: list[Rep] = []
        deadline = clock() + seconds
        while not reps or clock() < deadline:
            task = len(reps) + len(traced)
            input_seed = INPUTS * seed + len(reps) % INPUTS
            rep, factor = on_reference_host(
                lambda: run_rep(scenario, input_seed, task, out))
            rep.factor = factor
            reps.append(rep)
            if trace:
                traced.append(run_rep(scenario, input_seed, task + 1, out, ledger))
            out.attempted += 1 + trace
    finally:
        flight.configure_autodump(None)
    for index, rep in enumerate(reps):
        first = reps[index % INPUTS].counters
        if index < INPUTS:
            scenario.check(first, out)
        out.check(rep.counters == first, f"{name}: repetitions of one input differ")
        if trace:
            out.check(traced[index].counters == first,
                      f"{name}: a traced repetition differs from the untraced one")
    out.stamp = reps[0].stamp
    out.samples = {"imports": 0 if trace else IMPORT_SAMPLES, "repetitions": len(reps),
                   "traced_repetitions": len(traced), "inputs": min(len(reps), INPUTS)}
    if not trace:
        out.raw = {
            "cold_result_s": median_of_inputs(reps, lambda r: r.wall_s),
            "rate_per_s": median_of_inputs(reps, lambda r: r.data / r.run_s),
            "host_factor": statistics.median(r.factor for r in reps),
        }
        out.metrics = {
            "setup_s": imports_s + statistics.median(r.build_s for r in reps),
            "cold_result_s": median_of_inputs(reps, lambda r: r.wall_s / r.factor),
            "rate_per_s": median_of_inputs(reps, lambda r: r.data / r.run_s * r.factor),
            "peak_rss_mb": peak_rss_mb(),
        }
        return out
    out.metrics = packet_ledger(ledger, reps, traced)
    check_packet_design(name, out.metrics, ledger.self_s, out)
    return out


def packet_ledger(ledger: Ledger, reps: list, traced: list) -> dict:
    """Per-layer metrics of the traced repetitions.  Ratios are sums over
    all traced repetitions; counters are means per repetition."""
    n = len(traced)

    def total(key: str) -> float:
        return sum(r.counters.get(key, 0) for r in traced)

    pkts = total("switch.data_generated")
    per_pkt = {f"{layer}.self_us_per_pkt": ledger.self_s[layer] * 1e6 / pkts
               for layer in ("sim", "net", "pswitch", "fpga", "cc", "measure", "obs")}
    # The profiler's own bookkeeping runs between callbacks, inside the
    # run span: it is tracing cost, not engine time.
    per_pkt["sim.self_us_per_pkt"] -= ledger.overhead_s * 1e6 / pkts
    spools = ledger.count("obs.spool")
    flows = total("flows_started")
    events, cancelled = total("sim.events"), total("sim.cancelled")
    metrics = dict.fromkeys(name for name, _ in PER_LAYER)
    metrics.update(per_pkt)
    metrics.update({
        "sim.events_per_pkt": events / pkts,
        "sim.cancelled_frac": cancelled / (events + cancelled),
        "net.deliver_calls_per_pkt": ledger.count("net.deliver") / pkts,
        "net.queue_drops": total("fabric.drops") / n,
        "net.ecn_marks": total("fabric.ecn_marks") / n,
        "pswitch.delivered_frac": total("switch.data_received") / pkts,
        "fpga.ticks_per_sche": ledger.count("fpga._tick") / total("fpga.sche_emitted"),
        "fpga.timeouts": total("fpga.timeouts_fired") / n,
        "fpga.rtx": total("fpga.rtx_emitted") / n,
        "fpga.rmw_conflicts": total("fpga.rmw_conflicts") / n,
        "cc.calls_per_pkt": sum(ledger.count(f"cc.{m}") for m in
                                ("on_event", "slow_path", "on_flow_start")) / pkts,
        "workload.us_per_flow": ledger.self_s["workload"] * 1e6 / flows if flows else 0.0,
        "obs.notes_per_pkt": ledger.count("obs.record") / pkts,
        "obs.spools": spools / n,
        "obs.spool_ms": ledger.total_s.get("obs.spool", 0.0) * 1e3 / spools if spools else 0.0,
        "core.build_s": statistics.median(r.build_s for r in traced),
        "trace_overhead_frac": statistics.median(r.wall_s for r in traced)
        / statistics.median(r.wall_s for r in reps) - 1.0,
        "unattributed_frac": 1.0 - (sum(ledger.self_s.values()) - ledger.overhead_s)
        / sum(r.wall_s for r in traced),
    })
    return {name: value or 0.0 for name, value in metrics.items()}


def check_packet_design(name: str, m: dict, self_s: dict, out: Outcome) -> None:
    """Fail loudly when the traced run shows the workload's design drifted."""
    if name == "fanin_dcqcn":
        for layer in ("obs", "fluid", "serve", "parallel"):
            out.check(self_s[layer] == 0.0, f"fanin: {layer} did work ({self_s[layer]:.6f} s)")
        out.check(m["net.queue_drops"] == 0, "fanin: drops in the traced run")
    else:
        out.check(m["net.queue_drops"] > 0, "incast: no drops in the traced run")
        out.check(m["fpga.timeouts"] > 0, "incast: no timeouts in the traced run")
        out.check(m["obs.spools"] > 0, "incast: the flight recorder never spooled")
        out.check(self_s["obs"] > 0.0, "incast: obs did no work")
        out.check(self_s["workload"] > 0.0, "incast: the generator did no work")
    for layer in ("sim", "net", "pswitch", "fpga", "cc"):
        out.check(self_s[layer] > 0.0, f"{name}: packet layer {layer} did no work")


# -- campaign through repro serve ------------------------------------------------

WORKERS = 2
HITS_PER_PHASE = 200
#: Daemon starts per untraced run; ``setup_s`` takes their median.
DAEMON_STARTS = 7
#: Probe tasks run on the pool between rounds: two per worker, so they
#: run in parallel as a round's tasks do and see the same contention.
POOL_PROBES = 2 * WORKERS


def round_specs(seed: int, index: int) -> list[dict]:
    """One round of the fixed cold campaign sequence (Fig. 10 fluid grids
    and one small packet sweep); seeds make every round uncached."""
    spec_seed = seed * 1000 + index
    fluid = {"kind": "fluid", "algorithms": ["dcqcn", "dctcp"], "seed": spec_seed}
    return [
        {**fluid, "backend": "columnar", "flows_per_port_levels": [8], "flows_total": 2000},
        {**fluid, "backend": "columnar", "flows_per_port_levels": [64], "flows_total": 2000},
        {**fluid, "flows_per_port_levels": [8, 64]},
        {"kind": "sweep", "algorithm": "dcqcn", "grid": [{}, {"rate_ai_bps": 1e9}],
         "n_senders": 3, "duration_ms": 0.5, "seed": spec_seed},
    ]


def start_daemon(cache_dir: Path, ledger: Optional[Ledger] = None):
    server = ReproServer(port=0, workers=WORKERS, cache_dir=cache_dir)
    if ledger is not None:
        runner = server.queue.runner
        runner.start = ledger.wrap("parallel", "start", runner.start)
    host, port = server.start_background()
    return server, ServeClient(host, port, timeout_s=120.0)


def pool_probe(runner: CampaignRunner) -> float:
    """Median time of the host-speed probe run as tasks in the daemon's
    warm pool.  Only called while the daemon runs no job."""
    return statistics.median(runner.run(probe_seconds, [()] * POOL_PROBES).values())


def pool_stamp() -> dict:
    """Run in a pool worker: the stamp of a point built there the way
    ``run_sweep_point`` builds it."""
    cp = ControlPlane(sim_backend=None)
    cp.deploy(TestConfig(cc_algorithm="dcqcn", n_test_ports=4))
    cp.wire_loopback_fabric(ecn_threshold_bytes=84_000)
    return stamp(Point(cp))


def instrument_daemon(server: ReproServer, ledger: Ledger) -> None:
    cache = server.cache
    cache.get = ledger.wrap("serve", "cache_get", type(cache).get.__get__(cache))
    cache.put = ledger.wrap("serve", "cache_put", type(cache).put.__get__(cache))


def uninstrument_daemon(server: ReproServer) -> None:
    del server.cache.get
    del server.cache.put


@dataclass
class ColdJob:
    spec: dict
    round_trip_s: float
    document: dict


@dataclass
class Round:
    wall_s: float
    jobs: list
    #: Host factor from the pool probes around an untraced round.
    factor: float = 1.0


def run_round(client: ServeClient, specs: list, out: Outcome) -> Round:
    """Submit one round closed-loop; the sweep is submitted twice so the
    duplicate coalesces onto the in-flight original."""
    jobs = []
    start = clock()
    for spec in specs:
        sent = clock()
        out.attempted += 1
        try:
            document = client.submit(spec)
            if spec["kind"] == "sweep":
                out.attempted += 1
                duplicate = client.submit(spec)
                out.check(duplicate["job_id"] == document["job_id"],
                          "serve: an in-flight duplicate did not coalesce")
            out.check(not document["cached"], "serve: a cold spec was a cache hit")
            document = client.wait(document["job_id"], timeout_s=120.0)
        except ServeError as exc:
            out.fail(f"serve: {spec['kind']} job failed: {exc}")
            continue
        jobs.append(ColdJob(spec, clock() - sent, document))
    return Round(clock() - start, jobs)


def run_hits(client: ServeClient, cold: list, count: int, out: Outcome) -> list:
    """Resubmit cold specs round-robin; each must hit with an equal result."""
    times = []
    for index in range(count):
        job = cold[index % len(cold)]
        sent = clock()
        out.attempted += 1
        try:
            document = client.submit(job.spec)
        except ServeError as exc:
            out.fail(f"serve: resubmit failed: {exc}")
            continue
        times.append(clock() - sent)
        out.check(document["cached"], "serve: a resubmitted spec missed the cache")
        out.check(document.get("result") == job.document["result"],
                  "serve: a cache hit differs from its cold result")
    return times


def check_daemon(client: ServeClient, cold: list, hits: int, duplicates: int,
                 out: Outcome) -> dict:
    """Check the jobs and the daemon's ``/metrics``; return its counters."""
    for job in cold:
        out.check(job.document["state"] == "done", f"serve: a job ended {job.document['state']}")
        stats = job.document["result"]["stats"]
        out.check(stats["failed"] == 0, "serve: a campaign task failed")
        if job.spec["kind"] == "sweep":
            out.check(stats["events_total"] > 0, "serve: the sweep simulated no events")
    try:
        samples = parse_prometheus_text(client.metrics())
    except ValueError as exc:
        out.fail(f"serve: /metrics does not parse: {exc}")
        return {}
    values = {name: value for name, labels, value in samples}
    out.check(values.get("repro_serve_cache_hits_total") == hits,
              f"serve: /metrics counts {values.get('repro_serve_cache_hits_total')} hits, sent {hits}")
    out.check(values.get("repro_serve_jobs_coalesced_total") == duplicates,
              "serve: /metrics coalesced count differs from the duplicates sent")
    out.check(values.get("repro_serve_jobs_failed_total") == 0, "serve: a job failed")
    return values


def fluid_rate(jobs: list) -> float:
    """Fluid flows completed per second of cold fluid round trips."""
    flows = sum(point["flows_total"] for job in jobs if job.spec["kind"] == "fluid"
                for point in job.document["result"]["points"])
    wall = sum(job.round_trip_s for job in jobs if job.spec["kind"] == "fluid")
    return flows / wall if wall else 0.0


def run_campaign(name: str, seed: int, seconds: float, workdir: Path, trace: bool) -> Outcome:
    out = Outcome()
    imports_s = 0.0 if trace else import_seconds("serve")
    ledger = Ledger() if trace else None

    starts = []

    def start(cache_dir: Path, ledger: Optional[Ledger] = None):
        began = clock()
        daemon = start_daemon(cache_dir, ledger)
        starts.append(clock() - began)
        return daemon

    # Extra starts only time set-up; the traced run does not report it.
    for attempt in range(0 if trace else DAEMON_STARTS - 1):
        server, client = start(workdir / f"cache{attempt}")
        try:
            out.check(client.health()["ok"], "serve: daemon unhealthy after start")
        finally:
            server.close()
    server, client = start(workdir / "cache", ledger)
    runner = server.queue.runner
    run_in_daemon = Simulator.run
    try:
        out.check(client.health()["ok"], "serve: daemon unhealthy after start")
        stamps = runner.run(pool_stamp, [()] * WORKERS).values()
        out.stamp = stamps[0]
        out.check(all(s == stamps[0] for s in stamps), "serve: pool workers run different cores")
        if trace:
            # The pool's workers exist already, so this spans simulations
            # run in the daemon's own process only; there should be none.
            Simulator.run = ledger.wrap("sim", "run", Simulator.run)
        rounds: list[Round] = []
        traced_rounds: list[Round] = []
        index = 0
        before = 0.0 if trace else pool_probe(runner)
        deadline = clock() + seconds
        while not rounds or clock() < deadline:
            rounds.append(run_round(client, round_specs(seed, index), out))
            index += 1
            if trace:
                instrument_daemon(server, ledger)
                traced_rounds.append(run_round(client, round_specs(seed, index), out))
                uninstrument_daemon(server)
                index += 1
            else:
                after = pool_probe(runner)
                rounds[-1].factor = (before + after) / 2 / REFERENCE_S
                before = after
        cold = [job for r in rounds for job in r.jobs]
        traced_cold = [job for r in traced_rounds for job in r.jobs]
        hits = run_hits(client, cold, HITS_PER_PHASE, out)
        traced_hits = []
        if trace:
            instrument_daemon(server, ledger)
            traced_hits = run_hits(client, traced_cold, HITS_PER_PHASE, out)
            uninstrument_daemon(server)
        counters = check_daemon(client, cold + traced_cold, len(hits) + len(traced_hits),
                                index, out)
        rss = peak_rss_mb(with_children=True)
    finally:
        Simulator.run = run_in_daemon
        server.close()
    out.samples = {"imports": 0 if trace else IMPORT_SAMPLES, "daemon_starts": len(starts),
                   "rounds": len(rounds), "traced_rounds": len(traced_rounds),
                   "pool_probes": 0 if trace else POOL_PROBES * (len(rounds) + 1),
                   "hits": len(hits), "traced_hits": len(traced_hits)}
    if not trace:
        median = statistics.median
        out.raw = {
            "cold_result_s": median(r.wall_s for r in rounds),
            "rate_per_s": median(fluid_rate(r.jobs) for r in rounds),
            "host_factor": median(r.factor for r in rounds),
        }
        out.metrics = {
            "setup_s": imports_s + median(starts),
            "cold_result_s": median(r.wall_s / r.factor for r in rounds),
            "rate_per_s": median(fluid_rate(r.jobs) * r.factor for r in rounds),
            "peak_rss_mb": rss,
        }
        return out
    sent = {"hits": len(hits) + len(traced_hits), "duplicates": index}
    out.metrics = campaign_ledger(ledger, traced_rounds, traced_hits, hits, counters, sent, out)
    return out


def campaign_ledger(ledger: Ledger, rounds: list, hits: list, untraced_hits: list,
                    counters: dict, sent: dict, out: Outcome) -> dict:
    """Per-layer split of the traced rounds and hits, from each job's own
    ``stats`` and times and from the cache spans.  A job's tasks are
    charged to their layer (fluid, or core for the packet sweep's
    ``run_sweep_point``); parallel is the job's wall beyond its tasks'
    share of the workers; serve is the round trip outside the job."""
    cold = [job for r in rounds for job in r.jobs]
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    stats = [job.document["result"]["stats"] for job in cold]
    docs = [job.document for job in cold]
    task_s = {"fluid": 0.0, "core": 0.0}
    for job, s in zip(cold, stats):
        task_s["fluid" if job.spec["kind"] == "fluid" else "core"] += s["task_wall_s_total"]
    queue_wait_s = [d["started_unix"] - d["submitted_unix"] for d in docs]
    cache_s = ledger.total_s.get("serve.cache_get", 0.0) + ledger.total_s.get("serve.cache_put", 0.0)
    # Time covered by a measured interval: the daemon's queue-wait stamps,
    # the runner's campaign wall and the cache spans.  HTTP, polling and
    # the job's glue around the runner are covered by none.
    covered = sum(queue_wait_s) + sum(s["campaign_wall_s"] for s in stats) + cache_s
    gets, puts = ledger.count("serve.cache_get"), ledger.count("serve.cache_put")
    metrics.update({
        "parallel.pool_start_s": ledger.total_s.get("parallel.start", 0.0),
        "fluid.cell_s": statistics.median(
            s["task_wall_s_mean"] for job, s in zip(cold, stats) if job.spec["kind"] == "fluid"),
        "parallel.busy_frac": statistics.median(
            s["task_wall_s_total"] / (s["workers"] * s["campaign_wall_s"]) for s in stats),
        "parallel.dispatch_ms": statistics.median(
            (s["campaign_wall_s"] - s["task_wall_s_total"] / s["workers"]) * 1e3 for s in stats),
        "serve.queue_wait_ms": statistics.median(queue_wait_s) * 1e3,
        "serve.overhead_ms": statistics.median(
            (job.round_trip_s - s["campaign_wall_s"]) * 1e3 for job, s in zip(cold, stats)),
        "serve.cache_get_ms": ledger.total_s.get("serve.cache_get", 0.0) * 1e3 / gets if gets else 0.0,
        "serve.cache_put_ms": ledger.total_s.get("serve.cache_put", 0.0) * 1e3 / puts if puts else 0.0,
        # Both are 1 when the daemon behaves: every resubmit is a hit and
        # every in-flight duplicate coalesces.
        "serve.hit_frac": counters.get("repro_serve_cache_hits_total", 0.0) / sent["hits"],
        "serve.coalesced": counters.get("repro_serve_jobs_coalesced_total", 0.0)
        / sent["duplicates"],
        "serve.hit_ms_p50": statistics.median(hits) * 1e3,
        "serve.hit_ms_p90": quantile(hits, 0.9) * 1e3,
        "trace_overhead_frac": statistics.median(hits) / statistics.median(untraced_hits) - 1.0,
        "unattributed_frac": 1.0 - covered / (sum(job.round_trip_s for job in cold) + sum(hits)),
    })
    out.check(ledger.count("sim.run") == 0,
              "campaign: a packet simulation ran in the daemon process, not in the pool")
    out.check(task_s["core"] > 0.0, "campaign: the packet sweep did no work in the pool")
    out.check(task_s["fluid"] > 0.0, "campaign: the fluid grids did no work in the pool")
    return metrics


WORKLOADS = {
    "fanin_dcqcn": run_packet,
    "incast_websearch_dctcp": run_packet,
    "campaign_serve": run_campaign,
}
