"""Observability layer: metrics registry, export formats, profiler.

The load-bearing property here is the last class: metrics and profiling
must never perturb a simulation (ISSUE acceptance criterion — runs are
event-for-event identical with observability on or off).
"""

import math

import pytest

from repro.core import ControlPlane, TestConfig
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    instrument_control_plane,
    instrument_engine,
    parse_prometheus_text,
    sanitize_metric_name,
    to_json,
    to_prometheus,
)
from repro.obs.profile import SimProfiler, callback_owner
from repro.sim import Simulator
from repro.units import MS, US


class TestRegistry:
    def test_counter_get_or_create(self):
        registry = MetricsRegistry()
        c1 = registry.counter("hits_total", port="1")
        c2 = registry.counter("hits_total", port="1")
        assert c1 is c2
        c1.inc()
        c1.value += 2
        assert registry.find("hits_total", port="1") == 3

    def test_label_sets_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", port="1").inc(5)
        registry.counter("hits_total", port="2").inc(7)
        assert registry.find("hits_total", port="1") == 5
        assert registry.find("hits_total", port="2") == 7
        assert len(registry) == 2

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")
        with pytest.raises(ValueError):
            registry.bind("x_total", lambda: 1, kind="gauge")

    def test_gauge_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.get() == 12

    def test_bind_is_lazy_and_idempotent(self):
        registry = MetricsRegistry()
        state = {"n": 0}
        registry.bind("lazy_total", lambda: state["n"])
        state["n"] = 41
        registry.bind("lazy_total", lambda: state["n"] + 1)  # replaces
        assert registry.find("lazy_total") == 42
        assert len(registry) == 1

    def test_snapshot_folds_labels(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", port="3", switch="s0").inc(9)
        snap = registry.snapshot()
        assert snap == {"hits_total{port=3,switch=s0}": 9}


class TestHistogram:
    def test_log2_bucket_boundaries(self):
        h = Histogram("h", {}, n_buckets=4)  # bounds 1, 2, 4, 8, +Inf
        for value, bucket in [(0, 0), (1, 0), (1.5, 1), (2, 1), (3, 2),
                              (4, 2), (5, 3), (8, 3), (9, 4), (1000, 4)]:
            before = list(h.counts)
            h.observe(value)
            changed = [i for i in range(5) if h.counts[i] != before[i]]
            assert changed == [bucket], f"value {value} landed in {changed}"
        assert h.count == 10
        assert h.sum == pytest.approx(sum([0, 1, 1.5, 2, 3, 4, 5, 8, 9, 1000]))

    def test_cumulative_ends_at_count(self):
        h = Histogram("h", {}, n_buckets=3)
        for value in (1, 2, 100):
            h.observe(value)
        assert h.cumulative_counts()[-1] == h.count == 3
        assert h.bucket_bounds() == [1.0, 2.0, 4.0, math.inf]


class TestExport:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("repro_hits_total", port="1").inc(5)
        registry.counter("repro_hits_total", port="2").inc(2)
        registry.gauge("repro_depth").set(7)
        h = registry.histogram("repro_batch", n_buckets=3)
        h.observe(1)
        h.observe(3)
        return registry

    def test_prometheus_round_trip(self):
        text = to_prometheus(self._registry())
        samples = parse_prometheus_text(text)
        by_key = {(name, tuple(sorted(labels.items()))): value
                  for name, labels, value in samples}
        assert by_key[("repro_hits_total", (("port", "1"),))] == 5
        assert by_key[("repro_depth", ())] == 7
        assert by_key[("repro_batch_count", ())] == 2
        assert by_key[("repro_batch_bucket", (("le", "+Inf"),))] == 2
        assert by_key[("repro_batch_bucket", (("le", "1"),))] == 1

    def test_type_lines_once_per_family(self):
        text = to_prometheus(self._registry())
        type_lines = [l for l in text.splitlines() if l.startswith("# TYPE")]
        assert "# TYPE repro_hits_total counter" in type_lines
        assert "# TYPE repro_batch histogram" in type_lines
        assert len(type_lines) == len(set(type_lines))

    def test_empty_registry_exports(self):
        assert to_prometheus(MetricsRegistry()) == "\n"
        assert parse_prometheus_text(to_prometheus(MetricsRegistry())) == []
        assert to_json(MetricsRegistry()).strip() == "{}"

    @pytest.mark.parametrize(
        "bad",
        [
            "no value here",
            "1leading_digit 3",
            'name{unterminated="x} 1',
            'name{bad-label="x"} 1',
            "name 1 2 3",
            "# BOGUS comment line",
        ],
    )
    def test_parser_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_prometheus_text(bad)

    def test_parser_accepts_inf_nan(self):
        samples = parse_prometheus_text("a_bucket{le=\"+Inf\"} 3\nb NaN\n")
        assert samples[0][2] == 3.0
        assert math.isnan(samples[1][2])

    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("switch.data_generated") == "switch_data_generated"
        assert sanitize_metric_name("9lives") == "_9lives"
        assert parse_prometheus_text(f"{sanitize_metric_name('a.b-c')} 1")


class TestEngineInstrumentation:
    def test_engine_binding_tracks_counters(self):
        sim = Simulator()
        registry = MetricsRegistry()
        instrument_engine(sim, registry)
        handle = sim.schedule_handle(500, lambda: None)
        handle.cancel()
        sim.at(100, lambda: None)
        sim.run(until_ps=1000)
        assert registry.find("repro_sim_events_executed_total") == 1
        assert registry.find("repro_sim_events_cancelled_total") == 1
        assert registry.find("repro_sim_time_ps") == 1000


class TestProfiler:
    def test_callback_owner_names(self):
        class Widget:
            def poke(self):
                pass

        assert callback_owner(Widget().poke) == "Widget.poke"

        def free_fn():
            pass

        assert "free_fn" in callback_owner(free_fn)

    def test_profiled_run_attributes_time(self):
        sim = Simulator()
        sim.enable_profiling()

        class Ticker:
            def __init__(self):
                self.n = 0

            def tick(self):
                self.n += 1
                if sim.now < 10_000:
                    sim.after(1000, self.tick)

        ticker = Ticker()
        sim.at(0, ticker.tick)
        sim.run(until_ps=20_000)
        report = sim.profile()
        assert report.total_calls == ticker.n
        owners = [row.owner for row in report.rows]
        assert owners == ["Ticker.tick"]
        assert "Ticker.tick" in report.table()

    def test_step_records_its_callback(self):
        """step() runs through the same loop as run(), dispatch hook
        included, so a stepped event is attributed too."""
        sim = Simulator()
        sim.enable_profiling()

        def stepped():
            pass

        sim.at(5, stepped)
        assert sim.step() is True
        (row,) = sim.profile().rows
        assert row.calls == 1
        assert "stepped" in row.owner

    def test_profile_requires_enable(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            Simulator().profile()

    def test_profiled_run_is_identical(self):
        """The profiler's dispatch hook must not change which events run
        or their order."""

        def scenario(profiled):
            cp = ControlPlane()
            cp.deploy(TestConfig(cc_algorithm="dctcp", n_test_ports=2, seed=3))
            cp.wire_loopback_fabric()
            if profiled:
                cp.sim.enable_profiling()
            cp.start_flows(size_packets=50, pattern="pairs")
            cp.run(duration_ps=200 * US)
            return cp.sim.events_executed, cp.read_measurements()

        assert scenario(False) == scenario(True)

    def test_record_accumulates(self):
        profiler = SimProfiler()

        def fn():
            pass

        profiler.record(fn, 0.25)
        profiler.record(fn, 0.25)
        (row,) = profiler.rows()
        assert row.calls == 2
        assert row.seconds == pytest.approx(0.5)


class TestObservabilityIsInert:
    """ISSUE property test: metrics-on == metrics-off, event for event."""

    def _scenario(self, instrumented):
        cp = ControlPlane()
        cp.deploy(TestConfig(cc_algorithm="dcqcn", n_test_ports=4, seed=7))
        cp.wire_loopback_fabric(ecn_threshold_bytes=84_000)
        registry = instrument_control_plane(cp) if instrumented else None
        cp.start_flows(size_packets=10**9, pattern="fan_in")
        cp.run(duration_ps=1 * MS)
        fingerprint = (
            cp.sim.events_executed,
            cp.sim.now,
            tuple(sorted(cp.read_measurements().items())),
        )
        return fingerprint, registry

    def test_metrics_do_not_perturb_simulation(self):
        bare, _ = self._scenario(instrumented=False)
        observed, registry = self._scenario(instrumented=True)
        assert bare == observed
        # ... and the registry actually observed the run.
        assert registry.find("repro_sim_events_executed_total") == bare[0]
        assert registry.find("repro_pswitch_data_generated_total") > 0

    def test_prometheus_snapshot_of_real_run_parses(self):
        _, registry = self._scenario(instrumented=True)
        samples = parse_prometheus_text(to_prometheus(registry))
        names = {name for name, _, _ in samples}
        assert "repro_sim_events_executed_total" in names
        assert "repro_queue_ecn_marked_packets_total" in names
        assert "repro_qdma_batch_records_bucket" in names
