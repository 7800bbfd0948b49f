"""The sharded campaign runner: determinism, ordering, bounded failure."""

import os
import threading
import time

import pytest

from repro.core.multi_pipeline import scaling_table
from repro.core.sweep import cc_parameter_sweep, steady_state_flow_rates, sweep_campaign
from repro.errors import CampaignError
from repro.fluid import dcqcn_profile, dctcp_profile, fluid_fct_campaign
from repro.measure.throughput import ThroughputSample
from repro.obs.heartbeat import Heartbeat
from repro.parallel import CampaignRunner, derive_task_seed
from repro.units import GBPS, MS
from repro.workload import websearch


# -- picklable task functions (must be top level) ------------------------------


def square(x, seed=0):
    return x * x


def echo_seed(x, seed=0):
    return (x, seed)


def crash_on_two(x):
    if x == 2:
        os._exit(3)  # simulates a segfaulted/OOM-killed worker
    return x


def raise_on_zero(x):
    if x == 0:
        raise ValueError("task zero is broken")
    return x


def sleep_on_one(x):
    if x == 1:
        time.sleep(3.0)
    return x


def crash_first_attempt(x, marker_dir):
    """Dies hard on its first run (leaving a marker), succeeds on retry."""
    marker = os.path.join(marker_dir, f"task-{x}.attempted")
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("1")
        os._exit(5)
    return x


class TestDeriveTaskSeed:
    def test_stable_and_distinct(self):
        assert derive_task_seed(42, 3) == derive_task_seed(42, 3)
        assert derive_task_seed(42, 3) != derive_task_seed(42, 4)
        assert derive_task_seed(42, 3) != derive_task_seed(43, 3)

    def test_multipart_spawn_keys(self):
        assert derive_task_seed(0, 1, 2) == derive_task_seed(0, 1, 2)
        assert derive_task_seed(0, 1, 2) != derive_task_seed(0, 2, 1)

    def test_nonnegative_and_wide(self):
        seeds = {derive_task_seed(7, index) for index in range(64)}
        assert len(seeds) == 64
        assert all(0 <= seed < 2**63 for seed in seeds)


class TestRunnerBasics:
    def test_order_preserved_across_chunks(self):
        with CampaignRunner(workers=2, chunk_size=2) as runner:
            result = runner.run(square, [(i,) for i in range(7)])
        assert result.values() == [i * i for i in range(7)]
        assert [r.index for r in result.results] == list(range(7))
        assert result.ok

    def test_task_forms(self):
        with CampaignRunner(workers=0) as runner:
            result = runner.run(square, [3, (4,), {"x": 5}])
        assert result.values() == [9, 16, 25]

    def test_seed_injection_matches_derivation(self):
        with CampaignRunner(workers=2) as runner:
            result = runner.run(echo_seed, [(i,) for i in range(5)], seed=99)
        assert result.values() == [
            (i, derive_task_seed(99, i)) for i in range(5)
        ]

    def test_stats_shape(self):
        with CampaignRunner(workers=2, chunk_size=2) as runner:
            stats = runner.run(square, [(i,) for i in range(4)]).stats()
        assert stats["tasks"] == 4
        assert stats["failed"] == 0
        assert stats["workers"] == 2
        assert stats["campaign_wall_s"] > 0
        assert stats["tasks_per_sec"] > 0

    def test_empty_campaign_rejected(self):
        with CampaignRunner(workers=1) as runner:
            with pytest.raises(CampaignError):
                runner.run(square, [])

    def test_bad_configuration_rejected(self):
        with pytest.raises(CampaignError):
            CampaignRunner(workers=-1)
        with pytest.raises(CampaignError):
            CampaignRunner(chunk_size=0)
        with pytest.raises(CampaignError):
            CampaignRunner(task_timeout_s=0)
        with pytest.raises(CampaignError):
            CampaignRunner(max_retries=-1)


class TestWarmPool:
    def test_started_runner_serves_repeat_campaigns(self):
        """The `repro serve` contract: one start(), many run()s, all
        bit-identical to the inline path."""
        tasks = [(i,) for i in range(8)]
        with CampaignRunner(workers=1) as inline:
            expected = inline.run(echo_seed, tasks, seed=3).values()
        with CampaignRunner(workers=2, chunk_size=2) as runner:
            assert not runner.started
            runner.start()
            assert runner.started
            first = runner.run(echo_seed, tasks, seed=3)
            second = runner.run(echo_seed, tasks, seed=3)
        assert first.values() == expected
        assert second.values() == expected

    def test_start_is_idempotent_and_keeps_the_pool(self):
        with CampaignRunner(workers=2) as runner:
            runner.start()
            executor = runner._executor
            runner.start()
            assert runner._executor is executor

    def test_start_is_a_noop_inline(self):
        runner = CampaignRunner(workers=1)
        assert runner.start() is runner
        assert not runner.started
        runner.close()

    def test_warm_pool_survives_heartbeat_campaigns(self):
        # start() provisions the heartbeat transport up front, so a later
        # run(on_heartbeat=...) must reuse the warm pool, not rebuild it.
        with CampaignRunner(workers=2, chunk_size=1) as runner:
            runner.start()
            executor = runner._executor
            beats = []
            result = runner.run(
                square, [(i,) for i in range(4)], on_heartbeat=beats.append
            )
            assert result.ok
            assert runner._executor is executor


class TestResultsDirLifecycle:
    def test_created_on_first_run_not_at_construction(self, tmp_path):
        target = tmp_path / "campaign-artifacts"
        with CampaignRunner(workers=1, results_dir=target) as runner:
            # Constructing (e.g. probing a spec server-side) writes nothing.
            assert not target.exists()
            runner.run(square, [(1,), (2,)])
        assert (target / "campaign.json").exists()


class TestHeartbeatsDuringBackoff:
    def test_beats_delivered_while_retry_backoff_sleeps(self, tmp_path):
        """A beat that lands in the queue while every task sits in the
        retry-backoff heap must reach the listener within one poll
        interval — not after the whole backoff window (the stalled-
        progress bug `repro serve` exposed)."""
        received = []

        def on_beat(beat):
            received.append((time.monotonic(), beat.task_id))

        injected_at = []
        runner = CampaignRunner(
            workers=2, chunk_size=1, max_retries=2, backoff_base_s=2.0
        )

        def inject():
            # By now both workers have crashed and the runner is inside
            # the ~2 s backoff window with nothing inflight.
            time.sleep(0.7)
            injected_at.append(time.monotonic())
            runner._hb_queue.put(
                Heartbeat(
                    task_id=99,
                    pid=0,
                    sim_now_ps=1,
                    sim_until_ps=2,
                    events_executed=1,
                    wall_s=0.0,
                )
            )

        with runner:
            runner.start()
            thread = threading.Thread(target=inject, daemon=True)
            thread.start()
            result = runner.run(
                crash_first_attempt,
                [(i, str(tmp_path)) for i in range(2)],
                on_heartbeat=on_beat,
            )
            thread.join()
        assert result.ok
        assert all(r.attempts == 2 for r in result.results)
        delivery = [stamp for stamp, task in received if task == 99]
        assert delivery, "injected heartbeat was never delivered"
        assert delivery[0] - injected_at[0] < 0.8, (
            "heartbeat sat undelivered through the retry-backoff window"
        )


class TestRunnerDeterminism:
    def test_worker_count_invariant(self):
        """Same campaign seed, any pool width -> bit-identical values."""
        tasks = [(i,) for i in range(12)]
        with CampaignRunner(workers=1) as serial:
            expected = serial.run(echo_seed, tasks, seed=7).values()
        with CampaignRunner(workers=4, chunk_size=3) as pooled:
            assert pooled.run(echo_seed, tasks, seed=7).values() == expected


class TestRunnerFailures:
    def test_task_exception_is_structured_and_isolated(self):
        with CampaignRunner(workers=2, chunk_size=2) as runner:
            result = runner.run(raise_on_zero, [(i,) for i in range(4)])
        assert not result.ok
        [failed] = result.errors
        assert failed.index == 0
        assert failed.error.kind == "exception"
        assert "task zero is broken" in failed.error.message
        assert failed.attempts == 1  # deterministic failures are not retried
        assert result.values(strict=False) == [None, 1, 2, 3]
        with pytest.raises(CampaignError, match="task zero"):
            result.values()

    def test_worker_crash_retried_then_surfaced(self):
        """A dying worker breaks the pool: the runner rebuilds it, retries
        the affected tasks, and surfaces a structured error for the one
        that keeps crashing — the rest of the campaign completes."""
        with CampaignRunner(
            workers=2, chunk_size=2, max_retries=1, backoff_base_s=0.01
        ) as runner:
            result = runner.run(crash_on_two, [(i,) for i in range(4)])
        crashed = [r for r in result.errors if r.index == 2]
        assert len(crashed) == 1
        assert crashed[0].error.kind == "crash"
        assert crashed[0].attempts == 2  # initial + one retry
        for index in (0, 1, 3):
            assert result.results[index].value == index

    def test_timeout_retried_then_surfaced_without_hanging(self):
        start = time.perf_counter()
        with CampaignRunner(
            workers=2,
            chunk_size=1,
            task_timeout_s=0.3,
            max_retries=1,
            backoff_base_s=0.01,
        ) as runner:
            result = runner.run(sleep_on_one, [(i,) for i in range(4)])
        elapsed = time.perf_counter() - start
        [timed_out] = result.errors
        assert timed_out.index == 1
        assert timed_out.error.kind == "timeout"
        assert timed_out.attempts == 2
        for index in (0, 2, 3):
            assert result.results[index].value == index
        # Two 0.3 s deadlines + backoff, not the 3 s sleep per attempt.
        assert elapsed < 2.5


class TestSteadyStateMeasurement:
    def _sampler(self, samples):
        class FakeSampler:
            pass

        sampler = FakeSampler()
        sampler.samples = samples
        return sampler

    def test_averages_second_half_only(self):
        samples = [
            ThroughputSample(time_ps=t, rates_bps={"flow1": rate, "port0": 999.0})
            for t, rate in ((1, 100.0), (2, 100.0), (3, 10.0), (4, 20.0))
        ]
        # Second half = samples 3 and 4; the startup windows are ignored,
        # as are non-flow meters.
        assert steady_state_flow_rates(self._sampler(samples)) == [15.0]

    def test_empty_samples(self):
        assert steady_state_flow_rates(self._sampler([])) == []

    def test_flow_order_deterministic(self):
        samples = [
            ThroughputSample(time_ps=1, rates_bps={"flow2": 2.0, "flow1": 1.0}),
            ThroughputSample(time_ps=2, rates_bps={"flow2": 2.0, "flow1": 1.0}),
        ]
        assert steady_state_flow_rates(self._sampler(samples)) == [1.0, 2.0]


class TestParallelSweep:
    GRID = [{"rate_ai_bps": 1 * GBPS}, {"rate_ai_bps": 3 * GBPS}, {"rate_ai_bps": 5 * GBPS}]

    def test_parallel_identical_to_serial(self):
        """The acceptance-criterion invariant: same campaign seed,
        workers=1 and workers=4 produce identical SweepPoint lists."""
        kwargs = dict(n_senders=2, duration_ps=int(1.5 * MS), seed=11)
        serial = cc_parameter_sweep("dcqcn", self.GRID, workers=1, **kwargs)
        parallel = cc_parameter_sweep("dcqcn", self.GRID, workers=4, **kwargs)
        assert serial == parallel
        assert [point.params for point in parallel] == self.GRID

    def test_seed_replicates_aggregate(self):
        points, campaign = sweep_campaign(
            "dcqcn",
            self.GRID[:2],
            n_senders=2,
            duration_ps=1 * MS,
            workers=2,
            seeds=2,
        )
        assert len(points) == 2
        assert all(point.n_seeds == 2 for point in points)
        assert campaign.stats()["tasks"] == 4  # 2 grid points x 2 replicates
        assert campaign.stats()["events_total"] > 0


class TestScalingTableParallel:
    def test_matches_serial(self):
        assert scaling_table(max_pipelines=6, workers=2) == scaling_table(
            max_pipelines=6
        )


class TestFluidCampaign:
    def test_parallel_identical_to_serial(self):
        profiles = [dctcp_profile(), dcqcn_profile()]
        kwargs = dict(
            workload="websearch",
            flows_per_port_levels=(4, 8),
            flows_total=2_000,
            seed=5,
        )
        serial, _ = fluid_fct_campaign(profiles, websearch(), workers=1, **kwargs)
        parallel, campaign = fluid_fct_campaign(
            profiles, websearch(), workers=2, **kwargs
        )
        assert serial == parallel
        assert [
            (point.algorithm, point.flows_per_port) for point in parallel
        ] == [("dctcp", 4), ("dctcp", 8), ("dcqcn", 4), ("dcqcn", 8)]
        assert campaign.stats()["events_total"] == sum(
            point.flows_total for point in parallel
        )


class TestCampaignDeterminism:
    def test_workers_bit_identical(self):
        """Sharding a campaign across a pool must not change any point."""
        grid = [{}, {"g": 0.0625}]
        results = {}
        for workers in (1, 2):
            points, _ = sweep_campaign(
                "dctcp",
                grid,
                duration_ps=MS,
                seeds=2,
                workers=workers,
            )
            results[workers] = points
        assert results[1] == results[2]
