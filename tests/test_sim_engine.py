"""The discrete-event engine: ordering, determinism, cancellation."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Simulator
from repro.sim.engine import COMPACT_MIN_DEAD


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.at(300, order.append, "c")
        sim.at(100, order.append, "a")
        sim.at(200, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion(self):
        sim = Simulator()
        order = []
        for label in "abcde":
            sim.at(50, order.append, label)
        sim.run()
        assert order == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.at(123, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [123]
        assert sim.now == 123

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.at(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(50, lambda: None)

    def test_after_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.after(-1, lambda: None)

    def test_call_now_runs_after_pending_same_time(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.call_now(lambda: order.append("now"))

        sim.at(10, first)
        sim.at(10, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second", "now"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule_handle(10, fired.append, 1)
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule_handle(10, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.run() == 0

    def test_handle_pending_lifecycle(self):
        sim = Simulator()
        event = sim.after_handle(10, lambda: None)
        assert event.pending
        sim.run()
        assert not event.pending
        assert not event.cancelled

    def test_handle_and_fast_events_interleave_deterministically(self):
        sim = Simulator()
        order = []
        sim.at(10, order.append, "fast1")
        sim.schedule_handle(10, order.append, "handle")
        sim.at(10, order.append, "fast2")
        sim.run()
        assert order == ["fast1", "handle", "fast2"]

    def test_rearm_extends_deadline_without_new_entry(self):
        sim = Simulator()
        fired = []
        event = sim.schedule_handle(100, lambda: fired.append(sim.now))
        event.rearm(250)
        assert sim.pending_events == 1
        sim.run()
        assert fired == [250]

    def test_rearm_earlier_deadline(self):
        sim = Simulator()
        fired = []
        event = sim.schedule_handle(100, lambda: fired.append(sim.now))
        event.rearm(40)
        sim.run()
        assert fired == [40]

    def test_rearm_revives_cancelled_handle(self):
        sim = Simulator()
        fired = []
        event = sim.schedule_handle(100, lambda: fired.append(sim.now))
        event.cancel()
        event.rearm(120)
        sim.run()
        assert fired == [120]

    def test_rearm_in_past_rejected(self):
        sim = Simulator()
        sim.at(100, lambda: None)
        event = sim.schedule_handle(200, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            event.rearm(50)


class TestCompaction:
    def test_cancelled_entries_are_compacted(self):
        sim = Simulator()
        handles = [sim.schedule_handle(1000 + i, lambda: None) for i in range(500)]
        keeper_fired = []
        sim.at(2000, keeper_fired.append, 1)
        for handle in handles:
            handle.cancel()
        # Cancelling over half the heap must have triggered compaction:
        # the heap stays O(live + threshold), not O(total cancellations).
        assert sim.compactions >= 1
        assert sim.live_events == 1
        assert sim.pending_events < 500
        sim.run()
        assert keeper_fired == [1]
        assert sim.pending_events == 0

    def test_live_events_excludes_dead(self):
        sim = Simulator()
        keep = sim.schedule_handle(10, lambda: None)
        drop = sim.schedule_handle(20, lambda: None)
        drop.cancel()
        assert sim.live_events == 1
        assert sim.dead_entries == 1
        assert keep.pending


class TestRunControl:
    def test_run_until_leaves_later_events(self):
        sim = Simulator()
        fired = []
        sim.at(100, fired.append, "early")
        sim.at(1000, fired.append, "late")
        sim.run(until_ps=500)
        assert fired == ["early"]
        assert sim.now == 500
        sim.run()
        assert fired == ["early", "late"]

    def test_run_until_advances_clock_when_idle(self):
        sim = Simulator()
        sim.run(until_ps=777)
        assert sim.now == 777

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.at(i, fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_stop_from_within_event(self):
        sim = Simulator()
        fired = []

        def stopper():
            fired.append("stop")
            sim.stop()

        sim.at(1, stopper)
        sim.at(2, fired.append, "never")
        sim.run()
        assert fired == ["stop"]

    def test_step(self):
        sim = Simulator()
        fired = []
        sim.at(5, fired.append, 1)
        assert sim.step() is True
        assert sim.step() is False
        assert fired == [1]

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def nested():
            sim.run()

        sim.at(1, nested)
        with pytest.raises(SimulationError):
            sim.run()

    def test_reentrant_step_rejected(self):
        sim = Simulator()
        errors = []

        def nested():
            try:
                sim.step()
            except SimulationError as exc:
                errors.append(exc)

        sim.at(1, nested)
        sim.run()
        assert len(errors) == 1

    def test_step_clears_stale_stop_request(self):
        sim = Simulator()
        fired = []
        sim.at(1, fired.append, 1)
        sim.stop()  # a stop with no run in progress must not wedge step()
        assert sim.step() is True
        assert fired == [1]

    def test_event_counts(self):
        sim = Simulator()
        for i in range(5):
            sim.at(i, lambda: None)
        assert sim.pending_events == 5
        sim.run()
        assert sim.events_executed == 5
        assert sim.pending_events == 0

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 5:
                sim.after(10, chain, n + 1)

        sim.at(0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3, 4, 5]
        assert sim.now == 50


    def test_max_events_under_horizon_keeps_clock_at_last_event(self):
        """A run cut short by its event budget must not jump the clock to
        ``until_ps`` over events still queued before it."""
        sim = Simulator()
        fired = []
        sim.at(10, fired.append, 10)
        sim.at(20, fired.append, 20)
        assert sim.run(until_ps=100, max_events=1) == 1
        assert sim.now == 10
        sim.run(until_ps=100)
        assert fired == [10, 20]
        assert sim.now == 100


def _scripted_schedule(sim: Simulator) -> list:
    """A scenario exercising every scheduling shape: fast entries, ties,
    handles, re-arm, cancel, stop — returns the observed event stream."""
    log: list = []

    def note(tag):
        log.append((sim.now, tag))

    def spawn(tag, delay):
        note(tag)
        if delay:
            sim.after(delay, spawn, tag + "'", 0)

    sim.at(5, note, "a")
    sim.at(5, note, "b")          # same-timestamp batch
    sim.at(2, spawn, "c", 3)      # schedules c' into the a/b batch
    sim.call_now(note, "now")
    handle = sim.schedule_handle(4, note, "h")
    sim.rearm(handle, 7)          # supersedes the t=4 entry
    cancelled = sim.schedule_handle(6, note, "never")
    cancelled.cancel()
    sim.after(9, sim.stop)
    sim.after(11, note, "past-stop")
    sim.run(until_ps=50)
    log.append(("events", sim.events_executed))
    sim.run(until_ps=50)          # resume after stop(): drains the rest
    log.append(("events", sim.events_executed))
    return log


class TestBitIdentity:
    def test_python_schedule_reference(self):
        """The scripted stream against literal expectations."""
        log = _scripted_schedule(Simulator())
        assert log == [
            (0, "now"),
            (2, "c"),
            (5, "a"),
            (5, "b"),
            (5, "c'"),
            (7, "h"),
            ("events", 7),        # 6 notes/spawns + stop at t=9
            (11, "past-stop"),
            ("events", 8),
        ]


# -- oracle fuzz ---------------------------------------------------------------


class _Boom(Exception):
    """Raised by fuzzed callbacks; must propagate out of run()/step()."""


class _RefHandle:
    __slots__ = ("time_ps", "target_ps", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(self, sim, time_ps, seq, fn, args):
        self._sim = sim
        self.time_ps = self.target_ps = time_ps
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self):
        if self.seq != -1:
            self.seq = -1
            self._sim.events_cancelled += 1
            self._sim._note_dead()
        self.cancelled = True


class _RefSim:
    """Straight-line reference engine: a plain list of ``(time, seq, fn,
    args)`` / ``(time, seq, handle, None)`` entries, the next one found by
    ``min()`` over ``(time, seq)``.  No heap, no same-time batching, and
    dead entries are recounted from scratch instead of tracked."""

    def __init__(self):
        self.now = 0
        self._seq = 0
        self._entries = []
        self._running = False
        self._stopped = False
        self.events_executed = 0
        self.events_cancelled = 0
        self.compactions = 0

    def _push(self, time_ps, fn, args):
        if time_ps < self.now:
            raise SimulationError("in the past")
        self._entries.append((time_ps, self._seq, fn, args))
        self._seq += 1

    def schedule(self, time_ps, fn, *args):
        self._push(time_ps, fn, args)

    at = schedule

    def after(self, delay_ps, fn, *args):
        self._push(self.now + delay_ps, fn, args)

    def call_now(self, fn, *args):
        self._push(self.now, fn, args)

    def schedule_handle(self, time_ps, fn, *args):
        if time_ps < self.now:
            raise SimulationError("in the past")
        handle = _RefHandle(self, time_ps, self._seq, fn, args)
        self._entries.append((time_ps, self._seq, handle, None))
        self._seq += 1
        return handle

    def after_handle(self, delay_ps, fn, *args):
        return self.schedule_handle(self.now + delay_ps, fn, *args)

    def rearm(self, handle, time_ps):
        if time_ps < self.now:
            raise SimulationError("in the past")
        handle.cancelled = False
        handle.target_ps = time_ps
        if handle.seq != -1:
            if time_ps >= handle.time_ps:
                return
            handle.seq = -1
            self._note_dead()
        handle.seq = self._seq
        handle.time_ps = time_ps
        self._entries.append((time_ps, self._seq, handle, None))
        self._seq += 1

    @staticmethod
    def _stale(entry):
        return entry[3] is None and entry[2].seq != entry[1]

    def _note_dead(self):
        dead = self.dead_entries
        if dead >= COMPACT_MIN_DEAD and 2 * dead >= len(self._entries):
            self._entries = [e for e in self._entries if not self._stale(e)]
            self.compactions += 1

    def stop(self):
        self._stopped = True

    def step(self):
        return self.run(max_events=1) == 1

    def run(self, until_ps=None, max_events=None):
        if self._running:
            raise SimulationError("reentrant")
        if max_events is not None and max_events <= 0:
            return 0
        self._running = True
        self._stopped = False
        executed = 0
        try:
            while self._entries:
                entry = min(self._entries, key=lambda e: (e[0], e[1]))
                if until_ps is not None and entry[0] > until_ps:
                    break
                self._entries.remove(entry)
                self.now = entry[0]
                if entry[3] is not None:
                    fn, args = entry[2], entry[3]
                else:
                    handle = entry[2]
                    if handle.seq != entry[1]:
                        continue
                    if handle.target_ps > entry[0]:
                        handle.seq = self._seq
                        handle.time_ps = handle.target_ps
                        self._entries.append((handle.target_ps, self._seq, handle, None))
                        self._seq += 1
                        continue
                    handle.seq = -1
                    fn, args = handle.fn, handle.args
                fn(*args)
                executed += 1
                if self._stopped or executed == max_events:
                    break
        finally:
            self.events_executed += executed
            self._running = False
        if (
            until_ps is not None
            and not self._stopped
            and self.now < until_ps
            and all(e[0] > until_ps for e in self._entries)
        ):
            self.now = until_ps
        return executed

    @property
    def pending_events(self):
        return len(self._entries)

    @property
    def dead_entries(self):
        return sum(1 for e in self._entries if self._stale(e))

    @property
    def live_events(self):
        return len(self._entries) - self.dead_entries


_delay = st.integers(0, 12)
#: What a fired callback does besides logging itself.
_action = st.one_of(
    st.just(("none",)),
    st.just(("stop",)),
    st.just(("raise",)),
    st.tuples(st.just("call_now")),
    st.tuples(st.just("after"), _delay),
    st.tuples(st.just("cancel"), st.integers(0, 1000)),
    st.tuples(st.just("rearm"), st.integers(0, 1000), st.integers(-3, 15)),
)
_op = st.one_of(
    st.tuples(st.sampled_from(["schedule", "at", "after", "schedule_handle",
                               "after_handle"]), _delay, _action),
    st.tuples(st.just("call_now"), _action),
    st.tuples(st.just("cancel"), st.integers(0, 1000)),
    st.tuples(st.just("rearm"), st.integers(0, 1000), st.integers(-3, 15)),
    st.tuples(
        st.just("burst"), st.integers(1, 3 * COMPACT_MIN_DEAD), _delay, st.integers(0, 2)
    ),
    st.just(("stop",)),
    st.just(("step",)),
    st.tuples(
        st.just("run"),
        st.none() | st.integers(0, 20),
        st.none() | st.integers(0, 6),
    ),
)
_program = st.lists(_op, max_size=40)


class _Interpreter:
    """Runs one fuzzed program against an engine and records everything
    observable: firings, errors, and the counters after every operation."""

    def __init__(self, sim):
        self.sim = sim
        self.log = []
        self.handles = []
        self.next_id = 0
        self.cancelled_ids = set()
        self.acted = set()
        self.clock = 0

    def _callback(self, action):
        eid = self.next_id
        self.next_id += 1
        return eid, (lambda: self._fire(eid, action))

    def _fire(self, eid, action):
        sim = self.sim
        assert sim.now >= self.clock, "clock moved backwards"
        self.clock = sim.now
        assert eid not in self.cancelled_ids, "a cancelled handle fired"
        self.log.append(("fire", sim.now, eid))
        if eid in self.acted:
            return  # a revived handle: act once, so every program ends
        self.acted.add(eid)
        kind = action[0]
        if kind == "stop":
            sim.stop()
        elif kind == "raise":
            raise _Boom(eid)
        elif kind == "call_now":
            sim.call_now(self._callback(("none",))[1])
        elif kind == "after":
            sim.after(action[1], self._callback(("none",))[1])
        elif kind in ("cancel", "rearm"):
            self._handle_op(action)

    def _new_handle(self, time_ps, action):
        eid, fn = self._callback(action)
        handle = self.sim.schedule_handle(time_ps, fn)
        self.handles.append((eid, handle))
        return eid, handle

    def _handle_op(self, op):
        if not self.handles:
            return
        eid, handle = self.handles[op[1] % len(self.handles)]
        if op[0] == "cancel":
            handle.cancel()
            self.cancelled_ids.add(eid)
        else:
            self.sim.rearm(handle, self.sim.now + op[2])
            self.cancelled_ids.discard(eid)

    def execute(self, program):
        sim = self.sim
        for op in program:
            kind = op[0]
            try:
                if kind in ("schedule", "at"):
                    getattr(sim, kind)(sim.now + op[1], self._callback(op[2])[1])
                elif kind == "after":
                    sim.after(op[1], self._callback(op[2])[1])
                elif kind == "call_now":
                    sim.call_now(self._callback(op[1])[1])
                elif kind == "schedule_handle":
                    self._new_handle(sim.now + op[1], op[2])
                elif kind == "after_handle":
                    eid, fn = self._callback(op[2])
                    self.handles.append((eid, sim.after_handle(op[1], fn)))
                elif kind in ("cancel", "rearm"):
                    self._handle_op(op)
                elif kind == "burst":
                    # Many timers, all but every third (op[3] = 0) or
                    # up to two in three cancelled: enough dead entries,
                    # at varying dead shares, to force compaction.
                    for i in range(op[1]):
                        eid, handle = self._new_handle(sim.now + op[2] + i % 7, ("none",))
                        if i % 3 >= op[3]:
                            handle.cancel()
                            self.cancelled_ids.add(eid)
                elif kind == "stop":
                    sim.stop()
                elif kind == "step":
                    self.log.append(("step", sim.step()))
                else:
                    until = None if op[1] is None else sim.now + op[1]
                    self.log.append(("run", sim.run(until_ps=until, max_events=op[2])))
            except (_Boom, SimulationError) as exc:
                self.log.append(("error", type(exc).__name__))
            assert sim.now >= self.clock, "clock moved backwards"
            self.clock = sim.now
            self.log.append((
                "state", sim.now, sim.events_executed, sim.live_events,
                sim.dead_entries, sim.pending_events, sim.compactions,
                sim.events_cancelled,
            ))
        return self.log


class TestEngineOracle:
    """Random programs against the reference model: the same firing
    sequence, clock and counters after every operation."""

    @given(_program)
    @example([("schedule_handle", 5, ("none",)), ("burst", 100, 3, 0), ("run", None, None)])
    @example([("after", 1, ("raise",)), ("after", 1, ("none",)), ("at", 2, ("none",)),
              ("run", 10, None), ("run", None, None)])
    # A lazily re-armed handle ties with a fast entry already queued at
    # its new time: the re-push takes the next seq, so it fires second.
    @example([("schedule_handle", 5, ("none",)), ("rearm", 0, 10), ("at", 10, ("none",)),
              ("run", None, None)])
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_model(self, program):
        real = _Interpreter(Simulator()).execute(program)
        reference = _Interpreter(_RefSim()).execute(program)
        assert real == reference

    def test_burst_compacts(self):
        sim = Simulator()
        program = [("burst", 2 * COMPACT_MIN_DEAD, 0, 0), ("run", None, None)]
        log = _Interpreter(sim).execute(program)
        assert sim.compactions >= 1
        assert log == _Interpreter(_RefSim()).execute(program)
