"""Heap-based discrete-event simulator with deterministic tie-breaking.

Hot-path design (see ``docs/PERFORMANCE.md``):

* The common case — an event that is scheduled once and always fires —
  is stored on the heap as a plain tuple ``(time_ps, seq, fn, args)``.
  Tuples compare in C (the monotonically increasing ``seq`` guarantees
  the comparison never reaches ``fn``), so ``heappush``/``heappop``
  never call back into Python, and no per-event object is allocated.
* Events that may be cancelled or re-armed (timers, timeouts) get a
  lightweight :class:`EventHandle` and are stored as ``(time_ps, seq,
  handle, _HANDLE)``.  Cancellation is lazy — the entry is skipped when
  popped — and re-arming to a *later* deadline reuses the pending entry
  instead of pushing a new one, so restart-heavy timers keep O(1) live
  entries.
* Lazily-cancelled entries are counted, and when they outnumber half the
  heap the heap is compacted in place, bounding memory under timer
  churn at O(live events).

The two entry shapes are distinguished by an identity test on slot 3
(a fast event's args tuple vs. the ``_HANDLE`` marker), which is cheaper
than a ``len()`` call on the pop path.

There is one run loop, :func:`_run_loop`, behind :meth:`Simulator.run`;
:meth:`Simulator.step` is ``run(max_events=1)``, and the profiler
attaches through the loop's ``dispatch`` hook, so stepped, bounded,
profiled and plain runs share every line of the pop / stale-skip /
lazy-re-arm logic.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.errors import SimulationError

#: Compaction triggers when at least this many dead entries exist *and*
#: they make up at least half the heap.
COMPACT_MIN_DEAD = 64

#: Marker in slot 3 of a handle entry ``(time_ps, seq, handle, _HANDLE)``.
#: Fast entries carry their args tuple there, which is never this object,
#: so ``entry[3] is _HANDLE`` discriminates without a len() call.
_HANDLE = object()

_heappush = heapq.heappush
_heappop = heapq.heappop


class EventHandle:
    """A cancellable, re-armable scheduled callback.

    Created through :meth:`Simulator.schedule_handle` /
    :meth:`Simulator.after_handle`.  The handle is the old-style
    scheduling API (the seed's ``Event`` class is an alias); the
    fast-path :meth:`Simulator.schedule` family returns ``None`` and
    cannot be cancelled.

    ``time_ps`` is the time of the live heap entry; ``target_ps`` is the
    logical fire time.  When a handle is re-armed to a later deadline the
    heap entry stays put and ``target_ps`` moves — the engine re-pushes
    the entry when it pops early.  ``seq`` is the sequence number of the
    live heap entry, or ``-1`` when the handle is not pending.
    """

    __slots__ = ("_sim", "time_ps", "target_ps", "seq", "fn", "args", "cancelled")

    def __init__(
        self,
        sim: "Simulator",
        time_ps: int,
        seq: int,
        fn: Callable[..., None],
        args: tuple,
    ) -> None:
        self._sim = sim
        self.time_ps = time_ps
        self.target_ps = time_ps
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    @property
    def pending(self) -> bool:
        """True while the callback is still going to fire."""
        return self.seq != -1

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        if self.seq != -1:
            self.seq = -1
            sim = self._sim
            sim.events_cancelled += 1
            if sim._flight is not None:
                sim._flight.record(
                    sim.now, "timer", "cancel", target_ps=self.target_ps
                )
            sim._note_dead()
        self.cancelled = True

    def rearm(self, time_ps: int) -> None:
        """Move the fire time to ``time_ps``; see :meth:`Simulator.rearm`."""
        self._sim.rearm(self, time_ps)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.cancelled:
            state = "cancelled"
        elif self.seq == -1:
            state = "fired"
        else:
            state = "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<EventHandle t={self.target_ps}ps seq={self.seq} {name} {state}>"


#: Back-compat alias for the seed's handle-returning API.
Event = EventHandle


def _run_loop(
    sim: "Simulator",
    until: int,
    limit: int,
    dispatch: Optional[Callable[[Callable, tuple], None]],
) -> int:
    """Drain ``sim``'s heap up to time ``until`` or ``limit`` events
    (``-1``: no limit); the one loop behind :meth:`Simulator.run` and
    :meth:`Simulator.step`.

    ``dispatch`` is ``None`` to call callbacks inline, or the profiler
    hook ``dispatch(fn, args)``.  Batched same-timestamp dispatch: the
    inner loop keeps popping while the heap root carries the current
    timestamp, skipping the clock store and horizon compare that the
    outer loop pays once per distinct time.  Partial event counts are
    folded into ``sim._events_executed`` even when a callback raises.
    """
    executed = 0
    heap = sim._heap
    pop = _heappop
    push = _heappush
    marker = _HANDLE
    inline = dispatch is None
    # ``_stopped`` and ``executed`` only change as a result of
    # dispatching an event, and ``run()`` clears ``_stopped`` (and
    # rejects ``max_events <= 0``) before entering: the post-event check
    # inside the batch loop is sufficient, so the outer loop only has to
    # test the heap.
    try:
        while heap:
            entry = pop(heap)
            time_ps = entry[0]
            if time_ps > until:
                # Past the horizon: put the entry back (same seq, so
                # ordering is untouched) and stop.
                push(heap, entry)
                break
            sim.now = time_ps
            while True:
                args = entry[3]
                if args is not marker:
                    fn = entry[2]
                    if inline:
                        fn(*args)
                    else:
                        dispatch(fn, args)
                    executed += 1
                else:
                    handle = entry[2]
                    if handle.seq != entry[1]:
                        # Lazily cancelled/superseded: skip silently.
                        sim._dead -= 1
                    elif handle.target_ps > time_ps:
                        # Lazy re-arm: push the reused entry at its new
                        # time.
                        seq = sim._seq
                        sim._seq = seq + 1
                        handle.seq = seq
                        handle.time_ps = handle.target_ps
                        push(heap, (handle.target_ps, seq, handle, marker))
                    else:
                        handle.seq = -1
                        fn = handle.fn
                        hargs = handle.args
                        if inline:
                            fn(*hargs)
                        else:
                            dispatch(fn, hargs)
                        executed += 1
                if sim._stopped or executed == limit:
                    return executed
                # Same-timestamp batch: keep dispatching equal-time
                # entries (including ones the callback just scheduled —
                # they carry higher seqs, so pop order is unchanged)
                # without re-storing the clock or re-checking the
                # horizon.
                if not heap or heap[0][0] != time_ps:
                    break
                entry = pop(heap)
    finally:
        sim._events_executed += executed
    return executed


class Simulator:
    """The event loop.

    All model components hold a reference to one :class:`Simulator` and talk
    to each other exclusively by scheduling callbacks on it.  Time is an
    integer number of picoseconds (see :mod:`repro.units`).

    There is one engine, in pure Python.
    """

    #: Kept for e2ebench, whose run stamp reads these two names.
    backend_name = "python"
    backend_requested = "python"

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: list[tuple] = []
        self._seq: int = 0
        self._running = False
        self._stopped = False
        self._events_executed: int = 0
        #: Handles explicitly cancelled via :meth:`EventHandle.cancel`.
        self.events_cancelled: int = 0
        #: Lazily-cancelled (or superseded) entries still on the heap.
        self._dead: int = 0
        #: Times the heap was compacted to reclaim dead entries.
        self.compactions: int = 0
        #: Opt-in wall-clock profiler (see :meth:`enable_profiling`).
        #: ``None`` keeps callbacks dispatched inline, with no hook.
        self._profiler = None
        #: Opt-in flight recorder (see :mod:`repro.obs.flight`).  Only
        #: consulted on the rare paths — cancel, re-arm-earlier,
        #: compaction — never in the run loop.
        self._flight = None

    # -- scheduling ---------------------------------------------------------

    def schedule(self, time_ps: int, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run at absolute time ``time_ps``.

        Fast path: no handle is returned and the event cannot be
        cancelled.  Use :meth:`schedule_handle` for cancellable events.
        """
        if time_ps < self.now:
            raise SimulationError(
                f"cannot schedule event at {time_ps} ps; current time is {self.now} ps"
            )
        _heappush(self._heap, (time_ps, self._seq, fn, args))
        self._seq += 1

    def at(self, time_ps: int, fn: Callable[..., None], *args: Any) -> None:
        """Alias of :meth:`schedule` reading naturally at call sites."""
        if time_ps < self.now:
            raise SimulationError(
                f"cannot schedule event at {time_ps} ps; current time is {self.now} ps"
            )
        _heappush(self._heap, (time_ps, self._seq, fn, args))
        self._seq += 1

    def after(self, delay_ps: int, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay_ps`` from now."""
        if delay_ps < 0:
            raise SimulationError(f"negative delay: {delay_ps} ps")
        _heappush(self._heap, (self.now + delay_ps, self._seq, fn, args))
        self._seq += 1

    def call_now(self, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` at the current time, after pending events
        that were already scheduled for this instant."""
        _heappush(self._heap, (self.now, self._seq, fn, args))
        self._seq += 1

    def schedule_handle(
        self, time_ps: int, fn: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``fn(*args)`` at ``time_ps`` and return a cancellable
        :class:`EventHandle` (the old-style API)."""
        if time_ps < self.now:
            raise SimulationError(
                f"cannot schedule event at {time_ps} ps; current time is {self.now} ps"
            )
        handle = EventHandle(self, time_ps, self._seq, fn, args)
        _heappush(self._heap, (time_ps, self._seq, handle, _HANDLE))
        self._seq += 1
        return handle

    def after_handle(
        self, delay_ps: int, fn: Callable[..., None], *args: Any
    ) -> EventHandle:
        """:meth:`schedule_handle` at ``delay_ps`` from now."""
        if delay_ps < 0:
            raise SimulationError(f"negative delay: {delay_ps} ps")
        return self.schedule_handle(self.now + delay_ps, fn, *args)

    def rearm(self, handle: EventHandle, time_ps: int) -> None:
        """Move ``handle``'s fire time to ``time_ps``.

        * Pending and ``time_ps`` at or after the live heap entry: the
          entry is reused — only ``target_ps`` moves (no allocation, no
          dead entry).
        * Pending and earlier: the old entry is abandoned and a fresh one
          is pushed.
        * Not pending (fired or cancelled): the handle is revived with a
          fresh entry.
        """
        if time_ps < self.now:
            raise SimulationError(
                f"cannot re-arm event at {time_ps} ps; current time is {self.now} ps"
            )
        handle.cancelled = False
        handle.target_ps = time_ps
        if handle.seq != -1:
            if time_ps >= handle.time_ps:
                return
            # Earlier than the pending entry: that entry becomes dead.
            handle.seq = -1
            if self._flight is not None:
                self._flight.record(
                    self.now, "timer", "rearm_earlier",
                    old_ps=handle.time_ps, new_ps=time_ps,
                )
            self._note_dead()
        handle.seq = self._seq
        handle.time_ps = time_ps
        _heappush(self._heap, (time_ps, self._seq, handle, _HANDLE))
        self._seq += 1

    # -- dead-entry accounting ----------------------------------------------

    def _note_dead(self) -> None:
        self._dead += 1
        if self._dead >= COMPACT_MIN_DEAD and self._dead * 2 >= len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop lazily-cancelled entries and restore the heap invariant.

        In-place (slice assignment) so a ``run()`` in progress, which
        binds the heap list in a local, keeps seeing the same object.
        """
        heap = self._heap
        before = len(heap)
        heap[:] = [e for e in heap if e[3] is not _HANDLE or e[2].seq == e[1]]
        heapq.heapify(heap)
        self._dead = 0
        self.compactions += 1
        if self._flight is not None:
            self._flight.record(
                self.now, "engine", "compact",
                dropped=before - len(heap), live=len(heap),
            )

    # -- execution ----------------------------------------------------------

    def step(self) -> bool:
        """Execute the next pending event.  Returns False when none remain.

        Exactly ``run(max_events=1)``: reentrant use raises, and a
        leftover :meth:`stop` request from an earlier run is cleared.
        """
        return self.run(max_events=1) == 1

    def run(self, until_ps: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until_ps`` is reached, or
        ``max_events`` events have executed.  Returns events executed.

        When ``until_ps`` is given, events scheduled later stay queued
        and the clock is advanced to exactly ``until_ps`` on return,
        unless :meth:`stop` ended the run or ``max_events`` ended it
        with events at or before ``until_ps`` still queued.

        This method owns the reentrancy guard, the profiler dispatch
        hook and the final clock advance; :func:`_run_loop` drains the
        heap.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run())")
        if max_events is not None and max_events <= 0:
            return 0
        dispatch = None
        if self._profiler is not None:
            profiler = self._profiler
            clock = profiler.clock
            record = profiler.record

            def dispatch(fn: Callable[..., None], args: tuple) -> None:
                t0 = clock()
                fn(*args)
                record(fn, clock() - t0)

        self._running = True
        self._stopped = False
        try:
            executed = _run_loop(
                self,
                (1 << 62) if until_ps is None else until_ps,
                -1 if max_events is None else max_events,
                dispatch,
            )
        finally:
            self._running = False
        # Advance to the horizon only when nothing at or before it is
        # left: a run cut short by stop() or by max_events keeps the
        # clock at its last event, so the next run never moves it back.
        if until_ps is not None and not self._stopped and self.now < until_ps:
            heap = self._heap
            if not heap or heap[0][0] > until_ps:
                self.now = until_ps
        return executed

    def stop(self) -> None:
        """Stop a ``run()`` in progress after the current event returns."""
        self._stopped = True

    # -- profiling ----------------------------------------------------------

    def enable_profiling(
        self, profiler: Optional[Any] = None, *, max_spans: int = 0
    ) -> Any:
        """Attach a wall-clock profiler to the run loop (opt-in).

        Subsequent :meth:`run` calls attribute each callback's wall time
        to its owner; read the result with :meth:`profile`.  Passing a
        :class:`~repro.obs.profile.SimProfiler` reuses it (tests inject
        fake clocks); otherwise a fresh one is created, retaining the
        last ``max_spans`` individual callback spans for timeline export
        (see :mod:`repro.obs.trace`).
        """
        if profiler is None:
            from repro.obs.profile import SimProfiler

            profiler = SimProfiler(max_spans=max_spans)
        self._profiler = profiler
        return profiler

    def disable_profiling(self) -> None:
        """Detach the profiler; callbacks are dispatched inline again."""
        self._profiler = None

    def profile(self) -> Any:
        """A :class:`~repro.obs.profile.ProfileReport` of the wall time
        attributed so far.  Raises unless :meth:`enable_profiling` was
        called."""
        if self._profiler is None:
            raise SimulationError(
                "profiling is not enabled; call enable_profiling() first"
            )
        from repro.obs.profile import ProfileReport

        return ProfileReport(rows=tuple(self._profiler.rows()))

    # -- introspection ------------------------------------------------------

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including lazily-cancelled ones)."""
        return len(self._heap)

    @property
    def live_events(self) -> int:
        """Queued events that will actually fire."""
        return len(self._heap) - self._dead

    @property
    def dead_entries(self) -> int:
        """Lazily-cancelled entries awaiting compaction."""
        return self._dead

    @property
    def events_executed(self) -> int:
        """Total events executed over the simulator's lifetime."""
        return self._events_executed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator now={self.now}ps pending={len(self._heap)} "
            f"dead={self._dead} executed={self._events_executed}>"
        )
