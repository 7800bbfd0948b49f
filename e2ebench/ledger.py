"""Layer ledger: wall time per layer of the simulator, from spans.

The traced benchmark run records a span around every call that crosses a
layer boundary and rolls the spans up by layer.  A layer is one package
of ``repro`` (``repro.net`` is ``net``).  A span's *self time* is its
duration minus the time covered by the spans nested inside it, so the
self times of all layers add up to the wall time the spans cover.

Two kinds of span feed the ledger:

* engine callbacks, timed by the engine's own opt-in profiler
  (:meth:`Simulator.enable_profiling`) and attributed to the package
  that owns the callback (:func:`callback_layer`);
* wrapped calls on objects the benchmark built (:meth:`Ledger.wrap`,
  :meth:`Ledger.swap_class`), such as a device's ``receive`` or a CC
  algorithm's ``on_event``.

Self time is computed online with a stack of child-time accumulators,
so a run of millions of events keeps O(depth) memory.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.obs.profile import SimProfiler, callback_owner
from repro.sim.timers import PeriodicTimer, Timeout

#: The layers of the program, one per package under ``repro``.
LAYERS = (
    "sim", "net", "pswitch", "fpga", "cc", "measure", "workload", "obs",
    "core", "fluid", "parallel", "serve",
)


class UnknownLayer(LookupError):
    """A span owner that belongs to no known layer."""


def layer_of_module(module: str) -> str:
    """The layer of a module path such as ``repro.net.device``."""
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    raise UnknownLayer(f"module {module!r} belongs to no layer of {LAYERS}")


def callback_target(fn: Callable[..., Any]) -> Callable[..., Any]:
    """The function an engine callback runs on behalf of: a timer's
    ``_fire``/``_expire`` stands for the callback the timer invokes."""
    bound = getattr(fn, "__self__", None)
    while isinstance(bound, (PeriodicTimer, Timeout)):
        fn = bound.fn
        bound = getattr(fn, "__self__", None)
    return fn


def callback_layer(fn: Callable[..., Any]) -> str:
    """The layer that owns an engine callback: the package defining the
    bound instance's class, or the function's own module.  Timer
    callbacks count toward the layer of the callback the timer fires."""
    fn = callback_target(fn)
    bound = getattr(fn, "__self__", None)
    module = type(bound).__module__ if bound is not None else getattr(fn, "__module__", None)
    if module is None:
        raise UnknownLayer(f"callback {fn!r} has no module")
    try:
        return layer_of_module(module)
    except UnknownLayer:
        raise UnknownLayer(
            f"callback owner {callback_owner(fn)!r} (module {module!r}) "
            "belongs to no layer"
        ) from None


class Ledger:
    """Self time and call counts per layer, from nested spans.

    Each thread keeps its own stack; the bottom entry collects the time
    of spans opened at top level.  Totals are shared across threads.
    Engine callbacks (:meth:`callback`) arrive on one thread, inside the
    innermost :meth:`span`.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        #: Closed spans per ``layer.name``.
        self.calls: Counter = Counter()
        #: Total duration per ``layer.name`` (self plus children).
        self.total_s: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._swapped: dict[tuple, type] = {}
        #: Child time of the enclosing span already charged to earlier
        #: engine callbacks (see :meth:`callback`).
        self._mark = 0.0
        #: Wall time spent in the profiler's per-callback bookkeeping.
        self.overhead_s = 0.0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0.0]
        return stack

    def _charge(self, layer: str, name: str, dur: float, child: float) -> None:
        key = layer + "." + name
        with self._lock:
            self.self_s[layer] += dur - child
            self.calls[key] += 1
            self.total_s[key] = self.total_s.get(key, 0.0) + dur

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[None]:
        """Time the block as one span of ``layer``."""
        if layer not in self.self_s:
            raise UnknownLayer(f"no layer {layer!r}")
        stack = self._stack()
        stack.append(0.0)
        self._mark = 0.0
        start = self.clock()
        try:
            yield
        finally:
            dur = self.clock() - start
            child = stack.pop()
            stack[-1] += dur
            self._charge(layer, name, dur, child)

    def wrap(self, layer: str, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span of ``layer``."""
        if layer not in self.self_s:
            raise UnknownLayer(f"no layer {layer!r}")
        clock = self.clock
        local_stack = self._stack
        charge = self._charge

        @functools.wraps(fn)
        def spanned(*args: Any, **kwargs: Any) -> Any:
            stack = local_stack()
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = stack.pop()
                stack[-1] += dur
                charge(layer, name, dur, child)

        return spanned

    def swap_class(self, obj: Any, layer: str, methods: tuple[str, ...]) -> None:
        """Move ``obj`` to a subclass of its class whose ``methods`` are
        spanned.  For objects with ``__slots__`` (no instance dict); the
        subclass adds no slots, so the layout and behaviour are unchanged."""
        cls = type(obj)
        key = (cls, layer, methods)
        sub = self._swapped.get(key)
        if sub is None:
            body = {"__slots__": ()}
            for method in methods:
                body[method] = self.wrap(layer, method, getattr(cls, method))
            sub = type(f"Spanned{cls.__name__}", (cls,), body)
            sub.__module__ = cls.__module__
            self._swapped[key] = sub
        obj.__class__ = sub

    def callback(self, layer: str, name: str, seconds: float) -> None:
        """Charge one engine callback that just returned after ``seconds``.

        The callback ran inside the innermost open span (the ``run``
        span); the spans closed at that depth since the previous callback
        are its children."""
        stack = self._stack()
        child = stack[-1] - self._mark
        stack[-1] = self._mark + seconds
        self._mark = stack[-1]
        self._charge(layer, name, seconds, child)

    def count(self, key: str) -> int:
        return self.calls.get(key, 0)


class LedgerProfiler(SimProfiler):
    """The engine's profiler hook, charging each callback to its layer
    in a :class:`Ledger` instead of the per-owner table."""

    __slots__ = ("ledger", "_layers")

    def __init__(self, ledger: Ledger) -> None:
        super().__init__(ledger.clock)
        self.ledger = ledger
        self._layers: dict[Any, str] = {}

    def record(self, fn: Callable[..., Any], seconds: float) -> None:
        entered = self.clock()
        target = callback_target(fn)
        bound = getattr(target, "__self__", None)
        if bound is not None:
            key = (type(bound), target.__name__)
        else:  # closures made per flow share one code object
            key = getattr(target, "__code__", target)
        layer = self._layers.get(key)
        if layer is None:
            layer = self._layers[key] = callback_layer(target)
        ledger = self.ledger
        ledger.callback(layer, target.__name__, seconds)
        ledger.overhead_s += self.clock() - entered
