"""Outside-in tracing of qhyp's layers, installed from the benchmark's files.

``Tracer.install`` replaces every public function and method of the layer
modules with a wrapper, in every qhyp module namespace that binds it (the
package imports names across modules with ``from .x import y``), and
``uninstall`` puts the originals back.  Nothing under ``src/`` changes.

A span wrapper records, per name, the calls, the inclusive time of the
outermost calls (so recursion is not counted twice) and the self time, in
CPU seconds of the process, and per (caller, callee) edge the calls.  The methods of the value types
``Quaternion``, ``HVector`` and ``HMatrix`` and the scalar converters of
``serialize`` run hundreds to thousands of times per operation and each
costs less than a wrapper, so they are not timed: their cost shows in the
self time of their callers.  Of them only the ones in ``COUNTED`` are
wrapped, to count calls.

Wrapper time is measured, not assumed.  ``calibrate`` times wrapped no-op
calls against bare ones, which fixes the relative cost of a span and of a
count.  The caller measures the real overhead (traced minus untraced time
of the same rounds) and passes it to ``corrected``, which scales those costs
so that they add up to it and takes each wrapper's share out of the times
around it.  Spans are aggregated in memory and read out once, at the end of
a run.
"""

from __future__ import annotations

import dataclasses
import enum
import importlib
import inspect
import statistics
import sys
import time

LAYERS = ("quaternion", "linalg", "isometry", "invariants", "gram", "pairs",
          "serialize", "sampling")
#: classes whose methods are not timed
VALUE_TYPES = {"Quaternion", "HVector", "HMatrix"}
#: functions and methods that are counted, not timed
COUNTED = {"quaternion.Quaternion.__mul__", "serialize.quaternion_from_json",
           "serialize.quaternion_to_json"}
#: dunder methods wrapped like public ones
TRACED_DUNDERS = ("__init__", "__mul__")

# per-name record fields
CALLS, INCL, DESC_SPANS, DESC_COUNTS, SELF, KID_SPANS, KID_COUNTS = range(7)


class Tracer:
    def __init__(self):
        self._installed: list[tuple[object, str, object]] = []
        #: seconds one span and one count add to their caller, as calibrated
        self.span_cost = self.count_cost = 0.0
        #: name -> raw record, indexed by the field constants above
        self.spans: dict[str, list] = {}
        #: (caller, callee) -> calls; the caller of a top-level span is None
        self.edges: dict[tuple, int] = {}
        #: name -> calls, for counted-only methods
        self.counts: dict[str, int] = {}
        # frames: [name, children's raw seconds, child spans, child counts]
        self._stack: list[list] = [[None, 0.0, 0, 0]]
        self._depth: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Forget what was recorded; wrappers already made keep working."""
        self.spans.clear()
        self.edges.clear()
        self.counts.clear()
        del self._stack[1:]
        self._stack[0][1:] = [0.0, 0, 0]
        self._depth.clear()
        self._started = 0
        self._counted = 0

    # -- wrappers ----------------------------------------------------------

    def span(self, name: str, fn):
        clock = time.process_time
        stack, depth, spans, edges = self._stack, self._depth, self.spans, self.edges

        def traced(*args, **kwargs):
            self._started += 1
            started, counted = self._started, self._counted
            parent = stack[-1]
            frame = [name, 0.0, 0, 0]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                raw = clock() - t0
                stack.pop()
                depth[name] -= 1
                st = spans.get(name)
                if st is None:
                    st = spans[name] = [0, 0.0, 0, 0, 0.0, 0, 0]
                st[CALLS] += 1
                st[SELF] += raw - frame[1]
                st[KID_SPANS] += frame[2]
                st[KID_COUNTS] += frame[3]
                if depth[name] == 0:
                    st[INCL] += raw
                    st[DESC_SPANS] += self._started - started
                    st[DESC_COUNTS] += self._counted - counted
                parent[1] += raw
                parent[2] += 1
                key = (parent[0], name)
                edges[key] = edges.get(key, 0) + 1

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn):
        stack, counts = self._stack, self.counts

        def counted(*args, **kwargs):
            self._counted += 1
            stack[-1][3] += 1
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- wrapper cost ------------------------------------------------------

    def calibrate(self, calls: int = 20000, repeats: int = 5) -> None:
        """Time wrapped no-op calls against bare ones (medians of repeats)."""
        def noop(a, b):
            return None

        span = self.span("calibrate.noop", noop)
        count = self.counter("calibrate.noop", noop)
        spans, counts = [], []
        for _ in range(repeats):
            bare = _per_call(noop, calls)
            spans.append(_per_call(span, calls) - bare)
            counts.append(_per_call(count, calls) - bare)
        self.span_cost = statistics.median(spans)
        self.count_cost = statistics.median(counts)
        self.reset()

    def calibrated_overhead(self) -> float:
        """Wrapper seconds in everything recorded, at the calibrated costs."""
        return self._started * self.span_cost + self._counted * self.count_cost

    def corrected(self, overhead: float) -> dict[str, tuple[float, float]]:
        """name -> (inclusive, self) seconds with the wrapper time taken out.

        ``overhead`` is the measured traced-minus-untraced time of what was
        recorded; the calibrated costs are scaled so that they sum to it.
        """
        calibrated = self.calibrated_overhead()
        f = overhead / calibrated if calibrated > 0 else 0.0
        s, c = f * self.span_cost, f * self.count_cost
        out = {}
        for name, st in self.spans.items():
            incl = st[INCL] - st[DESC_SPANS] * s - st[DESC_COUNTS] * c
            own = st[SELF] - st[KID_SPANS] * s - st[KID_COUNTS] * c
            out[name] = (incl, own)
        return out

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")

        def wrap(name: str, fn):
            return self.counter(name, fn) if name in COUNTED else self.span(name, fn)

        replaced: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"qhyp.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
                    self._wrap_class(layer, obj, wrap)
        # rebind module-level names everywhere the originals were imported
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "qhyp" or modname.startswith("qhyp.")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(module, attr, hit[1])

    def _wrap_class(self, layer: str, cls, wrap) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in TRACED_DUNDERS:
                continue
            if attr == "__init__" and dataclasses.is_dataclass(cls):
                continue  # generated field assignment, not work
            name = f"{layer}.{cls.__name__}.{attr}"
            if cls.__name__ in VALUE_TYPES and name not in COUNTED:
                continue
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            if not inspect.isfunction(fn):
                continue
            wrapper = wrap(name, fn)
            self._set(cls, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._installed.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def calls(self, name: str) -> int:
        if name in self.counts:
            return self.counts[name]
        st = self.spans.get(name)
        return st[CALLS] if st else 0

    def edge_calls(self, caller: str, callee: str) -> int:
        return self.edges.get((caller, callee), 0)

    @property
    def span_calls(self) -> int:
        return self._started

    @property
    def counted_calls(self) -> int:
        return self._counted


def _per_call(fn, calls: int) -> float:
    clock = time.process_time
    t0 = clock()
    for k in range(calls):
        fn(k, None)
    return (clock() - t0) / calls
