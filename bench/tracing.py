"""Layer tracing from outside the package.

:func:`install` wraps the public functions of each hgnum layer module (and the
public and arithmetic methods of the classes they define) in span-recording
wrappers, and rebinds every name under which any hgnum module holds the
original, so ``from .families import table`` in ``cli`` is traced too.  The
``exact`` layer is only counted: ``factorial`` through its lru cache's
``cache_info()``, ``binomial`` by a counting wrapper and the two enumerators by
counting what they yield.

Spans live in memory until the pass ends.  Each thread keeps its own span
stack; a task submitted to ``cli``'s thread pool starts its stack from the
span that was current in the submitting thread, so work done in a pool worker
is parented to the request that waits for it, and the submitter's time in
``Future.result`` and the pool's shutdown is recorded as waiting.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor

# Timed layers, by hgnum module name.  ``cli`` is timed by the request span
# the worker opens around ``hgnum.cli.main``; ``goldens`` is data.
TIMED_LAYERS = ("identities", "closed_forms", "families", "linalg", "series")
# Methods worth a span besides the public ones; ``__getitem__`` is left out on
# purpose: it is hot and trivial, and wrapping it would time the wrapper.
ARITHMETIC = {"__add__", "__sub__", "__neg__", "__mul__", "__truediv__"}
# Layers whose entries from another layer are counted.
CALLS_REPORTED = ("identities", "closed_forms", "linalg")
COUNTED_YIELDS = ("compositions", "partition_multiplicities")
ROUTES = ("explicit", "binomial", "det", "trudi")


class Span:
    __slots__ = ("layer", "name", "parent", "request", "thread", "t0", "t1", "table")

    def __init__(self, layer, name, parent, request, thread, t0):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.request = request
        self.thread = thread
        self.t0 = t0
        self.t1 = t0
        self.table = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.wait_s = 0.0
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._threads = 0
        self._requests = 0
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            self._bind_thread([])
            return self._local.stack

    def _bind_thread(self, stack: list[Span]) -> None:
        if not hasattr(self._local, "thread"):
            with self._lock:
                self._local.thread = self._threads
                self._threads += 1
        self._local.stack = stack

    def wrap(self, layer: str, name: str, fn):
        spans, stack_of, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            if parent is None:
                with self._lock:
                    request = self._requests
                    self._requests += 1
            else:
                request = parent.request
            span = Span(layer, name, parent, request, self._local.thread, clock())
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = clock()
                stack.pop()
            if layer == "families" and hasattr(result, "family") and hasattr(result, "nmax"):
                span.table = (result.family.kind.value, result.family.N, result.nmax)
            return result

        return traced

    def count_calls(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def count_yields(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return counted

    def executor_class(self):
        """A ThreadPoolExecutor whose tasks inherit the submitter's span and
        whose result/shutdown waits are recorded."""
        tracer = self
        clock = time.perf_counter

        class TracedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None

                def run(*a, **k):
                    tracer._bind_thread([parent] if parent is not None else [])
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer._local.stack = []

                future = super().submit(run, *args, **kwargs)
                result = future.result

                def timed_result(timeout=None):
                    t0 = clock()
                    try:
                        return result(timeout)
                    finally:
                        tracer.wait_s += clock() - t0

                future.result = timed_result
                return future

            def shutdown(self, wait=True, **kwargs):
                t0 = clock()
                try:
                    super().shutdown(wait, **kwargs)
                finally:
                    tracer.wait_s += clock() - t0

        return TracedExecutor

    def summary(self) -> dict:
        """Per-layer totals of one pass, plus per-request span consistency."""
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[id(s.parent)].append(s)
        self_s: Counter = Counter()
        calls: Counter = Counter()
        per_request_self: Counter = Counter()
        request_span: dict[int, float] = {}
        routes: Counter = Counter()
        by_name_s: Counter = Counter()
        by_name_calls: Counter = Counter()
        for s in self.spans:
            own = (s.t1 - s.t0) - _covered(s, children.get(id(s), ()))
            self_s[s.layer] += own
            per_request_self[s.request] += own
            outer = s.parent is None or s.parent.layer != s.layer
            if outer:
                calls[s.layer] += 1
            if s.parent is None:
                request_span[s.request] = s.t1 - s.t0
            if s.layer == "closed_forms" and outer:
                route = s.name.rsplit("_", 1)[-1]
                if route in ROUTES:
                    routes[route] += s.t1 - s.t0
            if s.parent is None or s.parent.name != s.name:
                by_name_s[s.name] += s.t1 - s.t0
            by_name_calls[s.name] += 1
        builds = [s.table for s in self.spans if s.table and not _inside_build(s)]
        out = {
            "series.reciprocal_s": by_name_s["TruncatedSeries.reciprocal"],
            "series.reciprocal_calls": by_name_calls["TruncatedSeries.reciprocal"],
            "series.mul_s": by_name_s["TruncatedSeries.__mul__"],
            "series.mul_calls": by_name_calls["TruncatedSeries.__mul__"],
            "families.table_calls": len(builds),
            "families.table_redundant_ratio": _redundant(builds) / len(builds) if builds else 0.0,
            "cli.self_s": self_s["cli"],
            "cli.wait_s": self.wait_s,
        }
        for layer in TIMED_LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        for layer in CALLS_REPORTED:
            out[f"{layer}.calls"] = calls[layer]
        for route in ROUTES:
            out[f"closed_forms.{route}_s"] = routes[route]
        exact = sys.modules["hgnum.exact"]
        info = exact.factorial.cache_info()
        out["exact.factorial_calls"] = info.hits + info.misses
        out["exact.binomial_calls"] = self.counts["binomial"]
        out["exact.compositions_yielded"] = self.counts["compositions"]
        out["exact.partitions_yielded"] = self.counts["partition_multiplicities"]
        excess = max(
            (per_request_self[r] - span for r, span in request_span.items()), default=0.0
        )
        return {"layers": out, "requests": len(request_span), "max_self_excess_s": excess}

    def write_spans(self, path: str) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                parent = index[id(s.parent)] if s.parent is not None else None
                fh.write(json.dumps([i, parent, s.request, s.thread, s.layer, s.name, s.t0, s.t1]))
                fh.write("\n")


def _covered(span: Span, kids) -> float:
    """Length of the part of ``span`` that its children cover."""
    total, end = 0.0, span.t0
    for a, b in sorted((max(k.t0, span.t0), min(k.t1, span.t1)) for k in kids):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _inside_build(span: Span) -> bool:
    p = span.parent
    while p is not None and p.layer == "families":
        if p.table:
            return True
        p = p.parent
    return False


def _redundant(builds) -> int:
    """Builds whose (family, N) an earlier build already covered up to at
    least the same nmax."""
    best: dict[tuple[str, int], int] = {}
    redundant = 0
    for kind, N, nmax in builds:
        if best.get((kind, N), -1) >= nmax:
            redundant += 1
        else:
            best[(kind, N)] = nmax
    return redundant


def install(tracer: Tracer) -> None:
    """Wrap the already imported hgnum modules; call once per process."""
    modules = [m for name, m in sys.modules.items() if name == "hgnum" or name.startswith("hgnum.")]
    swap: dict[int, tuple[object, object]] = {}
    for layer in TIMED_LAYERS:
        mod = sys.modules[f"hgnum.{layer}"]
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                swap[id(obj)] = (obj, tracer.wrap(layer, name, obj))
            elif inspect.isclass(obj):
                _wrap_methods(tracer, layer, obj)
    exact = sys.modules["hgnum.exact"]
    counted = {id(exact.binomial): tracer.count_calls("binomial", exact.binomial)}
    for name in COUNTED_YIELDS:
        counted[id(getattr(exact, name))] = tracer.count_yields(name, getattr(exact, name))
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if id(obj) in swap and swap[id(obj)][0] is obj:
                setattr(mod, name, swap[id(obj)][1])
            elif id(obj) in counted and mod is not exact:
                # exact's own recursive calls stay uncounted
                setattr(mod, name, counted[id(obj)])
    sys.modules["hgnum.cli"].ThreadPoolExecutor = tracer.executor_class()


def _wrap_methods(tracer: Tracer, layer: str, cls: type) -> None:
    for name, attr in list(vars(cls).items()):
        if name.startswith("_") and name not in ARITHMETIC:
            continue
        label = f"{cls.__name__}.{name}"
        if isinstance(attr, staticmethod):
            setattr(cls, name, staticmethod(tracer.wrap(layer, label, attr.__func__)))
        elif inspect.isfunction(attr):
            setattr(cls, name, tracer.wrap(layer, label, attr))
