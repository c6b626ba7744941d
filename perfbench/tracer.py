"""Out-of-program tracing for the benchmark.

The tracer wraps public cpfsim functions in every cpfsim module namespace
that holds them (so a call is timed wherever its caller looks it up) and
methods on their classes.  Hot calls are aggregated in memory: count, total
time, self time (total minus wrapped children) and a log-bucketed latency
histogram.  Coarse boundaries (set-up, run, each suite, each artefact write)
are recorded as spans with a parent and a shared run id.  Nothing under
``src/`` is modified; ``uninstall`` restores every original attribute.

A target whose module, class or attribute no longer exists is skipped and
listed in ``absent``, so a refactor that deletes a function leaves its
metrics out instead of crashing the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import uuid
from contextlib import contextmanager

_clock = time.perf_counter_ns

# Latency histogram: values below 2**5 ns are exact; above, 16 sub-buckets
# per power of two (about 6 % resolution).
_SUB_BITS = 4


def _bucket(ns: int) -> int:
    b = ns.bit_length()
    if b <= _SUB_BITS + 1:
        return ns
    return (b << _SUB_BITS) | ((ns >> (b - _SUB_BITS - 1)) & ((1 << _SUB_BITS) - 1))


def _bucket_mid(key: int) -> float:
    if key < (1 << (_SUB_BITS + 1)):
        return float(key)
    b = key >> _SUB_BITS
    sub = key & ((1 << _SUB_BITS) - 1)
    shift = b - _SUB_BITS - 1
    lo = ((1 << _SUB_BITS) | sub) << shift
    return lo + 0.5 * (1 << shift)


class Stat:
    """Aggregate of one wrapped name: calls, total/self time, histogram."""

    __slots__ = ("calls", "total_ns", "self_ns", "hist")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.hist: dict[int, int] = {}

    def percentile_us(self, q: float) -> float:
        if not self.calls:
            return 0.0
        rank = q * (self.calls - 1)
        seen = 0
        for key in sorted(self.hist):
            seen += self.hist[key]
            if seen > rank:
                return _bucket_mid(key) / 1000.0
        return _bucket_mid(max(self.hist)) / 1000.0


class Tracer:
    """Wrappers, aggregates and spans for one traced benchmark process."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[int] = []      # child time accumulated per open frame
        self._span_ids: list[int] = []   # open span ids
        self._patched: list[tuple[object, str, object]] = []
        self._span_mark = 0              # first span of the current pass

    # -- aggregation ----------------------------------------------------------

    def reset(self) -> None:
        """Forget aggregates and counters (spans are kept)."""
        self._span_mark = len(self.spans)
        for stat in self.stats.values():
            stat.calls = stat.total_ns = stat.self_ns = 0
            stat.hist.clear()
        for key in self.counters:
            self.counters[key] = 0

    def stat(self, key: str) -> Stat:
        return self.stats.setdefault(key, Stat())

    def timed(self, key: str, fn, on_result=None):
        """Wrapper recording calls, total/self time and latency of fn."""
        stat = self.stat(key)
        stack = self._stack
        hist = stat.hist

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stat.calls += 1
                stat.total_ns += dt
                stat.self_ns += dt - child
                b = _bucket(dt)
                hist[b] = hist.get(b, 0) + 1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counted(self, key: str, fn):
        """Wrapper counting calls only; its time stays with the caller."""
        stat = self.stat(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def span_self_s(self, prefix: str) -> float:
        """Self time of the spans since the last reset whose name starts with prefix (s)."""
        return sum(rec["self_ns"] for rec in self.spans[self._span_mark:]
                   if rec["name"].startswith(prefix)) / 1e9

    # -- spans ----------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Coarse span; its duration also counts as child time of its parent."""
        span_id = len(self.spans)
        parent = self._span_ids[-1] if self._span_ids else None
        rec = {"run_id": self.run_id, "id": span_id, "parent": parent,
               "name": name, "start_ns": 0, "end_ns": 0}
        self.spans.append(rec)
        self._span_ids.append(span_id)
        self._stack.append(0)
        rec["start_ns"] = t0 = _clock()
        try:
            yield rec
        finally:
            rec["end_ns"] = t1 = _clock()
            child = self._stack.pop()
            if self._stack:
                self._stack[-1] += t1 - t0
            rec["self_ns"] = t1 - t0 - child
            self._span_ids.pop()

    # -- installation ---------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, owner.__dict__[name]
                              if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, value)

    def patch_function(self, module: str, name: str, make) -> None:
        """Replace ``module.name`` in every cpfsim namespace that holds it.

        ``make(namespace_module_name, original)`` returns the wrapper for
        that namespace, so callers outside the defining module can get a
        different wrapper (for example one that inspects the result).
        """
        try:
            mod = importlib.import_module(module)
        except ImportError:
            self.absent.append(f"{module}.{name}")
            return
        original = getattr(mod, name, None)
        if original is None:
            self.absent.append(f"{module}.{name}")
            return
        for ns_name, ns in list(sys.modules.items()):
            if ns is None or not (ns_name == "cpfsim" or ns_name.startswith("cpfsim.")):
                continue
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._set(ns, attr, make(ns_name, original))

    def patch_method(self, module: str, base: str, name: str, make,
                     subclasses: bool = False) -> None:
        """Replace a method on a class (and on each subclass defining it)."""
        try:
            mod = importlib.import_module(module)
        except ImportError:
            self.absent.append(f"{module}.{base}.{name}")
            return
        cls = getattr(mod, base, None)
        if not isinstance(cls, type):
            self.absent.append(f"{module}.{base}.{name}")
            return
        classes = [cls]
        if subclasses:
            todo = list(cls.__subclasses__())
            while todo:
                sub = todo.pop()
                classes.append(sub)
                todo.extend(sub.__subclasses__())
        found = False
        for c in classes:
            fn = c.__dict__.get(name)
            if callable(fn):
                self._set(c, name, make(fn))
                found = True
        if not found:
            self.absent.append(f"{module}.{base}.{name}")

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)
