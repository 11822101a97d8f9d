"""Tracing from outside the package: spans around calls into g2real's public
functions, call counters, and the statistics the benchmark reports.

Spans and counters are installed by rebinding a function in every loaded
``g2real`` module namespace that binds it (``reality`` imports
``certify_automorphism`` by name, for example) and, for field methods, on the
class.  ``Rebinder`` restores every binding it replaced when it exits, so an
untraced run after a traced one calls the original functions.
"""

import copy
import functools
import itertools
import math
import sys
import time
import types
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    element: object  # id of the workload element being processed
    info: dict = field(default_factory=dict)


class Tracer:
    """Records spans in memory; ``element`` tags every span opened while set."""

    def __init__(self):
        self.spans = []
        self.element = None
        self._stack = []

    def wrap(self, name, fn, measure=None):
        """``fn`` recording one span per call; ``measure(args, kwargs, result)``
        adds counts such as candidates to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(index)
            done = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                end = time.perf_counter()
                self._stack.pop()
                info = measure(args, kwargs, result) if done and measure else {}
                self.spans[index] = Span(name, start, end, parent, self.element, info)
            return result

        return traced


class CallCounter:
    """Counts calls per key; no timing, so its wrappers stay cheap."""

    def __init__(self):
        self._ticks = {}

    def wrap(self, key, fn):
        tick = self._ticks.setdefault(key, itertools.count()).__next__

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return counted

    @property
    def counts(self):
        # reading a count advances it, so read from a copy
        return Counter({key: next(copy.copy(c)) for key, c in self._ticks.items()})


def g2real_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if name == "g2real" or name.startswith("g2real.")
    ]


def public_functions(module):
    """Public functions defined (not merely imported) in ``module``."""
    return [
        value
        for name, value in vars(module).items()
        if not name.startswith("_")
        and isinstance(value, types.FunctionType)
        and value.__module__ == module.__name__
    ]


def public_methods(cls):
    """Names of the plain public methods defined on ``cls`` (no properties)."""
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and isinstance(value, types.FunctionType)
    ]


class Rebinder:
    """Context manager that replaces functions and methods and puts every
    original back on exit, in reverse order, even when the body raised."""

    def __init__(self):
        self._saved = []

    def function(self, fn, replacement):
        """Rebind ``fn`` in every loaded g2real namespace that binds it."""
        for mod in g2real_modules():
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._saved.append((mod, name, fn))
                    setattr(mod, name, replacement)

    def method(self, cls, name, replacement):
        self._saved.append((cls, name, vars(cls)[name]))
        setattr(cls, name, replacement)

    def restore(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def self_times(spans):
    """Each span's duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        lo = hi = None
        for kid in sorted(kids, key=lambda s: s.start):
            a, b = max(kid.start, span.start), min(kid.end, span.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append(span.end - span.start - covered)
    return out


def tail_percentile(n):
    """The highest whole percentile with at least ten of ``n`` samples beyond
    it (by nearest rank); needs n >= 11."""
    for p in range(99, 0, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    raise ValueError(f"{n} samples leave no percentile with ten beyond it")


def percentile(values, p):
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered) / 100), 1) - 1]
