"""Outside-in span tracer for the qfluid package.

The tracer replaces chosen functions and methods of the installed package
with timing wrappers, from outside the package: a function is rebound at
every attribute of every loaded ``qfluid.*`` module that refers to it,
because ``experiments``, ``ensemble`` and ``conditional`` import functions
by value and patching only the defining module would record nothing.

Each call records a span (layer, start, end, parent, root). The self time
of a span is its duration minus the durations of its direct children, so
the self times of all spans under a root add up to the root's duration.
Optional count hooks turn call arguments and results into named counters
at the same boundary.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

__all__ = ["Tracer"]


class Tracer:
    """Span and counter recorder; trace_*() patch, uninstall() restores."""

    def __init__(self):
        # each span is [layer, start, end, parent index, root index]
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, layer: str, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [layer, 0.0, 0.0, parent, spans[parent][4] if parent >= 0 else index]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def trace_function(self, module, name: str, layer: str, count=None):
        """Wrap module.name and rebind it wherever a qfluid module binds it."""
        original = getattr(module, name)
        wrapper = self._wrap(layer, original, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qfluid" or mod_name.startswith("qfluid.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def trace_method(self, cls, name: str, layer: str, count=None):
        """Wrap a plain method or a classmethod on its class."""
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            patched = classmethod(self._wrap(layer, raw.__func__, count))
        else:
            patched = self._wrap(layer, raw, count)
        self._patches.append((cls, name, raw))
        setattr(cls, name, patched)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds a wrapper adds to one call, timed on a no-op function
        (best of three batches, so noise from other processes drops out)."""
        def noop():
            return None

        probe = Tracer()
        wrapped = probe._wrap("probe", noop)

        def batch(fn):
            probe.spans.clear()
            started = time.perf_counter()
            for _ in range(calls):
                fn()
            return time.perf_counter() - started

        best = min(batch(wrapped) for _ in range(3)) - min(batch(noop) for _ in range(3))
        return max(best, 0.0) / calls

    # -- aggregation -----------------------------------------------------

    def layer_totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time and call count per layer."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (layer, start, end, _, _) in enumerate(self.spans):
            self_s[layer] += (end - start) - child[i]
            calls[layer] += 1
        return dict(self_s), dict(calls)
