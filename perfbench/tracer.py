"""Spans around calls into groversim's public functions, recorded from outside.

install() rebinds every target wherever a groversim module holds it, so
names that one module imported from another (`from .search import
run_search` in cli) are traced too; classes are traced through their
__init__. uninstall() puts the originals back, so untraced passes run the
unmodified program. Spans stay in memory as (name, start, end, parent
index); summary() turns them into per-function call counts and self time
(span time minus the time of its child spans) and clears them.
"""
from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter, defaultdict

COMPLEX_BYTES = 16

TARGETS = (
    ("cli", "main"),
    ("search", "average_trajectory_over_all_sets"),
    ("search", "run_search"),
    ("search", "MarkedSet"),
    ("kernels", "average_trajectory"),
    ("kernels", "grover_evolve"),
    ("kernels", "success_trajectory"),
    ("states", "PureState"),
    ("analytics", "closed_form_average"),
    ("analytics", "coherence_fraction"),
    ("analytics", "optimal_average"),
    ("ansatz", "prepare_ansatz_state"),
    ("ansatz", "optimal_success_vs_phases"),
    ("ansatz", "optimal_success_vs_mixing"),
    ("minimize", "run_minimization"),
    ("minimize", "exponential_search"),
    ("minimize", "sample_measurement"),
    ("minimize", "threshold_marked_set"),
)
SPAN_NAMES = tuple(f"{module}.{name}" for module, name in TARGETS)


def _kernel_steps(counts: Counter, amps, steps: int) -> None:
    # Computed, not measured: one read of every complex128 amplitude per step.
    counts["kernels.steps"] += steps
    counts["kernels.bytes_computed"] += steps * len(amps) * COMPLEX_BYTES


def _search_outcome(counts: Counter, outcome) -> None:
    counts["minimize.oracle_calls"] += outcome.oracle_calls
    counts["minimize.verified"] += outcome.verified


# Counters taken at the same boundaries as the spans: (counts, args, result).
HOOKS = {
    "kernels.grover_evolve": lambda c, a, _: _kernel_steps(c, a[0], a[2]),
    "kernels.success_trajectory": lambda c, a, _: _kernel_steps(c, a[0], a[2]),
    "kernels.average_trajectory": lambda c, a, _: _kernel_steps(c, a[0], math.comb(len(a[0]), a[1]) * a[2]),
    "search.average_trajectory_over_all_sets": lambda c, a, _: c.update({"search.subsets": math.comb(a[0].dimension, a[1])}),
    "minimize.exponential_search": lambda c, a, outcome: _search_outcome(c, outcome),
    "minimize.sample_measurement": lambda c, a, _: c.update({"minimize.attempts": 1}),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "groversim"]
        for (module, attr), name in zip(TARGETS, SPAN_NAMES):
            original = getattr(sys.modules[f"groversim.{module}"], attr)
            if isinstance(original, type):
                self._rebind(original, "__init__", self._wrap(name, original.__init__))
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def _rebind(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, time.perf_counter(), parent)
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def summary(self) -> dict:
        """Calls, self time and counters of the spans so far; then clear them."""
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        minimization_ms = []
        for index, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child_s[index]
            if name == "minimize.run_minimization":
                minimization_ms.append((end - start) * 1e3)
        out = {
            "calls": {name: calls[name] for name in SPAN_NAMES},
            "self_s": {name: self_s[name] for name in SPAN_NAMES},
            "counts": dict(self.counts),
            "minimization_ms": minimization_ms,
        }
        self.spans.clear()
        self.counts.clear()
        return out

