"""Quantum threshold-descent minimization over a classical objective table.

Each round marks every table entry strictly below the current threshold,
runs exponential search (iteration count drawn uniformly under a
geometrically growing reach) against that marked set, measures, and
lowers the threshold when the measurement improves it. The threshold
register stays classical; oracle-call accounting charges the Grover
iterations only, measurements are free.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import kernels
from .analytics import closed_form_average
from .ansatz import LocalGateParams, prepare_ansatz_state
from .search import MarkedSet
from .states import PureState, check_qubit_count, equal_superposition

GENERATOR_KINDS = ("permutation", "uniform", "constant")


@dataclass(frozen=True, eq=False)
class ObjectiveTable:
    """Objective values f(x) for every x in [0, 2**n), all finite."""

    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        check_qubit_count(self.n)
        vals = np.array(self.values, dtype=np.float64, copy=True)
        if vals.shape != (2**self.n,):
            raise ValueError(f"expected {2**self.n} values for n={self.n}, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("objective values must all be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def dimension(self) -> int:
        return 2**self.n

    def argmin_set(self) -> tuple[int, ...]:
        """All indices attaining the minimum (ties included)."""
        lo = self.values.min()
        return tuple(int(i) for i in np.flatnonzero(self.values == lo))

    @classmethod
    def from_values(cls, values) -> "ObjectiveTable":
        vals = np.asarray(values, dtype=np.float64)
        n = int(vals.shape[0]).bit_length() - 1
        if vals.ndim != 1 or vals.shape[0] != 2**n:
            raise ValueError(f"value count {vals.shape} is not a power of two")
        return cls(n, vals)

    @classmethod
    def from_csv(cls, path: str | Path) -> "ObjectiveTable":
        """Load from a two-column CSV "index,value" with a header row."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip().lower() for h in header[:2]] != ["index", "value"]:
                raise ValueError(f"{path}: expected header 'index,value'")
            pairs = [(int(row[0]), float(row[1])) for row in reader if row]
        if not pairs:
            raise ValueError(f"{path}: no data rows")
        size = len(pairs)
        vals = np.full(size, np.nan)
        for i, v in pairs:
            if not 0 <= i < size:
                raise ValueError(f"{path}: index {i} out of range for {size} rows")
            vals[i] = v
        if np.isnan(vals).any():
            raise ValueError(f"{path}: indices must cover 0..{size - 1} exactly once")
        return cls.from_values(vals)


def make_objective(kind: str, n: int, seed: int) -> ObjectiveTable:
    """Built-in generators: 'permutation' of 0..N-1, 'uniform' reals, 'constant'."""
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown objective generator {kind!r}; choose from {GENERATOR_KINDS}")
    check_qubit_count(n)
    dim = 2**n
    rng = np.random.default_rng([seed, dim])
    if kind == "permutation":
        return ObjectiveTable(n, rng.permutation(dim).astype(np.float64))
    if kind == "uniform":
        return ObjectiveTable(n, rng.uniform(0.0, 1.0, size=dim))
    return ObjectiveTable(n, np.zeros(dim))


@dataclass(frozen=True)
class SearchSchedule:
    """Exponential-search schedule: growth in (1, 4/3], reach capped at sqrt(N).

    max_oracle_calls = None means unlimited; when given it must be positive.
    """

    growth: float = 6.0 / 5.0
    initial_reach: float = 1.0
    max_oracle_calls: int | None = None

    def __post_init__(self) -> None:
        if not 1.0 < self.growth <= 4.0 / 3.0:
            raise ValueError(f"growth factor must lie in (1, 4/3], got {self.growth!r}")
        if not 1.0 <= self.initial_reach < math.inf:
            raise ValueError(f"initial reach must be finite and >= 1, got {self.initial_reach!r}")
        if self.max_oracle_calls is not None and self.max_oracle_calls <= 0:
            raise ValueError(f"oracle budget must be positive, got {self.max_oracle_calls!r}")


@dataclass(frozen=True)
class SearchOutcome:
    """One exponential-search result; verified means a marked index was measured."""

    index: int
    oracle_calls: int
    verified: bool


@dataclass(frozen=True)
class MinimizationReport:
    """Full record of one threshold-descent run, replayable from the seed."""

    result_index: int
    result_value: float
    threshold_history: tuple[tuple[int, float], ...]
    oracle_calls_used: int
    converged: bool
    stop_reason: str
    seed: int

    def to_dict(self) -> dict:
        return {
            "result_index": self.result_index,
            "result_value": self.result_value,
            "threshold_history": [[x, d] for x, d in self.threshold_history],
            "oracle_calls_used": self.oracle_calls_used,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "seed": self.seed,
        }


def threshold_marked_set(table: ObjectiveTable, d: float) -> MarkedSet | None:
    """Indices with f(x) strictly below d, or None when nothing qualifies.

    Strictness means ties at the threshold stay unmarked, so a verified
    search hit always lowers the threshold.
    """
    below = np.flatnonzero(table.values < d)
    if below.size == 0:
        return None
    return MarkedSet(tuple(below.tolist()))


def sample_measurement(state: PureState, rng: np.random.Generator) -> int:
    """Born-rule sample of a basis index, deterministic given the generator state."""
    probs = np.abs(state.amplitudes) ** 2
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    idx = int(np.searchsorted(cdf, rng.random(), side="right"))
    return min(idx, state.dimension - 1)


def exponential_search(
    initial: PureState,
    marked: MarkedSet,
    schedule: SearchSchedule,
    rng: np.random.Generator,
) -> SearchOutcome:
    """Search for any marked index without knowing how many there are.

    Repeats {draw j uniformly in [0, ceil(reach)), run j Grover steps,
    measure}; the reach grows by schedule.growth per failed attempt up to
    sqrt(N). Charges j oracle calls per attempt. With a budget, the last
    attempt is clamped to the remaining calls and an unmarked measurement
    at that point comes back unverified.
    """
    marked.validate_for(initial.dimension)
    amps = initial.amplitudes
    idx = np.asarray(marked.indices, dtype=np.int64)
    is_marked = np.zeros(initial.dimension, dtype=bool)
    is_marked[idx] = True
    reach_cap = math.sqrt(initial.dimension)
    reach = min(schedule.initial_reach, reach_cap)
    budget = schedule.max_oracle_calls
    calls = 0
    while True:
        j = int(rng.integers(0, math.ceil(reach)))
        if budget is not None and calls + j > budget:
            j = budget - calls
        evolved = kernels.grover_evolve(amps, idx, j)
        calls += j
        x = sample_measurement(PureState(initial.n, evolved), rng)
        if is_marked[x]:
            return SearchOutcome(index=x, oracle_calls=calls, verified=True)
        if budget is not None and calls >= budget:
            return SearchOutcome(index=x, oracle_calls=calls, verified=False)
        reach = min(reach * schedule.growth, reach_cap)


def run_minimization(
    table: ObjectiveTable,
    init: LocalGateParams | None = None,
    schedule: SearchSchedule = SearchSchedule(),
    seed: int = 0,
) -> MinimizationReport:
    """Threshold descent to the table's minimum; init=None uses the uniform state.

    Starts from a uniformly random index, then repeats: mark entries below
    the threshold, exponential-search them, accept the measurement if it
    improves. Stops when the marked set is empty (the threshold is the
    minimum) or when the budget runs out; stop_reason records which.
    These are the only stops: a verified hit always lowers the threshold,
    because marking is strict, and an unverified outcome comes back only
    once the budget is spent.
    """
    rng = np.random.default_rng(seed)
    prep = (
        equal_superposition(table.n)
        if init is None
        else prepare_ansatz_state(table.n, init)
    )
    x = int(rng.integers(table.dimension))
    d = float(table.values[x])
    history = [(x, d)]
    calls = 0
    budget = schedule.max_oracle_calls
    while True:
        marked = threshold_marked_set(table, d)
        if marked is None:
            converged, reason = True, "empty_marked_set"
            break
        if budget is not None and calls >= budget:
            converged, reason = False, "budget_exhausted"
            break
        round_schedule = replace(
            schedule,
            max_oracle_calls=None if budget is None else budget - calls,
        )
        outcome = exponential_search(prep, marked, round_schedule, rng)
        calls += outcome.oracle_calls
        value = float(table.values[outcome.index])
        if value < d:
            x, d = outcome.index, value
            history.append((x, d))
    return MinimizationReport(
        result_index=x,
        result_value=d,
        threshold_history=tuple(history),
        oracle_calls_used=calls,
        converged=converged,
        stop_reason=reason,
        seed=seed,
    )


def minimization_success_closed_form(dim: int, tau_s: int, fc: float) -> float:
    """Success probability of one search round at the r = 1 specialization.

    Identical to closed_form_average(dim, 1, tau_s, fc); at tau_opt the
    idealized value is the coherence fraction itself.
    """
    return closed_form_average(dim, 1, tau_s, fc)
