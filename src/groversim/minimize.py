"""Quantum threshold-descent minimization over a classical objective table.

Each round marks every table entry strictly below the current threshold,
runs exponential search (iteration count drawn uniformly under a
geometrically growing reach) against that marked set, measures, and
lowers the threshold when the measurement improves it. The threshold
register stays classical; oracle-call accounting charges the Grover
iterations only, measurements are free.

No attempt builds a state vector. After j Grover steps every marked
amplitude is v0[x] + b and every unmarked one is s v0[x] + c, with
s = (-1)**j and two scalars b, c that follow from the running total and
the marked sum in O(j) (the recurrence of kernels.py). Summing
|v0[x] + b|**2 and |s v0[x] + c|**2 in index order gives the Born CDF

    F(x) = P[x] + 2s Re(conj(c) R[x]) + |c|**2 (x + 1)
           + 2 Re((conj(b) - s conj(c)) RM[k]) + k (|b|**2 - |c|**2),

where P and R are the prefix sums of |v0|**2 and v0, k counts the marked
indices <= x, and RM[k] sums v0 over the first k of them. The expansion
is exact algebra, so F equals the dense cumsum of the evolved
probabilities up to rounding. An attempt returns the first x with
F(x) > u F(N - 1) for its single rng.random() u: the index the dense
cumsum and searchsorted pick, unless u lies within rounding of a CDF
step.

An attempt pays only for the steps it takes:
- P and R cost O(N) once per start state: once per run_minimization
  call, and once for all the seeds of a CLI minimize invocation.
- A zero-step attempt has b = c = 0, so F is P itself: one binary
  search, O(log N).
- A run finds its marked indices by one O(N) scan; each time the
  threshold drops, it narrows them in O(r) for the r of the round before.
- A round builds RM, O(r), only once an attempt takes a step. Such an
  attempt evaluates F on a grid of every sqrt(N)-th index, kept per step
  count for the rest of the round, then on the one block that holds the
  draw: O(sqrt(N) log r).
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analytics import closed_form_average
from .ansatz import LocalGateParams, prepare_ansatz_state
from .search import MarkedSet
from .states import PureState, check_integer, check_qubit_count, equal_superposition, frozen_array, sealed

GENERATOR_KINDS = ("permutation", "uniform", "constant")


@dataclass(frozen=True, eq=False)
class ObjectiveTable:
    """Objective values f(x) for every x in [0, 2**n), all finite.

    values is read-only, under the ownership rule of PureState: a writeable
    array is copied, a sealed float64 one is taken over.
    """

    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_qubit_count(self.n))
        vals = frozen_array(self.values, np.float64)
        if vals.shape != (2**self.n,):
            raise ValueError(f"expected {2**self.n} values for n={self.n}, got shape {vals.shape}")
        if not (np.isfinite(vals.min()) and np.isfinite(vals.max())):  # min and max carry any nan or inf
            raise ValueError("objective values must all be finite")
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
        """The table of values, any 1-d sequence of 2**n reals; a caller's ndarray is never written."""
        vals = np.array(values, dtype=np.float64, copy=None if isinstance(values, np.ndarray) else True)
        if vals is not values and vals.flags.owndata:
            sealed(vals)                                 # an array of our own: the table takes it over
        if vals.ndim != 1:
            raise ValueError(f"objective values must form a 1-d sequence, got shape {vals.shape}")
        n = vals.shape[0].bit_length() - 1
        if vals.shape[0] != 2**n:
            raise ValueError(f"value count {vals.shape} is not a power of two")
        return cls(n, vals)

    @classmethod
    def from_csv(cls, path: str | Path) -> "ObjectiveTable":
        """Load from a CSV "index,value" with a header row; the indices, sorted, must be 0..N-1."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip().lower() for h in header[:2]] != ["index", "value"]:
                raise ValueError(f"{path}: expected header 'index,value'")
            try:
                pairs = sorted((int(i), float(v)) for i, v, *_ in filter(None, reader))
            except (ValueError, csv.Error) as exc:
                raise ValueError(f"{path}: line {reader.line_num} is not 'index,value': {exc}") from None
        if not pairs:
            raise ValueError(f"{path}: no data rows")
        if [i for i, _ in pairs] != list(range(len(pairs))):
            raise ValueError(f"{path}: indices must cover 0..{len(pairs) - 1} exactly once")
        return cls.from_values([v for _, v in pairs])


def make_objective(kind: str, n: int, seed: int) -> ObjectiveTable:
    """Built-in generators: 'permutation' of 0..N-1, 'uniform' reals, 'constant'."""
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown objective generator {kind!r}; choose from {GENERATOR_KINDS}")
    n = check_qubit_count(n)
    dim = 2**n
    rng = np.random.default_rng([seed, dim])
    if kind == "permutation":
        return ObjectiveTable(n, sealed(rng.permutation(dim).astype(np.float64)))
    if kind == "uniform":
        return ObjectiveTable(n, sealed(rng.uniform(0.0, 1.0, size=dim)))
    return ObjectiveTable(n, sealed(np.zeros(dim)))


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
        budget = self.max_oracle_calls
        if budget is not None and check_integer(budget, "oracle budget") <= 0:
            raise ValueError(f"oracle budget must be positive, got {budget!r}")


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
    return MarkedSet(below)


def sample_measurement(state: PureState, rng: np.random.Generator) -> int:
    """Born-rule sample of a basis index, deterministic given the generator state."""
    probs = np.abs(state.amplitudes) ** 2
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    idx = int(np.searchsorted(cdf, rng.random(), side="right"))
    return min(idx, state.dimension - 1)


def _first_above(values: np.ndarray, bound: float) -> int:
    """Position of the first entry above bound, or the last position when none is."""
    above = values > bound
    i = int(above.argmax())
    return i if above[i] else values.size - 1


def _cdf(mass, running, count, k, marked_running, s, b, c) -> np.ndarray:
    """F at indices x from their prefix sums: P[x], R[x], x + 1, k(x) and RM[k(x)]."""
    sc = s * c.conjugate()
    out = mass + (2.0 * sc * running).real
    out += (2.0 * (b.conjugate() - sc) * marked_running).real
    out += abs(c) ** 2 * count + (abs(b) ** 2 - abs(c) ** 2) * k
    return out


@dataclass(frozen=True, eq=False)
class _StartSums:
    """Prefix sums of one start state v0, built in O(N) and shared by every seed.

    mass[x] = sum |v0[y]|^2 and running[x] = sum v0[y] over y <= x; grid
    holds every stride-th index up to N - 1, stride about sqrt(N).
    """

    amps: np.ndarray
    mass: np.ndarray
    running: np.ndarray
    total: complex
    grid: np.ndarray

    @classmethod
    def of(cls, amps: np.ndarray) -> "_StartSums":
        dim = amps.shape[0]
        stride = 1 << ((dim.bit_length() - 1) // 2)
        return cls(
            amps=amps,
            mass=np.cumsum(np.abs(amps) ** 2),
            running=np.cumsum(amps),
            total=complex(amps.sum()),
            grid=np.arange(stride - 1, dim, stride),
        )


class _SearchRound:
    """Born draws after any number of Grover steps; `marked` holds the marked indices, sorted.

    A draw after zero steps needs only the start's prefix sums. The first
    draw after one or more steps builds the rest, once per round: RM[k] =
    sum of v0 at the first k marked indices (O(r)); then, per step count
    used so far, the scalars (T, b, c) and F on the grid.
    """

    def __init__(self, start: _StartSums, marked: np.ndarray) -> None:
        self.start = start
        self.marked = marked
        self._steps: list | None = None

    def _build(self) -> None:
        picked = self.start.amps[self.marked]
        self.marked_running = np.zeros(self.marked.size + 1, dtype=np.complex128)
        np.cumsum(picked, out=self.marked_running[1:])
        self._picked_sum = complex(picked.sum())
        self._steps = [(self.start.total, 0j, 0j)]
        self._grid_parts = self._parts(self.start.grid)
        self._coarse: dict[int, np.ndarray] = {}

    def _scalars(self, steps: int) -> tuple[float, complex, complex]:
        """(s, b, c): after `steps` steps, marked x holds v0[x] + b, unmarked s v0[x] + c."""
        if self._steps is None:
            self._build()
        dim = self.start.amps.shape[0]
        r = self.marked.size
        while len(self._steps) <= steps:
            total, b, c = self._steps[-1]
            total -= 2.0 * (self._picked_sum + r * b)
            b += (2.0 / dim) * total
            c = (2.0 / dim) * total - c
            self._steps.append((total, b, c))
        _, b, c = self._steps[steps]
        return (-1.0 if steps % 2 else 1.0), b, c

    def _parts(self, xs: np.ndarray) -> tuple:
        """The prefix sums _cdf needs at the sorted indices xs."""
        k = np.searchsorted(self.marked, xs, side="right")
        return self.start.mass[xs], self.start.running[xs], xs + 1, k, self.marked_running[k]

    def cdf(self, xs: np.ndarray, steps: int) -> np.ndarray:
        """F(x), the probability of measuring an index <= x after `steps` steps."""
        scalars = self._scalars(steps)
        return _cdf(*self._parts(xs), *scalars)

    def draw(self, steps: int, u: float) -> int:
        """The first x with F(x) > u F(N - 1): a grid pass, then one block.

        After zero steps b = c = 0, so F is the start's mass itself; it never
        decreases, and one binary search finds x.
        """
        mass = self.start.mass
        if steps == 0:
            return min(int(mass.searchsorted(u * mass[-1], side="right")), mass.size - 1)
        scalars = self._scalars(steps)
        coarse = self._coarse.get(steps)
        if coarse is None:
            coarse = self._coarse[steps] = _cdf(*self._grid_parts, *scalars)
        bound = u * coarse[-1]
        i = _first_above(coarse, bound)
        grid = self.start.grid
        lo = int(grid[i - 1]) + 1 if i else 0
        block = _cdf(*self._parts(np.arange(lo, grid[i] + 1)), *scalars)
        return lo + _first_above(block, bound)

    def is_marked(self, x: int) -> bool:
        """Whether x is marked: a binary search of the marked indices."""
        k = int(self.marked.searchsorted(x))
        return k < self.marked.size and int(self.marked[k]) == x


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
    rnd = _SearchRound(_StartSums.of(initial.amplitudes), np.array(marked.indices, dtype=np.intp))
    return _search(rnd, schedule, rng, schedule.max_oracle_calls)


def _search(
    rnd: _SearchRound, schedule: SearchSchedule, rng: np.random.Generator, budget: int | None
) -> SearchOutcome:
    """exponential_search on a round with `budget` calls left; one rng.integers and rng.random per attempt."""
    reach_cap = math.sqrt(rnd.start.amps.shape[0])
    reach = min(schedule.initial_reach, reach_cap)
    calls = 0
    while True:
        j = int(rng.integers(0, math.ceil(reach)))
        if budget is not None and calls + j > budget:
            j = budget - calls
        calls += j
        x = rnd.draw(j, rng.random())
        if rnd.is_marked(x):
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
    prep = (
        equal_superposition(table.n)
        if init is None
        else prepare_ansatz_state(table.n, init)
    )
    return _minimizations(table, prep, schedule, [seed])[0]


def _minimizations(
    table: ObjectiveTable,
    prep: PureState,
    schedule: SearchSchedule,
    seeds,
) -> list[MinimizationReport]:
    """run_minimization from prep for each seed in turn; the seeds share its prefix sums."""
    start = _StartSums.of(prep.amplitudes)
    values = table.values
    budget = schedule.max_oracle_calls
    reports = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        x = int(rng.integers(table.dimension))
        d = float(values[x])
        history = [(x, d)]
        marked = np.flatnonzero(values < d)
        calls = 0
        while True:
            if marked.size == 0:  # nothing lies below d
                converged, reason = True, "empty_marked_set"
                break
            if budget is not None and calls >= budget:
                converged, reason = False, "budget_exhausted"
                break
            left = None if budget is None else budget - calls
            outcome = _search(_SearchRound(start, marked), schedule, rng, left)
            calls += outcome.oracle_calls
            value = float(values[outcome.index])
            if value < d:
                x, d = outcome.index, value
                history.append((x, d))
                marked = marked.compress(values[marked] < d)  # still sorted
        reports.append(MinimizationReport(
            result_index=x,
            result_value=d,
            threshold_history=tuple(history),
            oracle_calls_used=calls,
            converged=converged,
            stop_reason=reason,
            seed=seed,
        ))
    return reports


def minimization_success_closed_form(dim: int, tau_s: int, fc: float) -> float:
    """Success probability of one search round at the r = 1 specialization.

    Identical to closed_form_average(dim, 1, tau_s, fc); at tau_opt the
    idealized value is the coherence fraction itself.
    """
    return closed_form_average(dim, 1, tau_s, fc)
