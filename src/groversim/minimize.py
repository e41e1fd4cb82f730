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

Per step count, F(x) = P[x] + Re(a R[x]) + Re(w RM[k]) + cc (x + 1) + dd k
with four scalars a, w, cc, dd, so one F(x) is a few float products.
An attempt pays only for the steps it takes:
- P and R cost O(N) once per start state: once per run_minimization
  call, and once for all the seeds of a CLI minimize invocation.
- A zero-step attempt has b = c = 0, so F is P itself: one binary
  search, O(log N).
- A run finds its marked indices by one O(N) scan; each time the
  threshold drops, it narrows them in O(r) for the r of the round before.
- A round builds RM, O(r), only once an attempt takes a step. Such an
  attempt bisects the sorted marked indices m_i, where k = i + 1, for the
  first one past the bound, then the unmarked gap before it, where k = i:
  O(log N) evaluations of F in Python floats, and x is marked exactly
  when it is that m_i.
"""
from __future__ import annotations

import bisect
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
        with open(path, newline="", encoding="utf-8-sig") as fh:  # a leading BOM is not part of the header
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


@dataclass(frozen=True, eq=False)
class _StartSums:
    """Prefix sums of one start state v0, built in O(N) and shared by every seed.

    mass[x] = sum |v0[y]|^2 and running[x] = sum v0[y] over y <= x; mass,
    re and im (running's real and imaginary parts) are memoryviews, so an
    index read is a Python float and nothing is copied.
    """

    amps: np.ndarray
    mass: memoryview
    re: memoryview
    im: memoryview
    total: complex

    @classmethod
    def of(cls, amps: np.ndarray, total: complex) -> "_StartSums":
        """The prefix sums of amps, whose np.sum is total."""
        running, mass = np.cumsum(amps), np.cumsum(np.abs(amps) ** 2)
        return cls(amps, memoryview(mass), memoryview(running.real), memoryview(running.imag), total)


class _SearchRound:
    """Born draws after any number of Grover steps; `marked` holds the marked indices, sorted.

    A draw after zero steps needs only the start's prefix sums. The first
    draw after one or more steps builds RM[k] = sum of v0 at the first k
    marked indices (O(r)), once per round; each step count used so far
    keeps its scalars (T, b, c) and the coefficients of F.
    """

    def __init__(self, start: _StartSums, marked: np.ndarray) -> None:
        self.start = start
        self.marked = memoryview(marked)
        self._steps: list | None = None
        self._coefs: dict[int, tuple] = {}

    def _build(self) -> None:
        picked = self.start.amps[self.marked]
        marked_running = np.zeros(picked.size + 1, dtype=np.complex128)
        np.cumsum(picked, out=marked_running[1:])
        self._mre, self._mim = memoryview(marked_running.real), memoryview(marked_running.imag)
        self._picked_sum = complex(picked.sum())
        self._steps = [(self.start.total, 0j, 0j)]

    def _coefficients(self, steps: int) -> tuple:
        """(ar, ai, wr, wi, cc, dd, top): F's scalars a, w, cc, dd after `steps` steps, and top = F(N - 1).

        (T, b, c) after each step follow from those of the step before.
        """
        coef = self._coefs.get(steps)
        if coef is None:
            if self._steps is None:
                self._build()
            start, r, dim = self.start, len(self.marked), len(self.start.mass)
            while len(self._steps) <= steps:
                total, b, c = self._steps[-1]
                total -= 2.0 * (self._picked_sum + r * b)
                b += (2.0 / dim) * total
                c = (2.0 / dim) * total - c
                self._steps.append((total, b, c))
            _, b, c = self._steps[steps]
            sc = (-1.0 if steps % 2 else 1.0) * c.conjugate()
            a, w, cc, dd = 2.0 * sc, 2.0 * (b.conjugate() - sc), abs(c) ** 2, abs(b) ** 2 - abs(c) ** 2
            top = (start.mass[-1] + (a.real * start.re[-1] - a.imag * start.im[-1])
                   + (w.real * self._mre[r] - w.imag * self._mim[r]) + (cc * dim + dd * r))
            coef = self._coefs[steps] = (a.real, a.imag, w.real, w.imag, cc, dd, top)
        return coef

    def draw(self, steps: int, u: float) -> tuple[int, bool]:
        """One attempt: the first x with F(x) > u F(N - 1) (N - 1 if none is), and whether x is marked.

        After zero steps b = c = 0, so F is the start's mass itself; it never
        decreases, and one binary search finds x. After one or more, a
        bisection over the marked indices finds the first marked m_i past
        the bound, with k = i + 1 known; a second bisects the unmarked gap
        before m_i, where k = i. x is marked exactly when it is m_i.
        """
        mass, marked = self.start.mass, self.marked
        last = len(mass) - 1
        if steps == 0:
            x = min(bisect.bisect_right(mass, u * mass[-1]), last)
            i = bisect.bisect_left(marked, x)
            return x, i < len(marked) and marked[i] == x
        ar, ai, wr, wi, cc, dd, top = self._coefficients(steps)
        re, im, mre, mim = self.start.re, self.start.im, self._mre, self._mim
        bound = u * top
        # a marked N - 1 is where the draw lands when nothing passes the bound
        lo, hi = 0, len(marked) - (marked[-1] == last)
        while lo < hi:
            i = (lo + hi) // 2
            x = marked[i]
            k = i + 1
            if mass[x] + (ar * re[x] - ai * im[x]) + (wr * mre[k] - wi * mim[k]) + (cc * (x + 1) + dd * k) > bound:
                hi = i
            else:
                lo = i + 1
        i = lo
        lo, hi = (marked[i - 1] + 1 if i else 0), (marked[i] if i < len(marked) else last)
        gap, shift = wr * mre[i] - wi * mim[i], dd * i
        while lo < hi:
            x = (lo + hi) // 2
            if mass[x] + (ar * re[x] - ai * im[x]) + gap + (cc * (x + 1) + shift) > bound:
                hi = x
            else:
                lo = x + 1
        return lo, i < len(marked) and lo == marked[i]


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
    start = _StartSums.of(initial.amplitudes, initial.amplitude_sum)
    rnd = _SearchRound(start, np.array(marked.indices, dtype=np.intp))
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
        x, hit = rnd.draw(j, rng.random())
        if hit:
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
    start = _StartSums.of(prep.amplitudes, prep.amplitude_sum)
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
