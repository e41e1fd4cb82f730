import bisect
import dataclasses
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from groversim import (
    LocalGateParams,
    MarkedSet,
    MinimizationReport,
    ObjectiveTable,
    PureState,
    SearchSchedule,
    basis_state,
    closed_form_average,
    coherence_fraction,
    equal_superposition,
    exponential_search,
    make_objective,
    minimization_success_closed_form,
    prepare_ansatz_state,
    run_minimization,
    sample_measurement,
    threshold_marked_set,
)
from groversim import kernels, minimize
from groversim.minimize import SearchOutcome, _minimizations, _search, _SearchRound, _StartSums
from test_kernels import _dense_runs, _edge_states

NEAR_UNIFORM = LocalGateParams(0.3, 0.35, 0.78)

# ----------------------------------------------------------- objective tables

def test_table_infers_qubit_count():
    t = ObjectiveTable.from_values([3.0, 1.0, 2.0, 0.0])
    assert t.n == 2 and t.dimension == 4
    assert t.argmin_set() == (3,)


def test_table_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        ObjectiveTable.from_values([1.0, 2.0, 3.0])


def test_table_rejects_a_wrong_shape():
    with pytest.raises(ValueError, match=r"expected 4 values for n=2, got shape \(3,\)"):
        ObjectiveTable(2, np.zeros(3))
    with pytest.raises(ValueError, match=r"1-d sequence, got shape \(\)"):
        ObjectiveTable.from_values(5.0)


def test_table_rejects_non_finite_values():
    with pytest.raises(ValueError, match="finite"):
        ObjectiveTable.from_values([0.0, math.inf])


def test_table_argmin_set_includes_ties():
    t = ObjectiveTable.from_values([2.0, 1.0, 1.0, 5.0])
    assert t.argmin_set() == (1, 2)


def test_a_table_from_a_list_is_built_once():
    values = [float(i % 97) for i in range(2**16)]
    tracemalloc.start()
    try:
        table = ObjectiveTable.from_values(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * table.values.nbytes
    assert not table.values.flags.writeable
    # a caller's float64 array is still copied, and stays writeable
    mine = np.array(values)
    assert ObjectiveTable.from_values(mine).values is not mine and mine.flags.writeable


def test_table_csv_round_trip(tmp_path):
    p = tmp_path / "obj.csv"
    p.write_text("index,value\n0,3.5\n1,-1.25\n2,0\n3,7\n")
    t = ObjectiveTable.from_csv(p)
    np.testing.assert_array_equal(t.values, [3.5, -1.25, 0.0, 7.0])


def test_table_csv_requires_header_and_full_coverage(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("0,3.5\n1,2.0\n")
    with pytest.raises(ValueError, match="header"):
        ObjectiveTable.from_csv(p)
    p.write_text("index,value\n0,3.5\n0,2.0\n")
    with pytest.raises(ValueError, match="cover"):
        ObjectiveTable.from_csv(p)
    p.write_text("index,value\n0,3.5\n2,2.0\n")
    with pytest.raises(ValueError, match="cover"):
        ObjectiveTable.from_csv(p)


def test_table_csv_skips_a_leading_byte_order_mark(tmp_path):
    # spreadsheet programs start a UTF-8 CSV with one; it is not part of the header
    text = "index,value\n2,0\n0,3.5\n3,7\n1,-1.25\n"
    (tmp_path / "plain.csv").write_text(text, encoding="utf-8")
    (tmp_path / "bom.csv").write_text(text, encoding="utf-8-sig")
    assert (tmp_path / "bom.csv").read_bytes().startswith(b"\xef\xbb\xbfindex,")
    plain, bom = (ObjectiveTable.from_csv(tmp_path / name) for name in ("plain.csv", "bom.csv"))
    assert bom.n == plain.n
    np.testing.assert_array_equal(bom.values, plain.values)


def test_table_csv_takes_rows_in_any_order(tmp_path):
    p = tmp_path / "obj.csv"
    p.write_text("index,value\n2,0\n0,3.5\n\n3,7\n1,-1.25\n")
    np.testing.assert_array_equal(ObjectiveTable.from_csv(p).values, [3.5, -1.25, 0.0, 7.0])


@pytest.mark.parametrize("row", ["1", "1,x", "y,2", "1.5,2"])
def test_table_csv_names_the_file_and_line_of_a_bad_row(tmp_path, row):
    p = tmp_path / "obj.csv"
    p.write_text(f"index,value\n0,3.5\n{row}\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{p}: line 3 is not 'index,value': ")):
        ObjectiveTable.from_csv(p)


def test_generators_are_deterministic():
    a = make_objective("permutation", 4, 7)
    b = make_objective("permutation", 4, 7)
    np.testing.assert_array_equal(a.values, b.values)
    assert sorted(a.values) == list(range(16))
    u = make_objective("uniform", 3, 0)
    assert u.values.shape == (8,)
    c = make_objective("constant", 2, 0)
    assert np.all(c.values == 0.0)
    with pytest.raises(ValueError, match="unknown"):
        make_objective("sorted", 2, 0)


@pytest.mark.parametrize("n", [-1, 0, 21, 2.0])
def test_generators_reject_bad_qubit_counts(n):
    with pytest.raises(ValueError, match="qubit count"):
        make_objective("permutation", n, 0)


# ------------------------------------------------------------- marking oracle

def test_threshold_marks_strictly_below():
    t = ObjectiveTable.from_values([3.0, 1.0, 2.0, 0.0])
    assert threshold_marked_set(t, 2.0).indices == (1, 3)
    assert threshold_marked_set(t, math.inf).indices == (0, 1, 2, 3)
    assert threshold_marked_set(t, 0.0) is None


# ----------------------------------------------------------------- sampling

def test_sampling_a_basis_state_is_certain():
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert sample_measurement(basis_state(3, 5), rng) == 5


def test_sampling_matches_born_frequencies():
    rng = np.random.default_rng(42)
    s = equal_superposition(1)
    freq = sum(sample_measurement(s, rng) == 0 for _ in range(100_000)) / 100_000
    assert abs(freq - 0.5) < 0.01


def test_sampling_is_deterministic_per_seed():
    s = equal_superposition(3)
    rng = np.random.default_rng(9)
    first = [sample_measurement(s, rng) for _ in range(5)]
    rng = np.random.default_rng(9)
    second = [sample_measurement(s, rng) for _ in range(5)]
    assert first == second


# ------------------------------------------------- sampling without a vector

def _start_sums(amps):
    """_StartSums of an amplitude array, with its total summed as a PureState sums its own."""
    amps = np.asarray(amps)
    return _StartSums.of(amps, complex(np.sum(amps)))


def _round(amps, marked):
    return _SearchRound(_start_sums(amps), np.array(marked, dtype=np.intp))


def _cdf_at(rnd, x, steps):
    """F(x) after `steps` steps from the round's own scalars: the sum its draw bisects over."""
    start = rnd.start
    if steps == 0:
        return start.mass[x]
    ar, ai, wr, wi, cc, dd, _ = rnd._coefficients(steps)
    k = bisect.bisect_right(rnd.marked, x)
    return (start.mass[x] + (ar * start.re[x] - ai * start.im[x])
            + (wr * rnd._mre[k] - wi * rnd._mim[k]) + (cc * (x + 1) + dd * k))


def _sampler_cells(rng):
    """Every edge state at n = 3, 4, 5 and r = 1, 2, N-1, N, on a few marked sets each."""
    for n in (3, 4, 5):
        dim = 2**n
        for kind, amps in _edge_states(n, rng).items():
            for r in (1, 2, dim - 1, dim):
                combos = list(itertools.combinations(range(dim), r))
                picked = {combos[0], combos[-1], combos[int(rng.integers(len(combos)))]}
                for marked in sorted(picked):
                    yield f"{kind} state, n={n} marked={marked}", n, amps, np.array(marked, dtype=np.intp)


def test_round_cdf_matches_the_dense_cumsum(rng):
    for label, n, amps, marked in _sampler_cells(rng):
        dim = 2**n
        steps = math.ceil(math.sqrt(dim))
        runs, _ = _dense_runs(amps, [marked], steps)
        rnd = _round(amps, marked)
        for j in range(steps + 1):
            np.testing.assert_allclose(
                [_cdf_at(rnd, x, j) for x in range(dim)], np.cumsum(np.abs(runs[j, 0]) ** 2),
                rtol=0, atol=1e-12, err_msg=f"{label} j={j}",
            )


def test_round_draws_match_the_dense_sampler(rng):
    for label, n, amps, marked in _sampler_cells(rng):
        rnd = _round(amps, marked)
        dense_rng, round_rng = np.random.default_rng(n), np.random.default_rng(n)
        for j in range(math.ceil(math.sqrt(2**n)) + 1):
            state = PureState(n, kernels.grover_evolve(amps, marked, j))
            for _ in range(16):
                want = sample_measurement(state, dense_rng)
                assert rnd.draw(j, round_rng.random()) == (want, want in marked), f"{label} j={j}"


def test_round_never_draws_from_a_zero_probability_region():
    # uniform start, N = 4, one marked index: one step puts all mass on it
    rnd = _round(equal_superposition(2).amplitudes, [2])
    np.testing.assert_allclose([_cdf_at(rnd, x, 1) for x in range(4)], [0.0, 0.0, 1.0, 1.0], rtol=0, atol=1e-15)
    # a basis start is certain before any step, whatever is marked
    basis = _round(basis_state(3, 5).amplitudes, [1])
    for u in np.linspace(0.0, 1.0, 101, endpoint=False):
        assert rnd.draw(1, u) == (2, True)
        assert basis.draw(0, u) == (5, False)


def _dense_search(initial, marked, schedule, rng):
    """Exponential search that evolves and samples the whole vector every attempt."""
    reach_cap = math.sqrt(initial.dimension)
    reach = min(schedule.initial_reach, reach_cap)
    budget = schedule.max_oracle_calls
    calls = 0
    while True:
        j = int(rng.integers(0, math.ceil(reach)))
        if budget is not None and calls + j > budget:
            j = budget - calls
        calls += j
        evolved = PureState(initial.n, kernels.grover_evolve(initial.amplitudes, marked.indices, j))
        x = sample_measurement(evolved, rng)
        if x in marked.indices:
            return SearchOutcome(x, calls, True)
        if budget is not None and calls >= budget:
            return SearchOutcome(x, calls, False)
        reach = min(reach * schedule.growth, reach_cap)


def test_public_search_internal_round_and_dense_search_agree(rng):
    schedules = (SearchSchedule(), SearchSchedule(growth=4 / 3, initial_reach=2.5),
                 SearchSchedule(max_oracle_calls=3))
    for n in (3, 4, 6):
        for kind, amps in _edge_states(n, rng).items():
            initial = PureState(n, amps)
            for r in (1, 3):
                marked = MarkedSet(tuple(rng.choice(2**n, size=r, replace=False).tolist()))
                for schedule in schedules:
                    for seed in range(8):
                        public = exponential_search(initial, marked, schedule, np.random.default_rng(seed))
                        internal = _search(_round(amps, marked.indices), schedule, np.random.default_rng(seed),
                                           schedule.max_oracle_calls)
                        dense = _dense_search(initial, marked, schedule, np.random.default_rng(seed))
                        assert public == internal == dense, f"{kind} n={n} {marked} {schedule} seed={seed}"


# ------------------------------------- the eager round, kept as a reference

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


class _EagerRound:
    """The sampler as first written: built whole up front, grid and block on every draw.

    Its prefix sums are numpy arrays, and its grid holds every stride-th
    index up to N - 1, stride about sqrt(N).
    """

    def __init__(self, start: _StartSums, marked: np.ndarray) -> None:
        self.start = start
        self.marked = marked
        amps = start.amps
        dim = amps.shape[0]
        stride = 1 << ((dim.bit_length() - 1) // 2)
        self.mass = np.cumsum(np.abs(amps) ** 2)
        self.running = np.cumsum(amps)
        self.grid = np.arange(stride - 1, dim, stride)
        picked = amps[marked]
        self.marked_running = np.zeros(marked.size + 1, dtype=np.complex128)
        np.cumsum(picked, out=self.marked_running[1:])
        self._picked_sum = complex(picked.sum())
        self._steps = [(start.total, 0j, 0j)]
        self._grid_parts = self._parts(self.grid)

    def _scalars(self, steps: int) -> tuple[float, complex, complex]:
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
        k = np.searchsorted(self.marked, xs, side="right")
        return self.mass[xs], self.running[xs], xs + 1, k, self.marked_running[k]

    def draw(self, steps: int, u: float) -> int:
        scalars = self._scalars(steps)
        coarse = _cdf(*self._grid_parts, *scalars)
        bound = u * coarse[-1]
        i = _first_above(coarse, bound)
        grid = self.grid
        lo = int(grid[i - 1]) + 1 if i else 0
        block = _cdf(*self._parts(np.arange(lo, grid[i] + 1)), *scalars)
        return lo + _first_above(block, bound)

    def is_marked(self, x: int) -> bool:
        k = int(np.searchsorted(self.marked, x))
        return k < self.marked.size and int(self.marked[k]) == x


def _eager_search(rnd, schedule, rng):
    reach_cap = math.sqrt(rnd.start.amps.shape[0])
    reach = min(schedule.initial_reach, reach_cap)
    budget = schedule.max_oracle_calls
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


def _eager_minimization(table, prep, schedule, seed):
    """Threshold descent that rebuilds the start's prefix sums for every seed."""
    rng = np.random.default_rng(seed)
    start = _StartSums.of(prep.amplitudes, prep.amplitude_sum)
    x = int(rng.integers(table.dimension))
    d = float(table.values[x])
    history = [(x, d)]
    calls = 0
    budget = schedule.max_oracle_calls
    while True:
        marked = np.flatnonzero(table.values < d)
        if marked.size == 0:
            converged, reason = True, "empty_marked_set"
            break
        if budget is not None and calls >= budget:
            converged, reason = False, "budget_exhausted"
            break
        round_schedule = dataclasses.replace(
            schedule,
            max_oracle_calls=None if budget is None else budget - calls,
        )
        outcome = _eager_search(_EagerRound(start, marked), round_schedule, rng)
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


def _identity_tables(n, kind, rng):
    """A table of five levels with many ties; from a coherent start, also one of distinct values.

    Basis and random starts have f_c near 1/N, so a round there takes about
    N attempts; on five levels a run has at most four rounds.
    """
    tables = {"five levels": ObjectiveTable(n, rng.integers(0, 5, size=2**n).astype(np.float64))}
    if kind in ("uniform", "ansatz"):
        tables["permutation"] = make_objective("permutation", n, n)
    return tables


def test_minimization_is_bit_identical_to_the_eager_round(rng):
    schedules = (SearchSchedule(), SearchSchedule(growth=4 / 3, initial_reach=2.5),
                 SearchSchedule(max_oracle_calls=3))
    seeds = range(20)
    for n in range(3, 11):
        for kind, amps in _edge_states(n, rng).items():
            prep = PureState(n, amps)
            tables = _identity_tables(n, kind, rng)
            for (label, table), schedule in itertools.product(tables.items(), schedules):
                want = [_eager_minimization(table, prep, schedule, seed) for seed in seeds]
                assert _minimizations(table, prep, schedule, seeds) == want, (
                    f"{kind} start, n={n}, {label} table, {schedule}"
                )
            if kind in ("uniform", "ansatz"):
                # run_minimization builds the same start from its init
                init = None if kind == "uniform" else LocalGateParams(0.3, 1.1, 0.6)
                table = tables["permutation"]
                want = _eager_minimization(table, prep, SearchSchedule(), n)
                assert run_minimization(table, init, seed=n) == want, f"{kind} start, n={n}"


def test_each_round_gets_the_sorted_indices_below_its_threshold(rng, monkeypatch):
    received = []

    class Recording(_SearchRound):
        def __init__(self, start, marked):
            received.append(marked.copy())
            # each round lowers the threshold, so a run has fewer rounds than entries
            assert len(received) < start.amps.size, "the threshold stopped dropping"
            super().__init__(start, marked)

    monkeypatch.setattr(minimize, "_SearchRound", Recording)
    for n in range(3, 9):
        for kind, amps in _edge_states(n, rng).items():
            prep = PureState(n, amps)
            for label, table in _identity_tables(n, kind, rng).items():
                for seed in range(5):
                    received.clear()
                    (rep,) = _minimizations(table, prep, SearchSchedule(), [seed])
                    want = [np.flatnonzero(table.values < d) for _, d in rep.threshold_history[:-1]]
                    where = f"{kind} start, n={n}, {label} table, seed={seed}"
                    assert len(received) == len(want), where
                    for got, expected in zip(received, want):
                        assert got.dtype == np.intp, where
                        np.testing.assert_array_equal(got, expected, err_msg=where)


# ------------------------------------------------------- draws after no steps

@st.composite
def _zero_padded_starts(draw):
    """Amplitudes at N = 2**n, n in 1..6, with runs of zero mass at the front and the back."""
    dim = 2 ** draw(st.integers(1, 6))
    head = draw(st.integers(0, dim - 1))
    tail = draw(st.integers(0, dim - 1 - head))
    size = dim - head - tail
    body = draw(st.lists(st.complex_numbers(max_magnitude=4.0), min_size=size, max_size=size))
    return np.array([0j] * head + body + [0j] * tail)


_LAST_BELOW_ONE = float(np.nextafter(1.0, 0.0))


@given(
    amps=_zero_padded_starts(),
    u=st.one_of(st.sampled_from([0.0, _LAST_BELOW_ONE]), st.floats(0.0, 1.0, exclude_max=True)),
)
@example(amps=np.array([0j, 0j, 1.0, 0j]), u=0.0)
@example(amps=np.array([0j, 0j, 1.0, 0j]), u=_LAST_BELOW_ONE)
@example(amps=np.array([0j, 0.6, 0.8j, 0j]), u=0.36)
def test_a_draw_after_no_steps_is_the_first_index_past_u_of_the_mass(amps, u):
    start = _start_sums(amps)
    mass = start.mass
    want = next((x for x in range(len(mass)) if mass[x] > u * mass[-1]), len(mass) - 1)
    rnd = _SearchRound(start, np.array([0]))
    assert rnd.draw(0, u) == (want, want == 0)
    # the grid-then-block pass of the eager round picks the same index
    assert _EagerRound(start, np.array([0])).draw(0, u) == want
    assert rnd._steps is None  # nothing was built


@st.composite
def _rounds_with_zero_runs(draw):
    """(round, steps) on a zero-padded start, r in {1, 2, N-1, N}, N - 1 marked or not."""
    amps = draw(_zero_padded_starts())
    dim = amps.size
    r = draw(st.sampled_from(sorted({1, 2, dim - 1, dim})))
    last = r == dim or draw(st.booleans())
    others = draw(st.permutations(range(dim - 1)))[: r - last]
    marked = sorted(others + [dim - 1] * last)
    steps = draw(st.integers(0, math.ceil(math.sqrt(dim)) + 1))
    return _round(amps, marked), steps


@given(
    case=_rounds_with_zero_runs(),
    u=st.one_of(st.sampled_from([0.0, _LAST_BELOW_ONE]), st.floats(0.0, 1.0, exclude_max=True)),
)
@example(case=(_round([0.5] * 4, [2]), 1), u=0.0)
@example(case=(_round([0j, 0.6, 0.8j, 0j], [3]), 2), u=_LAST_BELOW_ONE)
def test_a_draw_is_the_first_index_a_linear_scan_finds(case, u):
    rnd, steps = case
    cdf = [_cdf_at(rnd, x, steps) for x in range(len(rnd.start.mass))]
    want = next((x for x, f in enumerate(cdf) if f > u * cdf[-1]), len(cdf) - 1)
    assert rnd.draw(steps, u) == (want, want in rnd.marked)


def test_draws_match_the_eager_round_draw_for_draw(rng):
    for n in range(1, 13):
        dim = 2**n
        for kind, amps in _edge_states(n, rng).items():
            start = _start_sums(amps)
            for r in (int(rng.integers(1, dim + 1)), int(rng.integers(1, dim + 1)), dim):
                marked = np.sort(rng.choice(dim, size=r, replace=False))
                rnd, eager = _SearchRound(start, marked), _EagerRound(start, marked)
                for j in range(math.ceil(math.sqrt(dim)) + 2):
                    for u in (0.0, _LAST_BELOW_ONE, *rng.random(14)):
                        x = eager.draw(j, u)
                        assert rnd.draw(j, u) == (x, eager.is_marked(x)), f"{kind} n={n} r={r} j={j} u={u!r}"


def test_a_stepped_draw_allocates_no_array():
    n = 16
    rng = np.random.default_rng(0)
    rnd = _round(equal_superposition(n).amplitudes, np.sort(rng.choice(2**n, size=2**n // 8, replace=False)))
    steps = range(1, 2 ** (n // 2))
    for j in steps:  # builds the round's sums and every step count's scalars
        rnd.draw(j, 0.5)
    tracemalloc.start()
    try:
        for j in steps:
            for u in (0.0, 0.3, 0.7, _LAST_BELOW_ONE):
                rnd.draw(j, u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one float64 array over a sqrt(N) block alone would take 2 KiB here
    assert peak < 1024


def test_rounds_whose_attempts_take_no_steps_build_no_marked_sums(monkeypatch):
    def refuse(self):
        raise AssertionError("built the marked prefix sums")

    monkeypatch.setattr(_SearchRound, "_build", refuse)
    # a basis start on a marked index: the first attempt takes 0 steps and hits
    out = exponential_search(basis_state(3, 5), MarkedSet((1, 5)), SearchSchedule(), np.random.default_rng(0))
    assert out == SearchOutcome(index=5, oracle_calls=0, verified=True)
    # a basis start on the minimum: each round's first draw lands on it
    table = make_objective("permutation", 6, 4)
    (lowest,) = table.argmin_set()
    for rep in _minimizations(table, basis_state(6, lowest), SearchSchedule(), range(20)):
        assert rep.result_index == lowest and rep.oracle_calls_used == 0
        assert rep.converged


# --------------------------------------------------------- exponential search

def test_search_with_everything_marked_needs_no_iterations():
    rng = np.random.default_rng(0)
    out = exponential_search(equal_superposition(2), MarkedSet((0, 1, 2, 3)), SearchSchedule(), rng)
    assert out.verified and out.oracle_calls == 0


def test_search_finds_a_single_target_cheaply():
    calls = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        out = exponential_search(equal_superposition(2), MarkedSet((3,)), SearchSchedule(), rng)
        assert out.verified
        assert out.index == 3
        calls.append(out.oracle_calls)
    assert np.mean(calls) < 2 * math.sqrt(4)  # comfortably O(sqrt N)


def test_search_respects_its_budget():
    # initial state orthogonal to the marked item makes early hits unlikely
    for seed in range(10):
        rng = np.random.default_rng(seed)
        out = exponential_search(basis_state(2, 0), MarkedSet((2,)), SearchSchedule(max_oracle_calls=1), rng)
        assert out.oracle_calls <= 1
        if not out.verified:
            assert out.index != 2


def test_empty_marked_set_is_unrepresentable():
    with pytest.raises(ValueError):
        MarkedSet(())


def test_schedule_validation():
    with pytest.raises(ValueError, match="growth"):
        SearchSchedule(growth=1.0)
    with pytest.raises(ValueError, match="growth"):
        SearchSchedule(growth=1.5)
    with pytest.raises(ValueError, match="reach"):
        SearchSchedule(initial_reach=0.5)
    for reach in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="reach"):
            SearchSchedule(initial_reach=reach)
    with pytest.raises(ValueError, match="budget"):
        SearchSchedule(max_oracle_calls=0)
    with pytest.raises(ValueError, match="oracle budget must be an integer, got 2.5"):
        SearchSchedule(max_oracle_calls=2.5)
    schedule = SearchSchedule(max_oracle_calls=np.int64(2))
    assert run_minimization(make_objective("permutation", 3, 0), schedule=schedule).oracle_calls_used <= 2


# ---------------------------------------------------------- threshold descent

def test_two_element_table_is_solved_exactly():
    t = ObjectiveTable.from_values([5.0, 3.0])
    rep = run_minimization(t, seed=0)
    assert rep.result_index == 1
    assert rep.result_value == 3.0
    assert rep.converged
    assert rep.stop_reason == "empty_marked_set"


def test_constant_table_converges_immediately():
    t = make_objective("constant", 3, 0)
    rep = run_minimization(t, seed=5)
    assert rep.converged and rep.stop_reason == "empty_marked_set"
    assert rep.result_value == 0.0
    assert len(rep.threshold_history) == 1
    assert rep.oracle_calls_used == 0


def test_threshold_history_strictly_decreases():
    t = make_objective("permutation", 5, 3)
    for seed in range(20):
        rep = run_minimization(t, seed=seed)
        values = [d for _, d in rep.threshold_history]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert rep.result_value == values[-1]


def test_budget_exhaustion_is_reported():
    vals = [1.0] * 16
    vals[9] = 0.0
    t = ObjectiveTable.from_values(vals)
    rep = run_minimization(t, schedule=SearchSchedule(max_oracle_calls=2), seed=1)
    assert rep.stop_reason == "budget_exhausted"
    assert not rep.converged
    assert rep.oracle_calls_used == 2
    assert rep.result_value == 1.0
    # a run ends only by emptying its marked set or by spending the whole
    # budget: exponential search clamps its last attempt to the calls left
    reasons = set()
    for table in (t, make_objective("permutation", 6, 2), make_objective("uniform", 8, 5)):
        for budget in (1, 2, 3, 5, 8, 13, 40):
            for seed in range(12):
                rep = run_minimization(table, schedule=SearchSchedule(max_oracle_calls=budget), seed=seed)
                reasons.add(rep.stop_reason)
                assert rep.stop_reason in ("empty_marked_set", "budget_exhausted")
                assert rep.converged == (rep.stop_reason == "empty_marked_set")
                if rep.stop_reason == "budget_exhausted":
                    assert rep.oracle_calls_used == budget
                else:
                    assert rep.oracle_calls_used <= budget
                    assert rep.result_value == table.values.min()
    assert reasons == {"empty_marked_set", "budget_exhausted"}


@pytest.mark.parametrize("init", [None, NEAR_UNIFORM], ids=["uniform", "ansatz"])
def test_minimization_reaches_the_minimum_at_twenty_qubits(init):
    table = make_objective("uniform", 20, 1)
    rep = run_minimization(table, init, seed=7)
    assert rep.converged and rep.stop_reason == "empty_marked_set"
    assert rep.result_index in table.argmin_set()


@pytest.mark.parametrize("seed", [3, 5])
def test_minimization_workspace_is_a_few_vectors(seed):
    table = make_objective("permutation", 16, 0)
    dim = table.dimension
    tracemalloc.start()
    try:
        rep = run_minimization(table, seed=seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    first = int(np.count_nonzero(table.values < rep.threshold_history[0][1]))
    # seed 3 marks about 16% of the table in its first round and seed 5 about
    # 90%: a per-attempt N-vector overflows the bound of the first, a Python
    # list of the marked set that of the second
    assert first < 0.2 * dim if seed == 3 else first > 0.85 * dim
    # the start state and its two prefix sums (16 + 8 + 16 B per index), the
    # first threshold mask (1 B), and per marked index its position,
    # amplitude and running sum (8 + 16 + 16 B), plus half a complex vector
    # of slack
    assert peak < (16 + 8 + 16 + 1) * dim + (8 + 16 + 16) * first + 8 * dim


def test_reports_are_reproducible_per_seed():
    t = make_objective("permutation", 4, 11)
    a = run_minimization(t, seed=21)
    b = run_minimization(t, seed=21)
    assert a == b
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)
    assert a.seed == 21


def test_report_is_frozen():
    t = ObjectiveTable.from_values([5.0, 3.0])
    rep = run_minimization(t, seed=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.result_index = 0


def test_closed_form_is_the_r1_specialization():
    rng = np.random.default_rng(7)
    for _ in range(50):
        dim = int(2 ** rng.integers(1, 8))
        tau = int(rng.integers(0, 12))
        fc = float(rng.uniform(0.0, 1.0))
        assert minimization_success_closed_form(dim, tau, fc) == closed_form_average(dim, 1, tau, fc)


def test_closed_form_hand_value():
    # dim=4, one step, perfectly coherent: certain success
    assert minimization_success_closed_form(4, 1, 1.0) == pytest.approx(1.0, abs=1e-12)


# the grid was fixed before the test was first run: n = 6, r in {1, 4}, tau in {1, 3},
# 4,000 trials per cell and a 5-sigma binomial bound, from these four starts
_HIT_RATE_STARTS = {
    "uniform": (equal_superposition(6), 1.0),
    "ansatz (0.3, 1.1, 0.6)": (prepare_ansatz_state(6, LocalGateParams(0.3, 1.1, 0.6)), 0.3146),
    "ansatz (0, 2.5, 0.7)": (prepare_ansatz_state(6, LocalGateParams(0.0, 2.5, 0.7)), 0.0),
    "basis 5": (basis_state(6, 5), 1.0 / 64),
}


@pytest.mark.parametrize("start", list(_HIT_RATE_STARTS))
@pytest.mark.parametrize("r", [1, 4])
@pytest.mark.parametrize("tau", [1, 3])
def test_first_attempt_hit_rate_is_the_closed_form_average(start, r, tau):
    # a permutation objective's first round marks a uniformly random r-subset, so an
    # attempt of tau steps hits with the all-subsets average success probability
    n, trials = 6, 4000
    state, fc_near = _HIT_RATE_STARTS[start]
    fc = coherence_fraction(state)
    assert fc == pytest.approx(fc_near, abs=1e-4)
    sums = _StartSums.of(state.amplitudes, state.amplitude_sum)
    rng = np.random.default_rng([n, r, tau])
    hits = 0
    for _ in range(trials):
        marked = np.sort(rng.choice(2**n, size=r, replace=False)).astype(np.intp)
        hits += _SearchRound(sums, marked).draw(tau, rng.random())[1]
    p = closed_form_average(2**n, r, tau, fc)
    assert abs(hits - trials * p) <= 5 * math.sqrt(trials * p * (1 - p)), (hits / trials, p)


# the grid and the bound were fixed before the test was first run: the uniform start, permutation
# objectives 0-3 with seeds 0-99 each, n in {6, 8, 10, 12}; the bound is Durr and Hoyer's
# (quant-ph/9607014) for growth in (1, 4/3] (BBHT, quant-ph/9605034)
@pytest.mark.parametrize("growth", [6 / 5, 4 / 3])
def test_mean_oracle_calls_stay_under_the_durr_hoyer_bound(growth):
    schedule = SearchSchedule(growth=growth)
    for n in (6, 8, 10, 12):
        dim = 2**n
        calls = [
            rep.oracle_calls_used
            for objective_seed in range(4)
            for rep in _minimizations(make_objective("permutation", n, objective_seed),
                                      equal_superposition(n), schedule, range(100))
        ]
        mean = sum(calls) / len(calls)
        assert mean < 22.5 * math.sqrt(dim) + 1.4 * math.log2(dim) ** 2, (n, mean)
