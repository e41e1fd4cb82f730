import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groversim import (
    EnumerationCapError,
    LocalGateParams,
    MarkedSet,
    PureState,
    SearchConfig,
    apply_diffusion,
    apply_oracle,
    average_over_all_sets,
    average_trajectory_over_all_sets,
    basis_state,
    equal_superposition,
    evolve_subspace,
    grover_iterate,
    prepare_ansatz_state,
    run_search,
    subspace_basis,
    subspace_decompose,
    subspace_reconstruct,
    success_probability,
    success_mass,
)
from conftest import random_state


# ---------------------------------------------------------------- marked sets

def test_marked_set_sorts_its_indices():
    assert MarkedSet((5, 1, 3)).indices == (1, 3, 5)
    assert MarkedSet((2,)).r == 1


def test_marked_set_rejects_bad_input():
    with pytest.raises(ValueError, match="non-empty"):
        MarkedSet(())
    with pytest.raises(ValueError, match="distinct"):
        MarkedSet((1, 1))
    with pytest.raises(ValueError, match="non-negative"):
        MarkedSet((-1,))
    with pytest.raises(ValueError, match="marked index must be an integer, got 1.5"):
        MarkedSet((1.5, 2.9))
    with pytest.raises(ValueError, match="marked index must be an integer, got '3'"):
        MarkedSet(("3",))
    assert MarkedSet((np.int64(3), np.int32(1))).indices == (1, 3)


def _loop_marked_indices(values):
    # the per-index check MarkedSet made before it checked with numpy
    idx = tuple(sorted(operator.index(i) for i in values))
    if not idx or idx[0] < 0 or len(set(idx)) != len(idx):
        return None
    return idx


@settings(deadline=None, max_examples=200)
@given(values=st.lists(st.integers(-3, 40), max_size=12), as_array=st.booleans())
def test_marked_set_matches_the_per_index_check(values, as_array):
    expected = _loop_marked_indices(values)
    try:
        got = MarkedSet(np.array(values, dtype=np.int64) if as_array else tuple(values)).indices
    except ValueError:
        got = None
    assert got == expected
    assert got is None or all(type(i) is int for i in got)


def test_marked_set_takes_arrays_iterators_and_wide_ints():
    m = MarkedSet(np.array([9, 2, 4], dtype=np.uint8))
    assert m.indices == (2, 4, 9) and all(type(i) is int for i in m.indices)
    assert MarkedSet(iter([3, 1])).indices == (1, 3)
    assert MarkedSet((True, 2)).indices == (1, 2)
    # numpy reads these as float64 or object; they take the per-index path exactly
    assert MarkedSet((2**63, 1)).indices == (1, 2**63)
    assert MarkedSet((2**70, 3)).indices == (3, 2**70)
    with pytest.raises(ValueError, match="non-negative, got -1$"):
        MarkedSet((2**63, -1))
    with pytest.raises(ValueError, match=r"marked index must be an integer, got \(1, 2\)"):
        MarkedSet(((1, 2), 3))
    with pytest.raises(ValueError, match="marked index must be an integer, got np.float64"):
        MarkedSet(np.array([3.0]))


def test_marked_set_range_check():
    m = MarkedSet((0, 7))
    m.validate_for(8)
    with pytest.raises(ValueError, match="out of range"):
        m.validate_for(7)


# ------------------------------------------------------------- one-step gates

def test_oracle_flips_only_marked_amplitudes():
    s = equal_superposition(2)
    out = apply_oracle(s, MarkedSet((1, 2)))
    np.testing.assert_allclose(out.amplitudes, [0.5, -0.5, -0.5, 0.5])


def test_diffusion_hand_value():
    # oracle then diffusion on |00> with {0} marked
    s = apply_oracle(basis_state(2), MarkedSet((0,)))
    out = apply_diffusion(s)
    np.testing.assert_allclose(out.amplitudes, [0.5, -0.5, -0.5, -0.5], atol=1e-15)


def test_diffusion_fixes_the_uniform_state():
    s = equal_superposition(3)
    np.testing.assert_allclose(apply_diffusion(s).amplitudes, s.amplitudes, atol=1e-15)


def test_iterate_composes_oracle_and_diffusion(rng):
    psi = random_state(4, rng)
    m = MarkedSet((2, 7, 11))
    stepped = psi
    for _ in range(3):
        stepped = apply_diffusion(apply_oracle(stepped, m))
    np.testing.assert_allclose(
        grover_iterate(psi, m, 3).amplitudes, stepped.amplitudes, atol=1e-12
    )


def test_iterate_validates_arguments():
    for run in (grover_iterate, run_search, success_probability):
        with pytest.raises(ValueError, match="out of range"):
            run(basis_state(2), MarkedSet((4,)), 1)
        for tau in (-1, 2.5):
            with pytest.raises(ValueError, match="step count"):
                run(basis_state(2), MarkedSet((0,)), tau)


# --------------------------------------------------------- success probability

def test_textbook_four_dimensional_search():
    assert success_probability(equal_superposition(2), MarkedSet((2,)), 1) == pytest.approx(1.0, abs=1e-14)


def test_success_from_basis_state():
    assert success_probability(basis_state(2), MarkedSet((0,)), 1) == pytest.approx(0.25, abs=1e-15)


def test_minus_state_single_step():
    minus = PureState(1, np.array([1.0, -1.0]) / math.sqrt(2))
    assert success_probability(minus, MarkedSet((0,)), 1) == pytest.approx(0.5, abs=1e-14)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), phase=st.floats(0.0, 2 * math.pi))
def test_success_is_global_phase_invariant(seed, phase):
    rng = np.random.default_rng(seed)
    psi = random_state(3, rng)
    rotated = PureState(3, np.exp(1j * phase) * psi.amplitudes)
    m = MarkedSet(tuple(int(i) for i in rng.choice(8, size=2, replace=False)))
    tau = int(rng.integers(0, 5))
    assert success_probability(psi, m, tau) == pytest.approx(
        success_probability(rotated, m, tau), abs=1e-12
    )


def test_success_probability_keeps_no_trace():
    # it once built run_search's whole trace to return its last value: 3.2 MiB traced at tau = 10**5
    import tracemalloc

    psi, m, tau = equal_superposition(1), MarkedSet((0,)), 100_000
    tracemalloc.start()
    try:
        p = success_probability(psi, m, tau)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024
    assert p == run_search(psi, m, tau).final_success


def test_run_search_records_every_step(rng):
    psi = random_state(3, rng)
    m = MarkedSet((1, 6))
    report = run_search(psi, m, 4)
    assert len(report.per_iteration_success) == 5
    assert report.per_iteration_success[0] == pytest.approx(success_mass(psi, m), abs=1e-14)
    assert report.final_success == report.per_iteration_success[-1]
    assert report.config.r == 2 and report.config.tau == 4
    payload = report.to_dict()
    assert payload["marked"] == [1, 6]
    assert len(payload["per_iteration_success"]) == 5


# ----------------------------------------------------------- subset averaging

def test_average_hand_value():
    assert average_over_all_sets(basis_state(2), 1, 1) == pytest.approx(0.25, abs=1e-15)


def test_average_equals_explicit_mean(rng):
    import itertools

    psi = random_state(3, rng)
    values = [
        success_probability(psi, MarkedSet(c), 2)
        for c in itertools.combinations(range(8), 2)
    ]
    assert average_over_all_sets(psi, 2, 2) == pytest.approx(np.mean(values), abs=1e-13)


def test_average_with_everything_marked_is_one(rng):
    psi = random_state(2, rng)
    traj = average_trajectory_over_all_sets(psi, 4, 3)
    np.testing.assert_allclose(traj, 1.0, atol=1e-12)


def test_average_validates_r():
    for average in (average_over_all_sets, average_trajectory_over_all_sets):
        for r in (0, 5, 1.0):
            with pytest.raises(ValueError, match="marked count"):
                average(basis_state(2), r, 1)
        for tau in (-1, 2.5):
            with pytest.raises(ValueError, match="step count"):
                average(basis_state(2), 1, tau)


def test_enumeration_cap_is_enforced():
    with pytest.raises(EnumerationCapError, match="exceeds"):
        average_over_all_sets(equal_superposition(5), 3, 1, cap=100)


def test_enumeration_cap_refuses_vast_counts_at_once():
    # an exact C(2**20, 2**19) would take seconds; the refusal needs a few products
    with pytest.raises(EnumerationCapError, match=r"^C\(1048576, 524288\) = 2\*\*63 or more subsets"):
        average_over_all_sets(equal_superposition(20), 2**19, 1)
    # past int64 ranks no cap applies, however large
    with pytest.raises(EnumerationCapError, match=f"exceeds the enumeration cap {2**63 - 1}$"):
        average_over_all_sets(equal_superposition(7), 64, 1, cap=2**70)


# ------------------------------------------------------------ subspace model

def test_config_angles():
    cfg = SearchConfig(2, 1, 1)
    assert cfg.theta == pytest.approx(math.pi / 3)
    assert cfg.vartheta == pytest.approx(math.pi / 2)
    assert cfg.dimension == 4


def test_config_takes_numpy_integers_as_ints():
    cfg = SearchConfig(np.int64(3), np.int32(2), np.uint16(4))
    assert (cfg.n, cfg.r, cfg.tau) == (3, 2, 4)
    assert all(type(v) is int for v in (cfg.n, cfg.r, cfg.tau))
    assert cfg == SearchConfig(3, 2, 4)
    with pytest.raises(ValueError, match="step count must be a non-negative int, got -1"):
        SearchConfig(3, 2, np.int64(-1))


def test_config_validation():
    for r in (0, 5, 1.0):
        with pytest.raises(ValueError, match="marked count"):
            SearchConfig(2, r, 1)
    for tau in (-1, 2.5):
        with pytest.raises(ValueError, match="step count"):
            SearchConfig(2, 1, tau)


def test_decomposition_reconstructs_the_state(rng):
    for n in (2, 3, 5):
        psi = random_state(n, rng)
        r = int(rng.integers(1, 2**n))
        m = MarkedSet(tuple(int(i) for i in rng.choice(2**n, size=r, replace=False)))
        coords = subspace_decompose(psi, m)
        basis = subspace_basis(psi, m)
        np.testing.assert_allclose(
            subspace_reconstruct(coords, basis), psi.amplitudes, atol=1e-12
        )
        assert coords.norm_sq() == pytest.approx(1.0, abs=1e-12)
        assert coords.success_mass() == pytest.approx(success_mass(psi, m), abs=1e-12)


def test_uniform_state_has_no_orthogonal_parts():
    coords = subspace_decompose(equal_superposition(3), MarkedSet((0, 5)))
    assert coords.c_psi_m == 0.0
    assert coords.c_psi_u == 0.0
    basis = subspace_basis(equal_superposition(3), MarkedSet((0, 5)))
    assert basis.present == (False, False, True, True)
    np.testing.assert_array_equal(basis.psi_m, 0.0)


def test_fully_marked_state_drops_the_unmarked_directions():
    coords = subspace_decompose(basis_state(2, 1), MarkedSet((0, 1, 2, 3)))
    assert coords.c_psi_u == 0.0
    assert coords.c_eta_u == 0.0
    assert coords.success_mass() == pytest.approx(1.0, abs=1e-14)


def test_subspace_evolution_matches_full_simulation(rng):
    for _ in range(10):
        n = int(rng.integers(1, 6))
        psi = random_state(n, rng)
        r = int(rng.integers(1, 2**n + 1))
        m = MarkedSet(tuple(int(i) for i in rng.choice(2**n, size=r, replace=False)))
        tau = int(rng.integers(0, 9))
        coords = evolve_subspace(subspace_decompose(psi, m), SearchConfig(n, r, tau))
        assert coords.success_mass() == pytest.approx(
            success_probability(psi, m, tau), abs=1e-12
        )


@pytest.mark.parametrize("start", ["uniform", "ansatz"])
@pytest.mark.parametrize("marked", [(12_345,), (0, 2**19 + 7, 2**20 - 1)])
def test_run_search_matches_subspace_model_at_twenty_qubits(start, marked):
    n, tau = 20, 5_000
    psi = (
        equal_superposition(n)
        if start == "uniform"
        else prepare_ansatz_state(n, LocalGateParams(0.2, 0.25, 0.78))
    )
    m = MarkedSet(marked)
    trace = run_search(psi, m, tau).per_iteration_success
    coords = subspace_decompose(psi, m)
    for t in range(0, tau + 1, 100):
        expected = evolve_subspace(coords, SearchConfig(n, m.r, t)).success_mass()
        assert trace[t] == pytest.approx(expected, abs=1e-10), f"step {t}"


def test_subspace_evolution_at_zero_steps_is_identity(rng):
    psi = random_state(3, rng)
    m = MarkedSet((1, 4))
    before = subspace_decompose(psi, m)
    after = evolve_subspace(before, SearchConfig(3, 2, 0))
    assert after == before
