import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groversim import (
    PureState,
    SmallDensityMatrix,
    StateMixture,
    average_over_all_sets,
    basis_state,
    closed_form_average,
    closed_form_average_mixture,
    coherence_fraction,
    coherence_fraction_density,
    coherence_fraction_mixture,
    equal_superposition,
    l1_coherence,
    measure_counterexample_report,
    mixing_angle,
    optimal_average,
    optimal_iterations,
    rewritten_optimal_average,
)
from groversim import kernels
from conftest import random_state


def nonneg_density(dim: int, rng: np.random.Generator) -> SmallDensityMatrix:
    """Mixture of entrywise non-negative pure states: every rho_ij >= 0."""
    k = int(rng.integers(1, 5))
    weights = rng.dirichlet(np.ones(k))
    m = np.zeros((dim, dim))
    for w in weights:
        v = rng.uniform(0.0, 1.0, size=dim)
        v /= np.linalg.norm(v)
        m += w * np.outer(v, v)
    return SmallDensityMatrix(m)


# ------------------------------------------------------------ pure-state f_c

def test_uniform_state_has_unit_fraction():
    for n in range(1, 6):
        assert coherence_fraction(equal_superposition(n)) == pytest.approx(1.0, abs=1e-12)


def test_basis_state_fraction_is_one_over_dim():
    for n in range(1, 6):
        assert coherence_fraction(basis_state(n)) == pytest.approx(2.0**-n, abs=1e-14)


def test_minus_state_fraction_vanishes():
    minus = PureState(1, np.array([1.0, -1.0]) / math.sqrt(2))
    assert coherence_fraction(minus) == pytest.approx(0.0, abs=1e-15)


# ------------------------------------------------------------- closed forms

def test_mixing_angle_values():
    assert mixing_angle(4, 1) == pytest.approx(math.pi / 3)
    assert mixing_angle(4, 4) == pytest.approx(math.pi)
    with pytest.raises(ValueError):
        mixing_angle(4, 0)
    with pytest.raises(ValueError):
        mixing_angle(1, 1)


def test_closed_form_hand_value():
    # basis state on two qubits, one marked item, one step
    assert closed_form_average(4, 1, 1, 0.25) == pytest.approx(0.25, abs=1e-15)


def test_closed_form_input_validation():
    with pytest.raises(ValueError):
        closed_form_average(4, 0, 1, 0.5)
    with pytest.raises(ValueError):
        closed_form_average(4, 1, -1, 0.5)
    with pytest.raises(ValueError):
        closed_form_average(4, 1, 1, 1.5)
    with pytest.raises(ValueError):
        closed_form_average(4, 1, 1, -0.1)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**32 - 1))
def test_closed_form_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    r = int(rng.integers(1, min(4, 2**n) + 1))
    tau = int(rng.integers(0, 7))
    psi = random_state(n, rng)
    brute = average_over_all_sets(psi, r, tau)
    closed = closed_form_average(2**n, r, tau, coherence_fraction(psi))
    assert brute == pytest.approx(closed, abs=1e-12)


def _blind_cells():
    """(n, r) at n <= 6 for every r whose C(N, r) subsets number at most 5 * 10**4."""
    return [(n, r) for n in range(1, 7) for r in range(1, 2**n + 1) if math.comb(2**n, r) <= 5 * 10**4]


def test_a_basis_state_averages_the_blind_guess_rate_at_every_step():
    # f_c = 1/N makes the (N f_c - 1) factor of P_ave - r/N vanish: Grover steps neither help nor hurt
    for n, r in _blind_cells():
        dim = 2**n
        brute = kernels.average_trajectory(basis_state(n).amplitudes, r, 12)
        np.testing.assert_allclose(brute, r / dim, rtol=0, atol=1e-12, err_msg=f"n={n}, r={r}")
        for tau in range(13):
            assert closed_form_average(dim, r, tau, 1 / dim) == pytest.approx(r / dim, rel=0, abs=1e-12)


@pytest.mark.parametrize("fc", [0.0, 0.3, 0.5, 0.9, 1.0])
def test_the_average_less_the_blind_rate_factors_through_n_fc_minus_one(fc):
    # P_ave - r/N = (N f_c - 1)(sin^2(vartheta) - r/N)/(N - 1), as the README states it
    for dim, r in [(4, 1), (8, 3), (32, 2), (1024, 1000)]:
        for tau in range(9):
            s2 = math.sin(mixing_angle(dim, r) * (tau + 0.5)) ** 2
            want = (dim * fc - 1) * (s2 - r / dim) / (dim - 1)
            assert closed_form_average(dim, r, tau, fc) - r / dim == pytest.approx(want, rel=0, abs=1e-14)


def test_optimal_iteration_counts():
    assert optimal_iterations(2**20, 1) == 804
    assert optimal_iterations(4, 1) == 1
    assert optimal_iterations(64, 1) == 6


def test_optimal_average_values():
    assert optimal_average(32, 10, 0.5) == pytest.approx(20 / 31, abs=1e-14)
    assert optimal_average(32, 1, 0.0) == 0.0
    assert optimal_average(32, 1, 1.0) == pytest.approx(1.0, abs=1e-14)
    # affine data: slope and intercept recovered from two evaluations
    dim, r = 32, 4
    slope = optimal_average(dim, r, 1.0) - optimal_average(dim, r, 0.0)
    assert slope == pytest.approx((dim - r) / (dim - 1), abs=1e-14)
    assert optimal_average(dim, r, 0.0) == pytest.approx((r - 1) / (dim - 1), abs=1e-14)



def test_optimal_average_takes_an_array_with_the_scalar_check_and_clamp():
    fcs = np.array([0.0, 0.3, 1.0, 1.0 + 5e-13])
    values = optimal_average(32, 3, fcs)
    assert isinstance(values, np.ndarray)
    assert values.tolist() == [optimal_average(32, 3, float(fc)) for fc in fcs]
    assert values[-1] == optimal_average(32, 3, 1.0)  # clamped, as for a float
    assert isinstance(optimal_average(32, 3, 0.3), float)
    for bad in (1.0 + 2e-10, -1e-300, np.nan):
        with pytest.raises(ValueError, match=f"got {bad!r}"):
            optimal_average(32, 3, np.array([0.5, bad, 0.25]))


def test_closed_form_takes_an_array_bit_for_bit():
    fcs = np.array([0.0, 1 / 32, 0.3, 1.0, 1.0 + 5e-13])
    for tau in (0, 1, 4, 30):
        values = closed_form_average(32, 3, tau, fcs)
        assert isinstance(values, np.ndarray)
        assert values.tolist() == [closed_form_average(32, 3, tau, float(fc)) for fc in fcs]


def test_fraction_up_to_the_normalization_tolerance_counts_as_one():
    # PureState and StateMixture accept a norm or weight sum up to 1 + 1e-10,
    # so f_c can exceed 1 by as much; the closed forms must take such states
    n, r, tau = 3, 2, 1
    high = PureState(n, np.full(2**n, (1 + 2e-11) / np.sqrt(2**n)))
    assert 1.0 < coherence_fraction(high) <= 1.0 + 1e-10
    brute = average_over_all_sets(high, r, tau)
    assert closed_form_average(2**n, r, tau, coherence_fraction(high)) == pytest.approx(brute, abs=1e-10)
    assert optimal_average(2**n, r, coherence_fraction(high)) == optimal_average(2**n, r, 1.0)

    uniform = equal_superposition(n)
    mixture = StateMixture(((0.5 + 2.5e-11, uniform), (0.5 + 2.5e-11, uniform)))
    assert coherence_fraction_mixture(mixture) > 1.0
    assert closed_form_average_mixture(2**n, r, tau, mixture) == pytest.approx(
        average_over_all_sets(uniform, r, tau), abs=1e-10
    )
    with pytest.raises(ValueError, match="coherence fraction must lie in"):
        closed_form_average(2**n, r, tau, 1.0 + 2e-10)

def test_idealization_gap_is_bounded():
    # the closed form at tau_opt sits within (1 - sin^2 vartheta) of the ideal line
    for dim, r in ((8, 1), (32, 2), (64, 1), (256, 1)):
        tau = optimal_iterations(dim, r)
        bound = 1.0 - math.sin(mixing_angle(dim, r) * (tau + 0.5)) ** 2
        for fc in (0.0, 0.3, 1.0):
            gap = abs(closed_form_average(dim, r, tau, fc) - optimal_average(dim, r, fc))
            assert gap <= bound + 1e-12


# ----------------------------------------------------------------- mixtures

def test_mixture_fraction_is_the_weighted_average(rng):
    comps = []
    weights = rng.dirichlet(np.ones(3))
    for w in weights:
        comps.append((float(w), random_state(3, rng)))
    mix = StateMixture(tuple(comps))
    expected = sum(w * coherence_fraction(s) for w, s in comps)
    assert coherence_fraction_mixture(mix) == pytest.approx(expected, abs=1e-14)


def test_mixture_closed_form_is_linear(rng):
    weights = rng.dirichlet(np.ones(4))
    comps = tuple((float(w), random_state(2, rng)) for w in weights)
    mix = StateMixture(comps)
    direct = closed_form_average_mixture(4, 1, 2, mix)
    summed = sum(w * closed_form_average(4, 1, 2, coherence_fraction(s)) for w, s in comps)
    assert direct == pytest.approx(summed, abs=1e-13)


def test_mixture_dimension_mismatch():
    mix = StateMixture(((1.0, basis_state(2)),))
    with pytest.raises(ValueError, match="dimension"):
        closed_form_average_mixture(8, 1, 1, mix)


# ----------------------------------------------------------- density matrices

def test_density_matrix_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        SmallDensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        SmallDensityMatrix(np.eye(2))
    with pytest.raises(ValueError, match="eigenvalue"):
        SmallDensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))
    with pytest.raises(ValueError, match="square"):
        SmallDensityMatrix(np.ones((2, 3)))
    with pytest.raises(ValueError, match="dimension"):
        SmallDensityMatrix(np.eye(128) / 128)


def test_density_fraction_matches_pure_fraction(rng):
    psi = random_state(3, rng)
    rho = SmallDensityMatrix.from_pure(psi)
    assert coherence_fraction_density(rho) == pytest.approx(coherence_fraction(psi), abs=1e-12)


def test_density_fraction_rejects_an_imaginary_entry_sum():
    # Hermitian within the matrix's 1e-10, but the entries sum to 1 + 1e-11j.
    rho = SmallDensityMatrix(np.array([[0.5, 1e-11j], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="imaginary part"):
        coherence_fraction_density(rho)


def test_density_from_mixture_matches_mixture_fraction(rng):
    weights = rng.dirichlet(np.ones(3))
    mix = StateMixture(tuple((float(w), random_state(2, rng)) for w in weights))
    rho = SmallDensityMatrix.from_mixture(mix)
    assert coherence_fraction_density(rho) == pytest.approx(
        coherence_fraction_mixture(mix), abs=1e-12
    )


def test_l1_coherence_values():
    assert l1_coherence(SmallDensityMatrix(np.eye(2) / 2)) == 0.0
    rho = SmallDensityMatrix(np.array([[1 / 3, -1j / 3], [1j / 3, 2 / 3]]))
    assert l1_coherence(rho) == pytest.approx(2 / 3, abs=1e-14)


def test_l1_relation_for_nonnegative_matrices(rng):
    for dim in (2, 4, 8, 16):
        for _ in range(10):
            rho = nonneg_density(dim, rng)
            lhs = dim * (coherence_fraction_density(rho) - 1.0 / dim)
            assert lhs == pytest.approx(l1_coherence(rho), abs=1e-10)


def test_rewritten_optimum_agrees_with_direct_form(rng):
    for dim in (4, 16):
        rho = nonneg_density(dim, rng)
        fc = coherence_fraction_density(rho)
        for r in (1, 3):
            assert rewritten_optimal_average(dim, r, rho) == pytest.approx(
                optimal_average(dim, r, fc), abs=1e-12
            )


def test_rewritten_optimum_checks_dimensions(rng):
    rho = nonneg_density(4, rng)
    with pytest.raises(ValueError, match="match"):
        rewritten_optimal_average(8, 1, rho)


@pytest.mark.parametrize("matrix", [
    np.array([[0.5, -0.5], [-0.5, 0.5]]),                # |-><-|, where the direct optimum is 0.0
    np.array([[1 / 3, -1j / 3], [1j / 3, 2 / 3]]),      # the counterexample's coherent qubit
])
def test_rewritten_optimum_refuses_entries_outside_its_domain(matrix):
    rho = SmallDensityMatrix(matrix)
    with pytest.raises(ValueError, match="real, non-negative entries"):
        rewritten_optimal_average(2, 1, rho)


# ------------------------------------------------------------ counterexample

def test_counterexample_fractions_are_all_one_half():
    rep = measure_counterexample_report()
    for value in (
        rep.separable_fraction,
        rep.entangled_fraction,
        rep.incoherent_fraction,
        rep.coherent_fraction,
    ):
        assert value == pytest.approx(0.5, abs=1e-12)
    assert rep.entanglement_blind and rep.coherence_blind
    assert "neither" in rep.conclusion
    assert set(rep.to_dict()) == {
        "separable_fraction", "entangled_fraction", "entanglement_blind",
        "incoherent_fraction", "coherent_fraction", "coherence_blind", "conclusion",
    }
