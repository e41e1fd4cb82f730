import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groversim import (
    LocalGateParams,
    ansatz_coherence_fraction,
    apply_product_unitary,
    basis_state,
    build_gate,
    coherence_fraction,
    equal_superposition,
    fidelity_with,
    optimal_success_phase_plane,
    optimal_success_vs_mixing,
    optimal_success_vs_phases,
    prepare_ansatz_state,
)
from groversim.ansatz import _phase_plane_rows

angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
mixing = st.floats(0.0, math.pi / 2, allow_nan=False)


def test_theta_range_is_enforced():
    with pytest.raises(ValueError):
        LocalGateParams(0.0, 0.0, -0.1)
    with pytest.raises(ValueError):
        LocalGateParams(0.0, 0.0, math.pi / 2 + 0.1)
    LocalGateParams(-10.0, 17.0, math.pi / 2)  # phases are unrestricted


def test_phase_folding_is_reporting_only():
    p = LocalGateParams(-math.pi, 5 * math.pi, 0.3)
    a, b = p.phases_mod_2pi()
    assert a == pytest.approx(math.pi)
    assert b == pytest.approx(math.pi)
    assert p.alpha == -math.pi and p.beta == 5 * math.pi


def test_zero_param_gate_is_hadamard_at_quarter_pi():
    h = build_gate(LocalGateParams(0.0, 0.0, math.pi / 4)).matrix
    np.testing.assert_allclose(h, np.array([[1, 1], [1, -1]]) / math.sqrt(2), atol=1e-15)


def test_degenerate_gate_is_a_sign_flip():
    g = build_gate(LocalGateParams(0.0, 0.0, 0.0)).matrix
    np.testing.assert_allclose(g, np.diag([1.0, -1.0]), atol=1e-15)


@settings(deadline=None, max_examples=60)
@given(alpha=angles, beta=angles, theta=mixing)
def test_gate_is_always_unitary(alpha, beta, theta):
    m = build_gate(LocalGateParams(alpha, beta, theta)).matrix
    np.testing.assert_allclose(m @ m.conj().T, np.eye(2), atol=1e-12)


def test_quarter_pi_prepares_the_uniform_state():
    p = LocalGateParams(0.0, 0.0, math.pi / 4)
    for n in (1, 2, 4):
        assert fidelity_with(prepare_ansatz_state(n, p), equal_superposition(n)) == pytest.approx(1.0, abs=1e-12)


def test_edge_angles_prepare_basis_states():
    assert fidelity_with(
        prepare_ansatz_state(3, LocalGateParams(0.0, 0.0, 0.0)), basis_state(3, 0)
    ) == pytest.approx(1.0, abs=1e-14)
    assert fidelity_with(
        prepare_ansatz_state(3, LocalGateParams(0.0, 0.0, math.pi / 2)), basis_state(3, 7)
    ) == pytest.approx(1.0, abs=1e-14)


@settings(deadline=None, max_examples=40)
@given(alpha=angles, beta=angles, theta=mixing, n=st.integers(1, 4))
def test_closed_form_state_matches_the_circuit(alpha, beta, theta, n):
    p = LocalGateParams(alpha, beta, theta)
    direct = prepare_ansatz_state(n, p)
    circuit = apply_product_unitary(basis_state(n), build_gate(p))
    np.testing.assert_allclose(direct.amplitudes, circuit.amplitudes, atol=1e-12)


@pytest.mark.parametrize("n", range(1, 21))
def test_row_block_gather_is_the_weight_lookup_byte_for_byte(n):
    # the reference indexes the weights by each label's popcount directly; it forms each weight as
    # float64 products, as prepare_ansatz_state does, since numpy's complex multiply rounds by SIMD target
    for alpha, beta, theta in [(0.0, 0.0, 0.0), (0.4, -1.1, math.pi / 2), (0.0, 0.0, math.pi / 4),
                               (0.3, 0.35, 0.78), (-5.9, 2.3, 1.2)]:
        p = LocalGateParams(alpha, beta, theta)
        zero, one = cmath.exp(1j * alpha) * math.cos(theta), cmath.exp(1j * beta) * math.sin(theta)
        zero_pows = np.array([zero**k for k in range(n + 1)], dtype=np.complex128)
        one_pows = np.array([one**k for k in range(n + 1)], dtype=np.complex128)
        zr, zi, orl, oi = zero_pows.real[::-1], zero_pows.imag[::-1], one_pows.real, one_pows.imag
        by_weight = np.empty(n + 1, dtype=np.complex128)
        by_weight.real = zr * orl - zi * oi
        by_weight.imag = zr * oi + zi * orl
        expected = by_weight[np.bitwise_count(np.arange(2**n, dtype=np.uint32))]
        assert prepare_ansatz_state(n, p).amplitudes.tobytes() == expected.tobytes()


@settings(deadline=None, max_examples=40)
@given(alpha=angles, beta=angles, theta=mixing, n=st.integers(1, 4))
def test_fraction_closed_form_matches_simulation(alpha, beta, theta, n):
    p = LocalGateParams(alpha, beta, theta)
    assert ansatz_coherence_fraction(n, p) == pytest.approx(
        coherence_fraction(prepare_ansatz_state(n, p)), abs=1e-12
    )


def test_fraction_anchor_values():
    assert ansatz_coherence_fraction(3, LocalGateParams(0.0, 0.0, math.pi / 4)) == pytest.approx(1.0, abs=1e-14)
    for a in (0.0, 1.2, -4.0):
        assert ansatz_coherence_fraction(2, LocalGateParams(a, a, math.pi / 4)) == pytest.approx(1.0, abs=1e-12)
    assert ansatz_coherence_fraction(2, LocalGateParams(0.0, math.pi, math.pi / 4)) == pytest.approx(0.0, abs=1e-14)


@settings(deadline=None, max_examples=40)
@given(alpha=angles, beta=angles, theta=mixing, shift=angles, n=st.integers(1, 4))
def test_fraction_depends_on_phase_difference_only(alpha, beta, theta, shift, n):
    base = ansatz_coherence_fraction(n, LocalGateParams(alpha, beta, theta))
    shifted = ansatz_coherence_fraction(n, LocalGateParams(alpha + shift, beta + shift, theta))
    assert base == pytest.approx(shifted, abs=1e-12)


def test_phase_slice_anchor_values():
    for n in (1, 2, 5):
        assert optimal_success_vs_phases(n, 0.7, 0.7) == pytest.approx(1.0, abs=1e-12)
        assert optimal_success_vs_phases(n, 0.0, math.pi) == pytest.approx(0.0, abs=1e-14)
    assert optimal_success_vs_phases(2, math.pi / 2, 0.0) == pytest.approx(0.25, abs=1e-14)
    for n in (0, 21, 2000):
        with pytest.raises(ValueError, match="qubit count"):
            optimal_success_vs_phases(n, 0.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_phase_slice_and_params_reject_the_same_phases(bad):
    # one finiteness rule for both: the slice must not return nan where
    # LocalGateParams raises
    with pytest.raises(ValueError, match="phase alpha must be finite"):
        LocalGateParams(bad, 0.0, 0.3)
    with pytest.raises(ValueError, match="phase alpha must be finite"):
        optimal_success_vs_phases(2, bad, 0.0)
    with pytest.raises(ValueError, match="phase beta must be finite"):
        LocalGateParams(0.0, bad, 0.3)
    with pytest.raises(ValueError, match="phase beta must be finite"):
        optimal_success_vs_phases(2, 0.0, bad)
    with pytest.raises(ValueError, match="phase #1 must be finite"):
        optimal_success_phase_plane(2, [0.0, bad])


def test_phase_slice_is_the_quarter_pi_fraction():
    for a, b in ((0.3, 1.9), (2.5, -0.4)):
        assert optimal_success_vs_phases(3, a, b) == pytest.approx(
            ansatz_coherence_fraction(3, LocalGateParams(a, b, math.pi / 4)), abs=1e-12
        )


def test_mixing_slice_anchor_values():
    for n in (2, 3, 4):
        assert optimal_success_vs_mixing(n, math.pi / 4) == pytest.approx(1.0, abs=1e-12)
        assert optimal_success_vs_mixing(n, 0.0) == pytest.approx(2.0**-n, abs=1e-14)
        assert optimal_success_vs_mixing(n, math.pi / 2) == pytest.approx(2.0**-n, abs=1e-14)
    with pytest.raises(ValueError):
        optimal_success_vs_mixing(2, -0.01)
    for n in (0, 21, 2000):
        with pytest.raises(ValueError, match="qubit count"):
            optimal_success_vs_mixing(n, 0.5)


def test_mixing_slice_peaks_uniquely_at_quarter_pi():
    # coarse grid, then golden-section refinement around the best bin
    n = 3
    grid = np.linspace(0.0, math.pi / 2, 201)
    values = [optimal_success_vs_mixing(n, float(t)) for t in grid]
    best = int(np.argmax(values))
    for i, v in enumerate(values):
        if abs(grid[i] - grid[best]) > 1e-9:
            assert v < values[best]
    lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    while b - a > 1e-12:
        if optimal_success_vs_mixing(n, c) > optimal_success_vs_mixing(n, d):
            b, d = d, c
            c = b - invphi * (b - a)
        else:
            a, c = c, d
            d = a + invphi * (b - a)
    assert (a + b) / 2 == pytest.approx(math.pi / 4, abs=1e-6)


def _bits(rows):
    return [[value.hex() for value in row] for row in rows]


@pytest.mark.parametrize("n", range(1, 21))
def test_phase_plane_is_the_pointwise_slice_bit_for_bit(n):
    grid = np.linspace(0.0, 2 * math.pi, 64, endpoint=False).tolist()
    plane = optimal_success_phase_plane(n, grid)
    assert all(type(value) is float for row in plane for value in row)
    assert _bits(plane) == _bits([[optimal_success_vs_phases(n, a, b) for b in grid] for a in grid])


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(1, 20),
    phases=st.lists(st.floats(-40.0, 40.0, allow_nan=False), min_size=1, max_size=24),
)
def test_phase_plane_matches_pointwise_on_any_phases(n, phases):
    # unsorted, repeated, negative and beyond 2pi: the plane restates
    # CPython's complex ** int, so this is what catches an interpreter whose
    # complex power rounds differently
    plane = optimal_success_phase_plane(n, phases)
    assert _bits(plane) == _bits([[optimal_success_vs_phases(n, a, b) for b in phases] for a in phases])


def test_phase_plane_is_exactly_symmetric():
    # e^{ia} + e^{ib} == e^{ib} + e^{ia} in IEEE arithmetic
    rng = np.random.default_rng(7)
    phases = rng.uniform(-10.0, 10.0, 97).tolist()
    for n in (1, 6, 13, 20):
        plane = np.array(optimal_success_phase_plane(n, phases))
        assert np.array_equal(plane, plane.T)


def test_phase_plane_edge_sizes():
    assert optimal_success_phase_plane(3, []) == []
    assert optimal_success_phase_plane(3, [0.25]) == [[optimal_success_vs_phases(3, 0.25, 0.25)]]
    assert optimal_success_phase_plane(np.int64(2), np.array([0.0, math.pi / 2])) == [
        [1.0, optimal_success_vs_phases(2, 0.0, math.pi / 2)],
        [optimal_success_vs_phases(2, math.pi / 2, 0.0), 1.0],
    ]


def test_phase_plane_workspace_is_bounded_by_row_blocks():
    # 1,000 points make 10^6 cells. As one block, the six float64 arrays and
    # np.unique took 106 MiB beyond the result; the row blocks take about 8.
    import tracemalloc

    grid = np.linspace(0.0, 2 * math.pi, 1000, endpoint=False).tolist()
    tracemalloc.start()
    try:
        plane = optimal_success_phase_plane(12, grid)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(plane) == 1000
    assert peak - kept < 16 * 2**20


@pytest.mark.parametrize("n, distinct", [(2, 3202), (12, 11047)])
def test_phase_plane_converts_each_distinct_value_once(n, distinct):
    # 301 points make 90,601 cells; the README gives these distinct-value counts.
    # Each row block carries its distinct values once, which is all a writer spells.
    grid = np.linspace(0.0, 2 * math.pi, 301, endpoint=False).tolist()
    blocks = list(_phase_plane_rows(n, grid))
    assert all(np.all(np.diff(values) > 0) for values, _ in blocks)
    assert len(set().union(*(values.tolist() for values, _ in blocks))) == distinct
    rows = [line for values, index in blocks for line in values[index].tolist()]
    assert _bits(rows) == _bits(optimal_success_phase_plane(n, grid))
