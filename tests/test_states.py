import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groversim import (
    MAX_QUBITS,
    LocalGateParams,
    MarkedSet,
    PureState,
    SingleQubitGate,
    SmallDensityMatrix,
    StateMixture,
    apply_diffusion,
    apply_oracle,
    apply_product_unitary,
    basis_state,
    equal_superposition,
    fidelity_with,
    grover_iterate,
    make_objective,
    prepare_ansatz_state,
    success_mass,
)
from conftest import random_state

HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)


def test_basis_state_puts_unit_mass_on_one_index():
    s = basis_state(3, 5)
    assert s.dimension == 8
    assert s.amplitudes[5] == 1.0
    assert np.count_nonzero(s.amplitudes) == 1
    with pytest.raises(ValueError, match="basis index 4 out of range for n=2"):
        basis_state(2, 4)
    with pytest.raises(ValueError, match="basis index must be an integer, got 2.0"):
        basis_state(3, 2.0)
    assert basis_state(3, np.int64(5)).amplitudes[5] == 1.0


def test_numpy_integer_qubit_counts_are_ints():
    # one integer rule: a numpy integer is as good as an int, and is kept as one
    s = basis_state(np.int64(3), np.int32(5))
    assert s.n == 3 and type(s.n) is int
    assert s.amplitudes[5] == 1.0
    assert type(equal_superposition(np.uint8(2)).n) is int
    with pytest.raises(ValueError, match="qubit count must be an integer, got 3.0"):
        basis_state(3.0)
    with pytest.raises(ValueError, match=r"qubit count must be an int in \[1, 20\], got 21"):
        basis_state(np.int64(21))


def test_equal_superposition_is_uniform():
    s = equal_superposition(4)
    np.testing.assert_allclose(s.amplitudes, np.full(16, 0.25))


def test_rejects_unnormalized_amplitudes():
    with pytest.raises(ValueError, match="not normalized"):
        PureState(1, np.array([1.0, 1.0]))


def test_rejects_wrong_length():
    with pytest.raises(ValueError):
        PureState(2, np.array([1.0, 0.0]))


@pytest.mark.parametrize("n", [0, -1, MAX_QUBITS + 1, 1.5])
def test_rejects_bad_qubit_count(n):
    with pytest.raises(ValueError):
        basis_state(n)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build, message", [
    (lambda: PureState(1, [NAN, 1.0]), "not normalized"),
    (lambda: PureState(1, [INF, 0.0]), "not normalized"),
    (lambda: SingleQubitGate([[NAN, 0.0], [0.0, 1.0]]), "not unitary"),
    (lambda: SmallDensityMatrix([[NAN, 0.0], [0.0, 1.0]]), "not Hermitian"),
    (lambda: SmallDensityMatrix([[0.5, NAN], [NAN, 0.5]]), "not Hermitian"),
    (lambda: LocalGateParams(NAN, 0.0, 0.5), "alpha must be finite"),
    (lambda: LocalGateParams(0.0, INF, 0.5), "beta must be finite"),
], ids=["state-nan", "state-inf", "gate-nan", "density-nan-diagonal", "density-nan-coherence",
        "phase-alpha-nan", "phase-beta-inf"])
def test_non_finite_entries_are_rejected(build, message):
    # A tolerance check written `x > tol` is false for NaN and would let these through.
    with pytest.raises(ValueError, match=message):
        build()


def test_amplitudes_are_read_only():
    s = basis_state(2)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


def test_a_writeable_array_is_copied_so_later_writes_miss_the_state():
    amps = np.zeros(4, dtype=np.complex128)
    amps[1] = 1.0
    s = PureState(2, amps)
    amps[1], amps[2] = 0.0, 1.0
    assert s.amplitudes.tolist() == [0, 1, 0, 0]
    assert not s.amplitudes.flags.writeable
    with pytest.raises(ValueError):
        s.amplitudes[1] = 0.0
    # a read-only view is copied too: its base may still be written
    base = np.array([1.0, 0.0], dtype=np.complex128)
    view = base[:]
    view.setflags(write=False)
    assert PureState(1, view).amplitudes is not view


def test_a_read_only_owning_complex_array_is_taken_over():
    amps = np.array([0.0, 1.0], dtype=np.complex128)
    amps.setflags(write=False)
    assert PureState(1, amps).amplitudes is amps
    s = equal_superposition(3)
    assert PureState(3, s.amplitudes).amplitudes is s.amplitudes
    # another dtype is converted into a new array
    real = np.array([0.0, 1.0])
    real.setflags(write=False)
    assert PureState(1, real).amplitudes.dtype == np.complex128


@pytest.mark.parametrize("build", [
    lambda: equal_superposition(16).amplitudes,
    lambda: basis_state(16, 12345).amplitudes,
    lambda: prepare_ansatz_state(16, LocalGateParams(0.3, 0.35, 0.78)).amplitudes,
    lambda: make_objective("uniform", 16, 0).values,
    lambda s=equal_superposition(16): apply_oracle(s, MarkedSet((3, 9))).amplitudes,
    lambda s=equal_superposition(16): apply_diffusion(s).amplitudes,
    lambda s=equal_superposition(16): grover_iterate(s, MarkedSet((3, 9)), 5).amplitudes,
], ids=["uniform", "basis", "ansatz", "objective", "oracle", "diffusion", "iterate"])
def test_a_library_vector_is_built_once(build):
    # a copy on the way into the state or table would peak at twice the output;
    # the first call also pays numpy.random's one-time set-up (about 1 MiB)
    build()
    tracemalloc.start()
    try:
        out = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.nbytes == 2**16 * out.itemsize and not out.flags.writeable
    assert peak <= 1.25 * out.nbytes


def test_norm_tolerance_is_tight():
    # off by 2e-10 in the squared norm: rejected
    amps = np.zeros(2, dtype=np.complex128)
    amps[0] = math.sqrt(1.0 + 2e-10)
    with pytest.raises(ValueError):
        PureState(1, amps)
    # off by less than 1e-10: accepted
    amps[0] = math.sqrt(1.0 + 0.5e-10)
    PureState(1, amps)


def test_gate_must_be_unitary():
    with pytest.raises(ValueError, match="unitary"):
        SingleQubitGate(np.array([[1.0, 0.0], [0.0, 2.0]]))
    SingleQubitGate(HADAMARD)


def test_gate_must_be_2x2():
    with pytest.raises(ValueError):
        SingleQubitGate(np.eye(3))


def test_hadamard_on_all_qubits_gives_uniform_state():
    gate = SingleQubitGate(HADAMARD)
    for n in range(1, 5):
        out = apply_product_unitary(basis_state(n), gate)
        assert fidelity_with(out, equal_superposition(n)) == pytest.approx(1.0, abs=1e-12)


def test_product_unitary_matches_explicit_kron(rng):
    # random unitary from QR, applied the slow way
    m, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    gate = SingleQubitGate(m)
    psi = random_state(3, rng)
    big = np.kron(np.kron(m, m), m)
    expected = big @ psi.amplitudes
    out = apply_product_unitary(psi, gate)
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5))
def test_product_unitary_preserves_norm(seed, n):
    rng = np.random.default_rng(seed)
    m, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    out = apply_product_unitary(random_state(n, rng), SingleQubitGate(m))
    assert abs(np.vdot(out.amplitudes, out.amplitudes).real - 1.0) < 1e-12


def test_fidelity_basics(rng):
    psi = random_state(4, rng)
    assert fidelity_with(psi, psi) == pytest.approx(1.0, abs=1e-12)
    assert fidelity_with(basis_state(2, 0), basis_state(2, 3)) == 0.0
    with pytest.raises(ValueError, match="dimension"):
        fidelity_with(basis_state(1), basis_state(2))


def test_fidelity_ignores_global_phase(rng):
    psi = random_state(3, rng)
    rotated = PureState(3, np.exp(0.731j) * psi.amplitudes)
    assert fidelity_with(rotated, psi) == pytest.approx(1.0, abs=1e-12)


def test_success_mass_accepts_plain_sequences():
    s = equal_superposition(2)
    assert success_mass(s, [0, 3]) == pytest.approx(0.5)
    assert success_mass(s, ()) == 0.0


def test_success_mass_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        success_mass(basis_state(2), [4])


def _marked_set_error(indices, dimension) -> str:
    try:
        MarkedSet(indices).validate_for(dimension)
    except ValueError as err:
        return str(err)
    raise AssertionError(f"MarkedSet accepts {indices!r}")


@pytest.mark.parametrize("indices", [[1.5], ["3"], [0, 0], np.array([0.0, 3.0]), [0, 0, 0, 0, 0], [-1], [4]],
                         ids=["float", "string", "repeat", "float-array", "five-repeats", "negative", "past-N"])
def test_success_mass_refuses_what_marked_set_refuses(indices):
    with pytest.raises(ValueError) as caught:
        success_mass(equal_superposition(2), indices)
    assert str(caught.value) == _marked_set_error(indices, 4)


@settings(deadline=None, max_examples=200)
@given(n=st.integers(1, 3), indices=st.lists(
    st.one_of(st.integers(-2, 9), st.floats(-2, 9), st.sampled_from(["0", "1", "x"])), max_size=6,
))
def test_success_mass_reads_the_marked_set_rule(n, indices):
    psi = random_state(n, np.random.default_rng(len(indices)))
    try:
        mass = success_mass(psi, indices)
    except ValueError as err:
        assert str(err) == _marked_set_error(indices, 2**n)
        return
    picked = MarkedSet(indices).indices if indices else ()
    assert mass == pytest.approx(math.fsum(abs(psi.amplitudes[i]) ** 2 for i in picked), abs=1e-15)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1))
def test_success_mass_complement_sums_to_one(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    psi = random_state(n, rng)
    marked = sorted(rng.choice(2**n, size=int(rng.integers(1, 2**n)), replace=False))
    rest = sorted(set(range(2**n)) - set(marked))
    total = success_mass(psi, marked) + (success_mass(psi, rest) if rest else 0.0)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_mixture_validation():
    a, b = basis_state(1, 0), basis_state(1, 1)
    StateMixture(((0.25, a), (0.75, b)))
    with pytest.raises(ValueError, match="sum"):
        StateMixture(((0.25, a), (0.5, b)))
    with pytest.raises(ValueError, match="at least one"):
        StateMixture(())
    with pytest.raises(ValueError):
        StateMixture(((0.0, a), (1.0, b)))
    with pytest.raises(ValueError, match="same qubit count"):
        StateMixture(((0.5, a), (0.5, basis_state(2))))
    with pytest.raises(ValueError, match="not a PureState"):
        StateMixture(((1.0, a.amplitudes),))


def test_mixture_exposes_shared_shape():
    mix = StateMixture(((1.0, equal_superposition(3)),))
    assert mix.n == 3
    assert mix.dimension == 8
