import itertools
import tracemalloc

import numpy as np
import pytest

from groversim import LocalGateParams, basis_state, equal_superposition, kernels, prepare_ansatz_state
from conftest import random_state


def test_trajectory_agrees_with_stepwise_evolve(rng):
    amps = random_state(4, rng).amplitudes
    marked = np.array([0, 9], dtype=np.int64)
    traj = kernels.success_trajectory(amps, marked, 5)
    for t in range(6):
        v = kernels.grover_evolve(amps, marked, t)
        expected = np.sum(np.abs(v[marked]) ** 2)
        assert abs(traj[t] - expected) < 1e-13


def _edge_states(n, rng):
    return {
        "basis": basis_state(n).amplitudes,
        "uniform": equal_superposition(n).amplitudes,
        "random": random_state(n, rng).amplitudes,
        "ansatz": prepare_ansatz_state(n, LocalGateParams(0.3, 1.1, 0.6)).amplitudes,
    }


def test_average_matches_naive_enumeration(rng):
    # the dense reference: every subset stepped on the full state vector
    for n in (3, 4):
        dim = 2**n
        for kind, amps in _edge_states(n, rng).items():
            for r in (1, 2, dim - 1, dim):
                combos = list(itertools.combinations(range(dim), r))
                naive = sum(
                    kernels.success_trajectory(amps, np.array(c, dtype=np.int64), 200)
                    for c in combos
                ) / len(combos)
                for tau in (0, 1, 200):
                    got = kernels.average_trajectory(amps, r, tau)
                    np.testing.assert_allclose(
                        got, naive[: tau + 1], rtol=0, atol=1e-12,
                        err_msg=f"{kind} state, n={n} r={r} tau={tau}",
                    )


def test_average_chunking_perturbs_nothing_beyond_roundoff(rng, monkeypatch):
    amps = random_state(4, rng).amplitudes
    expected = kernels.average_trajectory(amps, 2, 3)
    # one subset per chunk: the most chunks the enumeration can be cut into
    monkeypatch.setattr(kernels, "_CHUNK_ELEMENTS", 1)
    chunked = kernels.average_trajectory(amps, 2, 3)
    np.testing.assert_allclose(chunked, expected, rtol=0, atol=1e-14)
    # and a fixed configuration is bit-for-bit repeatable
    np.testing.assert_array_equal(kernels.average_trajectory(amps, 2, 3), chunked)


@pytest.mark.parametrize("r", [1023, 1024])
def test_average_workspace_is_bounded_at_the_largest_r(rng, monkeypatch, r):
    # C(1024, 1023) subsets hold 2**20 marked amplitudes (16 MiB) in all;
    # a chunk of 4096 of them is 64 KiB
    amps = random_state(10, rng).amplitudes
    monkeypatch.setattr(kernels, "_CHUNK_ELEMENTS", 4096)
    tracemalloc.start()
    try:
        got = kernels.average_trajectory(amps, r, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    if r == 1024:
        np.testing.assert_allclose(got, 1.0, rtol=0, atol=1e-12)
    else:
        # the oracle marking all but index i is minus the one marking i, so
        # the two runs differ by a global sign and their masses add up to 1
        rest = sum(
            kernels.success_trajectory(amps, np.array([i], dtype=np.int64), 2)
            for i in range(1024)
        ) / 1024
        np.testing.assert_allclose(got, 1.0 - rest, rtol=0, atol=1e-12)


def test_zero_iterations_is_identity(rng):
    amps = random_state(3, rng).amplitudes
    marked = np.array([1], dtype=np.int64)
    np.testing.assert_array_equal(kernels.grover_evolve(amps, marked, 0), amps)


def test_kernels_leave_their_input_untouched(rng):
    amps = random_state(3, rng).amplitudes
    before = amps.copy()
    kernels.grover_evolve(amps, [2, 5], 3)
    kernels.success_trajectory(amps, [2, 5], 3)
    kernels.average_trajectory(amps, 2, 3)
    np.testing.assert_array_equal(amps, before)


def test_dispatch_coerces_inputs():
    out = kernels.grover_evolve([1.0, 0.0], (0,), 1)
    assert out.dtype == np.complex128
    np.testing.assert_allclose(out, [0.0, -1.0], atol=1e-15)
