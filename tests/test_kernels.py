import itertools

import numpy as np

from groversim import kernels
from conftest import random_state


def test_trajectory_agrees_with_stepwise_evolve(rng):
    amps = random_state(4, rng).amplitudes
    marked = np.array([0, 9], dtype=np.int64)
    traj = kernels.success_trajectory(amps, marked, 5)
    for t in range(6):
        v = kernels.grover_evolve(amps, marked, t)
        expected = np.sum(np.abs(v[marked]) ** 2)
        assert abs(traj[t] - expected) < 1e-13


def test_average_matches_naive_enumeration(rng):
    amps = random_state(3, rng).amplitudes
    r, tau = 2, 4
    naive = np.zeros(tau + 1)
    combos = list(itertools.combinations(range(8), r))
    for combo in combos:
        marked = np.array(combo, dtype=np.int64)
        naive += kernels.success_trajectory(amps, marked, tau)
    naive /= len(combos)
    got = kernels.average_trajectory(amps, r, tau)
    np.testing.assert_allclose(got, naive, atol=1e-13)


def test_average_chunking_perturbs_nothing_beyond_roundoff(rng, monkeypatch):
    # shrink the chunk budget so several chunks are exercised
    amps = random_state(4, rng).amplitudes
    expected = kernels.average_trajectory(amps, 2, 3)
    monkeypatch.setattr(kernels, "_CHUNK_ELEMENTS", 64)
    chunked = kernels.average_trajectory(amps, 2, 3)
    np.testing.assert_allclose(chunked, expected, rtol=0, atol=1e-14)
    # and a fixed configuration is bit-for-bit repeatable
    np.testing.assert_array_equal(kernels.average_trajectory(amps, 2, 3), chunked)


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
