import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groversim import LocalGateParams, basis_state, equal_superposition, kernels, prepare_ansatz_state
from conftest import random_state


def _dense_runs(amps, marked_sets, tau):
    """State vectors after 0..tau steps, indexed [step, marked set, amplitude].

    The dense reference every kernel is checked against: each step flips
    the marked amplitudes of the whole vector, then reflects all of them
    about their mean.
    """
    dim = len(amps)
    flip = np.zeros((len(marked_sets), dim), dtype=bool)
    for row, marked in zip(flip, marked_sets):
        row[list(marked)] = True
    v = np.repeat(np.asarray(amps, dtype=np.complex128)[None, :], len(marked_sets), axis=0)
    runs = [v]
    for _ in range(tau):
        v = np.where(flip, -v, v)
        v = 2.0 * v.mean(axis=1, keepdims=True) - v
        runs.append(v)
    return np.array(runs), flip


def _edge_states(n, rng):
    return {
        "basis": basis_state(n).amplitudes,
        "uniform": equal_superposition(n).amplitudes,
        "random": random_state(n, rng).amplitudes,
        "ansatz": prepare_ansatz_state(n, LocalGateParams(0.3, 1.1, 0.6)).amplitudes,
    }


def _edge_cells(rng):
    """Every edge state and r at n = 3, 4 with all its marked sets."""
    for n in (3, 4):
        dim = 2**n
        for kind, amps in _edge_states(n, rng).items():
            for r in (1, 2, dim - 1, dim):
                combos = list(itertools.combinations(range(dim), r))
                yield f"{kind} state, n={n} r={r}", amps, r, combos


def test_trajectory_agrees_with_stepwise_evolve(rng):
    for label, amps, _, combos in _edge_cells(rng):
        # a spread of marked sets, the last one included; the average test takes all
        picked = combos[:: max(1, len(combos) // 3)] + combos[-1:]
        runs, flip = _dense_runs(amps, picked, 200)
        masses = np.sum(np.abs(runs) ** 2, axis=2, where=flip)
        for i, c in enumerate(picked):
            marked = np.array(c, dtype=np.int64)
            for tau in (0, 1, 200):
                msg = f"{label} marked={c} tau={tau}"
                np.testing.assert_allclose(
                    kernels.success_trajectory(amps, marked, tau), masses[: tau + 1, i],
                    rtol=0, atol=1e-12, err_msg=msg,
                )
                np.testing.assert_allclose(
                    kernels.grover_evolve(amps, marked, tau), runs[tau, i],
                    rtol=0, atol=1e-12, err_msg=msg,
                )


def test_average_matches_naive_enumeration(rng):
    for label, amps, r, combos in _edge_cells(rng):
        runs, flip = _dense_runs(amps, combos, 200)
        naive = np.sum(np.abs(runs) ** 2, axis=2, where=flip).mean(axis=1)
        for tau in (0, 1, 200):
            got = kernels.average_trajectory(amps, r, tau)
            np.testing.assert_allclose(
                got, naive[: tau + 1], rtol=0, atol=1e-12, err_msg=f"{label} tau={tau}",
            )


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    tau=st.integers(0, 60),
    data=st.data(),
)
def test_evolve_matches_dense_steps_on_random_marked_sets(seed, n, tau, data):
    dim = 2**n
    marked = data.draw(
        st.lists(st.integers(0, dim - 1), min_size=1, max_size=dim, unique=True)
    )
    amps = random_state(n, np.random.default_rng(seed)).amplitudes
    np.testing.assert_allclose(
        kernels.grover_evolve(amps, marked, tau), _dense_runs(amps, [marked], tau)[0][-1, 0],
        rtol=0, atol=1e-12,
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
        rest = np.mean(
            [np.abs(_dense_runs(amps, [(i,)], 2)[0][:, 0, i]) ** 2 for i in range(1024)],
            axis=0,
        )
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
