import itertools
import math
import tracemalloc
from unittest import mock

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


def _numpy_evolve(amps, marked, tau):
    """grover_evolve as it was before the scalar loop: four numpy calls per step at every r.

    Kept verbatim as the reference the kernel must match bit for bit.
    """
    out = np.array(amps, dtype=np.complex128)
    if tau == 0:
        return out
    dim = out.shape[0]
    marked = np.asarray(marked, dtype=np.intp)
    picked = out[marked]
    total = out.sum()
    shift = 0.0
    for _ in range(tau):
        total -= 2.0 * picked.sum()
        picked += (2.0 / dim) * total
        shift = (2.0 / dim) * total - shift
    if tau % 2:
        np.negative(out, out=out)
    out += shift
    out[marked] = picked
    return out


def _numpy_trajectory(amps, marked, tau_max):
    """success_trajectory as it was before the scalar loop, kept verbatim as the reference."""
    amps = np.asarray(amps, dtype=np.complex128)
    dim = amps.shape[0]
    picked = amps[np.asarray(marked, dtype=np.intp)]
    parts = picked.view(np.float64)                      # real and imaginary parts
    total = amps.sum()
    out = np.empty(tau_max + 1, dtype=np.float64)
    out[0] = np.sum(parts * parts)
    for t in range(1, tau_max + 1):
        total -= 2.0 * picked.sum()
        picked += (2.0 / dim) * total
        out[t] = np.sum(parts * parts)
    return out


def _same_bits(got, want, msg=""):
    """Equal bit for bit: the sign of a zero counts, as it does not for ==."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, msg
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64), err_msg=msg)


@settings(deadline=None, max_examples=250)
@given(
    kind=st.sampled_from(["uniform", "basis", "random", "ansatz", "zero"]),
    n=st.integers(1, 9),
    tau=st.integers(0, 300),
    chunk=st.sampled_from([1, 7, kernels._TRACE_CHUNK]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_kernels_match_the_numpy_loop_bit_for_bit(kind, n, tau, chunk, seed, data):
    # r <= 3 steps Python complex numbers, r = 4 the numpy loop; "zero" zeroes the marked amplitudes
    dim = 2**n
    r = data.draw(st.integers(1, min(4, dim)), label="r")
    marked = data.draw(st.lists(st.integers(0, dim - 1), min_size=r, max_size=r, unique=True), label="marked")
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        amps = equal_superposition(n).amplitudes
    elif kind == "basis":
        amps = basis_state(n, int(rng.integers(dim))).amplitudes
    elif kind == "ansatz":
        alpha, beta = rng.uniform(-math.pi, math.pi, size=2)
        amps = prepare_ansatz_state(n, LocalGateParams(alpha, beta, rng.uniform(0, math.pi / 2))).amplitudes
    else:
        amps = random_state(n, rng).amplitudes.copy()
        if kind == "zero":
            amps[marked] = 0.0
    total = complex(np.sum(amps))
    with mock.patch.object(kernels, "_TRACE_CHUNK", chunk):
        trajectory = _numpy_trajectory(amps, marked, tau)
        _same_bits(kernels.success_trajectory(amps, marked, tau), trajectory)
        chunks = list(kernels.success_chunks(amps, marked, tau, total))
        assert all(1 <= len(c) <= chunk for c in chunks[1:]) and len(chunks[0]) == 1
        _same_bits(np.concatenate(chunks), trajectory)
    evolved = _numpy_evolve(amps, marked, tau)
    _same_bits(kernels.grover_evolve(amps, marked, tau), evolved)
    _same_bits(kernels.grover_evolve(amps, marked, tau, total), evolved)


def test_four_states_repeat_a_quarter_one_and_a_quarter_exactly():
    # N = 4, r = 1: theta = pi/3, so the success mass is sin^2((2t + 1) pi/6)
    tau = 1_000_000
    got = kernels.success_trajectory(equal_superposition(2).amplitudes, [2], tau)
    np.testing.assert_array_equal(got, np.resize([0.25, 1.0, 0.25], tau + 1))


def test_average_chunking_perturbs_nothing_beyond_roundoff(rng, monkeypatch):
    amps = random_state(4, rng).amplitudes
    expected = kernels.average_trajectory(amps, 2, 3)
    # one subset per chunk: the most chunks the enumeration can be cut into
    monkeypatch.setattr(kernels, "_CHUNK_ELEMENTS", 1)
    chunked = kernels.average_trajectory(amps, 2, 3)
    np.testing.assert_allclose(chunked, expected, rtol=0, atol=1e-14)
    # and a fixed configuration is bit-for-bit repeatable
    np.testing.assert_array_equal(kernels.average_trajectory(amps, 2, 3), chunked)


def _itertools_average_trajectory(amps, r, tau_max):
    """The all-subsets kernel as it was before unranking: itertools builds the index blocks.

    Kept verbatim, but for reading the chunk size from the module, as the
    reference the unranking kernel must match bit for bit.
    """
    amps = np.asarray(amps, dtype=np.complex128)
    dim = amps.shape[0]
    count = math.comb(dim, r)
    rows = max(1, kernels._CHUNK_ELEMENTS // r)
    start_total = amps.sum()
    partials: list[list[float]] = [[] for _ in range(tau_max + 1)]
    combos = itertools.combinations(range(dim), r)
    for start in range(0, count, rows):
        k = min(rows, count - start)
        flat = itertools.chain.from_iterable(itertools.islice(combos, k))
        sel = np.fromiter(flat, dtype=np.intp, count=k * r).reshape(k, r)
        marked = np.ascontiguousarray(amps[sel].T)      # (r, k): one column per subset
        parts = marked.view(np.float64)                  # real and imaginary parts
        total = np.full(k, start_total)
        partials[0].append(float(np.sum(parts * parts)))
        for t in range(1, tau_max + 1):
            total -= 2.0 * marked.sum(axis=0)
            marked += (2.0 / dim) * total
            partials[t].append(float(np.sum(parts * parts)))
    out = np.array([math.fsum(p) for p in partials], dtype=np.float64)
    return out / count


def _lex_rank(subset, dim):
    """Rank of a sorted subset in itertools.combinations order, by counting the subsets before it."""
    r, rank, low = len(subset), 0, 0
    for i, x in enumerate(subset):
        rank += sum(math.comb(dim - 1 - y, r - 1 - i) for y in range(low, x))
        low = x + 1
    return rank


@pytest.mark.parametrize("chunk", [1, 3, 7, kernels._CHUNK_ELEMENTS])
def test_index_blocks_follow_itertools_order(monkeypatch, chunk):
    monkeypatch.setattr(kernels, "_CHUNK_ELEMENTS", chunk)
    for dim in range(1, 13):
        for r in range(1, dim + 1):
            blocks = list(kernels._index_blocks(dim, r))
            rows = max(1, chunk // r)
            assert [b.shape for b in blocks[:-1]] == [(r, rows)] * (len(blocks) - 1)
            assert 1 <= blocks[-1].shape[1] <= rows
            assert all(b.dtype == np.intp and b.flags.c_contiguous for b in blocks)
            np.testing.assert_array_equal(
                np.concatenate(blocks, axis=1).T, list(itertools.combinations(range(dim), r)),
                err_msg=f"dim={dim} r={r} chunk={chunk}",
            )


@settings(deadline=None, max_examples=100)
@given(dim=st.integers(1, 64), data=st.data())
def test_index_blocks_unrank_any_rank_range(dim, data):
    r = data.draw(st.integers(1, dim))
    count = math.comb(dim, r)
    start = data.draw(st.integers(0, count - 1))
    stop = data.draw(st.integers(start + 1, min(count, start + 40)))
    block = np.concatenate(list(kernels._index_blocks(dim, r, start, stop)), axis=1)
    assert block.shape == (r, stop - start)
    assert (np.diff(block, axis=0) > 0).all() and block[0].min() >= 0 and block[-1].max() < dim
    assert [_lex_rank(col.tolist(), dim) for col in block.T] == list(range(start, stop))


def test_index_blocks_reach_the_last_int64_rank():
    # C(66, 33) = 7.2e18 is just below 2**63; C(67, 33) = 1.4e19 is above it
    count = math.comb(66, 33)
    assert kernels.subset_count(66, 33) == count < 2**63 < math.comb(67, 33)
    block = next(kernels._index_blocks(66, 33, count - 3))
    assert [_lex_rank(col.tolist(), 66) for col in block.T] == [count - 3, count - 2, count - 1]
    with pytest.raises(ValueError, match="more subsets than int64 ranks can enumerate"):
        next(kernels._index_blocks(67, 33))
    with pytest.raises(ValueError, match="more subsets than int64 ranks can enumerate"):
        kernels.average_trajectory(np.ones(128) / math.sqrt(128), 64, 0)


def test_subset_count_is_exact_up_to_int64():
    for dim in range(0, 90):
        for r in range(0, dim + 2):
            exact = math.comb(dim, r)
            assert kernels.subset_count(dim, r) == (exact if exact <= kernels.MAX_SUBSETS else None)


def _identity_cells(chunk):
    """(n, r) cells with n <= 8 and r <= 4; chunks of a few subsets get the smaller ones."""
    most = 40_000 if chunk >= 4096 else 260
    return [(n, r) for n in range(1, 9) for r in range(1, min(4, 2**n) + 1) if math.comb(2**n, r) <= most]


@pytest.mark.parametrize("chunk", [1, 7, 4096, kernels._CHUNK_ELEMENTS])
def test_average_is_bit_identical_to_the_itertools_kernel(rng, monkeypatch, chunk):
    monkeypatch.setattr(kernels, "_CHUNK_ELEMENTS", chunk)
    for n, r in _identity_cells(chunk):
        states = {"basis": basis_state(n), "uniform": equal_superposition(n), "random": random_state(n, rng)}
        for kind, psi in states.items():
            np.testing.assert_array_equal(
                kernels.average_trajectory(psi.amplitudes, r, 3),
                _itertools_average_trajectory(psi.amplitudes, r, 3),
                err_msg=f"{kind} state, n={n} r={r} chunk={chunk}",
            )


def _group_cells(most):
    """(n, r, tau): n = 1..10, r = 1..4, N-1 and N with at most `most` subsets, and r = 15 at n = 4.

    r = 15 at n = 4 decodes the one missing index of each subset; tau runs
    to 30 on the cells of up to 64 subsets.
    """
    cells = {(4, 15)}
    for n in range(1, 11):
        dim = 2**n
        cells.update((n, r) for r in (1, 2, 3, 4, dim - 1, dim) if 1 <= r <= dim and math.comb(dim, r) <= most)
    return [(n, r, 30 if math.comb(2**n, r) <= 64 else 4) for n, r in sorted(cells)]


@pytest.mark.parametrize("chunk", [7, kernels._CHUNK_ELEMENTS])
def test_a_group_steps_each_state_as_it_would_alone_bit_for_bit(rng, monkeypatch, chunk):
    monkeypatch.setattr(kernels, "_CHUNK_ELEMENTS", chunk)
    for n, r, tau in _group_cells(300 if chunk < 4096 else 10_000):
        states = [basis_state(n, 2**n - 1).amplitudes] + [random_state(n, rng).amplitudes for _ in range(2)]
        alone = np.array([kernels.average_trajectory(amps, r, tau) for amps in states])
        for amps, got in zip(states, alone):
            np.testing.assert_array_equal(got, _itertools_average_trajectory(amps, r, tau),
                                          err_msg=f"n={n} r={r} tau={tau} chunk={chunk}")
        for size in (1, 2, 3):
            np.testing.assert_array_equal(kernels.average_trajectories(np.array(states[:size]), r, tau),
                                          alone[:size], err_msg=f"{size} states, n={n} r={r} chunk={chunk}")
    # a group of one state more than fills a batch of _CHUNK_ELEMENTS marked amplitudes
    n, r, tau = 5, 2, 6
    width = min(math.comb(2**n, r), chunk // r)
    states = np.array([random_state(n, rng).amplitudes for _ in range(chunk // (r * width) + 1)])
    assert len(states) * r * width > chunk
    np.testing.assert_array_equal(kernels.average_trajectories(states, r, tau),
                                  [_itertools_average_trajectory(amps, r, tau) for amps in states])


@pytest.mark.parametrize("dim, r, tau, size", [
    (2, 1, 0, kernels._CHUNK_ELEMENTS // 2),        # the amplitudes fill the group
    (64, 3, 8, kernels._CHUNK_ELEMENTS // 64),      # C(64, 3) takes two index blocks
    (64, 3, 4095, 8),                               # the chunk sums fill the group
    (2**16, 1, 3, 1),
    (2**20, 1, 3, 1),
])
def test_group_size_bounds_amplitudes_and_chunk_sums(dim, r, tau, size):
    assert kernels.group_size(dim, r, tau) == size


def test_average_workspace_is_bounded_at_r_2(rng, monkeypatch):
    # r = 2 decodes through the longest binomial table, N - 1 entries; the
    # C(2048, 2) subsets come in chunks of 2048
    amps = random_state(11, rng).amplitudes
    monkeypatch.setattr(kernels, "_CHUNK_ELEMENTS", 4096)
    tracemalloc.start()
    try:
        got = kernels.average_trajectory(amps, 2, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # every index lies in 2047 of the pairs, so the mean marked mass is 2/N
    np.testing.assert_allclose(got, [2 / 2048], rtol=1e-12, atol=0)


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
