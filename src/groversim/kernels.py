"""Hot numeric kernels, written with numpy.

One Grover step on an amplitude vector v with marked index set M:
flip the sign of v on M, then reflect about the mean, v -> 2 mean(v) - v.

The unmarked amplitudes reach the marked ones only through the mean, so
every kernel here steps just the r marked amplitudes A and the total
T = sum(v) (Biham et al., PRA 60, 2742, 1999):

    T <- T - 2 sum(A),    A <- A + (2/N) T,

which is the same oracle-and-diffusion arithmetic at O(r) per step
instead of O(N). Every unmarked amplitude x evolves as
(-1)^t v0[x] + c_t, with one shared scalar c_0 = 0,
c_{t+1} = (2/N) T_{t+1} - c_t, so a final state vector costs one O(N)
assembly after the steps. A marked index set must hold distinct in-range
indices (MarkedSet guarantees both): a repeated index would be counted
twice in sum(A).

The single-set kernels (grover_evolve, success_trajectory) step A as
Python complex numbers while its 2r floats number fewer than 8, that is
for r <= 3, and as a numpy array from r = 4 on; both paths give the same
bits. Every multiply in the recurrence is by 2 or 2/N, powers of two for
N = 2**n, so none rounds, fused with an add or not, and the zero cross
terms of numpy's complex-by-real product (2 re - 0 im, 2 im + 0 re) change
nothing. Below 8 floats numpy's add-reduce is one loop in index order from
zero, as `s = 0j; s += a` over A is, and the marked mass is
re0**2 + im0**2 + re1**2 + ... in that order too. From 8 floats on numpy
sums with 8 accumulators, which rounds otherwise, so r >= 4 keeps the
numpy loop. success_chunks yields the trace _TRACE_CHUNK steps at a time,
carrying A and T from one list to the next, so a caller can write a trace
of any length in bounded memory.

The all-subsets average steps subsets in lexicographic chunks of at most
_CHUNK_ELEMENTS marked amplitudes (one subset when r is larger), so the
workspace does not grow with C(N, r). Each chunk is summed with np.sum and
the chunk subtotals are added exactly (math.fsum), so the subset average is
run-to-run deterministic.

A group of S states shares one enumeration (average_trajectories): each
chunk's index block is decoded once and gathered from the states in
(s, r, k) batches of at most _CHUNK_ELEMENTS marked amplitudes (one state
when a block alone fills that), into buffers that every batch and step of
the block reuses. Every state still sums its own C-contiguous (r, k) slice
of each chunk and adds its own chunk subtotals, so a state's average does
not depend on the group it came in; a single state is a group of one.
group_size says how many states to pass at once.

A chunk's (r, k) index block is built with numpy by unranking, not by
iterating: lexicographic rank j of an r-subset is colex rank C(N, r)-1-j of
its mirror {N-1-x}, and colex rank m decodes one element per level, the
largest d with C(d, l) <= m at level l. Above r = N/2 the block decodes the
N-r missing indices instead (the mirror of the j-th subset's complement has
colex rank j) and fills in the rest arithmetically, so a chunk costs
q = min(r, N-r) levels of np.searchsorted. Level l's table holds C(d, l) for
the N-q+1 values d can take there, and level 1 needs none (C(d, 1) = d). The
q-1 tables are built once per call, so beside the chunk's O(_CHUNK_ELEMENTS)
arrays the workspace holds (q-1)(N-q+1) int64 entries: 2**11 - 1 of them at
N = 2**11, r = 2. Ranks are int64, so an enumeration holds at most
MAX_SUBSETS = 2**63 - 1 subsets.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

# Marked amplitudes per subset-averaging chunk: 1 MiB of complex128.
_CHUNK_ELEMENTS = 1 << 16
# Below this many float64 addends, numpy's add-reduce is one loop in index order.
_SEQUENTIAL_FLOATS = 8
# Steps per list of success_chunks.
_TRACE_CHUNK = 512
# The most subsets one enumeration can rank in int64.
MAX_SUBSETS = 2**63 - 1


def subset_count(dim: int, r: int) -> int | None:
    """C(dim, r), or None when it exceeds MAX_SUBSETS.

    Multiplies up C(dim, k+1) = C(dim, k)(dim-k)/(k+1) for k < min(r, dim-r).
    These partial counts never decrease, so the product stops as soon as one
    passes MAX_SUBSETS: refusing C(2**20, 2**19) takes a few steps, not the
    seconds its exact value would.
    """
    if r > dim:
        return 0
    count = 1
    for k in range(min(r, dim - r)):
        count = count * (dim - k) // (k + 1)
        if count > MAX_SUBSETS:
            return None
    return count


def grover_evolve(amps: np.ndarray, marked, tau: int, total: complex | None = None) -> np.ndarray:
    """Amplitudes after tau Grover steps with the given marked indices.

    `marked` must hold distinct indices in [0, len(amps)). total is
    np.sum(amps) when the caller has it, and is summed here otherwise. The
    input is never written; tau = 0 returns a copy of it.
    """
    out = np.array(amps, dtype=np.complex128)
    if tau == 0:
        return out
    marked = np.asarray(marked, dtype=np.intp)
    picked, step = _stepper(out[marked])
    picked, _, shift = step(picked, _start_total(out, total), 2.0 / out.shape[0], tau, None)
    if tau % 2:
        np.negative(out, out=out)
    out += shift
    out[marked] = picked
    return out


def success_trajectory(amps: np.ndarray, marked, tau_max: int) -> np.ndarray:
    """Marked-index probability mass after 0..tau_max Grover steps.

    `marked` must hold distinct indices in [0, len(amps)).
    """
    chunks = success_chunks(amps, marked, tau_max)
    return np.fromiter(itertools.chain.from_iterable(chunks), np.float64, count=tau_max + 1)


def success_chunks(amps: np.ndarray, marked, tau_max: int, total: complex | None = None):
    """success_trajectory's values in order: the start's mass alone, then lists of at most _TRACE_CHUNK.

    The marked amplitudes and the total are carried from one list to the
    next, so the trace is never held whole. total is np.sum(amps) when the
    caller has it.
    """
    amps = np.asarray(amps, dtype=np.complex128)
    gathered = amps[np.asarray(marked, dtype=np.intp)]
    parts = gathered.view(np.float64)                    # real and imaginary parts
    yield [float(np.sum(parts * parts))]
    picked, step = _stepper(gathered)
    total = _start_total(amps, total)
    scale = 2.0 / amps.shape[0]
    for first in range(0, tau_max, _TRACE_CHUNK):
        masses: list[float] = []
        picked, total, _ = step(picked, total, scale, min(_TRACE_CHUNK, tau_max - first), masses)
        yield masses


def _start_total(amps: np.ndarray, total: complex | None) -> complex:
    """total as a Python complex; np.sum(amps) when it is None."""
    return complex(amps.sum() if total is None else total)


def _stepper(picked: np.ndarray):
    """The marked amplitudes as the stepping loop for their count takes them, and that loop.

    Below _SEQUENTIAL_FLOATS floats, Python complex numbers (_scalar_steps);
    from there on, the complex128 array itself (_array_steps).
    """
    if 2 * picked.size < _SEQUENTIAL_FLOATS:
        return picked.tolist(), _scalar_steps
    return picked, _array_steps


def _scalar_steps(picked: list, total: complex, scale: float, steps: int, masses: list | None):
    """Take `steps` Grover steps on the marked amplitudes A and the total T; scale is 2/N.

    Appends the marked mass after each step to masses, unless it is None.
    Returns (A, T) after the last step and the shift c of the unmarked
    amplitudes, counted from c = 0 before the first. Sums run in list order
    from zero, the order numpy's add-reduce takes below _SEQUENTIAL_FLOATS.
    """
    shift = 0j
    for _ in range(steps):
        s = 0j
        for a in picked:
            s += a
        total -= 2.0 * s
        d = scale * total
        shift = d - shift
        picked = [a + d for a in picked]
        if masses is not None:
            m = 0.0
            for a in picked:
                m = m + a.real * a.real + a.imag * a.imag
            masses.append(m)
    return picked, total, shift


def _array_steps(picked: np.ndarray, total: complex, scale: float, steps: int, masses: list | None):
    """_scalar_steps on a complex128 array of marked amplitudes, which it steps in place."""
    parts = picked.view(np.float64)                      # real and imaginary parts
    shift = 0.0
    for _ in range(steps):
        total -= 2.0 * picked.sum()
        d = scale * total
        picked += d
        shift = d - shift
        if masses is not None:
            masses.append(float(np.sum(parts * parts)))
    return picked, total, shift


def _binomial_tables(width: int, levels: int) -> list[np.ndarray]:
    """C(l-1+j, l) for j < width, one table per level l = 2..levels.

    Pascal's rule C(d, l) = C(d-1, l) + C(d-1, l-1) makes each table the
    running sum of the one below it, shifted by one place.
    """
    tables = []
    table = np.arange(width, dtype=np.int64)             # C(j, 1) = j
    for _ in range(2, levels + 1):
        table = np.concatenate(([0], np.cumsum(table[1:])))
        tables.append(table)
    return tables


def _enumerable_count(dim: int, r: int) -> int:
    """C(dim, r); ValueError when int64 ranks cannot enumerate that many subsets."""
    count = subset_count(dim, r)
    if count is None:
        raise ValueError(f"C({dim}, {r}) is more subsets than int64 ranks can enumerate")
    return count


def _block_width(r: int) -> int:
    """Subsets per index block: as many as fill _CHUNK_ELEMENTS marked amplitudes, at least one."""
    return max(1, _CHUNK_ELEMENTS // r)


def _index_blocks(dim: int, r: int, start: int = 0, stop: int | None = None):
    """Yield the r-subsets of range(dim) of lexicographic rank start..stop-1 as index blocks.

    Each block is a C-contiguous (r, k) intp array, one sorted subset per
    column, in itertools.combinations order; blocks hold
    max(1, _CHUNK_ELEMENTS // r) subsets, the last one fewer. stop defaults
    to C(dim, r), which must not exceed MAX_SUBSETS.
    """
    count = _enumerable_count(dim, r)
    stop = count if stop is None else stop
    levels = min(r, dim - r)                             # decode the subset or its complement
    tables = _binomial_tables(dim - levels + 1, levels)
    ith = np.arange(r, dtype=np.intp)[:, None]
    rows = _block_width(r)
    for first in range(start, stop, rows):
        last = min(first + rows, stop)
        if levels == r:
            yield _unrank(np.arange(count - 1 - first, count - 1 - last, -1), dim, levels, tables)
        else:
            yield _fill_around(_unrank(np.arange(first, last), dim, levels, tables), ith)


def _unrank(ranks: np.ndarray, dim: int, levels: int, tables: list[np.ndarray]) -> np.ndarray:
    """The (levels, k) sorted subsets whose mirrors have these colex ranks."""
    out = np.empty((levels, ranks.shape[0]), dtype=np.intp)
    for i in range(levels - 1):
        table = tables[levels - 2 - i]                   # C(d, l) at level l = levels - i
        pos = table[1:].searchsorted(ranks, side="right")  # table[0] = 0 is at most every rank
        ranks = ranks - table[pos]
        np.subtract(dim - levels + i, pos, out=out[i])   # the mirror of d = l - 1 + pos
    if levels:
        np.subtract(dim - 1, ranks, out=out[-1])         # C(d, 1) = d
    return out


def _fill_around(missing: np.ndarray, ith: np.ndarray) -> np.ndarray:
    """The (r, k) sorted subsets that avoid each column of the sorted (q, k) `missing`.

    ith is the column arange(r)[:, None]. The i-th smallest kept index is i
    plus the number of missing ones below it, and missing[p] lies below it
    exactly when missing[p] - p <= i.
    """
    out = np.repeat(ith, missing.shape[1], axis=1)
    for p, row in enumerate(missing):
        out += row - p <= ith
    return out


def group_size(dim: int, r: int, tau_max: int) -> int:
    """How many states average_trajectories should take at once, at least one.

    A group's amplitudes fill at most _CHUNK_ELEMENTS, and so do its chunk
    sums: one per state, step count and index block. C(dim, r) must not
    exceed MAX_SUBSETS.
    """
    blocks = -(-_enumerable_count(dim, r) // _block_width(r))
    return max(1, _CHUNK_ELEMENTS // max(dim, blocks * (tau_max + 1)))


def average_trajectories(group, r: int, tau_max: int) -> np.ndarray:
    """Success mass after 0..tau_max steps, averaged over every r-subset, for each state of a group.

    group is an (S, dim) array of amplitude vectors, one state per row, and
    row i of the (S, tau_max + 1) result is state i's average trajectory,
    bit for bit what average_trajectory gives for that state alone.
    Enumerates all C(dim, r) marked sets once for the whole group; callers
    are responsible for capping the enumeration size before invoking this,
    and a count above MAX_SUBSETS raises ValueError. Each subset is stepped
    on its r marked amplitudes and the running total of all amplitudes,
    which is everything the next marked amplitudes depend on.
    """
    group = np.asarray(group, dtype=np.complex128)
    states, dim = group.shape
    count = _enumerable_count(dim, r)
    start_totals = group.sum(axis=1)
    blocks = -(-count // _block_width(r))
    sums = np.empty((states, tau_max + 1, blocks))
    for b, block in enumerate(_index_blocks(dim, r)):
        _step_block(group, start_totals, block, sums[:, :, b])
    cells = sums.reshape(states * (tau_max + 1), blocks)  # one row of chunk sums per state and step
    totals = np.fromiter(map(math.fsum, cells), np.float64, count=cells.shape[0])
    return totals.reshape(states, tau_max + 1) / count


def _step_block(group: np.ndarray, start_totals: np.ndarray, block: np.ndarray, sums: np.ndarray) -> None:
    """Step every state's copy of the block's subsets; sums[i, t] is state i's marked mass after t steps.

    The states go in batches of at most _CHUNK_ELEMENTS marked amplitudes,
    at least one state, through buffers that serve every batch and step of
    the block and are freed before the next block is decoded.
    """
    states, dim = group.shape
    r, k = block.shape
    batch = max(1, min(states, _CHUNK_ELEMENTS // (r * k)))
    marked_buf = np.empty(batch * r * k, dtype=np.complex128)
    square_buf = np.empty(batch * r * k, dtype=np.complex128)
    total_buf = np.empty(batch * k, dtype=np.complex128)
    for lo in range(0, states, batch):
        s = min(batch, states - lo)
        marked = marked_buf[: s * r * k].reshape(s, r, k)  # one C-contiguous (r, k) slice per state
        np.take(group[lo : lo + s], block, axis=1, out=marked, mode="clip")
        parts = marked.reshape(s, r * k).view(np.float64)  # real and imaginary parts
        squares = square_buf[: s * r * k].view(np.float64).reshape(s, 2 * r * k)
        step = square_buf[: s * k].reshape(s, k)         # the squares' buffer, idle while a step runs
        total = total_buf[: s * k].reshape(s, k)
        total[...] = start_totals[lo : lo + s, None]
        np.square(parts, out=squares)
        np.sum(squares, axis=1, out=sums[lo : lo + s, 0])
        for t in range(1, sums.shape[1]):
            np.sum(marked, axis=1, out=step)
            np.multiply(2.0, step, out=step)
            total -= step
            np.multiply(2.0 / dim, total, out=step)
            marked += step[:, None, :]
            np.square(parts, out=squares)
            np.sum(squares, axis=1, out=sums[lo : lo + s, t])


def average_trajectory(amps: np.ndarray, r: int, tau_max: int) -> np.ndarray:
    """Success mass after 0..tau_max steps, averaged over every r-subset.

    The one-state call of average_trajectories, under the same terms.
    """
    return average_trajectories(np.asarray(amps, dtype=np.complex128)[None], r, tau_max)[0]
