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

The all-subsets average enumerates subsets in lexicographic chunks of at
most _CHUNK_ELEMENTS marked amplitudes (one subset when r is larger), so
the workspace does not grow with C(N, r). Each chunk is summed with
np.sum and the chunk subtotals are added exactly (math.fsum), so the
subset average is run-to-run deterministic.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

# Marked amplitudes per subset-averaging chunk: 1 MiB of complex128.
_CHUNK_ELEMENTS = 1 << 16


def grover_evolve(amps: np.ndarray, marked, tau: int) -> np.ndarray:
    """Amplitudes after tau Grover steps with the given marked indices.

    `marked` must hold distinct indices in [0, len(amps)). The input is
    never written; tau = 0 returns a copy of it.
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


def success_trajectory(amps: np.ndarray, marked, tau_max: int) -> np.ndarray:
    """Marked-index probability mass after 0..tau_max Grover steps.

    `marked` must hold distinct indices in [0, len(amps)).
    """
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


def average_trajectory(amps: np.ndarray, r: int, tau_max: int) -> np.ndarray:
    """Success mass after 0..tau_max steps, averaged over every r-subset.

    Enumerates all C(dim, r) marked sets; callers are responsible for
    capping the enumeration size before invoking this. Each subset is
    stepped on its r marked amplitudes and the running total of all
    amplitudes, which is everything the next marked amplitudes depend on.
    """
    amps = np.asarray(amps, dtype=np.complex128)
    dim = amps.shape[0]
    count = math.comb(dim, r)
    rows = max(1, _CHUNK_ELEMENTS // r)
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
