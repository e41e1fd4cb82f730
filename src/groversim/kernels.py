"""Hot numeric kernels, written with numpy.

One Grover step on an amplitude vector v with marked index set M:
flip the sign of v on M, then reflect about the mean, v -> 2 mean(v) - v.

The unmarked amplitudes reach the marked ones only through the mean, so
the all-subsets average steps just the r marked amplitudes A and the
total T = sum(v) of each subset (Biham et al., PRA 60, 2742, 1999):

    T <- T - 2 sum(A),    A <- A + (2/N) T,

which is the same oracle-and-diffusion arithmetic at O(r) per subset and
step instead of O(N). Subsets are enumerated in lexicographic chunks of
at most _CHUNK_ELEMENTS marked amplitudes (one subset when r is larger),
so the workspace does not grow with C(N, r). Each chunk is summed with
np.sum and the chunk subtotals are added exactly (math.fsum), so the
subset average is run-to-run deterministic.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

# Marked amplitudes per subset-averaging chunk: 1 MiB of complex128.
_CHUNK_ELEMENTS = 1 << 16


def _marked_mass(v: np.ndarray, marked: np.ndarray) -> float:
    picked = v[marked]
    return float(np.real(np.vdot(picked, picked)))


def grover_evolve(amps: np.ndarray, marked, tau: int) -> np.ndarray:
    """Amplitudes after tau Grover steps with the given marked indices."""
    v = np.array(amps, dtype=np.complex128)
    marked = np.asarray(marked, dtype=np.int64)
    for _ in range(tau):
        v[marked] = -v[marked]
        v = 2.0 * v.mean() - v
    return v


def success_trajectory(amps: np.ndarray, marked, tau_max: int) -> np.ndarray:
    """Marked-index probability mass after 0..tau_max Grover steps."""
    v = np.array(amps, dtype=np.complex128)
    marked = np.asarray(marked, dtype=np.int64)
    out = np.empty(tau_max + 1, dtype=np.float64)
    out[0] = _marked_mass(v, marked)
    for t in range(1, tau_max + 1):
        v[marked] = -v[marked]
        v = 2.0 * v.mean() - v
        out[t] = _marked_mass(v, marked)
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
