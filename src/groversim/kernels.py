"""Hot numeric kernels, written with numpy.

One Grover step on an amplitude vector v with marked index set M:
flip the sign of v on M, then reflect about the mean, v -> 2 mean(v) - v.
Subset sums are compensated (exact reduction of per-chunk subtotals), so
the subset average is run-to-run deterministic.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

# Keep chunks of the subset-averaging workspace around 32 MiB of complex128.
_CHUNK_ELEMENTS = 1 << 21


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
    capping the enumeration size before invoking this.
    """
    amps = np.asarray(amps, dtype=np.complex128)
    dim = amps.shape[0]
    rows = max(1, min(4096, _CHUNK_ELEMENTS // dim))
    partials: list[list[float]] = [[] for _ in range(tau_max + 1)]
    count = 0
    combos = itertools.combinations(range(dim), r)
    while True:
        chunk = list(itertools.islice(combos, rows))
        if not chunk:
            break
        sel = np.array(chunk, dtype=np.intp)            # (k, r)
        k = sel.shape[0]
        count += k
        block = np.repeat(amps[None, :], k, axis=0)     # (k, dim)
        rix = np.arange(k)[:, None]
        partials[0].append(float(np.sum(np.abs(block[rix, sel]) ** 2)))
        for t in range(1, tau_max + 1):
            block[rix, sel] = -block[rix, sel]
            block = 2.0 * block.mean(axis=1, keepdims=True) - block
            partials[t].append(float(np.sum(np.abs(block[rix, sel]) ** 2)))
    out = np.array([math.fsum(p) for p in partials], dtype=np.float64)
    return out / count
