"""Grover search on explicit state vectors, for arbitrary initial states.

The oracle is a phase flip on the marked indices (the ancilla that would
realize it on hardware contributes only this sign and is elided). The
diffusion operator is the reflection 2|eta><eta| - I about the uniform
state, i.e. v -> 2 mean(v) - v. One Grover step applies the oracle, then
the diffusion.

Also provides the exact four-dimensional invariant-subspace picture: any
initial state splits over the marked/unmarked parts of itself and of the
uniform state, and one Grover step acts on those four coordinates alone.
"""
from __future__ import annotations

import itertools
import math
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .analytics import check_step_count, mixing_angle
from .states import PureState, check_integer, check_qubit_count, sealed

ENUMERATION_CAP = 10_000_000
DEGENERATE_ATOL = 1e-14


class EnumerationCapError(RuntimeError):
    """Raised when an all-subsets average would exceed the enumeration cap."""


@dataclass(frozen=True)
class MarkedSet:
    """Non-empty set of distinct marked basis indices, stored sorted.

    indices may be any sequence of integers, numpy's included, or an
    integer array; it is stored as a sorted tuple of Python ints.
    """

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        idx = np.sort(_index_array(self.indices))
        if not idx.size:
            raise ValueError("marked set must be non-empty")
        if idx[0] < 0:
            raise ValueError(f"marked indices must be non-negative, got {idx[0]}")
        if np.any(idx[1:] == idx[:-1]):
            raise ValueError("marked indices must be distinct")
        object.__setattr__(self, "indices", tuple(idx.tolist()))

    @property
    def r(self) -> int:
        return len(self.indices)

    def validate_for(self, dimension: int) -> None:
        if self.indices[-1] >= dimension:
            raise ValueError(
                f"marked index {self.indices[-1]} out of range for dimension {dimension}"
            )


def _index_array(values) -> np.ndarray:
    """values as a 1-d array of exact integers, unsorted.

    A sequence numpy reads as an integer array is checked in one pass.
    Anything else (floats, strings, ragged or wider-than-int64 entries,
    an empty sequence) goes through check_integer one value at a time,
    whose ValueError names the first value that is not an integer.
    """
    if not isinstance(values, np.ndarray):
        values = tuple(values)  # an iterator is read once
    try:
        arr = np.asarray(values)
    except ValueError:  # a ragged sequence
        arr = None
    if arr is not None and arr.ndim == 1 and arr.dtype.kind in "iu":
        return arr
    return np.array([check_integer(i, "marked index") for i in values], dtype=object)


def success_mass(state: PureState, marked) -> float:
    """Probability on a MarkedSet's or a sequence's indices, checked as MarkedSet does; 0.0 for none."""
    indices = getattr(marked, "indices", marked)
    if not len(indices):
        return 0.0
    marked = MarkedSet(indices)
    marked.validate_for(state.dimension)
    picked = state.amplitudes[list(marked.indices)]
    return float(np.real(np.vdot(picked, picked)))


@dataclass(frozen=True)
class SearchConfig:
    """Problem geometry: dimension N = 2**n, marked count r, step count tau.

    theta = arccos(1 - 2r/N) (analytics.mixing_angle) is the rotation angle
    of one Grover step in the invariant subspace; vartheta = theta * (tau + 1/2).
    Every simulator entry point checks its (n, r, tau) by building one.
    """

    n: int
    r: int
    tau: int
    theta: float = field(init=False)
    vartheta: float = field(init=False)

    def __post_init__(self) -> None:
        n = check_qubit_count(self.n)
        theta = mixing_angle(2**n, self.r)
        tau = check_step_count(self.tau)
        # numpy integers are kept as ints
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", int(self.r))
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "vartheta", theta * (tau + 0.5))

    @property
    def dimension(self) -> int:
        return 2**self.n


@dataclass(frozen=True)
class SubspaceCoords:
    """Coordinates of a state in the invariant-subspace basis.

    The basis vectors are, in order: the marked part of the initial state
    orthogonalized against the marked part of the uniform state (psi_m),
    the analogous unmarked remainder (psi_u), the unmarked part of the
    uniform state (eta_u), and its marked part (eta_m). p0 is the initial
    success mass, abar_m / abar_u the mean amplitude over marked /
    unmarked indices.
    """

    c_psi_m: float
    c_psi_u: float
    c_eta_u: complex
    c_eta_m: complex
    p0: float
    abar_m: complex
    abar_u: complex

    def success_mass(self) -> float:
        """Probability of measuring a marked index: |c_psi_m|^2 + |c_eta_m|^2."""
        return float(abs(self.c_psi_m) ** 2 + abs(self.c_eta_m) ** 2)

    def norm_sq(self) -> float:
        return float(
            abs(self.c_psi_m) ** 2
            + abs(self.c_psi_u) ** 2
            + abs(self.c_eta_u) ** 2
            + abs(self.c_eta_m) ** 2
        )


@dataclass(frozen=True)
class SubspaceBasis:
    """The four basis vectors matching SubspaceCoords, as dense arrays.

    A degenerate direction (zero weight) is stored as the zero vector and
    flagged in `present`.
    """

    psi_m: np.ndarray
    psi_u: np.ndarray
    eta_u: np.ndarray
    eta_m: np.ndarray
    present: tuple[bool, bool, bool, bool]


@dataclass(frozen=True)
class RunReport:
    """Result of one search run with the success mass recorded at every step."""

    config: SearchConfig
    marked: MarkedSet
    final_success: float
    per_iteration_success: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "n": self.config.n,
            "dimension": self.config.dimension,
            "r": self.config.r,
            "tau": self.config.tau,
            "theta": self.config.theta,
            "vartheta": self.config.vartheta,
            "marked": list(self.marked.indices),
            "final_success": self.final_success,
            "per_iteration_success": list(self.per_iteration_success),
        }


def apply_oracle(state: PureState, marked: MarkedSet) -> PureState:
    """Flip the amplitude sign on every marked index."""
    marked.validate_for(state.dimension)
    amps = state.amplitudes.copy()
    idx = np.asarray(marked.indices, dtype=np.intp)
    amps[idx] = -amps[idx]
    return PureState(state.n, sealed(amps))


def apply_diffusion(state: PureState) -> PureState:
    """Reflect about the uniform state: v -> 2 mean(v) - v."""
    amps = state.amplitudes
    return PureState(state.n, sealed(2.0 * amps.mean() - amps))


def grover_iterate(state: PureState, marked: MarkedSet, tau: int) -> PureState:
    """Apply tau Grover steps (oracle then diffusion, tau times)."""
    marked.validate_for(state.dimension)
    SearchConfig(state.n, marked.r, tau)
    out = kernels.grover_evolve(state.amplitudes, marked.indices, tau, state.amplitude_sum)
    return PureState(state.n, sealed(out))


def success_probability(initial: PureState, marked: MarkedSet, tau: int) -> float:
    """Probability of measuring a marked index after tau steps; the steps before it are not kept."""
    _, chunks = search_trace(initial, marked, tau)
    return deque(chunks, maxlen=1)[0][-1]


def run_search(initial: PureState, marked: MarkedSet, tau: int) -> RunReport:
    """Run tau steps and record the success mass after each one."""
    config, chunks = search_trace(initial, marked, tau)
    trace = tuple(itertools.chain.from_iterable(chunks))
    return RunReport(config=config, marked=marked, final_success=trace[-1], per_iteration_success=trace)


def search_trace(initial: PureState, marked: MarkedSet, tau: int) -> tuple[SearchConfig, Iterator[list[float]]]:
    """run_search's SearchConfig, and its success masses after 0..tau steps as an iterator of lists.

    The lists come in step order as kernels.success_chunks steps them, so
    the trace is never held whole.
    """
    marked.validate_for(initial.dimension)
    config = SearchConfig(initial.n, marked.r, tau)
    return config, kernels.success_chunks(initial.amplitudes, marked.indices, tau, initial.amplitude_sum)


def average_over_all_sets(
    initial: PureState, r: int, tau: int, cap: int = ENUMERATION_CAP
) -> float:
    """Success probability after tau steps, averaged over all C(N, r) marked sets.

    Brute force by construction: every subset is simulated step by step on
    its marked amplitudes and the total amplitude, which carry the whole
    oracle-and-diffusion step for the marked indices; never with a closed
    form.
    """
    return float(average_trajectory_over_all_sets(initial, r, tau, cap)[-1])


def average_trajectory_over_all_sets(
    initial: PureState, r: int, tau_max: int, cap: int = ENUMERATION_CAP
) -> np.ndarray:
    """All-subsets average success mass after each of 0..tau_max steps.

    The enumeration ranks subsets in int64, so a cap above
    kernels.MAX_SUBSETS acts as that bound.
    """
    SearchConfig(initial.n, r, tau_max)
    check_enumeration_cap(initial.dimension, r, cap)
    return kernels.average_trajectory(initial.amplitudes, r, tau_max)


def check_enumeration_cap(dim: int, r: int, cap: int) -> None:
    """Raise EnumerationCapError unless C(dim, r) is at most cap and kernels.MAX_SUBSETS."""
    total = kernels.subset_count(dim, r)
    if total is None or total > cap:
        shown = "2**63 or more" if total is None else total
        raise EnumerationCapError(
            f"C({dim}, {r}) = {shown} subsets exceeds the enumeration cap "
            f"{min(cap, kernels.MAX_SUBSETS)}"
        )


def subspace_decompose(initial: PureState, marked: MarkedSet) -> SubspaceCoords:
    """Coordinates of `initial` in the four-dimensional invariant subspace.

    The unmarked mean is (total - marked sum) / (N - r), as the kernels keep it.
    The two Gram-Schmidt weights are clamped to zero below 1e-14; round-off
    can otherwise push them slightly negative.
    """
    marked.validate_for(initial.dimension)
    dim = initial.dimension
    r = marked.r
    picked = initial.amplitudes[list(marked.indices)]
    p0 = float(np.sum(np.abs(picked) ** 2))
    abar_m = complex(picked.mean())
    abar_u = complex(initial.amplitude_sum - picked.sum()) / (dim - r) if r < dim else 0.0 + 0.0j
    w_m = p0 - r * abs(abar_m) ** 2
    w_u = (1.0 - p0) - (dim - r) * abs(abar_u) ** 2
    c_psi_m = math.sqrt(w_m) if w_m > DEGENERATE_ATOL else 0.0
    c_psi_u = math.sqrt(w_u) if w_u > DEGENERATE_ATOL else 0.0
    return SubspaceCoords(
        c_psi_m=c_psi_m,
        c_psi_u=c_psi_u,
        c_eta_u=math.sqrt(dim - r) * abar_u,
        c_eta_m=math.sqrt(r) * abar_m,
        p0=p0,
        abar_m=abar_m,
        abar_u=abar_u,
    )


def subspace_basis(initial: PureState, marked: MarkedSet) -> SubspaceBasis:
    """Dense basis vectors matching subspace_decompose, zero where degenerate."""
    coords = subspace_decompose(initial, marked)
    dim = initial.dimension
    r = marked.r
    amps = initial.amplitudes
    sel = np.zeros(dim, dtype=bool)
    sel[list(marked.indices)] = True

    eta_m = np.zeros(dim, dtype=np.complex128)
    eta_m[sel] = 1.0 / math.sqrt(r)
    eta_u = np.zeros(dim, dtype=np.complex128)
    if r < dim:
        eta_u[~sel] = 1.0 / math.sqrt(dim - r)

    psi_m = np.zeros(dim, dtype=np.complex128)
    if coords.c_psi_m > 0.0:
        psi_m[sel] = (amps[sel] - coords.abar_m) / coords.c_psi_m
    psi_u = np.zeros(dim, dtype=np.complex128)
    if coords.c_psi_u > 0.0:
        psi_u[~sel] = (amps[~sel] - coords.abar_u) / coords.c_psi_u

    return SubspaceBasis(
        psi_m=psi_m,
        psi_u=psi_u,
        eta_u=eta_u,
        eta_m=eta_m,
        present=(coords.c_psi_m > 0.0, coords.c_psi_u > 0.0, r < dim, True),
    )


def subspace_reconstruct(coords: SubspaceCoords, basis: SubspaceBasis) -> np.ndarray:
    """Assemble the dense state vector from subspace coordinates."""
    return (
        coords.c_psi_m * basis.psi_m
        + coords.c_psi_u * basis.psi_u
        + coords.c_eta_u * basis.eta_u
        + coords.c_eta_m * basis.eta_m
    )


def evolve_subspace(coords: SubspaceCoords, config: SearchConfig) -> SubspaceCoords:
    """Advance subspace coordinates by config.tau Grover steps, exactly.

    One step leaves psi_m fixed, negates psi_u, and rotates the
    (eta_u, eta_m) pair by theta; tau steps therefore apply (-1)^tau and
    a rotation by theta*tau.
    """
    ct = math.cos(config.theta * config.tau)
    st = math.sin(config.theta * config.tau)
    sign = -1.0 if config.tau % 2 else 1.0
    return SubspaceCoords(
        c_psi_m=coords.c_psi_m,
        c_psi_u=sign * coords.c_psi_u,
        c_eta_u=ct * coords.c_eta_u - st * coords.c_eta_m,
        c_eta_m=st * coords.c_eta_u + ct * coords.c_eta_m,
        p0=coords.p0,
        abar_m=coords.abar_m,
        abar_u=coords.abar_u,
    )
