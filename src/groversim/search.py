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

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import kernels
from .states import MAX_QUBITS, PureState, success_mass

ENUMERATION_CAP = 10_000_000
DEGENERATE_ATOL = 1e-14


class EnumerationCapError(RuntimeError):
    """Raised when an all-subsets average would exceed the enumeration cap."""


@dataclass(frozen=True)
class MarkedSet:
    """Non-empty set of marked basis indices, stored sorted and deduplicated."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        idx = tuple(sorted(int(i) for i in self.indices))
        if not idx:
            raise ValueError("marked set must be non-empty")
        if idx[0] < 0:
            raise ValueError(f"marked indices must be non-negative, got {idx[0]}")
        if len(set(idx)) != len(idx):
            raise ValueError("marked indices must be distinct")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "MarkedSet":
        return cls(tuple(indices))

    @property
    def r(self) -> int:
        return len(self.indices)

    def validate_for(self, dimension: int) -> None:
        if self.indices[-1] >= dimension:
            raise ValueError(
                f"marked index {self.indices[-1]} out of range for dimension {dimension}"
            )


@dataclass(frozen=True)
class SearchConfig:
    """Problem geometry: dimension N = 2**n, marked count r, step count tau.

    theta = arccos(1 - 2r/N) is the rotation angle of one Grover step in
    the invariant subspace; vartheta = theta * (tau + 1/2).
    """

    n: int
    r: int
    tau: int
    theta: float = field(init=False)
    vartheta: float = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"qubit count must be an int in [1, {MAX_QUBITS}], got {self.n!r}")
        dim = 2**self.n
        if not isinstance(self.r, int) or not 1 <= self.r <= dim:
            raise ValueError(f"marked count must be an int in [1, {dim}], got {self.r!r}")
        if not isinstance(self.tau, int) or self.tau < 0:
            raise ValueError(f"step count must be a non-negative int, got {self.tau!r}")
        theta = math.acos(1.0 - 2.0 * self.r / dim)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "vartheta", theta * (self.tau + 0.5))

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
    return PureState(state.n, amps)


def apply_diffusion(state: PureState) -> PureState:
    """Reflect about the uniform state: v -> 2 mean(v) - v."""
    amps = state.amplitudes
    return PureState(state.n, 2.0 * amps.mean() - amps)


def grover_iterate(state: PureState, marked: MarkedSet, tau: int) -> PureState:
    """Apply tau Grover steps (oracle then diffusion, tau times)."""
    marked.validate_for(state.dimension)
    if tau < 0:
        raise ValueError(f"step count must be non-negative, got {tau}")
    out = kernels.grover_evolve(state.amplitudes, marked.indices, tau)
    return PureState(state.n, out)


def success_probability(initial: PureState, marked: MarkedSet, tau: int) -> float:
    """Probability of measuring a marked index after tau steps."""
    return success_mass(grover_iterate(initial, marked, tau), marked)


def run_search(initial: PureState, marked: MarkedSet, tau: int) -> RunReport:
    """Run tau steps and record the success mass after each one."""
    marked.validate_for(initial.dimension)
    if tau < 0:
        raise ValueError(f"step count must be non-negative, got {tau}")
    traj = kernels.success_trajectory(initial.amplitudes, marked.indices, tau)
    config = SearchConfig(initial.n, marked.r, tau)
    return RunReport(
        config=config,
        marked=marked,
        final_success=float(traj[-1]),
        per_iteration_success=tuple(float(p) for p in traj),
    )


def _check_enumeration(dimension: int, r: int, cap: int) -> None:
    if not 1 <= r <= dimension:
        raise ValueError(f"marked count must lie in [1, {dimension}], got {r}")
    total = math.comb(dimension, r)
    if total > cap:
        raise EnumerationCapError(
            f"C({dimension}, {r}) = {total} subsets exceeds the enumeration cap {cap}"
        )


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
    """All-subsets average success mass after each of 0..tau_max steps."""
    _check_enumeration(initial.dimension, r, cap)
    if tau_max < 0:
        raise ValueError(f"step count must be non-negative, got {tau_max}")
    return kernels.average_trajectory(initial.amplitudes, r, tau_max)


def _split_means(initial: PureState, marked: MarkedSet) -> tuple[float, complex, complex]:
    marked.validate_for(initial.dimension)
    amps = initial.amplitudes
    dim = initial.dimension
    r = marked.r
    sel = np.zeros(dim, dtype=bool)
    sel[list(marked.indices)] = True
    p0 = float(np.sum(np.abs(amps[sel]) ** 2))
    abar_m = complex(amps[sel].mean())
    abar_u = complex(amps[~sel].mean()) if r < dim else 0.0 + 0.0j
    return p0, abar_m, abar_u


def subspace_decompose(initial: PureState, marked: MarkedSet) -> SubspaceCoords:
    """Coordinates of `initial` in the four-dimensional invariant subspace.

    The two Gram-Schmidt weights are clamped to zero below 1e-14; round-off
    can otherwise push them slightly negative.
    """
    dim = initial.dimension
    r = marked.r
    p0, abar_m, abar_u = _split_means(initial, marked)
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
