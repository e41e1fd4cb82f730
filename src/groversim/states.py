"""Dense state-vector primitives: pure states, one-qubit gates, ensembles.

Basis labels are read with qubit 0 as the most significant bit, so for
n = 2 the label 2 = 0b10 means qubit 0 in |1> and qubit 1 in |0>.
Amplitudes are complex128. Objects are immutable after construction and
every operation returns a new object; nothing mutates in place.

Ownership: a state's amplitudes are a read-only array. A caller's
writeable array is copied, so later writes to it never reach the state; a
read-only complex128 ndarray that owns its data is taken over as it is.
The library builds each state vector once, freezes it in place (`sealed`)
and hands it over, so no 2**n vector is copied on its way into a PureState.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

MAX_QUBITS = 20
NORM_ATOL = 1e-10


def check_integer(value, what: str) -> int:
    """Return value as an int if it is an integer, numpy's included; raise ValueError otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def check_qubit_count(n) -> int:
    """Return n as an int if it is an integer in [1, MAX_QUBITS]; raise ValueError otherwise."""
    n = check_integer(n, "qubit count")
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be an int in [1, {MAX_QUBITS}], got {n!r}")
    return n


def sealed(values: np.ndarray) -> np.ndarray:
    """Make values read-only in place and return it.

    Only for an array just built that owns its data and that nothing else
    refers to: PureState, SingleQubitGate and ObjectiveTable then take it
    over without a copy (frozen_array).
    """
    values.setflags(write=False)
    return values


def frozen_array(values, dtype) -> np.ndarray:
    """values as a read-only array of dtype that owns its data.

    A sealed array of that dtype is returned as it is; anything else, a
    caller's writeable array included, is copied.
    """
    if (
        type(values) is np.ndarray
        and values.dtype == dtype
        and values.flags.owndata
        and not values.flags.writeable
    ):
        return values
    return sealed(np.array(values, dtype=dtype))


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized amplitude vector over the 2**n computational basis states.

    Raises ValueError if the squared amplitudes do not sum to 1 within
    1e-10; no silent re-normalization is applied. `amplitudes` is read-only:
    a writeable array is copied, so later writes to it do not reach the
    state, and a sealed complex128 array is adopted without a copy.
    """

    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_qubit_count(self.n))
        amps = frozen_array(self.amplitudes, np.complex128)
        if amps.shape != (2**self.n,):
            raise ValueError(f"expected {2**self.n} amplitudes for n={self.n}, got shape {amps.shape}")
        norm_sq = float(np.real(np.vdot(amps, amps)))
        if not abs(norm_sq - 1.0) <= NORM_ATOL:
            raise ValueError(f"state is not normalized: sum |a_x|^2 = {norm_sq!r}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dimension(self) -> int:
        return self.amplitudes.shape[0]

    @cached_property
    def amplitude_sum(self) -> complex:
        """np.sum of the amplitudes, computed on first use; the amplitudes are read-only, so it stays true."""
        return complex(np.sum(self.amplitudes))


@dataclass(frozen=True, eq=False)
class SingleQubitGate:
    """A 2x2 unitary, checked entrywise to 1e-10 at construction."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = frozen_array(self.matrix, np.complex128)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
        defect = np.abs(m @ m.conj().T - np.eye(2)).max()
        if not defect <= NORM_ATOL:
            raise ValueError(f"matrix is not unitary: max |U U+ - I| = {defect:.3e}")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False)
class StateMixture:
    """Finite ensemble of pure states with weights summing to 1.

    components is a sequence of (weight, state) pairs; all states must
    share the same qubit count and every weight lies in (0, 1].
    """

    components: tuple[tuple[float, PureState], ...]

    def __post_init__(self) -> None:
        comps = tuple((float(w), s) for w, s in self.components)
        if not comps:
            raise ValueError("a mixture needs at least one component")
        for w, s in comps:
            if not isinstance(s, PureState):
                raise ValueError(f"mixture component is not a PureState: {s!r}")
            if not 0.0 < w <= 1.0:
                raise ValueError(f"weight {w!r} outside (0, 1]")
        if len({s.n for _, s in comps}) != 1:
            raise ValueError("all mixture components must have the same qubit count")
        total = math.fsum(w for w, _ in comps)
        if abs(total - 1.0) > NORM_ATOL:
            raise ValueError(f"weights sum to {total!r}, expected 1")
        object.__setattr__(self, "components", comps)

    @property
    def n(self) -> int:
        return self.components[0][1].n

    @property
    def dimension(self) -> int:
        return 2**self.n


def basis_state(n: int, index: int = 0) -> PureState:
    """The computational basis state |index> on n qubits."""
    n = check_qubit_count(n)
    index = check_integer(index, "basis index")
    if not 0 <= index < 2**n:
        raise ValueError(f"basis index {index} out of range for n={n}")
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[index] = 1.0
    return PureState(n, sealed(amps))


def equal_superposition(n: int) -> PureState:
    """The uniform superposition |eta> with every amplitude 1/sqrt(2**n)."""
    n = check_qubit_count(n)
    dim = 2**n
    return PureState(n, sealed(np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128)))


def apply_product_unitary(state: PureState, gate: SingleQubitGate) -> PureState:
    """Apply the same one-qubit gate to every qubit (the product U^{x n})."""
    v = state.amplitudes.reshape((2,) * state.n)
    m = gate.matrix
    for axis in range(state.n):
        v = np.moveaxis(np.tensordot(m, v, axes=([1], [axis])), 0, axis)
    return PureState(state.n, v.reshape(-1))


def fidelity_with(state: PureState, reference: PureState) -> float:
    """|<reference|state>|^2; both states must share a dimension."""
    if state.dimension != reference.dimension:
        raise ValueError(
            f"dimension mismatch: {state.dimension} vs {reference.dimension}"
        )
    return float(abs(np.vdot(reference.amplitudes, state.amplitudes)) ** 2)

