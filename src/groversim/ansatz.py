"""Product initial states from one parameterized single-qubit gate.

U(alpha, beta, theta) applied to every qubit of |0...0> prepares a
product state whose coherence fraction has a closed form; two slices of
that closed form (theta = pi/4 over the phases, zero phases over theta)
give the idealized optimal success probability for a single marked item,
since for r = 1 the optimum equals the coherence fraction itself.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .states import PureState, SingleQubitGate, check_qubit_count, sealed

_TWO_PI = 2.0 * math.pi
_PLANE_BLOCK_CELLS = 2**14  # cells per row block of the phase plane: 128 KiB per float64 array


def _check_phase(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"phase {name} must be finite, got {value!r}")


def _check_mixing_angle(theta: float) -> None:
    if not 0.0 <= theta <= math.pi / 2.0:
        raise ValueError(f"mixing angle must lie in [0, pi/2], got {theta!r}")


@dataclass(frozen=True)
class LocalGateParams:
    """Phases alpha, beta (any finite reals) and mixing angle theta in [0, pi/2]."""

    alpha: float
    beta: float
    theta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "theta", float(self.theta))
        _check_phase("alpha", self.alpha)
        _check_phase("beta", self.beta)
        _check_mixing_angle(self.theta)

    def phases_mod_2pi(self) -> tuple[float, float]:
        """Phases folded into [0, 2pi), for reporting; computations use the raw values."""
        return (self.alpha % _TWO_PI, self.beta % _TWO_PI)


def _qubit(p: LocalGateParams) -> tuple[complex, complex]:
    """U(p)|0> = (e^{ia} cos t, e^{ib} sin t): the gate's first column."""
    return cmath.exp(1j * p.alpha) * math.cos(p.theta), cmath.exp(1j * p.beta) * math.sin(p.theta)


def build_gate(p: LocalGateParams) -> SingleQubitGate:
    """The 2x2 unitary [[e^{ia} cos t, e^{-ib} sin t], [e^{ib} sin t, -e^{-ia} cos t]].

    (0, 0, pi/4) is the Hadamard gate; (0, 0, 0) is diag(1, -1).
    """
    zero, one = _qubit(p)
    return SingleQubitGate(
        np.array([[zero, one.conjugate()], [one, -zero.conjugate()]], dtype=np.complex128)
    )


def prepare_ansatz_state(n: int, p: LocalGateParams) -> PureState:
    """The product state U(p)^{x n} |0...0>, built from the closed form.

    The amplitude on basis label j is (e^{ia} cos t)^{z_j} (e^{ib} sin t)^{n-z_j}
    with z_j the number of zero bits in j; the circuit route through
    apply_product_unitary reproduces this to round-off.

    The vector is gathered by row blocks: label j = h 2^low + l, with the
    n // 2 high bits h and the low = n - n // 2 low bits l, takes the value
    table[popcount(h)][l], where table[w][l] = by_weight[w + popcount(l)].
    One take of the (n // 2 + 1, 2^low) table's rows fills the vector in
    place, so the only 2**n array is the result itself.
    """
    n = check_qubit_count(n)
    zero_amp, one_amp = _qubit(p)
    zero_pows = np.array([zero_amp**k for k in range(n + 1)], dtype=np.complex128)
    one_pows = np.array([one_amp**k for k in range(n + 1)], dtype=np.complex128)
    # the amplitude of a label with k one bits, as float64 products: numpy's complex multiply
    # rounds by the SIMD target it dispatches to
    zr, zi, orl, oi = zero_pows.real[::-1], zero_pows.imag[::-1], one_pows.real, one_pows.imag
    by_weight = np.empty(n + 1, dtype=np.complex128)
    by_weight.real, by_weight.imag = zr * orl - zi * oi, zr * oi + zi * orl
    high, low = n // 2, n - n // 2
    table = by_weight[np.arange(high + 1)[:, None] + _popcounts(low)]
    amps = np.empty(2**n, dtype=np.complex128)
    # mode="clip" writes straight into out ("raise" buffers it); every index is in range
    table.take(_popcounts(high), axis=0, out=amps.reshape(-1, 2**low), mode="clip")
    return PureState(n, sealed(amps))


def _popcounts(bits: int) -> np.ndarray:
    """The number of one bits of each label 0 .. 2**bits - 1."""
    return np.bitwise_count(np.arange(2**bits, dtype=np.uint32))


def ansatz_coherence_fraction(n: int, p: LocalGateParams) -> float:
    """f_c of the ansatz state: |(e^{ia} cos t + e^{ib} sin t)^n|^2 / 2^n."""
    n = check_qubit_count(n)
    return abs(sum(_qubit(p)) ** n) ** 2 / 2**n


def optimal_success_vs_phases(n: int, alpha: float, beta: float) -> float:
    """Idealized optimal success for one marked item at theta = pi/4.

    Equals |(e^{ia} + e^{ib})^n|^2 / 4^n; reaches 1 exactly when the
    phases agree mod 2pi and 0 when they differ by pi.
    """
    n = check_qubit_count(n)
    _check_phase("alpha", alpha)
    _check_phase("beta", beta)
    return abs((cmath.exp(1j * alpha) + cmath.exp(1j * beta)) ** n) ** 2 / 4**n


def _c_powu(pr, pi, n: int):
    """(pr + i pi) ** n elementwise, bit for bit as CPython's complex ** int.

    That is c_powu: walk the bits of n from the low end, multiplying the
    result by the running square p at each set bit. Each product is
    (ar br - ai bi, ar bi + ai br) in float64 ufuncs, in that order; numpy's
    complex power rounds differently. Returns (real, imag).
    """
    rr = ri = None
    while True:
        if n & 1:
            if rr is None:
                rr, ri = pr, pi  # 1 * p is p up to the sign of a zero, which no later |.| sees
            else:
                rr, ri = rr * pr - ri * pi, rr * pi + ri * pr
        n >>= 1
        if not n:
            return rr, ri
        pr, pi = pr * pr - pi * pi, pr * pi + pi * pr


def _phase_plane_rows(n: int, phases):
    """The rows of optimal_success_phase_plane, by blocks of rows.

    Yields (values, index) per block, in order: the block's distinct values,
    ascending, as a float64 array, and for each of its rows and each phase b
    the place in values of the row's value at b. The powers are taken in
    float64 arrays by blocks of at most _PLANE_BLOCK_CELLS cells, so a caller
    that formats the values formats each block's distinct values once.
    """
    n = check_qubit_count(n)
    phases = [float(value) for value in phases]
    for i, value in enumerate(phases):
        _check_phase(f"#{i}", value)
    exps = [cmath.exp(1j * value) for value in phases]
    re = np.array([e.real for e in exps])
    im = np.array([e.imag for e in exps])
    rows = max(1, _PLANE_BLOCK_CELLS // max(len(exps), 1))
    quarter_n = 4**n
    for start in range(0, len(exps), rows):
        real, imag = _c_powu(re[start : start + rows, None] + re, im[start : start + rows, None] + im, n)
        h = np.hypot(real, imag)  # abs(complex) is hypot
        distinct, index = np.unique(h.ravel(), return_inverse=True)
        # the Python float h ** 2 / 4**n, as the pointwise function takes it
        yield np.array([x**2 / quarter_n for x in distinct.tolist()]), index.reshape(h.shape)


def optimal_success_phase_plane(n: int, phases) -> list[list[float]]:
    """optimal_success_vs_phases(n, a, b) for every a, b in phases, one row per a.

    Each phase is checked and exponentiated once, and the powers are taken
    in one array pass by blocks of rows (_phase_plane_rows); every value
    equals the pointwise one bit for bit.
    """
    plane = []
    for values, index in _phase_plane_rows(n, phases):
        # an object array of the block's floats: take gives each row its floats with no int per cell
        plane += np.array(values.tolist(), dtype=object).take(index).tolist()
    return plane


def optimal_success_vs_mixing(n: int, theta: float) -> float:
    """Idealized optimal success for one marked item at zero phases.

    Equals (cos t + sin t)^{2n} / 2^n; maximized at theta = pi/4 where it
    is exactly 1, and 2^{-n} at both endpoints of [0, pi/2].
    """
    n = check_qubit_count(n)
    _check_mixing_angle(theta)
    return (math.cos(theta) + math.sin(theta)) ** (2 * n) / 2**n
