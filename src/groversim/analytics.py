"""Closed-form success probabilities and coherence-fraction analytics.

The central quantity is the coherence fraction of a state with respect
to the uniform state |eta>: f_c = |<eta|psi>|^2 for pure states and
<eta|rho|eta> for density matrices. Averaged over every size-r marked
set, the success probability of Grover search from an arbitrary initial
state is an affine function of f_c alone; the functions here evaluate
that closed form, its optimum, and the quantities around it.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .states import NORM_ATOL, PureState, StateMixture, check_integer

SMALL_DENSITY_CAP = 64
_HERMITIAN_ATOL = 1e-10
_PSD_ATOL = 1e-10
_IMAG_ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class SmallDensityMatrix:
    """Density matrix on a dimension-N space, N <= 64.

    Checked at construction: square shape, Hermitian to 1e-10, unit trace
    to 1e-10, and eigenvalues >= -1e-10.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=np.complex128, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] < 1 or m.shape[0] > SMALL_DENSITY_CAP:
            raise ValueError(f"dimension must lie in [1, {SMALL_DENSITY_CAP}], got {m.shape[0]}")
        if not np.abs(m - m.conj().T).max() <= _HERMITIAN_ATOL:
            raise ValueError("matrix is not Hermitian")
        tr = complex(np.trace(m))
        if not abs(tr - 1.0) <= _HERMITIAN_ATOL:
            raise ValueError(f"trace is {tr!r}, expected 1")
        if not float(np.linalg.eigvalsh(m).min()) >= -_PSD_ATOL:
            raise ValueError("matrix has a negative eigenvalue beyond tolerance")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_pure(cls, state: PureState) -> "SmallDensityMatrix":
        a = state.amplitudes
        return cls(np.outer(a, a.conj()))

    @classmethod
    def from_mixture(cls, mixture: StateMixture) -> "SmallDensityMatrix":
        dim = mixture.dimension
        m = np.zeros((dim, dim), dtype=np.complex128)
        for w, s in mixture.components:
            a = s.amplitudes
            m += w * np.outer(a, a.conj())
        return cls(m)


@dataclass(frozen=True)
class MeasureCounterexampleReport:
    """Witness values showing what the coherence fraction does not measure."""

    separable_fraction: float
    entangled_fraction: float
    entanglement_blind: bool
    incoherent_fraction: float
    coherent_fraction: float
    coherence_blind: bool
    conclusion: str

    def to_dict(self) -> dict:
        return asdict(self)


def _check_geometry(dim: int, r: int) -> None:
    if check_integer(dim, "dimension") < 2:
        raise ValueError(f"dimension must be an int >= 2, got {dim!r}")
    if not 1 <= check_integer(r, "marked count") <= dim:
        raise ValueError(f"marked count must be an int in [1, {dim}], got {r!r}")


def check_step_count(tau) -> int:
    """Return tau as an int if it is an integer >= 0; raise ValueError otherwise."""
    tau = check_integer(tau, "step count")
    if tau < 0:
        raise ValueError(f"step count must be a non-negative int, got {tau!r}")
    return tau


def _check_fraction(fc):
    """fc, a float or an ndarray of them, checked to lie in [0, 1 + NORM_ATOL] and clamped to 1.

    A state normalized to NORM_ATOL, or a mixture whose weights sum to 1
    within it, can have f_c that far above 1.
    """
    values = np.asarray(fc, dtype=np.float64)
    inside = (values >= 0.0) & (values <= 1.0 + NORM_ATOL)
    if not inside.all():
        bad = float(values[~inside].flat[0])
        raise ValueError(f"coherence fraction must lie in [0, 1], got {bad!r}")
    clamped = np.minimum(values, 1.0)
    return clamped if clamped.ndim else float(clamped)


def mixing_angle(dim: int, r: int) -> float:
    """theta = arccos(1 - 2r/dim), the per-step rotation angle."""
    _check_geometry(dim, r)
    return math.acos(1.0 - 2.0 * r / dim)


def coherence_fraction(state: PureState) -> float:
    """f_c = |<eta|psi>|^2 = |sum_x a_x|^2 / N."""
    return float(abs(state.amplitude_sum) ** 2 / state.dimension)


def coherence_fraction_mixture(mixture: StateMixture) -> float:
    """Weighted average of the component coherence fractions (f_c is linear in rho)."""
    return float(
        math.fsum(w * coherence_fraction(s) for w, s in mixture.components)
    )


def closed_form_average(dim: int, r: int, tau: int, fc: float) -> float:
    """Average success probability over all size-r marked sets after tau steps.

    P = ((N sin^2(vartheta) - r) f_c + (r - sin^2(vartheta))) / (N - 1)
    with vartheta = theta (tau + 1/2); exact for every initial state with
    coherence fraction f_c. fc may be a float, giving a float, or an
    ndarray, giving an ndarray whose every entry equals the float result for
    that entry bit for bit.
    """
    theta = mixing_angle(dim, r)
    check_step_count(tau)
    fc = _check_fraction(fc)
    s2 = math.sin(theta * (tau + 0.5)) ** 2
    return ((dim * s2 - r) * fc + (r - s2)) / (dim - 1)


def optimal_iterations(dim: int, r: int) -> int:
    """tau_opt = floor((pi/4) sqrt(N/r)), the step count used at the optimum."""
    _check_geometry(dim, r)
    return int(math.floor(math.pi / 4.0 * math.sqrt(dim / r)))


def optimal_average(dim: int, r: int, fc):
    """Idealized optimum of the average: (N-r)/(N-1) * f_c + (r-1)/(N-1).

    This sets sin^2(vartheta) = 1 exactly; the value at tau_opt differs
    from it by at most (1 - sin^2(vartheta_opt)). fc may be a float, giving
    a float, or an ndarray, giving an ndarray whose every entry equals the
    float result for that entry bit for bit.
    """
    _check_geometry(dim, r)
    fc = _check_fraction(fc)
    return (dim - r) / (dim - 1) * fc + (r - 1) / (dim - 1)


def closed_form_average_mixture(dim: int, r: int, tau: int, mixture: StateMixture) -> float:
    """Closed-form average for an ensemble; linearity in rho makes this exact."""
    if mixture.dimension != dim:
        raise ValueError(f"mixture dimension {mixture.dimension} does not match {dim}")
    return closed_form_average(dim, r, tau, coherence_fraction_mixture(mixture))


def l1_coherence(rho: SmallDensityMatrix) -> float:
    """Sum of |rho_ij| over the off-diagonal entries."""
    m = rho.matrix
    return float(np.abs(m).sum() - np.abs(np.diag(m)).sum())


def coherence_fraction_density(rho: SmallDensityMatrix) -> float:
    """f_c = <eta|rho|eta> = (1/N) sum_ij rho_ij."""
    total = complex(rho.matrix.sum())
    if abs(total.imag) > _IMAG_ATOL * rho.dimension:
        raise ValueError(f"entry sum has imaginary part {total.imag!r}; matrix is not Hermitian enough")
    return float(total.real / rho.dimension)


def rewritten_optimal_average(dim: int, r: int, rho: SmallDensityMatrix) -> float:
    """Idealized optimum written through the off-diagonal sum of rho.

    For a density matrix with non-negative entries the off-diagonal sum
    equals the l1 coherence, giving
    P = (N - r)/(N(N - 1)) * (1 + C_l1(rho)) + (r - 1)/(N - 1).
    Only valid when every entry of rho is non-negative, so a rho with an
    entry below -1e-10 or an imaginary part beyond 1e-10 raises ValueError.
    """
    if rho.dimension != dim:
        raise ValueError(f"density matrix dimension {rho.dimension} does not match {dim}")
    m = rho.matrix
    if (m.real < -_PSD_ATOL).any() or (np.abs(m.imag) > _PSD_ATOL).any():
        raise ValueError("the rewritten optimum needs a density matrix with real, non-negative entries")
    return optimal_average(dim, r, (1.0 + l1_coherence(rho)) / dim)


def measure_counterexample_report() -> MeasureCounterexampleReport:
    """Four witness states showing f_c tracks neither entanglement nor coherence.

    A separable two-qubit state and a maximally entangled one share
    f_c = 1/2; so do the maximally mixed qubit (zero l1 coherence) and a
    qubit state with off-diagonal weight i/3.
    """
    half = 1.0 / math.sqrt(2.0)
    # amplitudes on 00, 01, 10, 11: (|0> + |1>)/sqrt2 on qubit 0 beside |0>, and the Bell state
    separable = coherence_fraction(PureState(2, np.array([half, 0.0, half, 0.0], dtype=np.complex128)))
    entangled = coherence_fraction(PureState(2, np.array([half, 0.0, 0.0, half], dtype=np.complex128)))
    incoherent = coherence_fraction_density(
        SmallDensityMatrix(np.eye(2) / 2.0)
    )
    coherent = coherence_fraction_density(
        SmallDensityMatrix(
            np.array([[1.0 / 3.0, -1j / 3.0], [1j / 3.0, 2.0 / 3.0]])
        )
    )
    return MeasureCounterexampleReport(
        separable_fraction=separable,
        entangled_fraction=entangled,
        entanglement_blind=math.isclose(separable, entangled, abs_tol=1e-12),
        incoherent_fraction=incoherent,
        coherent_fraction=coherent,
        coherence_blind=math.isclose(incoherent, coherent, abs_tol=1e-12),
        conclusion=(
            "the coherence fraction assigns equal values to a separable and a "
            "maximally entangled state and to an incoherent and a coherent "
            "state; it is neither an entanglement measure nor a coherence measure"
        ),
    )
