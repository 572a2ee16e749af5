"""From parameter curves to Hamiltonians, and back to laser amplitudes.

A differentiable curve t -> (left(t), right(t)) of rotation vectors
induces, through i dU/dt = H U, a Hamiltonian that stays inside the
algebra: H = w_left . L + w_right . R with vectorial rates w computed
from the curve and its velocity.  Physical drives can only realize
Hamiltonians of the ladder form, which pins three components of the
rates to zero or to each other; those constraints and the linear map
between rate components and the three Rabi amplitudes live here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .unitary import _GENS, _SERIES_CUTOFF

__all__ = [
    "ConstraintViolation",
    "RabiTriple",
    "CurveSample",
    "VectorialRabi",
    "ConstraintReport",
    "effective_hamiltonian",
    "ladder_hamiltonian",
    "rotation_rate",
    "vectorial_rabi",
    "check_constraints",
    "rabi_from_vectorial",
    "vectorial_from_rabi",
]

CONSTRAINT_TOL = 1e-9


class ConstraintViolation(ValueError):
    """Vectorial rates are not realizable by real ladder drives."""


@dataclass(frozen=True)
class RabiTriple:
    """Real Rabi amplitudes of the three ladder transitions.

    For a batch, the three fields are arrays of one shape.
    """

    omega1: float | np.ndarray
    omega2: float | np.ndarray
    omega3: float | np.ndarray

    def as_array(self) -> np.ndarray:
        """The amplitudes stacked along the last axis, shape (..., 3)."""
        return np.stack([self.omega1, self.omega2, self.omega3], axis=-1).astype(float)


@dataclass(frozen=True)
class CurveSample:
    """One point of a parameter curve with its velocity.

    For a batch of points, ``t`` is an array and the vectors are stacked
    (..., 3).
    """

    t: float | np.ndarray
    left: np.ndarray
    right: np.ndarray
    left_dot: np.ndarray
    right_dot: np.ndarray


@dataclass(frozen=True)
class VectorialRabi:
    """Rotation rates w_left, w_right induced by a curve point."""

    left: np.ndarray
    right: np.ndarray


@dataclass(frozen=True)
class ConstraintReport:
    residuals: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(np.max(np.abs(self.residuals)))

    @property
    def passed(self) -> bool:
        return self.max_residual <= CONSTRAINT_TOL


def effective_hamiltonian(rabi: RabiTriple) -> np.ndarray:
    """Hermitian 4x4 Hamiltonian as a combination of the generators.

    O1 couples through the sum of the two x generators, O2 through the
    sum of the y generators, and O3 through the x difference.  Entrywise
    this equals the ladder form built by ladder_hamiltonian().
    """
    return (
        rabi.omega1 * (_GENS.left[0] + _GENS.right[0])
        + rabi.omega2 * (_GENS.left[1] + _GENS.right[1])
        + rabi.omega3 * (_GENS.left[0] - _GENS.right[0])
    )


def ladder_hamiltonian(rabi: RabiTriple) -> np.ndarray:
    """The same Hamiltonian written as nearest-neighbor ladder couplings."""
    h = np.zeros((4, 4), dtype=complex)
    h[0, 1] = h[1, 0] = rabi.omega1
    h[1, 2] = h[2, 1] = rabi.omega2
    h[2, 3] = h[3, 2] = rabi.omega3
    return h


def rotation_rate(vec: np.ndarray, vec_dot: np.ndarray) -> np.ndarray:
    """Rotation rate w such that i d/dt e^{-i vec.G} = (w.G) e^{-i vec.G}.

    Exact for any smooth rotation-vector path:

        w = sin(n)/n * vdot
          + 2 sin^2(n/2)/n^2 * (vec x vdot)
          + (n - sin n)/n^3 * (vec . vdot) vec

    with n = |vec|; near n = 0 the three coefficients switch to series.
    ``vec`` and ``vec_dot`` have shape (3,) or (..., 3), and so does the
    result; a batch gives the same values as one call per row.
    """
    v = np.asarray(vec, dtype=float)
    vd = np.asarray(vec_dot, dtype=float)
    n = np.linalg.norm(v, axis=-1)[..., None]
    n2 = n * n
    series = n < _SERIES_CUTOFF
    safe = np.where(series, 1.0, n)
    sn = np.sin(safe)
    c1 = np.where(series, 1.0 - n2 / 6.0, sn / safe)
    c2 = np.where(series, 0.5 - n2 / 24.0, 2.0 * np.sin(safe / 2.0) ** 2 / (safe * safe))
    c3 = np.where(series, 1.0 / 6.0 - n2 / 120.0, (safe - sn) / (safe * safe * safe))
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    xd, yd, zd = vd[..., 0], vd[..., 1], vd[..., 2]
    cross = np.stack([y * zd - z * yd, z * xd - x * zd, x * yd - y * xd], axis=-1)
    dot = (x * xd + y * yd + z * zd)[..., None]
    return c1 * vd + c2 * cross + c3 * dot * v


def vectorial_rabi(sample: CurveSample) -> VectorialRabi:
    """Rotation rates of both curve factors at one sample."""
    return VectorialRabi(
        left=rotation_rate(sample.left, sample.left_dot),
        right=rotation_rate(sample.right, sample.right_dot),
    )


def check_constraints(rates: VectorialRabi) -> ConstraintReport:
    """Residuals of the realizability conditions on the rotation rates.

    Real ladder drives require both z rates to vanish and the two y
    rates to coincide.  Returns the three residuals in that order, along
    the last axis when the rates are stacked (..., 3).
    """
    left = np.asarray(rates.left, dtype=float)
    right = np.asarray(rates.right, dtype=float)
    residuals = np.stack(
        [left[..., 2], right[..., 2], left[..., 1] - right[..., 1]], axis=-1
    )
    return ConstraintReport(residuals=residuals)


def rabi_from_vectorial(rates: VectorialRabi) -> RabiTriple:
    """Rabi amplitudes realizing constraint-satisfying rotation rates.

    Rates stacked (..., 3) give a RabiTriple of arrays.
    """
    report = check_constraints(rates)
    if not report.passed:
        raise ConstraintViolation(
            f"rotation rates violate the ladder constraints, max residual {report.max_residual:.3e}"
        )
    left = np.asarray(rates.left, dtype=float)
    right = np.asarray(rates.right, dtype=float)
    return RabiTriple(
        omega1=0.5 * (left[..., 0] + right[..., 0]),
        omega2=0.5 * (left[..., 1] + right[..., 1]),
        omega3=0.5 * (left[..., 0] - right[..., 0]),
    )


def vectorial_from_rabi(rabi: RabiTriple) -> VectorialRabi:
    """Inverse of rabi_from_vectorial on the constraint surface, batched like it."""
    amp = rabi.as_array()
    zero = np.zeros_like(amp[..., 1])
    left = np.stack([amp[..., 0] + amp[..., 2], amp[..., 1], zero], axis=-1)
    right = np.stack([amp[..., 0] - amp[..., 2], amp[..., 1], zero], axis=-1)
    return VectorialRabi(left=left, right=right)
