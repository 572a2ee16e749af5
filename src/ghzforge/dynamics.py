"""From parameter curves to Hamiltonians, and back to laser amplitudes.

A differentiable curve t -> (left(t), right(t)) of rotation vectors
induces, through i dU/dt = H U, a Hamiltonian that stays inside the
algebra: H = w_left . L + w_right . R with vectorial rates w computed
from the curve and its velocity.  Physical drives can only realize
Hamiltonians of the ladder form, which pins three components of the
rates to zero or to each other; those constraints and the linear map
between rate components and the three Rabi amplitudes live here.
Rabi amplitudes are arrays (..., 3) of (O1, O2, O3), as in a schedule;
curve points, velocities and rates are pairs (2, ..., 3), left first.
"""

from __future__ import annotations

import numpy as np

from .unitary import _SERIES_CUTOFF, _norm

__all__ = [
    "ConstraintViolation",
    "rotation_rate",
    "check_constraints",
    "rabi_from_vectorial",
    "vectorial_from_rabi",
]

CONSTRAINT_TOL = 1e-9

# Above this norm c3 = (n - sin n)/n^3, about 1/n^2, nears the subnormal
# range, so rotation_rate forms its third term as (1 - sin n/n)(u . vdot) u
# with u = vec/n.
_LARGE_NORM = 2.0**500


class ConstraintViolation(ValueError):
    """Vectorial rates are not realizable by real ladder drives."""


def rotation_rate(vec: np.ndarray, vec_dot: np.ndarray) -> np.ndarray:
    """Rotation rate w such that i d/dt e^{-i vec.G} = (w.G) e^{-i vec.G}.

    Exact for any smooth rotation-vector path:

        w = sin(n)/n * vdot
          + 2 sin^2(n/2)/n^2 * (vec x vdot)
          + (n - sin n)/n^3 * (vec . vdot) vec

    with n = |vec|; near n = 0 the three coefficients switch to series,
    and above _LARGE_NORM the third term is taken on the unit vector.
    ``vec`` and ``vec_dot`` have shape (..., 3), and so does the result,
    so a curve point (2, ..., 3) gives the rates of both factors; a batch
    gives the same values as one call per row.
    """
    v = np.asarray(vec, dtype=float)
    vd = np.asarray(vec_dot, dtype=float)
    n = _norm(v)[..., None]
    # the coefficients by their Taylor series below the cutoff only, where
    # they cannot overflow, and above it by the closed forms, divided by
    # one factor of n at a time so that no power of n is formed
    series = n < _SERIES_CUTOFF
    closed = ~series
    n2 = np.where(series, n, 0.0) ** 2
    c1 = 1.0 - n2 / 6.0
    c2 = 0.5 - n2 / 24.0
    c3 = 1.0 / 6.0 - n2 / 120.0
    sn = np.sin(n)
    np.divide(sn, n, out=c1, where=closed)
    np.divide(2.0 * np.sin(n / 2.0) ** 2, n, out=c2, where=closed)
    np.divide(c2, n, out=c2, where=closed)
    np.divide(n - sn, n, out=c3, where=closed)
    np.divide(c3, n, out=c3, where=closed)
    np.divide(c3, n, out=c3, where=closed)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    xd, yd, zd = vd[..., 0], vd[..., 1], vd[..., 2]
    cross = np.stack([y * zd - z * yd, z * xd - x * zd, x * yd - y * xd], axis=-1)
    dot = (x * xd + y * yd + z * zd)[..., None]
    third = c3 * dot * v
    large = n[..., 0] > _LARGE_NORM
    if np.any(large):
        unit = v[large] / n[large]
        third[large] = (1.0 - c1[large]) * np.sum(unit * vd[large], axis=-1, keepdims=True) * unit
    return c1 * vd + c2 * cross + third


def check_constraints(rates: np.ndarray) -> np.ndarray:
    """Residuals of the realizability conditions on rotation rates (2, ..., 3).

    Real ladder drives require both z rates to vanish and the two y
    rates to coincide.  Returns the three residuals in that order, along
    the last axis, shape (..., 3).
    """
    left, right = np.asarray(rates, dtype=float)
    return np.stack([left[..., 2], right[..., 2], left[..., 1] - right[..., 1]], axis=-1)


def rabi_from_vectorial(rates: np.ndarray) -> np.ndarray:
    """Rabi amplitudes (..., 3) realizing constraint-satisfying rates (2, ..., 3)."""
    worst = float(np.max(np.abs(check_constraints(rates))))
    if not worst <= CONSTRAINT_TOL:
        raise ConstraintViolation(
            f"rotation rates violate the ladder constraints, max residual {worst:.3e}"
        )
    left, right = np.asarray(rates, dtype=float)
    total = left + right
    return 0.5 * np.stack([total[..., 0], total[..., 1], left[..., 0] - right[..., 0]], axis=-1)


def vectorial_from_rabi(rabi: np.ndarray) -> np.ndarray:
    """Inverse of rabi_from_vectorial on the constraint surface: (..., 3) to (2, ..., 3)."""
    amp = np.asarray(rabi, dtype=float)
    zero = np.zeros_like(amp[..., 1])
    left = np.stack([amp[..., 0] + amp[..., 2], amp[..., 1], zero], axis=-1)
    right = np.stack([amp[..., 0] - amp[..., 2], amp[..., 1], zero], axis=-1)
    return np.stack([left, right])
