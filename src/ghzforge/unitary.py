"""Closed-form propagators generated by the two commuting spin families.

Every unitary reachable by the effective dynamics factorizes as a left
rotation times a right rotation, each parametrized by a rotation vector
in R^3.  Because the families are spin-1/2, both factors have half-angle
closed forms and the whole map reduces to a pair of 2x2 Cayley-Klein
coefficient sets.  A rotation-vector pair is an array of shape
(2, ..., 3), the left vector first.  The half-angle formula works
elementwise on arrays of rotation vectors, so the same code serves
single rotations and the per-step factors of the ladder integrator in
``propagate``, which also takes its products and its readout from
here.  Outside these closed forms the package sums one matrix
exponential, fullmodel's power series, for the full model's steps and
``ghz-forge check``.  No LAPACK eigensolver runs in the package:
fullmodel diagonalizes its 4x4 block by cyclic Jacobi rotations.
"""

from __future__ import annotations

import numpy as np

from .algebra import build_generators, pseudospin_basis

__all__ = ["cayley_klein", "exp_map", "transformed_pseudospin_states"]

# Below this rotation angle the sin(|v|/2)/|v| factor (and the rate
# coefficients of dynamics.rotation_rate) switch to their Taylor series to
# avoid 0/0 at the origin.
_SERIES_CUTOFF = 1e-6

# A rotation [[a, -b*], [b, a*]], a = x0 - i x3, b = -i x1 + x2, is x0 - 2i x . G.
# Row 4 mu + nu of _UNITS is (left unit mu)(right unit nu), where the units are
# 1 and -2i G_k; their entries are 0, +-1 and +-i, so products are exact.
_LEFT, _RIGHT = (np.stack([np.eye(4), *(-2j * g)]) for g in build_generators())
_UNITS = (_LEFT[:, None] @ _RIGHT).reshape(16, 4, 4)


def _pair(pair: np.ndarray) -> np.ndarray:
    """A rotation-vector pair as a finite (2, 3) array, left vector first."""
    vecs = np.asarray(pair, dtype=float)
    if vecs.shape != (2, 3):
        raise ValueError(f"a rotation pair must have shape (2, 3), not {vecs.shape}")
    if not np.all(np.isfinite(vecs)):
        raise ValueError("rotation vectors must be finite")
    return vecs


def _norm(vec: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, finite for every finite vector.

    Where the squares overflow (a norm above about 1.3e154), the rows are
    scaled by their largest entry first; elsewhere it is np.linalg.norm.
    """
    with np.errstate(over="ignore"):
        norm = np.asarray(np.linalg.norm(vec, axis=-1))
    big = np.isinf(norm)
    if np.any(big):
        rows = vec[big]
        scale = np.max(np.abs(rows), axis=-1, keepdims=True)
        norm[big] = scale[..., 0] * np.linalg.norm(rows / scale, axis=-1)
    return norm


def cayley_klein(vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cayley-Klein coefficients (a, b) of the rotation e^{-i vec . spin}.

    ``vec`` has shape (..., 3); a and b are complex arrays of shape (...),
    the first column of the 2x2 rotation [[a, -b*], [b, a*]], with
    |a|^2 + |b|^2 = 1.  At vec = 0 the smooth limit (1, 0) is returned.
    """
    v = np.asarray(vec, dtype=float)
    norm = _norm(v)
    # k = sin(n/2)/n, by its Taylor series below the cutoff only, where it
    # cannot overflow
    series = norm < _SERIES_CUTOFF
    n2 = np.where(series, norm, 0.0) ** 2
    k = np.asarray(0.5 - n2 / 48.0 + n2 * n2 / 3840.0)
    np.divide(np.sin(norm / 2.0), norm, out=k, where=~series)
    a = np.cos(norm / 2.0) - 1j * v[..., 2] * k
    b = (-1j * v[..., 0] + v[..., 1]) * k
    return a, b


def _compose(a2, b2, a1, b1):
    """Cayley-Klein pair of the product U2 @ U1."""
    return a2 * a1 - b2.conj() * b1, b2 * a1 + a2.conj() * b1


def _weights(a, b):
    """Weights x_mu y_nu of the rows of _UNITS, from left pairs a[0], b[0] and right a[1], b[1]."""
    quat = np.stack([a.real, -b.imag, b.real, -a.imag])
    return (quat[:, None, 0] * quat[None, :, 1]).reshape(16, -1)


def exp_map(pair: np.ndarray) -> np.ndarray:
    """The 4x4 unitary generated by a rotation-vector pair, shape (2, 3).

    Convention: the left factor is applied leftmost,
    U = exp(-i pair[0] . L) exp(-i pair[1] . R).  The factors commute, so
    the order only matters for serialization and documentation.
    """
    return _unitaries(_pair(pair))


def _unitaries(pairs: np.ndarray) -> np.ndarray:
    """exp_map of each unchecked pair in an array of shape (2, ..., 3); shape (..., 4, 4)."""
    a, b = cayley_klein(pairs)
    return (_weights(a, b).T @ _UNITS.reshape(16, 16)).reshape(*a.shape[1:], 4, 4)


def transformed_pseudospin_states(pair: np.ndarray) -> np.ndarray:
    """Images of the four pseudospin states under exp_map(pair).

    Computed without any 4x4 product: the unitary acts on the pseudospin
    labels as a tensor product of the two 2x2 Cayley-Klein matrices, so
    the images are basis columns mixed by a Kronecker product.  Returns
    a 4x4 matrix whose columns are the transformed (up-up, up-down,
    down-up, down-down) states in the physical basis.
    """
    a, b = cayley_klein(_pair(pair))
    rot = np.array([[a, -b.conj()], [b, a.conj()]])
    return pseudospin_basis() @ np.kron(rot[..., 0], rot[..., 1])
