"""Closed-form propagators generated by the two commuting spin families.

Every unitary reachable by the effective dynamics factorizes as a left
rotation times a right rotation, each parametrized by a rotation vector
in R^3.  Because the families are spin-1/2, both factors have half-angle
closed forms and the whole map reduces to a pair of 2x2 Cayley-Klein
coefficient sets.  The half-angle formula works elementwise on arrays of
rotation vectors, so the same code serves single rotations and the
per-step factors of the ladder integrator in ``propagate``, which also
takes its products and its readout from here.  No matrix exponential is
ever needed at runtime; a dense eigendecomposition oracle lives in the
test suite instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import build_generators, pseudospin_basis

__all__ = [
    "RotationPair",
    "CayleyKlein",
    "cayley_klein",
    "exp_map",
    "transformed_pseudospin_states",
]

# Below this rotation angle the sin(|v|/2)/|v| factor (and the rate
# coefficients of dynamics.rotation_rate) switch to their Taylor series to
# avoid 0/0 at the origin.
_SERIES_CUTOFF = 1e-6

# A rotation [[a, -b*], [b, a*]], a = x0 - i x3, b = -i x1 + x2, is x0 - 2i x . G.
# Row 4 mu + nu of _UNITS is (left unit mu)(right unit nu), where the units are
# 1 and -2i G_k; their entries are 0, +-1 and +-i, so products are exact.
_GENS = build_generators()
_LEFT, _RIGHT = (np.stack([np.eye(4), *(-2j * g)]) for g in (_GENS.left, _GENS.right))
_UNITS = (_LEFT[:, None] @ _RIGHT).reshape(16, 4, 4)


@dataclass(frozen=True)
class RotationPair:
    """Rotation vectors (radians) for the left and right factor."""

    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        for name in ("left", "right"):
            vec = np.asarray(getattr(self, name), dtype=float)
            if vec.shape != (3,):
                raise ValueError(f"{name} rotation vector must have 3 components")
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"{name} rotation vector must be finite")
            vec.setflags(write=False)
            object.__setattr__(self, name, vec)


@dataclass(frozen=True)
class CayleyKlein:
    """First-column entries of a 2x2 special unitary rotation.

    ``diag`` is the upper-left entry and ``off`` the lower-left one;
    together they satisfy |diag|^2 + |off|^2 = 1 and determine the whole
    matrix [[diag, -conj(off)], [off, conj(diag)]].  For a batch of
    rotations both fields are complex arrays of the batch shape.
    """

    diag: complex | np.ndarray
    off: complex | np.ndarray

    def as_matrix(self) -> np.ndarray:
        return np.array(
            [[self.diag, -np.conj(self.off)], [self.off, np.conj(self.diag)]]
        )


def cayley_klein(vec: np.ndarray) -> CayleyKlein:
    """Cayley-Klein coefficients of the rotation e^{-i vec . spin}.

    ``vec`` has shape (3,) or (..., 3); a batch gives array fields of
    shape (...).  At vec = 0 the smooth limit (1, 0) is returned.
    """
    v = np.asarray(vec, dtype=float)
    norm = np.linalg.norm(v, axis=-1)
    # k = sin(n/2)/n, by its Taylor series below the cutoff
    n2 = norm * norm
    k = np.asarray(0.5 - n2 / 48.0 + n2 * n2 / 3840.0)
    np.divide(np.sin(norm / 2.0), norm, out=k, where=norm >= _SERIES_CUTOFF)
    diag = np.cos(norm / 2.0) - 1j * v[..., 2] * k
    off = (-1j * v[..., 0] + v[..., 1]) * k
    if v.ndim == 1:
        return CayleyKlein(diag=complex(diag), off=complex(off))
    return CayleyKlein(diag=diag, off=off)


def _compose(a2, b2, a1, b1):
    """Cayley-Klein pair of the product U2 @ U1."""
    return a2 * a1 - b2.conj() * b1, b2 * a1 + a2.conj() * b1


def _weights(a, b):
    """Weights x_mu y_nu of the rows of _UNITS, from left pairs a[0], b[0] and right a[1], b[1]."""
    quat = np.stack([a.real, -b.imag, b.real, -a.imag])
    return (quat[:, None, 0] * quat[None, :, 1]).reshape(16, -1)


def exp_map(pair: RotationPair) -> np.ndarray:
    """The 4x4 unitary generated by a rotation-vector pair.

    Convention: the left factor is applied leftmost,
    U = exp(-i left . L) exp(-i right . R).  The factors commute, so the
    order only matters for serialization and documentation.
    """
    rot = cayley_klein(np.stack([pair.left, pair.right]))
    return (_weights(rot.diag, rot.off).T @ _UNITS.reshape(16, 16)).reshape(4, 4)


def transformed_pseudospin_states(pair: RotationPair) -> np.ndarray:
    """Images of the four pseudospin states under exp_map(pair).

    Computed without any 4x4 product: the unitary acts on the pseudospin
    labels as a tensor product of the two 2x2 Cayley-Klein matrices, so
    the images are basis columns mixed by a Kronecker product.  Returns
    a 4x4 matrix whose columns are the transformed (up-up, up-down,
    down-up, down-down) states in the physical basis.
    """
    rot_left = cayley_klein(pair.left).as_matrix()
    rot_right = cayley_klein(pair.right).as_matrix()
    return pseudospin_basis(_GENS).states @ np.kron(rot_left, rot_right)
