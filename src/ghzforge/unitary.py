"""Closed-form propagators generated by the two commuting spin families.

Every unitary reachable by the effective dynamics factorizes as a left
rotation times a right rotation, each parametrized by a rotation vector
in R^3.  Because the families are spin-1/2, both factors have half-angle
closed forms and the whole map reduces to a pair of 2x2 Cayley-Klein
coefficient sets.  The half-angle formula works elementwise on arrays of
rotation vectors, so the same code serves single rotations and the
per-step factors of the ladder integrator in ``propagate``.  No matrix
exponential is ever needed at runtime; a dense eigendecomposition
oracle lives in the test suite instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import GeneratorSet, PseudospinBasis, build_generators, pseudospin_basis

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


def _half_sinc(norm: float | np.ndarray) -> np.ndarray:
    """sin(n/2)/n elementwise, by its Taylor series below the cutoff."""
    norm = np.asarray(norm, dtype=float)
    n2 = norm * norm
    out = np.asarray(0.5 - n2 / 48.0 + n2 * n2 / 3840.0)
    np.divide(np.sin(norm / 2.0), norm, out=out, where=norm >= _SERIES_CUTOFF)
    return out


def cayley_klein(vec: np.ndarray) -> CayleyKlein:
    """Cayley-Klein coefficients of the rotation e^{-i vec . spin}.

    ``vec`` has shape (3,) or (..., 3); a batch gives array fields of
    shape (...).  At vec = 0 the smooth limit (1, 0) is returned.
    """
    v = np.asarray(vec, dtype=float)
    norm = np.linalg.norm(v, axis=-1)
    k = _half_sinc(norm)
    diag = np.cos(norm / 2.0) - 1j * v[..., 2] * k
    off = (-1j * v[..., 0] + v[..., 1]) * k
    if v.ndim == 1:
        return CayleyKlein(diag=complex(diag), off=complex(off))
    return CayleyKlein(diag=diag, off=off)


def _exp_factor(vec: np.ndarray, triple: np.ndarray) -> np.ndarray:
    """e^{-i vec . G} for one spin-1/2 triple, via the half-angle form."""
    v = np.asarray(vec, dtype=float)
    norm = float(np.linalg.norm(v))
    k = _half_sinc(norm)
    dotted = v[0] * triple[0] + v[1] * triple[1] + v[2] * triple[2]
    return np.cos(norm / 2.0) * np.eye(4, dtype=complex) - 2j * k * dotted


def exp_map(pair: RotationPair, gens: GeneratorSet | None = None) -> np.ndarray:
    """The 4x4 unitary generated by a rotation-vector pair.

    Convention: the left factor is applied leftmost,
    U = exp(-i left . L) exp(-i right . R).  The factors commute, so the
    order only matters for serialization and documentation.
    """
    if gens is None:
        gens = build_generators()
    return _exp_factor(pair.left, gens.left) @ _exp_factor(pair.right, gens.right)


def transformed_pseudospin_states(
    pair: RotationPair, basis: PseudospinBasis | None = None
) -> np.ndarray:
    """Images of the four pseudospin states under exp_map(pair).

    Computed without any 4x4 product: the unitary acts on the pseudospin
    labels as a tensor product of the two 2x2 Cayley-Klein matrices, so
    the images are basis columns mixed by a Kronecker product.  Returns
    a 4x4 matrix whose columns are the transformed (up-up, up-down,
    down-up, down-down) states in the physical basis.
    """
    if basis is None:
        basis = pseudospin_basis(build_generators())
    rot_left = cayley_klein(pair.left).as_matrix()
    rot_right = cayley_klein(pair.right).as_matrix()
    return basis.states @ np.kron(rot_left, rot_right)
