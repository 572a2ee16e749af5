"""Four-dimensional representation of su(2)+su(2) and its pseudospin basis.

The physical basis is fixed throughout the package as

    index 0: |ggg>          all atoms in the ground state
    index 1: |W>            symmetric single excitation
    index 2: |W'>           symmetric double excitation
    index 3: |rrr>          all atoms excited

On this space live two commuting triples of Hermitian generators, each
satisfying spin-1/2 commutation relations.  We call them the *left* and
*right* family; each drives one of the two effective pseudospins that
diagonalize the algebra.  All matrices here have exact entries in
{0, +-1/2, +-i/2}, so structural identities hold to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NotScalarMultiple",
    "DimensionMismatch",
    "GeneratorSet",
    "PseudospinBasis",
    "build_generators",
    "casimirs",
    "pseudospin_basis",
    "w_state",
    "ggg_state",
    "wprime_state",
    "rrr_state",
    "ghz_state",
]


class NotScalarMultiple(ValueError):
    """A matrix that must be a multiple of the identity is not one."""


class DimensionMismatch(ValueError):
    """A generator set or basis matrix has the wrong shape."""


@dataclass(frozen=True)
class GeneratorSet:
    """Two commuting triples of 4x4 Hermitian generators.

    ``left`` and ``right`` are arrays of shape (3, 4, 4).  Within each
    family [G_i, G_j] = i eps_ijk G_k; across families everything
    commutes.  Instances are immutable; the arrays are marked read-only.
    """

    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        for name in ("left", "right"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            if arr.shape != (3, 4, 4):
                raise DimensionMismatch(f"{name} generators must have shape (3, 4, 4)")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def build_generators() -> GeneratorSet:
    """Return the standard generator set on the physical basis.

    The matrices couple |ggg>-|W> and |W'>-|rrr> (index 1 of each
    family), |ggg>-|rrr> and |W>-|W'> (index 2), and are diagonalized by
    the pseudospin basis (index 3).
    """
    left = np.zeros((3, 4, 4), dtype=complex)
    right = np.zeros((3, 4, 4), dtype=complex)

    left[0] = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    right[0] = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]]

    left[1] = [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]
    right[1] = [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]

    left[2] = [[0, 0, -1j, 0], [0, 0, 0, 1j], [1j, 0, 0, 0], [0, -1j, 0, 0]]
    right[2] = [[0, 0, -1j, 0], [0, 0, 0, -1j], [1j, 0, 0, 0], [0, 1j, 0, 0]]

    return GeneratorSet(left=0.5 * left, right=0.5 * right)


def _scalar_part(mat: np.ndarray) -> float:
    """Extract lambda from mat = lambda * identity (to 1e-12), or raise."""
    lam = np.mean(np.diag(mat)).real
    if np.max(np.abs(mat - lam * np.eye(mat.shape[0]))) > 1e-12:
        raise NotScalarMultiple(
            "quadratic generator sum deviates from a scalar multiple of the identity"
        )
    return float(lam)


def casimirs(gens: GeneratorSet) -> tuple[float, float]:
    """Quadratic invariants (sum and difference) of the two families.

    Returns (I, J) with I*1 = sum_i (L_i^2 + R_i^2) and
    J*1 = sum_i (L_i^2 - R_i^2).  Raises NotScalarMultiple if either sum
    fails to be scalar, which catches malformed generator sets.
    """
    sq_left = sum(g @ g for g in gens.left)
    sq_right = sum(g @ g for g in gens.right)
    total = _scalar_part(sq_left + sq_right)
    diff = _scalar_part(sq_left - sq_right)
    return total, diff


@dataclass(frozen=True)
class PseudospinBasis:
    """Orthonormal simultaneous eigenbasis of the two z generators.

    ``states`` holds the four vectors as columns, ordered
    (up-up, up-down, down-up, down-down), where the first arrow labels
    the left pseudospin.  The phases are pinned by the top state
    (-i, 0, 1, 0)/sqrt(2) and by unit-coefficient lowering, and every
    downstream expansion relies on exactly these phases.
    """

    states: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.states, dtype=complex)
        if arr.shape != (4, 4):
            raise DimensionMismatch("pseudospin basis must be a 4x4 column matrix")
        arr.setflags(write=False)
        object.__setattr__(self, "states", arr)

    @property
    def up_up(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def up_down(self) -> np.ndarray:
        return self.states[:, 1]

    @property
    def down_up(self) -> np.ndarray:
        return self.states[:, 2]

    @property
    def down_down(self) -> np.ndarray:
        return self.states[:, 3]


def pseudospin_basis(gens: GeneratorSet) -> PseudospinBasis:
    """Construct the pseudospin basis from a generator set.

    The doubly-stretched state (the +1 eigenvector of L_3 + R_3) is
    pinned to (-i, 0, 1, 0)/sqrt(2); the remaining three vectors follow
    by applying the two lowering operators, which act with coefficient
    one on spin-1/2.  Raises NotScalarMultiple via casimirs() semantics
    if the generator set does not reproduce the expected top state.
    """
    top = np.array([-1j, 0.0, 1.0, 0.0]) / np.sqrt(2.0)
    z_total = gens.left[2] + gens.right[2]
    if np.max(np.abs(z_total @ top - top)) > 1e-12:
        raise NotScalarMultiple(
            "generator set does not have (-i, 0, 1, 0)/sqrt(2) as its stretched state"
        )

    lower_left = gens.left[0] - 1j * gens.left[1]
    lower_right = gens.right[0] - 1j * gens.right[1]

    down_up = lower_left @ top
    up_down = lower_right @ top
    down_down = lower_right @ down_up

    return PseudospinBasis(states=np.stack([top, up_down, down_up, down_down], axis=1))


# State factories.  All vectors are in the physical basis and normalized.

def ggg_state() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)


def w_state() -> np.ndarray:
    return np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)


def wprime_state() -> np.ndarray:
    return np.array([0.0, 0.0, 1.0, 0.0], dtype=complex)


def rrr_state() -> np.ndarray:
    return np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)


def ghz_state(phase: float) -> np.ndarray:
    """(|ggg> + e^{i phase} |rrr>)/sqrt(2)."""
    return np.array([1.0, 0.0, 0.0, np.exp(1j * phase)]) / np.sqrt(2.0)
