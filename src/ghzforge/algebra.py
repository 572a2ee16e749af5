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

import numpy as np

__all__ = [
    "NotScalarMultiple",
    "AmplitudeTooSmall",
    "build_generators",
    "casimirs",
    "pseudospin_basis",
    "w_state",
    "ggg_state",
    "wprime_state",
    "rrr_state",
    "ghz_state",
    "extract_ghz_phase",
]


class NotScalarMultiple(ValueError):
    """A matrix that must be a multiple of the identity is not one."""


class AmplitudeTooSmall(ValueError):
    """Phase extraction needs both extreme components to be populated."""


def build_generators() -> np.ndarray:
    """The standard generators on the physical basis, read-only, shape (2, 3, 4, 4).

    Family 0 is left and family 1 right, as in rotation pairs.  Within
    each family [G_i, G_j] = i eps_ijk G_k; across families everything
    commutes.  The matrices couple |ggg>-|W> and |W'>-|rrr> (index 1 of
    each family), |ggg>-|rrr> and |W>-|W'> (index 2), and are diagonalized
    by the pseudospin basis (index 3).
    """
    gens = np.zeros((2, 3, 4, 4), dtype=complex)
    left, right = gens

    left[0] = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    right[0] = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]]

    left[1] = [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]
    right[1] = [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]

    left[2] = [[0, 0, -1j, 0], [0, 0, 0, 1j], [1j, 0, 0, 0], [0, -1j, 0, 0]]
    right[2] = [[0, 0, -1j, 0], [0, 0, 0, -1j], [1j, 0, 0, 0], [0, 1j, 0, 0]]

    gens = 0.5 * gens
    gens.setflags(write=False)
    return gens


def _scalar_part(mat: np.ndarray) -> float:
    """Extract lambda from mat = lambda * identity (to 1e-12), or raise."""
    lam = np.mean(np.diag(mat)).real
    if np.max(np.abs(mat - lam * np.eye(mat.shape[0]))) > 1e-12:
        raise NotScalarMultiple(
            "quadratic generator sum deviates from a scalar multiple of the identity"
        )
    return float(lam)


def casimirs(gens: np.ndarray) -> tuple[float, float]:
    """Quadratic invariants (sum and difference) of the two families.

    ``gens`` has shape (2, 3, 4, 4), left family first.  Returns (I, J)
    with I*1 = sum_i (L_i^2 + R_i^2) and J*1 = sum_i (L_i^2 - R_i^2).
    Raises NotScalarMultiple if either sum fails to be scalar, which
    catches malformed generator sets.
    """
    sq_left, sq_right = (sum(g @ g for g in family) for family in gens)
    total = _scalar_part(sq_left + sq_right)
    diff = _scalar_part(sq_left - sq_right)
    return total, diff


def pseudospin_basis() -> np.ndarray:
    """The simultaneous eigenbasis of the two z generators, read-only, shape (4, 4).

    The columns are (up-up, up-down, down-up, down-down), where the first
    arrow labels the left pseudospin.  The phases are pinned by the top
    state (-i, 0, 1, 0)/sqrt(2), the +1 eigenvector of L_3 + R_3, and by
    applying the two lowering operators, which act with coefficient one on
    spin-1/2; every downstream expansion relies on exactly these phases.
    """
    top = np.array([-1j, 0.0, 1.0, 0.0]) / np.sqrt(2.0)
    gens = build_generators()
    lower_left, lower_right = gens[:, 0] - 1j * gens[:, 1]

    down_up = lower_left @ top
    up_down = lower_right @ top
    down_down = lower_right @ down_up

    basis = np.stack([top, up_down, down_up, down_down], axis=1)
    basis.setflags(write=False)
    return basis


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


def extract_ghz_phase(state: np.ndarray) -> float:
    """Relative phase between the two extreme components, in [0, 2 pi).

    Raises AmplitudeTooSmall unless both |<ggg|state>| and
    |<rrr|state>| exceed 0.1; below that the phase is numerically
    meaningless.
    """
    vec = np.asarray(state, dtype=complex)
    lo, hi = complex(vec[0]) + 0j, complex(vec[3]) + 0j  # a -0.0 part reads 0.0, as in np.vdot
    if abs(lo) <= 0.1 or abs(hi) <= 0.1:
        raise AmplitudeTooSmall(
            f"extreme components {abs(lo):.3f}, {abs(hi):.3f} are too small "
            "for phase extraction"
        )
    return float((np.angle(hi) - np.angle(lo)) % (2.0 * np.pi))
