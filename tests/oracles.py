"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the code paths under test: matrix
exponentials go through numpy's eigendecomposition instead of the
closed-form rotation formulas, detunings are retyped from scratch, and
derivatives come from finite differences rather than the analytic
expressions carried by curves.
"""

import math

import numpy as np

from ghzforge.algebra import build_generators
from ghzforge.fullmodel import (
    MANIFOLD,
    PAIR_COUNTS,
    RAISING,
    TONE_WEIGHTS,
    embed_state,
    tone_frequencies,
)
from ghzforge.unitary import exp_map

GENS = build_generators()


def expm_eig(hermitian: np.ndarray) -> np.ndarray:
    """e^{-iH} for Hermitian H via eigendecomposition."""
    evals, evecs = np.linalg.eigh(hermitian)
    return (evecs * np.exp(-1j * evals)) @ evecs.conj().T


def exp_map_reference(pair: np.ndarray) -> np.ndarray:
    left = sum(pair[0][i] * GENS.left[i] for i in range(3))
    right = sum(pair[1][i] * GENS.right[i] for i in range(3))
    return expm_eig(left) @ expm_eig(right)


def detunings_reference(stark_amp: float, detuning0: float, blockade: float):
    """Stark-cancelling detunings, typed independently term by term."""
    s2 = stark_amp * stark_amp
    a = s2 / detuning0
    b = s2 / (detuning0 + blockade)
    c = s2 / (detuning0 + 2.0 * blockade)
    return (6.0 * a - 4.0 * b, -3.0 * a + 8.0 * b - 3.0 * c, -4.0 * b + 6.0 * c)


class FourierCurve:
    """Smooth random rotation-vector curve with analytic derivatives.

    Each component of each vector is a short sine series, so both the
    value and the exact time derivative are available at any t.
    """

    def __init__(self, rng: np.random.Generator, modes: int = 3, scale: float = 1.5):
        self.amp_left = rng.normal(0.0, scale, (3, modes))
        self.amp_right = rng.normal(0.0, scale, (3, modes))
        self.freq = rng.uniform(0.5, 3.0, modes)
        self.phase_left = rng.uniform(0.0, 2.0 * np.pi, (3, modes))
        self.phase_right = rng.uniform(0.0, 2.0 * np.pi, (3, modes))

    def _eval(self, amps, phases, t):
        arg = self.freq * t + phases
        value = np.sum(amps * np.sin(arg), axis=1)
        rate = np.sum(amps * self.freq * np.cos(arg), axis=1)
        return value, rate

    def at(self, t: float):
        left, left_dot = self._eval(self.amp_left, self.phase_left, t)
        right, right_dot = self._eval(self.amp_right, self.phase_right, t)
        return left, right, left_dot, right_dot

    def unitary(self, t: float) -> np.ndarray:
        left, right, _, _ = self.at(t)
        return exp_map(np.stack([left, right]))


def schroedinger_residual(curve: FourierCurve, hamiltonian: np.ndarray, t: float, h: float) -> float:
    """Max-norm of i dU/dt - H U with a central finite difference."""
    du = (curve.unitary(t + h) - curve.unitary(t - h)) / (2.0 * h)
    return float(np.max(np.abs(1j * du - hamiltonian @ curve.unitary(t))))


def midpoint_states_reference(hams: np.ndarray, dt: float, psi0: np.ndarray) -> np.ndarray:
    """Apply exp(-i H_k dt) for each Hermitian H_k in turn, starting from psi0.

    The per-step loop the package kernel replaced: one propagator and one
    renormalization per step, in order.  Returns the state after every
    step, shape (len(hams), dim).
    """
    evals, evecs = np.linalg.eigh(hams)
    phases = np.exp(-1j * evals * dt)
    # for real symmetric Hamiltonians conj() is a no-op view
    adjoints = evecs.conj().transpose(0, 2, 1)
    states = np.empty((len(hams), len(psi0)), dtype=complex)
    psi = psi0
    for k in range(len(hams)):
        psi = evecs[k] @ (phases[k] * (adjoints[k] @ psi))
        psi /= math.sqrt(float(np.sum(psi.real**2 + psi.imag**2)))
        states[k] = psi
    return states


def full_model_reference(params, chunk: int = 32768):
    """Per-step full-model integration with the leakage projected every step.

    Returns (final_state, leakage_max, steps, dt).  Keeps its own inline
    Hamiltonian build and step loop, independent of the package kernel.
    """
    duration = params.schedule.duration
    stiff = params.detuning0 + 2.0 * params.blockade
    n = max(1, math.ceil(duration * stiff * params.steps_per_cycle))
    dt = duration / n

    freqs = tone_frequencies(params)
    diag = params.blockade * PAIR_COUNTS

    psi = embed_state(np.array([0.0, 1.0, 0.0, 0.0]))
    manifold_t = MANIFOLD.T.copy()
    leak_max = 0.0

    done = 0
    while done < n:
        count = min(chunk, n - done)
        mids = (done + np.arange(count) + 0.5) * dt
        scheduled = params.schedule.values_at(mids) * TONE_WEIGHTS[None, :]
        amps = np.concatenate([np.full((count, 1), params.stark_amp), scheduled], axis=1)
        drive = np.sum(amps * np.exp(-1j * freqs[None, :] * mids[:, None]), axis=1)

        hams = drive[:, None, None] * RAISING[None, :, :]
        hams = hams + hams.conj().transpose(0, 2, 1)
        hams[:, np.arange(8), np.arange(8)] += diag[None, :]

        evals, evecs = np.linalg.eigh(hams)
        phases = np.exp(-1j * evals * dt)
        adjoints = evecs.conj().transpose(0, 2, 1)

        for k in range(count):
            psi = evecs[k] @ (phases[k] * (adjoints[k] @ psi))
            psi /= math.sqrt(float(np.sum(psi.real**2 + psi.imag**2)))
            proj = manifold_t @ psi
            leak = 1.0 - float(np.sum(proj.real**2 + proj.imag**2))
            if leak > leak_max:
                leak_max = leak
        done += count

    return psi, leak_max, n, dt


PERMUTATIONS_3 = (
    (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
)


def atom_permutation_matrix(perm) -> np.ndarray:
    """8x8 operator permuting the three atom slots of |b1 b2 b3>."""
    op = np.zeros((8, 8))
    for idx in range(8):
        bits = ((idx >> 2) & 1, (idx >> 1) & 1, idx & 1)
        new_bits = tuple(bits[p] for p in perm)
        target = (new_bits[0] << 2) | (new_bits[1] << 1) | new_bits[2]
        op[target, idx] = 1.0
    return op
