"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the code paths under test: matrix
exponentials go through numpy's eigendecomposition instead of the
closed-form rotation formulas, detunings and the eight-level three-atom
model are retyped from scratch, and derivatives come from finite
differences rather than the analytic expressions carried by curves.
"""

import math

import numpy as np

from ghzforge.algebra import build_generators
from ghzforge.dynamics import vectorial_from_rabi
from ghzforge.unitary import _norm, exp_map

GENS = build_generators()


def expm_eig(hermitian: np.ndarray) -> np.ndarray:
    """e^{-iH} for Hermitian H via eigendecomposition."""
    evals, evecs = np.linalg.eigh(hermitian)
    return (evecs * np.exp(-1j * evals)) @ evecs.conj().T


def generator_form(rates: np.ndarray) -> np.ndarray:
    """w_left . L + w_right . R for rates (2, ..., 3), shape (..., 4, 4)."""
    return np.einsum("f...k,fkij->...ij", rates, GENS)


def exp_map_reference(pair: np.ndarray) -> np.ndarray:
    return expm_eig(generator_form(pair))


def commutator_bound_reference(schedule) -> float:
    """The ladder's commutator bound with every component of the knot rates' cross products.

    The formula propagate._commutator_bound had before it used that the
    rates have no z component: all three components of each w_a x w_b,
    their rounding allowance summed over them and the Euclidean norm.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rates = vectorial_from_rabi(schedule.values)
        a, b = rates[:, :-1], rates[:, 1:]
        p = a[..., [1, 2, 0]] * b[..., [2, 0, 1]]
        q = a[..., [2, 0, 1]] * b[..., [1, 2, 0]]
        slack = 6.0 * 2.0**-53 * np.sum(np.abs(p) + np.abs(q), axis=-1)
        cross = _norm(p - q) + slack
        dt = np.diff(schedule.times)
        total = float((dt * dt) @ (cross[0] + cross[1])) / 12.0
    return total * (1.0 + (len(dt) + 32) * 2.0**-53)


def detunings_reference(stark_amp: float, detuning0: float, blockade: float):
    """Stark-cancelling detunings, typed independently term by term."""
    s2 = stark_amp * stark_amp
    a = s2 / detuning0
    b = s2 / (detuning0 + blockade)
    c = s2 / (detuning0 + 2.0 * blockade)
    return (6.0 * a - 4.0 * b, -3.0 * a + 8.0 * b - 3.0 * c, -4.0 * b + 6.0 * c)


def ladder_hamiltonian(rabi) -> np.ndarray:
    """Real ladder Hamiltonians (..., 4, 4) of Rabi amplitudes (..., 3).

    Amplitude k couples levels k and k + 1 of (ggg, W, W', rrr).
    """
    amp = np.asarray(rabi, dtype=float)
    hams = np.zeros(amp.shape[:-1] + (4, 4))
    for k in range(3):
        hams[..., k, k + 1] = hams[..., k + 1, k] = amp[..., k]
    return hams


# The eight-level model of three two-level atoms.  Basis index b1 b2 b3
# in binary, atom 1 the most significant bit, 1 for the excited state.
_SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]])
_EXCITED = np.diag([0.0, 1.0])
_ONE = np.eye(2)


def _on_atom(op, atom: int) -> np.ndarray:
    factors = [op if j == atom else _ONE for j in range(3)]
    return np.kron(np.kron(factors[0], factors[1]), factors[2])


# Sum over the atoms of |excited><ground| on that atom.
RAISING = sum(_on_atom(_SIGMA_PLUS, atom) for atom in range(3))
# Excited pairs per basis state, n1 n2 + n1 n3 + n2 n3.
PAIR_COUNTS = np.diag(
    sum(_on_atom(_EXCITED, i) @ _on_atom(_EXCITED, j) for i, j in ((0, 1), (0, 2), (1, 2)))
)
# Columns (ggg, W, W', rrr): the uniform superposition of the basis states
# with 0, 1, 2 and 3 excitations.
_EXCITATIONS = np.array([bin(idx).count("1") for idx in range(8)])
MANIFOLD = np.stack(
    [(_EXCITATIONS == k) / math.sqrt(math.comb(3, k)) for k in range(4)], axis=1
)
# The symmetric 4x4 block: raising and pair counts projected on the manifold.
RAISING4 = MANIFOLD.T @ RAISING @ MANIFOLD
PAIRS4 = MANIFOLD.T @ np.diag(PAIR_COUNTS) @ MANIFOLD
# A scheduled amplitude over the multiplicity of the transition it drives,
# sqrt 3 (ggg-W), 2 (W-W') and sqrt 3 (W'-rrr), is the per-atom tone amplitude.
TONE_WEIGHTS = np.array([1.0 / math.sqrt(3.0), 0.5, 1.0 / math.sqrt(3.0)])


def embed_state(state4) -> np.ndarray:
    """Lift a (ggg, W, W', rrr) state into the eight-level space."""
    return MANIFOLD @ np.asarray(state4, dtype=complex)


def tone_frequencies_reference(params) -> np.ndarray:
    """Rotation frequencies of the strong tone and the three scheduled ones.

    The strong tone sits detuning0 below the bare transition; scheduled
    tone k sits at its detuning plus the blockade shift of the k - 1
    pairs its upper level adds.
    """
    d1, d2, d3 = detunings_reference(params.stark_amp, params.detuning0, params.blockade)
    v = params.blockade
    return np.array([-params.detuning0, d1, d2 + v, d3 + 2.0 * v])


def _drive_reference(times, params) -> np.ndarray:
    """The complex coefficient c(t) of RAISING, shape of times."""
    times = np.asarray(times, dtype=float)
    amps = np.concatenate(
        [
            np.full(times.shape + (1,), params.stark_amp),
            params.schedule.values_at(times) * TONE_WEIGHTS,
        ],
        axis=-1,
    )
    return np.sum(amps * np.exp(-1j * tone_frequencies_reference(params) * times[..., None]), axis=-1)


def block_hamiltonian(drive, blockade: float) -> np.ndarray:
    """c RAISING4 + c* RAISING4^T + V PAIRS4, shape (..., 4, 4) for drives (...)."""
    hams = np.asarray(drive)[..., None, None] * RAISING4
    return hams + np.swapaxes(hams.conj(), -1, -2) + blockade * PAIRS4


def full_hamiltonian(t, params) -> np.ndarray:
    """The eight-level Hamiltonian c R + c* R^T + V P, shape (..., 8, 8) for times (...)."""
    hams = _drive_reference(t, params)[..., None, None] * RAISING
    return hams + np.swapaxes(hams.conj(), -1, -2) + params.blockade * np.diag(PAIR_COUNTS)


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


def full_model_reference(params, chunk: int = 32768, steps: int | None = None):
    """Per-step full-model integration with the leakage projected every step.

    Returns (final_state, leakage_max, steps, dt).  Builds the eight-level
    Hamiltonians with full_hamiltonian above and steps by its own loop,
    independent of the package kernel.  Takes the given number of equal
    steps, or steps_per_cycle per unit of the stiff phase when None.
    """
    duration = params.schedule.duration
    stiff = params.detuning0 + 2.0 * params.blockade
    n = max(1, math.ceil(duration * stiff * params.steps_per_cycle)) if steps is None else steps
    dt = duration / n

    psi = embed_state(np.array([0.0, 1.0, 0.0, 0.0]))
    manifold_t = MANIFOLD.T.copy()
    leak_max = 0.0

    done = 0
    while done < n:
        count = min(chunk, n - done)
        hams = full_hamiltonian((done + np.arange(count) + 0.5) * dt, params)
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
