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


_CHUNK = 32768  # steps per batch of the full-model oracle; its result does not depend on it


def full_model_reference(params, steps: int | None = None):
    """Per-step full-model integration with the leakage projected every step.

    Returns (final_state, leakage_max, steps, dt) for the given number of
    equal steps, or steps_per_cycle per unit of the stiff phase when None.
    full_hamiltonian's matrices go _CHUNK at a time through
    midpoint_states_reference, independent of the package kernel.
    """
    duration = params.schedule.duration
    stiff = params.detuning0 + 2.0 * params.blockade
    n = max(1, math.ceil(duration * stiff * params.steps_per_cycle)) if steps is None else steps
    dt = duration / n
    psi = embed_state(np.array([0.0, 1.0, 0.0, 0.0]))
    leak_max = 0.0
    for done in range(0, n, _CHUNK):
        times = (done + np.arange(min(_CHUNK, n - done)) + 0.5) * dt
        states = midpoint_states_reference(full_hamiltonian(times, params), dt, psi)
        proj = MANIFOLD.T @ states[..., None]
        leak = 1.0 - np.sum(proj.real**2 + proj.imag**2, axis=(1, 2))
        leak_max, psi = max(leak_max, float(leak.max())), states[-1]
    return psi, leak_max, n, dt


def magnus_terms(integrand, starts, lengths, panels: int, nodes: int = 12):
    """The first two Magnus terms of each step, O1 = int a and O2 = 1/2 int int_{t2 < t1} [a(t1), a(t2)].

    integrand(times) gives the 4x4 matrices a at times of any shape.  Each
    step [start, start + length) is cut into `panels` equal panels with
    `nodes` Gauss-Legendre points each; the inner integral up to an outer
    node adds the whole panels before it and `nodes` points on the rest of
    its panel.  Returns O1 and O2, shape (len(starts), 4, 4).
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    frac, w = 0.5 * (x + 1.0), 0.5 * w
    h = np.asarray(lengths, dtype=float)[:, None] / panels
    edges = np.asarray(starts, dtype=float)[:, None] + h * np.arange(panels)
    outer = integrand(edges[..., None] + h[..., None] * frac)
    inner = integrand(edges[..., None, None] + (h[..., None] * frac)[..., None] * frac)
    partial = np.einsum("sp,ij,spijab->spiab", h, frac[:, None] * w, inner)
    whole = np.einsum("sp,i,spiab->spab", h, w, outer)
    inside = (np.cumsum(whole, axis=1) - whole)[:, :, None] + partial
    bracket = outer @ inside - inside @ outer
    return np.sum(whole, axis=1), 0.5 * np.einsum("sp,i,spiab->sab", h, w, bracket)


def kframe_reference(params, counts, second=True, nodes: int = 12) -> np.ndarray:
    """Second-order Magnus steps in the interaction picture of K, one eigh exponential each.

    In the frame psi = e^{i detuning0 N t} phi the block Hamiltonian is
    K + W(t): K = stark_amp (R + R^T) + V P + detuning0 N is constant and
    W(t) = c(t) R + h.c. holds the scheduled tones, c(t) = sum_k w_k a_k(t)
    e^{-i Omega_k t}, Omega_k the tone's frequency plus detuning0.  Segment
    j of the schedule takes counts[j] equal steps; each step applies
    exp(O1 + O2) of a(t) = -i e^{iKt} W(t) e^{-iKt}, in K's eigenbasis from
    np.linalg.eigh, by magnus_terms on panels that each span at most 4 rad
    of the commutator's fastest phase; exp(O1) where second, per segment
    or one for all, is not set.  Returns the final state in (ggg, W, W',
    rrr).
    """
    schedule, v, d0 = params.schedule, params.blockade, params.detuning0
    levels = np.arange(4.0)
    evals, evecs = np.linalg.eigh(params.stark_amp * (RAISING4 + RAISING4.T) + v * PAIRS4 + d0 * np.diag(levels))
    raising = evecs.T @ RAISING4 @ evecs
    freqs = tone_frequencies_reference(params)[1:] + d0
    gaps = np.subtract.outer(evals, evals)

    def integrand(times):
        drive = np.sum(schedule.values_at(times) * TONE_WEIGHTS * np.exp(-1j * freqs * times[..., None]), axis=-1)
        terms = drive[..., None, None] * raising * np.exp(1j * gaps * times[..., None, None])
        return -1j * (terms + np.swapaxes(terms.conj(), -1, -2))

    lengths = np.repeat(np.diff(schedule.times) / counts, counts)
    keep = np.repeat(np.broadcast_to(second, counts.shape), counts)
    starts = np.concatenate(
        [t + np.arange(c) * (length / c) for t, length, c in zip(schedule.times, np.diff(schedule.times), counts)]
    )
    fastest = 2.0 * (np.max(np.abs(freqs)) + np.max(np.abs(gaps)))
    panels = max(1, math.ceil(fastest * np.max(lengths) / 4.0))
    chi = evecs.T @ np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    batch = max(1, _CHUNK // (panels * nodes * nodes))
    for done in range(0, len(starts), batch):
        part = slice(done, done + batch)
        o1, o2 = magnus_terms(integrand, starts[part], lengths[part], panels, nodes)
        chi = midpoint_states_reference(1j * (o1 + keep[part, None, None] * o2), 1.0, chi)[-1]
    duration = schedule.duration
    return np.exp(1j * d0 * duration * levels) * (evecs @ (np.exp(-1j * evals * duration) * chi))


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
