"""Full three-atom interaction-picture model and reduction validation.

The eight-dimensional model keeps every product state of three two-level
atoms, a pairwise blockade shift, one strong constant off-resonant drive
whose quadratic Stark shifts realign the levels, and three scheduled
tones addressing the single, double, and triple excitation steps.  The
small detunings of the tones are fixed in closed form by the Stark
shifts.  Integrating this model from the symmetric single-excitation
state and comparing against the four-level effective prediction
quantifies the quality of the reduction as the scale hierarchy widens.

The three atoms are driven identically, so the Hamiltonian commutes with
atom permutations and maps the symmetric manifold (ggg, W, W', rrr) onto
itself exactly.  The integration therefore runs on the 4x4 block of the
Hamiltonian on that manifold, whose couplings are the projections of
the eight-level operators; the state cannot leave the manifold, so the
reported leakage is exactly zero; each chunk of midpoint steps reaches
the state as one 4x4 product.  The eight-level Hamiltonian stays
available through full_hamiltonian.

Conventions: basis states are ordered lexicographically with the ground
state as 0 and the excited state as 1, atom 1 in the most significant
bit.  The strong drive sits *below* the single-atom transition, so its
interaction-picture phase rotates opposite to the scheduled tones; with
that choice the closed-form detunings cancel the Stark-shifted diagonal
exactly, which we verified against the level distances term by term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .propagate import _MAX_STEPS, TooManySteps, propagate
from .synthesis import PulseSchedule

__all__ = [
    "HierarchyViolation",
    "TooManySteps",
    "FullModelParams",
    "ReductionReport",
    "PAIR_COUNTS",
    "derived_detunings",
    "tone_frequencies",
    "full_hamiltonian",
    "hierarchy_ratios",
    "params_for_factor",
    "validate_reduction",
    "compare_factors",
    "embed_state",
]

# Number of simultaneously excited pairs for each basis index; multiplied
# by the blockade energy this is the diagonal interaction term.
PAIR_COUNTS = np.array([bin(i).count("1") * (bin(i).count("1") - 1) // 2 for i in range(8)])

# Scheduled amplitudes relate to per-atom tone amplitudes through the
# multiplicities of the ladder transitions.
TONE_WEIGHTS = np.array([1.0 / math.sqrt(3.0), 0.5, 1.0 / math.sqrt(3.0)])

DEFAULT_STEPS_PER_CYCLE = 50
DEFAULT_FACTOR = 10.0

# Steps reduced to one product at a time; bounds the temporaries.
_CHUNK = 4096


class HierarchyViolation(ValueError):
    """Parameters do not satisfy the requested scale hierarchy."""


def _raising_operator() -> np.ndarray:
    """Sum over atoms of |excited><ground|, acting identically on all three."""
    op = np.zeros((8, 8))
    for atom_bit in (4, 2, 1):
        for idx in range(8):
            if not idx & atom_bit:
                op[idx | atom_bit, idx] = 1.0
    return op


RAISING = _raising_operator()

_W8 = np.zeros(8)
_W8[[1, 2, 4]] = 1.0 / math.sqrt(3.0)
_WPRIME8 = np.zeros(8)
_WPRIME8[[3, 5, 6]] = 1.0 / math.sqrt(3.0)
_GGG8 = np.zeros(8)
_GGG8[0] = 1.0
_RRR8 = np.zeros(8)
_RRR8[7] = 1.0

# Columns embed the effective basis (ggg, W, W', rrr) into the full space.
MANIFOLD = np.stack([_GGG8, _W8, _WPRIME8, _RRR8], axis=1)

# Both operators map the symmetric manifold onto itself, so their
# projections are the exact couplings of the 4x4 block.
_RAISING4 = MANIFOLD.T @ RAISING @ MANIFOLD
_PAIRS4 = MANIFOLD.T @ np.diag(PAIR_COUNTS) @ MANIFOLD


def embed_state(state4: np.ndarray) -> np.ndarray:
    """Lift a 4-component effective state into the 8-dimensional space."""
    return MANIFOLD @ np.asarray(state4, dtype=complex)


def derived_detunings(stark_amp: float, detuning0: float, blockade: float) -> tuple[float, float, float]:
    """Closed-form tone detunings cancelling the quadratic Stark shifts."""
    denominators = (detuning0, detuning0 + blockade, detuning0 + 2.0 * blockade)
    for d in denominators:
        if d == 0.0:
            raise ZeroDivisionError("Stark-shift denominator vanishes")
    s = stark_amp * stark_amp
    d0, d1, d2 = denominators
    delta1 = 6.0 * s / d0 - 4.0 * s / d1
    delta2 = -3.0 * s / d0 + 8.0 * s / d1 - 3.0 * s / d2
    delta3 = -4.0 * s / d1 + 6.0 * s / d2
    return delta1, delta2, delta3


@dataclass(frozen=True)
class FullModelParams:
    """Physical scales and the schedule driving the three-atom model.

    blockade and detuning0 are the large scales; stark_amp is the
    constant amplitude of the strong drive (applied over the whole run,
    with no ramp).  The schedule's three amplitudes map onto the per-atom
    tone amplitudes through TONE_WEIGHTS.
    """

    blockade: float
    detuning0: float
    stark_amp: float
    schedule: PulseSchedule
    steps_per_cycle: int = DEFAULT_STEPS_PER_CYCLE

    def __post_init__(self):
        if self.blockade <= 0 or self.detuning0 <= 0:
            raise ValueError("blockade and detuning0 must be positive")
        if self.stark_amp < 0:
            raise ValueError("stark_amp must be non-negative")
        if self.steps_per_cycle < 1:
            raise ValueError("steps_per_cycle must be at least 1")

    @property
    def detunings(self) -> tuple[float, float, float]:
        return derived_detunings(self.stark_amp, self.detuning0, self.blockade)


def tone_frequencies(params: FullModelParams) -> np.ndarray:
    """Interaction-picture rotation frequencies of the four tones.

    The strong tone is red of the bare transition (negative entry); the
    scheduled tones sit at their detuning plus the blockade shift of the
    level they address.
    """
    d1, d2, d3 = params.detunings
    v = params.blockade
    return np.array([-params.detuning0, d1, d2 + v, d3 + 2.0 * v])


def _tone_amplitudes(params: FullModelParams, times: np.ndarray) -> np.ndarray:
    """Per-atom tone amplitudes at the given times, shape (len(times), 4)."""
    scheduled = params.schedule.values_at(times) * TONE_WEIGHTS[None, :]
    strong = np.full((len(times), 1), params.stark_amp)
    return np.concatenate([strong, scheduled], axis=1)


def _hamiltonians(
    times: np.ndarray, params: FullModelParams, raising: np.ndarray, pairs: np.ndarray
) -> np.ndarray:
    """Interaction-picture Hamiltonians at the given times.

    raising and pairs are the raising operator and the pair-count matrix
    of the space the Hamiltonians act on: the eight-level space or the
    4x4 symmetric block.
    """
    amps = _tone_amplitudes(params, times)
    freqs = tone_frequencies(params)
    drive = np.sum(amps * np.exp(-1j * freqs[None, :] * times[:, None]), axis=1)
    hams = drive[:, None, None] * raising[None, :, :]
    hams = hams + hams.conj().transpose(0, 2, 1)
    return hams + params.blockade * pairs


def full_hamiltonian(t: float, params: FullModelParams) -> np.ndarray:
    """The 8x8 interaction-picture Hamiltonian at one time."""
    return _hamiltonians(np.atleast_1d(float(t)), params, RAISING, np.diag(PAIR_COUNTS))[0]


def hierarchy_ratios(params: FullModelParams) -> tuple[float, float]:
    """Separation ratios of the two scale layers.

    The upper ratio compares the smaller of (blockade, detuning0) to the
    largest second-layer magnitude; the lower ratio compares the strong
    drive, which sets the second layer, to the largest scheduled tone.
    """
    deltas = params.detunings
    mid = max(abs(params.stark_amp), *(abs(d) for d in deltas))
    upper = min(params.blockade, params.detuning0) / mid if mid > 0 else math.inf
    peak_tone = float(np.max(np.abs(params.schedule.values * TONE_WEIGHTS[None, :])))
    lower = abs(params.stark_amp) / peak_tone if peak_tone > 0 else math.inf
    return upper, lower


def params_for_factor(
    schedule: PulseSchedule,
    factor: float,
    steps_per_cycle: int = DEFAULT_STEPS_PER_CYCLE,
) -> FullModelParams:
    """Scale the physical parameters to a requested hierarchy factor.

    The strong drive is factor times the peak scheduled amplitude and
    the large scales are 2 factor^2 times it, which keeps both layer
    ratios at or above the factor.
    """
    if factor <= 0:
        raise ValueError("hierarchy factor must be positive")
    peak = float(np.max(np.abs(schedule.values)))
    if peak == 0.0:
        raise ValueError("cannot scale parameters to an all-zero schedule")
    return FullModelParams(
        blockade=2.0 * factor * factor * peak,
        detuning0=2.0 * factor * factor * peak,
        stark_amp=factor * peak,
        schedule=schedule,
        steps_per_cycle=steps_per_cycle,
    )


@dataclass(frozen=True)
class ReductionReport:
    """Outcome of one full-model integration against the effective model."""

    hierarchy_factor: float
    ratio_upper: float
    ratio_lower: float
    hierarchy_ok: bool
    leakage_max: float
    effective_vs_full_infidelity: float
    steps: int
    dt: float
    duration: float
    blockade: float
    detuning0: float
    stark_amp: float
    detunings: tuple[float, float, float]
    stark_envelope: str = "constant"

    def as_dict(self) -> dict:
        return {
            "hierarchy_factor": self.hierarchy_factor,
            "ratio_upper": self.ratio_upper,
            "ratio_lower": self.ratio_lower,
            "hierarchy_ok": self.hierarchy_ok,
            "leakage_max": self.leakage_max,
            "effective_vs_full_infidelity": self.effective_vs_full_infidelity,
            "steps": self.steps,
            "dt": self.dt,
            "duration": self.duration,
            "blockade": self.blockade,
            "detuning0": self.detuning0,
            "stark_amp": self.stark_amp,
            "detunings": list(self.detunings),
            "stark_envelope": self.stark_envelope,
        }


def _step_grid(params: FullModelParams) -> tuple[int, float]:
    """Step count and step size of the full-model integration.

    The stiff scale is the fastest interaction-picture phase, so the
    step size resolves detuning0 + 2 blockade with steps_per_cycle
    points per unit phase.  Raises TooManySteps, before anything is
    allocated, when that needs more than the integrator's step cap.
    """
    duration = params.schedule.duration
    stiff = params.detuning0 + 2.0 * params.blockade
    cycles = duration * stiff * params.steps_per_cycle
    if not cycles <= _MAX_STEPS:
        raise TooManySteps(
            f"the full model needs {cycles:.4g} steps, more than the cap of {_MAX_STEPS}"
        )
    n = max(1, math.ceil(cycles))
    return n, duration / n


def _step_product(hams: np.ndarray, dt: float) -> np.ndarray:
    """Product of the steps exp(-i H_k dt) over k, later steps on the left.

    Each propagator comes from an eigendecomposition, so every step is
    exactly unitary.  Adjacent pairs are multiplied in log depth (the
    up-sweep of Blelloch, Prefix Sums and Their Applications, 1990); an
    odd last step is carried up to the next level unpaired.
    """
    evals, evecs = np.linalg.eigh(hams)
    prods = (evecs * np.exp(-1j * evals * dt)[:, None, :]) @ evecs.conj().transpose(0, 2, 1)
    while len(prods) > 1:
        even = len(prods) - len(prods) % 2
        prods = np.concatenate([prods[1:even:2] @ prods[0:even:2], prods[even:]])
    return prods[0]


def _integrate_full(params: FullModelParams) -> tuple[np.ndarray, int, float]:
    """Integrate the full model from the single-excitation state.

    Runs on the 4x4 symmetric block, applying each chunk of _CHUNK
    midpoint steps as one _step_product and renormalizing after it.
    Returns (final_state, steps, dt) with the state in the
    (ggg, W, W', rrr) basis; MANIFOLD lifts it into the full space.
    """
    n, dt = _step_grid(params)
    psi = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    for done in range(0, n, _CHUNK):
        mids = (done + np.arange(min(_CHUNK, n - done)) + 0.5) * dt
        psi = _step_product(_hamiltonians(mids, params, _RAISING4, _PAIRS4), dt) @ psi
        psi /= math.sqrt(np.vdot(psi, psi).real)
    return psi, n, dt


def validate_reduction(
    params: FullModelParams,
    required_factor: float = DEFAULT_FACTOR,
    force: bool = False,
) -> ReductionReport:
    """Integrate the full model and score it against the effective one.

    The effective prediction is the four-level propagation of the same
    schedule, lifted into the full space with the accumulated
    frame-alignment phases of the four levels.  Raises
    HierarchyViolation when the scale ratios fall below
    required_factor, unless force is set.
    """
    upper, lower = hierarchy_ratios(params)
    ok = min(upper, lower) >= required_factor
    if not ok and not force:
        raise HierarchyViolation(
            f"scale ratios ({upper:.2f}, {lower:.2f}) below required factor "
            f"{required_factor}; pass force=True to integrate anyway"
        )

    psi_block, steps, dt = _integrate_full(params)

    effective = propagate(params.schedule, target="ghz")
    d1, d2, d3 = params.detunings
    v = params.blockade
    duration = params.schedule.duration
    frame = np.array([0.0, d1, d1 + d2 + v, d1 + d2 + d3 + 3.0 * v])
    predicted = np.exp(-1j * frame * duration) * effective.states[-1]
    infidelity = 1.0 - float(abs(np.vdot(predicted, psi_block)) ** 2)

    return ReductionReport(
        hierarchy_factor=min(upper, lower),
        ratio_upper=upper,
        ratio_lower=lower,
        hierarchy_ok=ok,
        # the block integration cannot leave the symmetric manifold; the
        # field stays for payload compatibility
        leakage_max=0.0,
        effective_vs_full_infidelity=infidelity,
        steps=steps,
        dt=dt,
        duration=duration,
        blockade=params.blockade,
        detuning0=params.detuning0,
        stark_amp=params.stark_amp,
        detunings=params.detunings,
    )


def compare_factors(
    schedule: PulseSchedule,
    factors: tuple[float, ...] = (10.0, 30.0),
    steps_per_cycle: int = DEFAULT_STEPS_PER_CYCLE,
    min_factor: float | None = None,
    force: bool = False,
) -> tuple[list[ReductionReport], dict]:
    """Run the reduction check at several hierarchy factors.

    Each run must reach min_factor, or its own factor when min_factor
    is None (force skips the check as in validate_reduction).  Returns
    the per-factor reports plus trend flags comparing the last run
    against the first: the perturbative prediction is that a wider
    hierarchy tracks the effective model more closely.
    "monotone_improvement" is a deprecated alias of
    "infidelity_decreased", kept for payload compatibility.  Raises
    TooManySteps before integrating anything when a factor needs more
    steps than the cap.
    """
    runs = [(f, params_for_factor(schedule, f, steps_per_cycle)) for f in factors]
    for _, params in runs:
        _step_grid(params)  # refuse an oversized factor before integrating any
    reports = [
        validate_reduction(
            params, required_factor=f if min_factor is None else min_factor, force=force
        )
        for f, params in runs
    ]
    trend = {
        "infidelity_decreased": reports[-1].effective_vs_full_infidelity
        < reports[0].effective_vs_full_infidelity,
        "leakage_decreased": reports[-1].leakage_max < reports[0].leakage_max,
    }
    trend["monotone_improvement"] = trend["infidelity_decreased"]
    return reports, trend
