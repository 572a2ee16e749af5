"""Schroedinger integration under a pulse schedule, fidelities, and areas.

The integrator exponentiates the Hermitian Hamiltonian at each step
midpoint through an eigendecomposition, so every step is exactly
unitary and the scheme is second order in the step size.  The step
propagators are multiplied in fixed-size blocks, and the state is
renormalized at each block start.  Convergence is certified, not
assumed: the step count doubles until the final fidelity moves by less
than a configurable threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import ggg_state, ghz_state, rrr_state, w_state
from .synthesis import EndpointSolution, NonFiniteSchedule, PulseProfile, PulseSchedule

__all__ = [
    "NonFiniteSchedule",
    "NotNormalized",
    "AmplitudeTooSmall",
    "ZeroArea",
    "ConvergenceFailure",
    "PropagationResult",
    "propagate",
    "ghz_fidelity",
    "extract_ghz_phase",
    "squared_area",
    "normalize_to_area",
]

DEFAULT_STEPS = 4096
CERTIFY_TOL = 1e-8
_MAX_STEPS = 1 << 22
_PHASE_AMPLITUDE_FLOOR = 0.1
# Step kernel sizes: running products over blocks of _BLOCK steps, built
# _PIECE steps at a time so temporaries stay small.
_BLOCK = 32
_PIECE = 32 * _BLOCK


class NotNormalized(ValueError):
    """A state that must be normalized is not."""


class AmplitudeTooSmall(ValueError):
    """Phase extraction needs both extreme components to be populated."""


class ZeroArea(ValueError):
    """Area normalization is undefined for a zero-area schedule."""


class ConvergenceFailure(RuntimeError):
    """Step doubling hit the cap without the fidelity settling."""


@dataclass(frozen=True)
class PropagationResult:
    """Trajectory and derived quantities of one integration.

    ``fidelity_trace`` is evaluated against a fixed target for every
    stored time: the GHZ state at the phase extracted from the final
    state (or phase 0 if extraction is impossible), or the
    single-excitation state for reversed runs.  ``ghz_phase`` is None
    when the final state has no usable extreme components.
    """

    times: np.ndarray
    states: np.ndarray
    fidelity_trace: np.ndarray
    final_fidelity: float
    ghz_phase: float | None
    area: float
    steps: int
    certification_delta: float
    target: str
    endpoint: EndpointSolution | None = None
    profile: PulseProfile | None = None


def _check_normalized(state: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    vec = np.asarray(state, dtype=complex)
    if abs(np.linalg.norm(vec) - 1.0) > tol:
        raise NotNormalized(f"state norm is {np.linalg.norm(vec)!r}, expected 1")
    return vec


def _midpoint_states(hams: np.ndarray, dt: float, psi0: np.ndarray) -> np.ndarray:
    """Apply exp(-i H_k dt) for each Hermitian H_k in turn, starting from psi0.

    Returns the state after every step, shape (len(hams), dim).  Each
    propagator comes from an eigendecomposition, so every step is
    exactly unitary.  The steps are taken in pieces of _PIECE: within a
    piece the propagators are multiplied into running products over
    blocks of _BLOCK steps, batched across blocks, and the state is
    carried from block to block and renormalized at each block start.
    """
    n, dim = len(hams), len(psi0)
    states = np.empty((n, dim), dtype=complex)
    psi = np.asarray(psi0, dtype=complex)
    for start in range(0, n, _PIECE):
        piece = hams[start : start + _PIECE]
        count = len(piece)
        nblocks = -(-count // _BLOCK)
        evals, evecs = np.linalg.eigh(piece)
        # identities pad the last block; their states are dropped
        prods = np.empty((nblocks * _BLOCK, dim, dim), dtype=complex)
        prods[count:] = np.eye(dim)
        np.matmul(
            evecs * np.exp(-1j * evals * dt)[:, None, :],
            evecs.conj().transpose(0, 2, 1),
            out=prods[:count],
        )
        prods = prods.reshape(nblocks, _BLOCK, dim, dim)
        for j in range(1, _BLOCK):
            prods[:, j] = prods[:, j] @ prods[:, j - 1]
        out = np.empty((nblocks, _BLOCK, dim), dtype=complex)
        for b in range(nblocks):
            psi = psi / math.sqrt(np.vdot(psi, psi).real)
            out[b] = prods[b] @ psi
            psi = out[b, -1]
        states[start : start + count] = out.reshape(-1, dim)[:count]
    return states


def _integrate(schedule: PulseSchedule, initial: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint-exponential integration on a uniform grid.

    Returns (times, states) with states.shape == (steps + 1, 4).
    """
    grid = np.linspace(0.0, schedule.duration, steps + 1)
    dt = schedule.duration / steps
    mids = 0.5 * (grid[:-1] + grid[1:])
    amp = schedule.values_at(mids)

    hams = np.zeros((steps, 4, 4))
    hams[:, 0, 1] = hams[:, 1, 0] = amp[:, 0]
    hams[:, 1, 2] = hams[:, 2, 1] = amp[:, 1]
    hams[:, 2, 3] = hams[:, 3, 2] = amp[:, 2]

    psi0 = np.asarray(initial, dtype=complex)
    return grid, np.concatenate([psi0[None, :], _midpoint_states(hams, dt, psi0)])


def _best_phase_fidelity(state: np.ndarray) -> float:
    # max over the GHZ phase of |<GHZ(phase)|state>|^2
    return 0.5 * (abs(state[0]) + abs(state[3])) ** 2


def propagate(
    schedule: PulseSchedule,
    initial: np.ndarray | None = None,
    steps: int = DEFAULT_STEPS,
    certify: bool = True,
    target: str = "ghz",
) -> PropagationResult:
    """Integrate a schedule and report fidelities against a target family.

    target "ghz" scores against the GHZ state at the phase reached by
    the run itself; target "w" scores against the single-excitation
    state (useful for reversed schedules).  With certify=True the step
    count doubles until the final fidelity changes by < 1e-8.
    """
    if initial is None:
        initial = w_state()
    psi0 = _check_normalized(initial)
    if target not in ("ghz", "w"):
        raise ValueError(f"unknown target {target!r}")
    if steps < 1:
        raise ValueError("step count must be positive")

    def final_metric(state: np.ndarray) -> float:
        if target == "w":
            return float(abs(np.vdot(w_state(), state)) ** 2)
        return _best_phase_fidelity(state)

    n = steps
    grid, states = _integrate(schedule, psi0, n)
    metric = final_metric(states[-1])
    delta = math.inf
    while certify and delta >= CERTIFY_TOL:
        if 2 * n > _MAX_STEPS:
            raise ConvergenceFailure(
                f"final fidelity still moving by {delta:.3e} at {n} steps"
            )
        grid2, states2 = _integrate(schedule, psi0, 2 * n)
        metric2 = final_metric(states2[-1])
        delta = abs(metric2 - metric)
        n, grid, states, metric = 2 * n, grid2, states2, metric2

    norm_drift = np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0))
    if norm_drift > 1e-9:
        raise ConvergenceFailure(f"norm drifted by {norm_drift:.3e} during integration")

    final_state = states[-1]
    phase: float | None
    try:
        phase = extract_ghz_phase(final_state)
    except AmplitudeTooSmall:
        phase = None

    if target == "w":
        reference = w_state()
    else:
        reference = ghz_state(phase if phase is not None else 0.0)
    trace = np.abs(states @ reference.conj()) ** 2

    return PropagationResult(
        times=grid,
        states=states,
        fidelity_trace=trace,
        final_fidelity=float(trace[-1]),
        ghz_phase=phase,
        area=squared_area(schedule),
        steps=n,
        certification_delta=float(delta) if certify else math.nan,
        target=target,
        endpoint=schedule.endpoint,
        profile=schedule.profile,
    )


def ghz_fidelity(state: np.ndarray, phase: float) -> float:
    """|<GHZ(phase)|state>|^2 for a normalized 4-component state."""
    vec = _check_normalized(state)
    return float(abs(np.vdot(ghz_state(phase), vec)) ** 2)


def extract_ghz_phase(state: np.ndarray) -> float:
    """Relative phase between the two extreme components, in [0, 2 pi).

    Raises AmplitudeTooSmall unless both |<ggg|state>| and
    |<rrr|state>| exceed 0.1; below that the phase is numerically
    meaningless.
    """
    vec = np.asarray(state, dtype=complex)
    lo = complex(np.vdot(ggg_state(), vec))
    hi = complex(np.vdot(rrr_state(), vec))
    if abs(lo) <= _PHASE_AMPLITUDE_FLOOR or abs(hi) <= _PHASE_AMPLITUDE_FLOOR:
        raise AmplitudeTooSmall(
            f"extreme components {abs(lo):.3f}, {abs(hi):.3f} are too small "
            "for phase extraction"
        )
    return float((np.angle(hi) - np.angle(lo)) % (2.0 * math.pi))


def squared_area(schedule: PulseSchedule) -> float:
    """Integral of the summed squared amplitudes over the schedule.

    Exact for the piecewise-linear interpolation: each segment of a
    linear amplitude contributes dt (a^2 + a b + b^2)/3.
    """
    dt = np.diff(schedule.times)
    a = schedule.values[:-1]
    b = schedule.values[1:]
    seg = dt[:, None] * (a * a + a * b + b * b) / 3.0
    return float(math.fsum(seg.ravel()))


def normalize_to_area(schedule: PulseSchedule, target_area: float) -> PulseSchedule:
    """Rescale a schedule to a target squared area.

    Amplitudes scale by lam and times by 1/lam with
    lam = target / current, which leaves the integral of each amplitude
    (and therefore the reached state) invariant while scaling the
    squared area linearly.
    """
    current = squared_area(schedule)
    if not target_area > 0.0:
        raise ZeroArea("target area must be positive")
    if current <= 0.0:
        raise ZeroArea("schedule has zero squared area, cannot rescale")
    lam = target_area / current
    profile = schedule.profile
    if profile is not None:
        profile = PulseProfile(
            kind=profile.kind,
            duration=profile.duration / lam,
            theta_final=profile.theta_final,
            tau=profile.tau,
        )
    return PulseSchedule(
        times=schedule.times / lam,
        values=schedule.values * lam,
        endpoint=schedule.endpoint,
        profile=profile,
    )
