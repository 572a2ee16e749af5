"""Schroedinger integration under a pulse schedule, fidelities, and areas.

The schedule is piecewise linear between its knots, and the integrator
never steps across one: each segment gets the same number of equal
steps, and each step is the 2-exponential commutator-free scheme of
order four (CF4) with the amplitudes at the step's Gauss nodes.  Each
exponent is w_L . L + w_R . R for the two commuting spin-1/2 families
of ``algebra``, so its exponential is a left and a right 2x2 rotation
with closed-form Cayley-Klein coefficients (``unitary.cayley_klein``),
not an eigendecomposition.  On a rank-1 schedule all exponents commute
and the steps are exact.  The running products of the steps come from a
log-depth scan, and the states are read off them at the knots through
the generators' exact entries.  Accuracy is certified, not assumed: the
steps per segment double until the Richardson estimate of the state
error at every knot falls below CERTIFY_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import build_generators, ggg_state, ghz_state, rrr_state, w_state
from .dynamics import RabiTriple, vectorial_from_rabi
from .synthesis import NonFiniteSchedule, PulseSchedule
from .unitary import cayley_klein

__all__ = [
    "NonFiniteSchedule",
    "NotNormalized",
    "TooManySteps",
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

DEFAULT_STEPS = 1
CERTIFY_TOL = 1e-8
_MAX_STEPS = 1 << 22
_PHASE_AMPLITUDE_FLOOR = 0.1
# The ladder scans its running products _SCAN_PIECE steps at a time, so
# temporaries stay bounded however long the run.
_SCAN_PIECE = 8192
# Gauss nodes of a step and the weights of the 2-exponential CF4 scheme
_GAUSS_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_ALPHA1 = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0
_ALPHA2 = (3.0 + 2.0 * math.sqrt(3.0)) / 12.0

# Rows mu of (x0 - 2i x . L) and (y0 - 2i y . R) as coefficient stacks:
# the identity, then -2i times each generator.  Their entries are 0, +-1
# and +-i, so products with them are exact.
_GENS = build_generators()
_LEFT_UNITS = np.concatenate([np.eye(4)[None], -2j * _GENS.left])
_RIGHT_UNITS = np.concatenate([np.eye(4)[None], -2j * _GENS.right])


class NotNormalized(ValueError):
    """A state that must be normalized is not."""


class TooManySteps(ValueError):
    """A run would need more steps than the integrator allows."""


class AmplitudeTooSmall(ValueError):
    """Phase extraction needs both extreme components to be populated."""


class ZeroArea(ValueError):
    """Area normalization is undefined for a zero-area schedule."""


class ConvergenceFailure(RuntimeError):
    """Step doubling hit the cap without the fidelity settling."""


@dataclass(frozen=True)
class PropagationResult:
    """Trajectory and derived quantities of one integration.

    ``times``, ``states`` and ``fidelity_trace`` hold one row per knot
    of the schedule.  ``fidelity_trace`` is evaluated against a fixed
    target: the GHZ state at the phase extracted from the final state
    (or phase 0 if extraction is impossible), or the single-excitation
    state for reversed runs.  ``ghz_phase`` is None when the final
    state has no usable extreme components.  ``steps`` counts the CF4
    steps of the last pass, two exponentials each.
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


def _check_normalized(state: np.ndarray) -> np.ndarray:
    vec = np.asarray(state, dtype=complex)
    norm = float(np.linalg.norm(vec))
    if not abs(norm - 1.0) <= 1e-9:
        raise NotNormalized(f"state norm is {norm!r}, expected 1")
    return vec


def _compose(a2, b2, a1, b1):
    """Cayley-Klein pair of the product U2 @ U1, each U = [[a, -b*], [b, a*]]."""
    return a2 * a1 - b2.conj() * b1, b2 * a1 + a2.conj() * b1


def _running_products(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive running products along the last axis, later factors on the left.

    A work-efficient log-depth scan (Blelloch, Prefix Sums and Their
    Applications, 1990): adjacent pairs are multiplied, the pair
    products are scanned recursively, and each even entry is completed
    by the scanned pair before it.
    """
    n = a.shape[-1]
    if n == 1:
        return a, b
    even = slice(0, n - n % 2, 2)
    pairs = _compose(a[..., 1::2], b[..., 1::2], a[..., even], b[..., even])
    pair_a, pair_b = _running_products(*pairs)
    out_a, out_b = np.empty_like(a), np.empty_like(b)
    out_a[..., 0], out_b[..., 0] = a[..., 0], b[..., 0]
    out_a[..., 1::2], out_b[..., 1::2] = pair_a, pair_b
    rest = (n - 1) // 2
    out_a[..., 2::2], out_b[..., 2::2] = _compose(
        a[..., 2::2], b[..., 2::2], pair_a[..., :rest], pair_b[..., :rest]
    )
    return out_a, out_b


def _step_factors(
    schedule: PulseSchedule, start: int, stop: int, sub: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cayley-Klein pairs of CF4 steps start..stop-1 of the knot-aligned grid.

    Step s is sub-step s % sub of segment s // sub.  Its two exponentials
    take the amplitudes at the Gauss nodes straight from the segment's
    linear form, combined with the CF4 weights; each is w_L . L + w_R . R
    with the rotation rates of ``dynamics.vectorial_from_rabi``, so each
    is a left and a right rotation.  Returns (diag, off) of the step
    products, shape (2, stop - start): the left factors in row 0, the
    right ones in row 1.
    """
    seg, frac = np.divmod(np.arange(start, stop), sub)
    base = schedule.values[seg]
    slope = schedule.values[seg + 1] - base
    early, late = (base + ((frac + node) / sub)[:, None] * slope for node in _GAUSS_NODES)
    h = ((schedule.times[seg + 1] - schedule.times[seg]) / sub)[:, None]
    # the first exponential, applied first, weighs the earlier node more;
    # with the two swapped the scheme is only second order
    first = (_ALPHA2 * early + _ALPHA1 * late) * h
    second = (_ALPHA1 * early + _ALPHA2 * late) * h
    rates = vectorial_from_rabi(RabiTriple(*np.moveaxis(np.stack([first, second]), -1, 0)))
    step = cayley_klein(np.stack([rates.left, rates.right]))
    return _compose(step.diag[:, 1], step.off[:, 1], step.diag[:, 0], step.off[:, 0])


def _integrate(schedule: PulseSchedule, initial: np.ndarray, sub: int) -> np.ndarray:
    """CF4 integration of the ladder with sub equal steps in each schedule segment.

    No step straddles a knot, so the amplitudes are linear within each
    step and the 2-exponential commutator-free scheme of Blanes & Moan
    (Appl. Numer. Math. 56, 1519 (2006)) is fourth order; on a rank-1
    schedule the exponents commute and every step is exact.  Each
    exponential is a left and a right SU(2) rotation in closed form
    (_step_factors), not an eigendecomposition.  The running products of
    the steps come from a log-depth scan over pieces of _SCAN_PIECE
    steps, each piece multiplied by the renormalized product of all
    earlier ones.  With a = x0 - i x3 and b = -i x1 + x2 for the left
    product and y likewise for the right one, the state after a step is
    (x0 - 2i x . L)(y0 - 2i y . R) psi0; it is read out at the knots only.

    Returns the states at the knots, shape (len(schedule.times), 4).
    """
    steps = (len(schedule.times) - 1) * sub
    psi0 = np.asarray(initial, dtype=complex)
    unit = psi0 / math.sqrt(np.vdot(psi0, psi0).real)
    # row 4 mu + nu is (left unit mu)(right unit nu) psi0, as 8 real columns
    images = np.einsum("mij,njk,k->mni", _LEFT_UNITS, _RIGHT_UNITS, unit)
    images = images.reshape(16, 4).view(np.float64)

    states = np.empty((len(schedule.times), 4), dtype=complex)
    states[0] = psi0
    carry_a = np.ones((2, 1), dtype=complex)
    carry_b = np.zeros((2, 1), dtype=complex)
    for start in range(0, steps, _SCAN_PIECE):
        stop = min(start + _SCAN_PIECE, steps)
        a, b = _running_products(*_step_factors(schedule, start, stop, sub))
        a, b = _compose(a, b, carry_a, carry_b)
        # the step factors' roundoff in |a|^2 + |b|^2 is biased and adds up
        # over the steps unless the products are renormalized
        scale = 1.0 / np.sqrt(a.real**2 + a.imag**2 + b.real**2 + b.imag**2)
        a *= scale
        b *= scale
        carry_a, carry_b = a[:, -1:].copy(), b[:, -1:].copy()
        # the steps in this piece that end on a knot
        first = (-start - 1) % sub
        a, b = a[:, first::sub], b[:, first::sub]
        # quaternion components (x0, x1, x2, x3) of both products, and the
        # products x_mu y_nu that weight the rows of images
        quat = np.stack([a.real, -b.imag, b.real, -a.imag])
        coeffs = (quat[:, None, 0] * quat[None, :, 1]).reshape(16, -1)
        knot = (start + first + 1) // sub
        np.matmul(coeffs.T, images, out=states[knot : knot + a.shape[1]].view(np.float64))
    return states


def propagate(
    schedule: PulseSchedule,
    initial: np.ndarray | None = None,
    steps: int = DEFAULT_STEPS,
    target: str = "ghz",
) -> PropagationResult:
    """Integrate a schedule and report fidelities against a target family.

    target "ghz" scores against the GHZ state at the phase reached by
    the run itself; target "w" scores against the single-excitation
    state (useful for reversed schedules).  The run takes at least
    ``steps`` CF4 steps, an equal number in each segment of the
    schedule, and reports the states and the trace at the knots.  The
    steps per segment double at least once, and until the largest state
    change over the knots, divided by 15, is below CERTIFY_TOL; that
    Richardson estimate of the state error at every knot is reported as
    certification_delta.
    """
    if initial is None:
        initial = w_state()
    psi0 = _check_normalized(initial)
    if target not in ("ghz", "w"):
        raise ValueError(f"unknown target {target!r}")
    if steps < 1:
        raise ValueError("step count must be positive")
    segments = len(schedule.times) - 1
    sub = -(-steps // segments)
    if segments * sub > _MAX_STEPS:
        raise TooManySteps(
            f"{steps} steps asked for take {segments * sub} on the {segments} schedule "
            f"segments, more than the cap of {_MAX_STEPS}"
        )

    states = _integrate(schedule, psi0, sub)
    delta = math.inf
    while delta >= CERTIFY_TOL:
        if 2 * segments * sub > _MAX_STEPS:
            raise ConvergenceFailure(
                f"knot state error estimate {delta:.3e} at {segments * sub} steps "
                f"is not below {CERTIFY_TOL}"
            )
        sub *= 2
        finer = _integrate(schedule, psi0, sub)
        # the fourth-order error of the finer run is about a fifteenth of the change
        delta = float(np.max(np.linalg.norm(finer - states, axis=1))) / 15.0
        states = finer

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
        times=schedule.times,
        states=states,
        fidelity_trace=trace,
        final_fidelity=float(trace[-1]),
        ghz_phase=phase,
        area=squared_area(schedule),
        steps=segments * sub,
        certification_delta=delta,
        target=target,
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
    return PulseSchedule(times=schedule.times / lam, values=schedule.values * lam)
