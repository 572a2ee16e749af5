"""Schroedinger integration under a pulse schedule, fidelities, and areas.

The schedule is piecewise linear between its knots.  Each exponent is
w_L . L + w_R . R for the two commuting spin-1/2 families of ``algebra``,
so its exponential is a left and a right 2x2 rotation with closed-form
Cayley-Klein coefficients (``unitary.cayley_klein``), and the states are
read off them at the knots through the generators' exact entries.
Accuracy is certified, not assumed: the run ends at the first of three
steps whose bound or estimate of the state error at every knot is below
CERTIFY_TOL.

1. Closed form, at one exponent per segment: the state at knot k is the
   rotation by the summed exact segment integrals, certified by the
   commutator bound plus a telescoped Trotter bound; on a rank-1 schedule
   all exponents commute and this step ends the run.
2. A CF4 pass: equal steps in each segment, each the 2-exponential
   commutator-free scheme of order four, their running products from a
   log-depth scan, certified by the commutator bound.
3. Richardson doubling: the steps per segment double until the
   Richardson estimate of the error falls below CERTIFY_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import AmplitudeTooSmall, extract_ghz_phase, ghz_state, w_state
from .dynamics import vectorial_from_rabi
from .synthesis import MAX_ROWS, NonFiniteSchedule, PulseSchedule
from .unitary import _UNITS, _compose, _weights, cayley_klein

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
_MAX_STEPS = 2 * (MAX_ROWS - 1)
# The ladder scans its running products _SCAN_PIECE steps at a time, so
# temporaries stay bounded however long the run.
_SCAN_PIECE = 8192
# Gauss nodes of a step and the weights of the 2-exponential CF4 scheme
_GAUSS_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_ALPHA1 = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0
_ALPHA2 = (3.0 + 2.0 * math.sqrt(3.0)) / 12.0
# unit roundoff of double precision
_UNIT_ROUNDOFF = 2.0**-53


class NotNormalized(ValueError):
    """A state that must be normalized is not."""


class TooManySteps(ValueError):
    """A run would need more steps than the integrator allows."""


class ZeroArea(ValueError):
    """Area normalization is undefined for a zero-area schedule."""


class ConvergenceFailure(RuntimeError):
    """Neither the commutator bound nor the Richardson estimate of the knot
    state error is below CERTIFY_TOL at the step cap, or the norm drifted by
    more than 1e-9."""


@dataclass(frozen=True)
class PropagationResult:
    """Trajectory and derived quantities of one integration.

    ``times``, ``states`` and ``fidelity_trace`` hold one row per knot
    of the schedule.  ``fidelity_trace`` is evaluated against a fixed
    target: the GHZ state at the phase extracted from the final state
    (or phase 0 if extraction is impossible), or the single-excitation
    state for reversed runs.  ``ghz_phase`` is None when the final
    state has no usable extreme components.  ``steps`` counts the CF4
    steps of the last pass, two exponentials each, or on the closed-form
    path the segments, one exact exponent each.  ``certification_delta``
    is the bound of the step that ended the run (the closed form's
    certificate or the commutator bound) on the discretization error of
    the state at every knot, or else the Richardson estimate of that
    error; none covers roundoff, which the norm-drift check watches.
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
    is a left and a right rotation.  Returns the Cayley-Klein pair (a, b)
    of the step products, shape (2, stop - start): the left factors in
    row 0, the right ones in row 1.
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
    a, b = cayley_klein(vectorial_from_rabi(np.stack([first, second])))
    return _compose(a[:, 1], b[:, 1], a[:, 0], b[:, 0])


def _commutator_bound(schedule: PulseSchedule) -> float:
    """Bound on the state error at every knot of CF4 at one step per segment.

    On a segment of length T each family's rate w is linear between its
    knot rates w_a and w_b (``dynamics.vectorial_from_rabi``), so
    c = (w_a x w_b)/T is constant there.  For spin-1/2 and A(t) the
    integral of H over the first t of a step, ||[A(t), H(t)]|| = t^2 |c|/4,
    so by variation of constants a step of length h differs from
    exp(-i A(h)) by at most h^3 |c|/24.  The two Gauss nodes integrate the
    linear H exactly, so the exponents add up to A(h), and the first-order
    Trotter bound ||[A2, A1]||/2 = h^3 |c|/24 covers splitting them (the
    commutator bounds of Childs, Su, Tran, Wiebe & Zhu, Phys. Rev. X 11,
    011020 (2021)).  The errors of unitary steps and of the two families
    add, so at sub steps per segment every knot state is within

        sum over segments of T^2 (|w_a x w_b|_L + |w_a x w_b|_R) / (12 sub^2)

    of the exact one; this returns the sum at sub = 1.  It bounds the
    discretization only, not roundoff.  The cross products get an
    allowance for the rounding of the rates and of the products, and the
    sum a relative one for the rest, so the value is never below the
    exact one.  It is inf or nan where a cross product overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        o1, o2, o3 = schedule.values.T
        cross = 0.0
        # a family's knot rates are (O1 +- O3, O2, 0), so w_a x w_b lies
        # along z, p - q with p = x_a y_b and q = y_a x_b
        for x in (o1 + o3, o1 - o3):
            p, q = x[:-1] * o2[1:], o2[:-1] * x[1:]
            # rounding the knot rates moves p - q by at most 2 ulps of
            # |p| + |q|, and forming it by 3 more
            cross = cross + (np.abs(p - q) + 6.0 * _UNIT_ROUNDOFF * (np.abs(p) + np.abs(q)))
        dt = np.diff(schedule.times)
        total = float((dt * dt) @ cross) / 12.0
    # the products and the sum round by fewer ulps than the segments + 32
    return total * (1.0 + (len(dt) + 32) * _UNIT_ROUNDOFF)


def _closed_form(schedule: PulseSchedule, dt: np.ndarray, bound: float, psi0: np.ndarray):
    """Knot states by one exponent per segment, or None, and their certificate.

    exp(-i a_j . spin), a_j a family's exact rate integral over segment j,
    is within the bound's share of the segment's propagator, and by the
    first-order Trotter bound ||e^A e^B - e^{A+B}|| <= ||[A, B]||/2 merging
    it into exp(-i S_j . spin), S_j = a_0 + ... + a_{j-1}, costs at most
    |S_j x a_j|/4.  The certificate, the bound plus the sum of those over
    both families with rounding allowances, bounds the discretization error
    of the states; they are None where it is not below CERTIFY_TOL.
    """
    amps = schedule.values
    with np.errstate(over="ignore", invalid="ignore"):
        # area is twice the amplitude integrals
        area = (amps[:-1] + amps[1:]) * dt[:, None]
        sums = np.add.accumulate(area)
        # rows (u, 0, w): 4 S_j x a_j is u + w along z in the left family
        # and u - w in the right one; |u + w| + |u - w| = 2 max(|u|, |w|)
        turn = sums[:-1] * area[1:, 1:2] - sums[:-1, 1:2] * area[1:]
        total = bound + float(np.maximum(abs(turn[:, 0]), abs(turn[:, 2])).sum()) / 8.0
        # rounding moves each entry of area by at most 3 ulps of its reach, so
        # u and w by at most 6 ulps of |sums|_1 reach; the sums round by fewer
        # ulps than the segments + 32
        mag = np.abs(amps).sum(axis=1)
        slack = float(np.abs(sums[:-1]).sum(axis=1) @ ((mag[1:-1] + mag[2:]) * dt[1:]))
        total = (total + 0.75 * _UNIT_ROUNDOFF * slack) * (1.0 + (len(dt) + 32) * _UNIT_ROUNDOFF)
        # each sum's rounding error, exact by TwoSum (Knuth, TAOCP 2, 4.2.2),
        # added back: sequential rounding errors grow with the rows
        step = sums[1:] - sums[:-1]
        sums[1:] += np.add.accumulate((sums[:-1] - (sums[1:] - step)) + (area[1:] - step))
    if not total < CERTIFY_TOL:
        return None, total
    states, read = _knot_readout(psi0, len(dt) + 1)
    read(1, *cayley_klein(vectorial_from_rabi(sums / 2.0)))
    return states, total


def _knot_readout(psi0: np.ndarray, knots: int):
    """Knot states with psi0 in row 0, and read(knot, a, b), which writes the states
    that Cayley-Klein pairs (a, b) of shape (2, rows) take psi0 to from row knot on."""
    # row 4 mu + nu is (left unit mu)(right unit nu) psi0, as 8 real columns
    images = (_UNITS @ (psi0 / math.sqrt(np.vdot(psi0, psi0).real))).view(np.float64)
    states = np.empty((knots, 4), dtype=complex)
    states[0] = psi0

    def read(knot: int, a: np.ndarray, b: np.ndarray) -> None:
        np.matmul(_weights(a, b).T, images, out=states[knot : knot + a.shape[1]].view(np.float64))

    return states, read


def _integrate(schedule: PulseSchedule, initial: np.ndarray, sub: int) -> np.ndarray:
    """CF4 integration of the ladder with sub equal steps in each schedule segment.

    No step straddles a knot, so the amplitudes are linear within each
    step and the 2-exponential scheme of Blanes & Moan (Appl. Numer.
    Math. 56, 1519 (2006)) is fourth order.  The running products of the
    steps (_step_factors) come from a log-depth scan over pieces of
    _SCAN_PIECE steps, each multiplied by the renormalized product of all
    earlier ones.  Returns the states at the knots, shape (knots, 4).
    """
    steps = (len(schedule.times) - 1) * sub
    states, read = _knot_readout(np.asarray(initial, dtype=complex), len(schedule.times))
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
        read((start + first + 1) // sub, a, b)
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
    schedule, unless the closed form of _closed_form certifies the
    default request, and reports the states and the trace at the knots.
    After each CF4 pass the run ends if the commutator bound of
    _commutator_bound at its steps per segment is below CERTIFY_TOL;
    otherwise the steps per segment double until the largest state
    change over the knots, divided by 15, is.  The bound or estimate
    that ended the run is reported as certification_delta.
    """
    if initial is None:
        initial = w_state()
    psi0 = _check_normalized(initial)
    if target not in ("ghz", "w"):
        raise ValueError(f"unknown target {target!r}")
    if steps < 1:
        raise ValueError("step count must be positive")
    area = squared_area(schedule)
    segments = len(schedule.times) - 1
    sub = -(-steps // segments)
    # the cap leaves room for a certifying pass at twice the steps, which a
    # schedule the commutator bound does not certify takes
    if 2 * segments * sub > _MAX_STEPS:
        raise TooManySteps(
            f"{steps} steps asked for take {segments * sub} on the {segments} schedule "
            f"segments and twice that to certify, more than the cap of {_MAX_STEPS}"
        )
    # a step's rotation vectors are shorter than its length times the summed
    # |amplitudes| at its segment's knots; their squares must not overflow
    dt = np.diff(schedule.times)
    with np.errstate(over="ignore"):
        peak = np.abs(schedule.values).sum(axis=1)
        reach = dt / sub * (peak[:-1] + peak[1:])
        bad = np.flatnonzero(~np.isfinite(reach * reach))
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"segment {i} (t = {schedule.times[i]:.6g} to {schedule.times[i + 1]:.6g}) rotates "
            f"by up to {reach[i]:.3e} rad per step, too far to square in double precision"
        )

    bound = _commutator_bound(schedule)
    # the closed form's certificate is at least the bound
    tried = sub == 1 and bound < CERTIFY_TOL
    states, delta = _closed_form(schedule, dt, bound, psi0) if tried else (None, math.nan)
    if states is None:
        states = _integrate(schedule, psi0, sub)
        delta = bound / sub**2
    # a nan bound certifies nothing
    while not delta < CERTIFY_TOL:
        if 2 * segments * sub > _MAX_STEPS:
            raise ConvergenceFailure(
                f"knot state error estimate {delta:.3e} at {segments * sub} steps "
                f"is not below {CERTIFY_TOL}"
            )
        sub *= 2
        finer = _integrate(schedule, psi0, sub)
        delta = bound / sub**2
        if not delta < CERTIFY_TOL:
            # the fourth-order error of the finer run is about a fifteenth of the change
            delta = float(np.max(np.linalg.norm(finer - states, axis=1))) / 15.0
        states = finer

    norm_drift = np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0))
    if not norm_drift <= 1e-9:
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
        area=area,
        steps=segments * sub,
        certification_delta=delta,
        target=target,
    )


def ghz_fidelity(state: np.ndarray, phase: float) -> float:
    """|<GHZ(phase)|state>|^2 for a normalized 4-component state."""
    vec = _check_normalized(state)
    return float(abs(np.vdot(ghz_state(phase), vec)) ** 2)


def squared_area(schedule: PulseSchedule) -> float:
    """Integral of the summed squared amplitudes over the schedule.

    Exact for the piecewise-linear interpolation: each segment of a
    linear amplitude contributes dt (a^2 + a b + b^2)/3.  An area that
    overflows raises ValueError, as does one that rounding below the normal
    range could move by more than 1e-12 relative or 2^-1022, unless every
    amplitude is 0.
    """
    dt = np.diff(schedule.times)
    a = schedule.values[:-1]
    b = schedule.values[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        seg = dt[:, None] * (a * a + a * b + b * b) / 3.0
    try:
        area = math.fsum(seg.ravel().tolist())
    except OverflowError:
        area = math.inf
    if not math.isfinite(area):
        raise ValueError(f"the squared area of the schedule is {area!r}, not finite")
    # below the normal range each rounded product or term is off by at most 2^-1074 (times dt)
    slack = 3.0 * math.ldexp(schedule.duration + 2.0 * len(dt), -1074)
    if slack > max(1e-12 * area, 2.0**-1022) and np.any(schedule.values):
        raise ValueError(
            f"squared area {area!r} may be off by {slack:.3e} in rounding; its squares underflow"
        )
    return area


def normalize_to_area(schedule: PulseSchedule, target_area: float) -> PulseSchedule:
    """Rescale a schedule to a target squared area.

    Amplitudes scale by lam = target / current and times by 1/lam,
    which leaves the integral of each amplitude (and therefore the
    reached state) invariant while scaling the squared area linearly.
    Where the squares underflow, current is 4^-k times the area at
    amplitudes scaled by 2^k, exactly, into [0.5, 1).
    """
    current = squared_area(schedule)
    if not target_area > 0.0:
        raise ZeroArea("target area must be positive")
    if not np.any(schedule.values):
        raise ZeroArea("schedule has zero squared area, cannot rescale")
    k = -math.frexp(np.max(np.abs(schedule.values)))[1] if current < 2.0**-1022 else 0
    if k > 0:
        current = squared_area(PulseSchedule(schedule.times, np.ldexp(schedule.values, k)))
    with np.errstate(over="ignore", divide="ignore"):  # _rescale refuses an infinite factor
        factor = np.ldexp(np.float64(target_area) / current, 2 * k)
    return _rescale(schedule, factor, f"target area {target_area!r}")


def _rescale(schedule: PulseSchedule, factor: float, cause: str) -> PulseSchedule:
    """The schedule with its times divided and its amplitudes multiplied by factor.

    A factor that is not positive and finite is refused before it is
    applied; the schedule's own checks and squared_area refuse one that
    overflows, collapses or underflows it.  The error names the cause.
    """
    try:
        if not 0.0 < factor < math.inf:
            raise ValueError(f"its scale factor {float(factor)!r} is not positive and finite")
        with np.errstate(all="ignore"):
            scaled = PulseSchedule(times=schedule.times / factor, values=schedule.values * factor)
        squared_area(scaled)
    except ValueError as exc:
        raise ValueError(f"{cause} makes the schedule invalid: {exc}") from None
    return scaled
