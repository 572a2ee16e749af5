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
Hamiltonian on that manifold, and only that block is built here: on it
the summed raising operator is the ladder R below and the pair counts
are P.  The state cannot leave the manifold, so the report's
leakage_max is exactly zero; each chunk of midpoint steps reaches the
state as one 4x4 product.  The eight-level model lives in the tests, as
the oracle this block is checked against.

On the block the drive enters as H = c R + c* R^T + V P, with R the
spin-3/2 ladder (sqrt 3, 2, sqrt 3) and P = diag(0, 0, 1, 3).  The drive
phase is generated by the excitation number N = diag(0, 1, 2, 3): with
c = r e^{i phi}, H = e^{i phi N} S(r) e^{-i phi N}, where
S(r) = r (R + R^T) + V P is real, symmetric and tridiagonal.  r = |c|
stays in a narrow band about stark_amp, over which a run fits the real
exp(-i S(r) dt) once as a Chebyshev polynomial in r; each chunk of steps
is built from it and multiplied in real 8x8 form (see _step_product).

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
    "derived_detunings",
    "tone_frequencies",
    "hierarchy_ratios",
    "params_for_factor",
    "validate_reduction",
    "compare_factors",
]

# Scheduled amplitudes relate to per-atom tone amplitudes through the
# multiplicities of the ladder transitions.
TONE_WEIGHTS = np.array([1.0 / math.sqrt(3.0), 0.5, 1.0 / math.sqrt(3.0)])

DEFAULT_STEPS_PER_CYCLE = 50
DEFAULT_FACTOR = 10.0
DEFAULT_COMPARE_FACTOR = 30.0

# Steps reduced to one product at a time; sizes the product tree's one stack.
_CHUNK = 2048


class HierarchyViolation(ValueError):
    """Parameters do not satisfy the requested scale hierarchy."""


# The block Hamiltonian at drive modulus r, in the gauge that removes the
# drive phase, is r _LADDER4 + V _PAIRS4; every entry is non-negative.
# Summed over the atoms, raising takes ggg, W and W' to sqrt 3, 2 and
# sqrt 3 times the next level; W' holds one excited pair, rrr three.
_RUNGS = [math.sqrt(3.0), 2.0, math.sqrt(3.0)]
_LADDER4 = np.diag(_RUNGS, 1) + np.diag(_RUNGS, -1)
_PAIRS4 = np.diag([0.0, 0.0, 1.0, 3.0])


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
        if not (0 < self.blockade < math.inf and 0 < self.detuning0 < math.inf):
            raise ValueError("blockade and detuning0 must be positive and finite")
        if not 0 <= self.stark_amp < math.inf:
            raise ValueError("stark_amp must be non-negative and finite")
        if self.steps_per_cycle < 1:
            raise ValueError("steps_per_cycle must be at least 1")
        if not all(map(math.isfinite, self.detunings)):
            raise ValueError(f"the Stark shifts of stark_amp {self.stark_amp!r} leave the float range")

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


def _drive(times: np.ndarray, params: FullModelParams, phases: np.ndarray) -> np.ndarray:
    """Complex drive c(t) that multiplies the raising operator, shape (len(times),).

    Sums amplitude times e^{-i w t} over the four tones, pairwise as
    np.sum adds four terms, at times in [0, duration].  The amplitudes
    are the schedule's values_at; phases holds e^{-i w t}, a row per
    tone of tone_frequencies, and becomes the tones.
    """
    amp = params.schedule.values_at(times).T
    amp *= TONE_WEIGHTS[:, None]
    phases[0] *= params.stark_amp
    phases.real[1:] *= amp
    phases.imag[1:] *= amp
    out = np.add(phases[0], phases[1])
    np.add(phases[2], phases[3], out=phases[2])
    out += phases[2]
    return out


def _drive_band(params: FullModelParams) -> tuple[float, float]:
    """Interval [lo, hi] that holds every |c(t)|, rounding included.

    |c| is within T = sum_k TONE_WEIGHTS[k] max |column k| of stark_amp,
    as interpolation stays within the samples; 16 ulps widen the band.
    """
    stark = params.stark_amp
    spread = float(TONE_WEIGHTS @ np.max(np.abs(params.schedule.values), axis=0))
    pad = 16.0 * np.finfo(float).eps * (stark + spread)
    return max(0.0, stark - spread - pad), stark + spread + pad


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
    if not 0 < factor < math.inf:
        raise ValueError(f"hierarchy factor must be positive and finite, not {factor!r}")
    peak = float(np.max(np.abs(schedule.values)))
    if peak == 0.0:
        raise ValueError("cannot scale parameters to an all-zero schedule")
    large = 2.0 * factor * factor * peak
    if not 0 < large < math.inf:
        raise ValueError(f"factor {factor:g}: blockade and detuning0 of {large!r} leave the float range")
    stark = factor * peak
    if not all(map(math.isfinite, derived_detunings(stark, large, large))):
        raise ValueError(f"factor {factor:g}: the Stark shifts of stark_amp {stark!r} leave the float range")
    return FullModelParams(
        blockade=large,
        detuning0=large,
        stark_amp=stark,
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


def _step_grid(params: FullModelParams) -> tuple[int, float]:
    """Step count and step size of the full-model integration.

    The stiff scale is the fastest interaction-picture phase, so the
    step size resolves detuning0 + 2 blockade with steps_per_cycle
    points per unit phase.  It also takes at least 3 h duration steps,
    h the half-width of the _drive_band, so that a = 3 h dt <= 1 and
    _step_fit spans the band.  Raises TooManySteps, before anything is
    allocated, when that needs more than the integrator's step cap.
    """
    duration = params.schedule.duration
    stiff = params.detuning0 + 2.0 * params.blockade
    lo, hi = _drive_band(params)
    h = 0.5 * (hi - lo)
    cycles = max(duration * stiff * params.steps_per_cycle, 3.0 * h * duration)
    if not cycles <= _MAX_STEPS:
        raise TooManySteps(
            f"the full model needs {cycles:.4g} steps, more than the cap of {_MAX_STEPS}"
        )
    n = max(1, math.ceil(cycles))
    # rounding can leave a one ulp above 1, which one more step undoes
    if 3.0 * h * (duration / n) > 1.0:
        n += 1
    return n, duration / n


def _series_exp(x: np.ndarray) -> np.ndarray:
    """exp(-iX) for a stack of Hermitian 4x4 X, shape (..., 4, 4).

    A Taylor series summed by Horner steps; when theta, the largest
    absolute row sum over the stack, passes 1, X is halved
    s = ceil(log2 theta) times and the result squared s times (Moler &
    Van Loan, SIAM Rev. 45, 3 (2003)).  The degree m is the least whose
    first dropped term, theta^(m+1)/(m+1)!, is at most 2^-53.
    """
    theta = float(np.max(np.sum(np.abs(x), axis=-1)))
    s = math.ceil(math.log2(theta)) if theta > 1.0 else 0
    theta *= 0.5**s
    m = 1
    while theta ** (m + 1) / math.factorial(m + 1) > 2.0**-53:
        m += 1
    y = np.multiply(x, -1j * 0.5**s, order="C")
    # numpy divides complex z by k as z's float view times 1 / k; the view is faster
    step = np.eye(4) + (y.view(float) * (1.0 / m)).view(complex)
    for k in range(m - 1, 0, -1):
        step = np.eye(4) + ((y @ step).view(float) * (1.0 / k)).view(complex)
    for _ in range(s):
        step = step @ step
    return step


def _real_steps(r: np.ndarray, dt: float, blockade: float) -> np.ndarray:  # exp(-i S(r) dt) for each r
    return _series_exp(np.multiply.outer(r * dt, _LADDER4) + (blockade * dt) * _PAIRS4)


def _step_fit(lo: float, hi: float, dt: float, blockade: float):
    """Chebyshev interpolant (r0, h, maps) of _real_steps over r in [lo, hi].

    The steps at r0 + h x are sum_j C_j T_j(x), j < K.  Their K-th
    r-derivative is at most (3 dt)^K, as ||R + R^T||_2 = 3, so K nodes
    err by at most 2 (a/2)^K / K!, a = 3 h dt; K >= 2 is the least
    making this 2^-53, and K <= 15 as _step_grid keeps a <= 1.  A band
    of one point (h = 0) is fitted too.  maps holds the C_j as the GEMMs
    of _step_product take them.  Raises ValueError when a > 1.
    """
    r0, h = 0.5 * (hi + lo), 0.5 * (hi - lo)
    a = 3.0 * h * dt
    if not a <= 1.0:
        raise ValueError(f"the step fit needs a = 3 h dt at most 1, not {a!r}")
    k = 2
    while 2.0 * (0.5 * a) ** k / math.factorial(k) > 2.0**-53:
        k += 1
    # cheb[j, l] = T_j(x_l) = cos(m pi / 2K), m = j (2l + 1) folded into [0, K]
    # so that the rounded angle stays accurate; row 1 holds the nodes x_l
    m = np.outer(np.arange(k), 2 * np.arange(k) + 1) % (4 * k)
    m = np.minimum(m, 4 * k - m)
    cheb = np.where(m > k, -1.0, 1.0) * np.cos(np.minimum(m, 2 * k - m) * (0.5 * math.pi / k))
    steps = _real_steps(r0 + h * cheb[1], dt, blockade)
    coef = (2.0 / k) * cheb @ steps.view(float).reshape(k, 32)
    coef[0] *= 0.5
    # row s K + j of maps[l] is column l of i^s C_j, then of i^(s+1) C_j, as reals
    cols = coef.view(complex).reshape(k, 4, 4).transpose(2, 0, 1)[:, None, :, None]
    maps = np.multiply(np.array([[1, 1j], [1j, -1]])[:, None, :, None], cols, order="C")
    return r0, h, maps.view(float).reshape(4, 2 * k, 16)


def _step_leaves(drive: np.ndarray, fit, leaves: np.ndarray) -> complex:
    """Write the block steps exp(-i H_k dt) into leaves in real 8x8 form.

    With c_k = r_k u_k (u_k = 1 where c_k = 0) and D_k = diag(u_k^j), a
    step is D_k E_k D_k* (module docstring), E_k = sum_j T_j(x_k) C_j by
    the fit, which must span every r_k.  The gauges telescope: the
    product of the steps, later on the left, is D_n X_n ... X_1,
    X_k = E_k diag(v_k^j), v_k = conj(u_k) u_(k-1), u_0 = 1.  One GEMM
    per column builds every X_k in real form, entry a + ib as the block
    [[a, -b], [b, a]], transposed: rows 2l, 2l + 1 are column l of X_k
    and of i X_k.  leaves is (n, 8, 8), n = len(drive), and row k - 1
    takes X_k.  Returns u_n.
    """
    n = len(drive)
    r0, h, maps = fit
    k = maps.shape[1] // 2
    table = np.empty((k, n))  # row 1 holds r until x is taken
    r = np.abs(drive, out=table[1])
    zeros = n - np.count_nonzero(r)  # only a drive with zeros needs the masked divide
    u = np.divide(drive, r, out=np.ones(n, dtype=complex), where=r > 0.0) if zeros else drive / r
    v = np.conjugate(u)
    v[1:] *= u[:-1]
    # T_j((r - r0) / h) by the three-term recurrence; on a band of one
    # point every r is r0
    table[0] = 1.0
    table[1] -= r0
    if h:
        table[1] /= h
    for j in range(2, k):
        np.multiply(table[1], 2.0, out=table[j])
        table[j] *= table[j - 1]
        table[j] -= table[j - 2]
    steps = leaves.reshape(n, 4, 16)
    np.matmul(table.T, maps[0, :k], out=steps[:, 0])
    planes = np.empty((2 * k, n))
    re, im, power = planes[:k], planes[k:], v
    for col in (1, 2, 3):
        if col > 1:
            power = power * v
        np.multiply(table, power.real, out=re)
        np.multiply(table, power.imag, out=im)
        np.matmul(planes.T, maps[col], out=steps[:, col])
    return u[-1]


def _tree_plan(stack: np.ndarray, n: int):
    """Calls multiplying the last n rows of stack, (m, 8, 8), m >= n + ceil(n / 16).

    Pairs are multiplied in log depth, level by level in batched products
    (the up-sweep of Blelloch, Prefix Sums and Their Applications, 1990),
    an odd last step copied up.  A level read from rows past the front is
    written over the front in pieces [lo, hi), hi at most a + 2 lo with a
    its first row, so that no piece overwrites a pair still to be read:
    level 0 takes 4 pieces at n = 2048 and m = 2176, each later level
    one.  A level read from the front is written on the rows after it.
    Returns the calls (np.matmul, even, odd, out) and (np.copyto, out,
    row) on views of stack, in order, and the product's complex 4x4 view.
    """
    pieces = []
    at = len(stack) - n
    while n > 1:
        half, to, lo = n // 2, 0 if at else n, 0
        while lo < half:
            hi = half if to else min(half, at + 2 * lo)
            pairs = stack[at + 2 * lo : at + 2 * hi]
            pieces.append((np.matmul, pairs[0::2], pairs[1::2], stack[to + lo : to + hi]))
            lo = hi
        if n % 2:
            pieces.append((np.copyto, stack[to + half], stack[at + n - 1]))
        n, at = half + n % 2, to
    return pieces, stack[at, ::2].view(complex).T


def _step_product(drive: np.ndarray, fit, stack: np.ndarray, plan=None) -> np.ndarray:
    """Product of the block steps exp(-i H_k dt) over k, later steps on the left.

    Runs the plan, by default _tree_plan(stack, n), on the n = len(drive)
    steps _step_leaves writes; returns D_n = diag(u_n^j) times it, a copy.
    """
    n = len(drive)
    pieces, top = _tree_plan(stack, n) if plan is None else plan
    last = _step_leaves(drive, fit, stack[-n:])
    for call, *views in pieces:
        call(*views)
    return np.multiply.accumulate(np.array([1.0, last, last, last]))[:, None] * top


def _integrate_full(params: FullModelParams) -> tuple[np.ndarray, int, float]:
    """Integrate the full model from the single-excitation state.

    Runs on the 4x4 symmetric block: fits the steps over the _drive_band,
    allocates the tree's one stack, _CHUNK + _CHUNK / 16 real 8x8 matrices
    at most, and its _tree_plan, built once more for a shorter last chunk;
    each chunk of _CHUNK steps takes the drive at its midpoints, with tone
    phases e^{-i w done dt} times one table of e^{-i w (j + 1/2) dt}, as
    one _step_product and renormalizes after it.  The chunk's tones are
    dropped once the drive is summed, before the product runs.  Returns
    (final_state, steps, dt), the state in the (ggg, W, W', rrr) basis.
    """
    n, dt = _step_grid(params)
    size = min(_CHUNK, n)
    fit = _step_fit(*_drive_band(params), dt, params.blockade)
    stack = np.empty((size + -(-size // 16), 8, 8))
    freqs = tone_frequencies(params)
    centres = np.arange(size) + 0.5
    table = np.exp(np.multiply.outer(-1j * freqs, centres * dt))
    psi = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    plan = _tree_plan(stack, size)
    for done in range(0, n, _CHUNK):
        count = min(_CHUNK, n - done)
        shift = np.exp(-1j * (done * dt) * freqs)[:, None]
        drive = _drive((centres[:count] + done) * dt, params, table[:, :count] * shift)
        psi = _step_product(drive, fit, stack, plan if count == size else None) @ psi
        psi /= math.sqrt(np.vdot(psi, psi).real)
    return psi, n, dt


def validate_reduction(
    params: FullModelParams, effective: np.ndarray, required_factor: float = DEFAULT_FACTOR
) -> ReductionReport:
    """Integrate the full model and score it against the effective one.

    effective is the four-level final state of the same schedule, as
    propagate gives it; the prediction lifts it into the full space with
    the accumulated frame-alignment phases of the four levels.  It
    refuses nothing for the hierarchy, which compare_factors admits:
    hierarchy_ok reports whether both scale ratios reach required_factor.
    """
    upper, lower = hierarchy_ratios(params)
    psi_block, steps, dt = _integrate_full(params)

    d1, d2, d3 = params.detunings
    v = params.blockade
    duration = params.schedule.duration
    frame = np.array([0.0, d1, d1 + d2 + v, d1 + d2 + d3 + 3.0 * v])
    predicted = np.exp(-1j * frame * duration) * effective
    infidelity = 1.0 - float(abs(np.vdot(predicted, psi_block)) ** 2)

    return ReductionReport(
        hierarchy_factor=min(upper, lower),
        ratio_upper=upper,
        ratio_lower=lower,
        hierarchy_ok=min(upper, lower) >= required_factor,
        # the block integration cannot leave the symmetric manifold; the
        # field stays because the benchmark's validate gate reads it
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
    factors: tuple[float, ...],
    steps_per_cycle: int = DEFAULT_STEPS_PER_CYCLE,
    min_factor: float = DEFAULT_FACTOR,
    force: bool = False,
) -> tuple[list[ReductionReport], dict]:
    """Run the reduction check at several hierarchy factors.

    Every factor is admitted before any is integrated, each refusal
    starting "factor F: ": params_for_factor's ValueError when its scales
    or Stark shifts leave the float range, TooManySteps when it needs
    more steps than the cap and, unless force is set, HierarchyViolation
    when a scale ratio falls below min_factor, which must be positive and
    finite.  The effective model is then propagated once and scores every
    factor, hierarchy_ok against min_factor.  Returns the per-factor
    reports plus the trend flag "infidelity_decreased", comparing the last
    run against the first: the perturbative prediction is that a wider
    hierarchy tracks the effective model more closely.
    """
    if not 0 < min_factor < math.inf:
        raise ValueError(
            f"minimum hierarchy factor must be positive and finite, not {min_factor!r}"
        )
    runs = [(f, params_for_factor(schedule, f, steps_per_cycle)) for f in factors]
    for f, params in runs:
        try:
            _step_grid(params)
            upper, lower = hierarchy_ratios(params)
            if not (force or min(upper, lower) >= min_factor):
                raise HierarchyViolation(
                    f"scale ratios ({upper:.2f}, {lower:.2f}) below the minimum factor {min_factor:g}"
                )
        except (TooManySteps, HierarchyViolation) as exc:
            raise type(exc)(f"factor {f:g}: {exc}") from None
    effective = propagate(schedule, target="ghz").states[-1]
    reports = [validate_reduction(params, effective, min_factor) for _, params in runs]
    trend = {
        "infidelity_decreased": reports[-1].effective_vs_full_infidelity
        < reports[0].effective_vs_full_infidelity,
    }
    return reports, trend
