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
leakage_max is exactly zero.  The eight-level model lives in the tests,
as the oracle this block is checked against.

On the block the drive enters as H = c R + c* R^T + V P, with R the
spin-3/2 ladder (sqrt 3, 2, sqrt 3), P = diag(0, 0, 1, 3) and c the sum
of the four tones.  In the strong tone's frame the rest of H is a
constant block K plus the scheduled tones, of amplitude O(peak) against
a stiff scale O(factor^2 peak); steps in K's interaction picture, the
fast phases integrated exactly (second-order Magnus, first order where
few steps share a length; Filon-type quadrature, Iserles & Norsett,
Proc. R. Soc. A 461, 1383 (2005)), grow in number with the factor, not
its square (see _integrate_full).

Conventions: basis states are ordered lexicographically with the ground
state as 0 and the excited state as 1, atom 1 in the most significant
bit.  The strong drive sits *below* the single-atom transition, so its
interaction-picture phase rotates opposite to the scheduled tones; with
that choice the closed-form detunings cancel the Stark-shifted diagonal
exactly, which we verified against the level distances term by term.
"""

from __future__ import annotations

import math
import sys
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
DEFAULT_COMPARE_FACTOR = 100.0

# Steps reduced to one product at a time; sizes the product tree's one stack.
_CHUNK = 512

# Steps per unit of max(stark_amp, peak) time.  The state error of
# second-order K-frame steps grows as (stark_amp ell)^3, of first-order
# ones as (stark_amp ell)^2 and of the midpoint rule as 0.026 / spc^2: at
# spc^(2/3) second-order steps, or this times spc first-order ones, they
# err no more than midpoint steps at the same spc.
_FIRST_ORDER_RATE = 6.5
# Second-order steps resolve this times the peak amplitude at least: on
# linear pieces, at spc 14 and factors 3 to 100, the reported
# infidelity then errs by at most 7.4e-7 (a floor of 20: 1.1e-6).
_SLOW = 24.0
# A step length that fewer steps share takes first-order steps: its
# second-order rows take about 0.4 ms to build, what about 32
# second-order steps save against the 15 to 24 times as many first-order
# steps they replace at spc 14 to 50.
_SHARED = 32


class HierarchyViolation(ValueError):
    """Parameters do not satisfy the requested scale hierarchy."""


# Summed over the atoms, raising takes ggg, W and W' to sqrt 3, 2 and
# sqrt 3 times the next level: R is the lower triangle of _LADDER4 =
# R + R^T.  W' holds one excited pair, rrr three, and N counts excitations.
_RUNGS = [math.sqrt(3.0), 2.0, math.sqrt(3.0)]
_LADDER4 = np.diag(_RUNGS, 1) + np.diag(_RUNGS, -1)
_PAIRS4 = np.diag([0.0, 0.0, 1.0, 3.0])
_LEVELS = np.arange(4.0)

# Taylor coefficients 1 / (n! (n + r + 1)) of int_0^1 s^r e^{-ixs} ds, row n, column r
_SERIES = np.array([[1.0 / (math.factorial(n) * (n + r + 1)) for r in range(3)] for n in range(15)])

# Below this |nu ell| the nested integrals' closed forms, which divide by
# the frequency twice, give way to its series (_second_order)
_SPLIT = 0.25
# Coefficients 1 / (k! n! (n + q + 1) (n + k + p + q + 2)) of the double
# series of the nested integral I_pq, row (p, q), then k, n
_DOUBLE = np.array([
    [[1.0 / (math.factorial(k) * math.factorial(n) * (n + q + 1) * (n + k + p + q + 2)) for n in range(16)]
     for k in range(16)]
    for p in (0, 1) for q in (0, 1)
])
# The 78 monomials coef_c coef_d, c <= d, in the order of the basis rows
_PAIRS = np.triu_indices(12)


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
        if self.steps_per_cycle > sys.float_info.max:  # the step rule takes its power as a float
            raise ValueError("steps_per_cycle leaves the float range")
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


def _step_grid(params: FullModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Steps in each knot segment of the full-model integration, so none straddles a knot, and their order.

    Segment j takes ceil(length_j spc^(2/3) max(stark_amp, _SLOW x)) equal
    second-order steps, at least one, x the largest scheduled amplitude,
    where at least _SHARED steps share their length (_groups); elsewhere
    ceil(length_j _FIRST_ORDER_RATE spc max(stark_amp, x)) first-order
    ones.  Returns the counts and whether each segment's steps are second
    order.  Raises TooManySteps, before anything is allocated, past the
    step cap.
    """
    schedule = params.schedule
    lengths = np.diff(schedule.times)
    peak = float(np.max(np.abs(schedule.values)))
    rate = params.steps_per_cycle ** (2.0 / 3.0) * max(params.stark_amp, _SLOW * peak)
    counts = np.maximum(np.ceil(lengths * rate), 1.0)
    group, _ = _groups(lengths / counts, schedule.times[-1] / np.max(counts))
    second = np.bincount(group, weights=counts)[group] >= _SHARED
    if not np.all(second):
        first = np.maximum(np.ceil(lengths * _FIRST_ORDER_RATE * params.steps_per_cycle * max(params.stark_amp, peak)), 1.0)
        counts = np.where(second, counts, first)
    total = float(np.sum(counts))
    if not total <= _MAX_STEPS:
        raise TooManySteps(f"the full model needs {total:.4g} steps, more than the cap of {_MAX_STEPS}")
    return counts.astype(np.int64), second


def _linear_pieces(schedule: PulseSchedule) -> PulseSchedule:
    """The schedule on the knots that bound its linear pieces, to 64 ulps of the peak amplitude.

    Keeps both ends, every knot off the line through its neighbours and,
    until the kept chords miss none, every knot that they miss.
    """
    times, values = schedule.times, schedule.values
    tol = 64.0 * np.finfo(float).eps * float(np.max(np.abs(values)))
    between = (times[1:-1] - times[:-2]) / (times[2:] - times[:-2])
    bent = np.max(np.abs(values[:-2] + between[:, None] * (values[2:] - values[:-2]) - values[1:-1]), axis=1)
    keep = np.concatenate([[True], bent > tol, [True]])
    while True:
        kept = np.flatnonzero(keep)
        line = PulseSchedule(times=times[kept], values=values[kept])
        miss = np.max(np.abs(line.values_at(times) - values), axis=1)
        if not np.any(miss > tol):
            return schedule if len(kept) == len(times) else line
        keep |= miss > tol


def _groups(ell: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """The group of each of ell, and the least value of each group, ascending.

    A value within 4 ulps of scale of the next smaller one shares its
    group: step lengths that the knots' rounding alone tells apart.
    """
    ordered = np.sort(ell)
    gap = 4.0 * np.finfo(float).eps * scale
    if ordered[-1] - ordered[0] <= gap:  # one group, as on most schedules
        return np.zeros(len(ell), np.intp), ordered[:1]
    least = ordered[np.diff(ordered, prepend=-math.inf) > gap]
    return np.searchsorted(least, ell, side="right") - 1, least


def _jacobi(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues w and orthonormal eigenvectors q of a real symmetric a = q diag(w) q^T.

    Cyclic Jacobi (Golub & Van Loan, Matrix Computations, 4th ed., 8.5) on
    plain floats, sweeping until no pair exceeds 2^-54 of its diagonal
    entries (about 14 rotations for K).  Columns ascend in w, each signed
    so that its diagonal entry is not negative.
    """
    a = np.array(a, dtype=float).tolist()
    q = np.eye(len(a)).tolist()
    pairs = [(p, r) for p in range(len(a)) for r in range(p + 1, len(a))]
    for _ in range(64):  # convergence is quadratic; a 4x4 takes a few sweeps
        rotated = False
        for p, r in pairs:
            if abs(a[p][r]) <= 2.0**-54 * math.hypot(a[p][p], a[r][r]):
                continue
            rotated = True
            tau = (a[r][r] - a[p][p]) / (2.0 * a[p][r])
            t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
            c = 1.0 / math.hypot(1.0, t)
            s = t * c
            # columns p and r of a and q, then rows p and r of a
            for row in a + q:
                row[p], row[r] = c * row[p] - s * row[r], s * row[p] + c * row[r]
            a[p], a[r] = [c * x - s * y for x, y in zip(a[p], a[r])], [s * x + c * y for x, y in zip(a[p], a[r])]
            a[p][r] = a[r][p] = 0.0
        if not rotated:
            break
    order = np.argsort(np.diag(a))
    q = np.array(q)[:, order]
    return np.diag(a)[order], q * np.where(np.diag(q) < 0.0, -1.0, 1.0)


def _dressed_block(params: FullModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues eps and eigenvectors Q of K = stark_amp (R + R^T) + V P + detuning0 N.

    K is the constant block of H in the frame psi = e^{i detuning0 N t} phi;
    where the hierarchy holds, column j of Q dresses bare level j.
    """
    k = params.stark_amp * _LADDER4 + params.blockade * _PAIRS4 + params.detuning0 * np.diag(_LEVELS)
    return _jacobi(k)


def _series_exp(y: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """exp(y) for a stack of square matrices y, shape (..., d, d), written over y.

    check passes -iX for Hermitian X, the full model its step exponents in
    real form.  A Taylor series of the least degree m whose first dropped
    term theta^(m+1)/(m+1)! is at most 2^-53, theta the largest Frobenius
    norm; past theta = 1, y is halved s = ceil(log2 theta) times and the
    result squared s times (Moler & Van Loan, SIAM Rev. 45, 3 (2003)).
    Horner's rule in y^2 over the pairs c_2j + c_2j+1 y (Paterson &
    Stockmeyer, SIAM J. Comput. 2, 60 (1973)) takes ceil((m + 1) / 2)
    products.  work, shape (3, *y.shape), holds y^2 and two sums if given.
    """
    v = y.view(float)
    theta = math.sqrt(float(np.max(np.einsum("...ij,...ij->...", v, v))))
    s = math.ceil(math.log2(theta)) if theta > 1.0 else 0
    theta *= 0.5**s
    m = 1
    while theta ** (m + 1) / math.factorial(m + 1) > 2.0**-53:
        m += 1
    if s:
        y *= 0.5**s
    square, acc, tmp = np.empty((3, *y.shape), y.dtype) if work is None else work
    coef = [1.0 / math.factorial(k) for k in range(m + 1)] + [0.0]
    top = m - m % 2
    if top:
        np.matmul(y, y, out=square)
        on_acc = np.einsum("...ii->...i", acc)
    for lo in range(top, -1, -2):
        if lo < top:
            np.matmul(acc, square, out=tmp)
        # the pair is summed into y last, once no product reads y
        out = acc if lo else y
        np.multiply(y, coef[lo + 1], out=out)
        if lo < top:
            out += tmp
        diagonal = on_acc if lo else np.einsum("...ii->...i", y)
        diagonal += coef[lo]
    for _ in range(s):
        np.matmul(y, y, out=tmp)
        y[...] = tmp
    return y


def _real_form(z: np.ndarray) -> np.ndarray:
    """Complex matrices z, shape (..., 4, 4), as the product tree's real (..., 8, 8).

    Entry a + ib is the block [[a, -b], [b, a]], transposed: rows 2l and
    2l + 1 hold column l of z and of i z, so products come reversed.
    """
    zt = np.swapaxes(z, -1, -2)
    return np.ascontiguousarray(np.stack([zt, 1j * zt], axis=-2)).view(float).reshape(*z.shape[:-2], 8, 8)


def _phase_integrals(x: np.ndarray, powers: int = 3) -> np.ndarray:
    """int_0^1 s^p e^{-ixs} ds for p below powers, at most 3, and real x, elementwise, stacked on a new first axis.

    Closed forms where |x| >= 1/2, p = 2 by parts from p = 1; below, where
    they cancel, the Taylor series in z = -ix, whose 15 terms reach 2^-53.
    """
    small = np.abs(x) < 0.5
    z = -1j * x[small]
    x = np.where(small, 1.0, x)
    e = np.exp(-1j * x)
    out = np.empty((powers, *x.shape), complex)
    np.divide(1.0 - e, 1j * x, out=out[0])
    np.divide(e * (1.0 + 1j * x) - 1.0, x * x, out=out[1])
    if powers > 2:
        np.multiply(e - 2.0 * out[1], 1j / x, out=out[2])
    out[:, small] = (np.vander(z, 15, increasing=True) @ _SERIES[:, :powers]).T
    return out


def _products(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left_g @ right_h for stacks (L, G, 4, 4) and (L, H, 4, 4), shape (L, G, H, 4, 4), by one GEMM per L."""
    n, g, h = len(left), left.shape[1], right.shape[1]
    out = left.reshape(n, 4 * g, 4) @ np.swapaxes(right, 1, 2).reshape(n, 4, 4 * h)
    return np.swapaxes(out.reshape(n, g, 4, h, 4), 2, 3)


def _second_order(x: np.ndarray, j: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Second Magnus term per unit monomial coef_c coef_d, c <= d, per step length, shape (L, 78, 4, 4).

    With h(tau) = sum_x zeta_x tau^p (B_g o e^{-i w_g tau}) the step's
    Hamiltonian in K's interaction picture, its six halves g = (k, s)
    coupling_k at w = nu_k and the adjoint's coupling_k^T at -nu_k^T, b,
    and zeta their amplitudes z_pk = alpha_k (cos - i sin) of Omega_k t
    (beta_k for p = 1) and conj(z_pk), the term is
    -1/2 (P - P^H), P = sum zeta_x zeta_y T_xy, T_xy = int int_{tau_2 <
    tau_1} of the product.  Entry [a, b] of T_xy is sum_m B_g[a, m] B_h[m,
    b] I_pq(mu_am, lambda_mb), I_pq = int_0^ell tau_1^p e^{-i mu tau_1}
    int_0^tau_1 tau_2^q e^{-i lambda tau_2}, where mu + lambda = sigma_ab for
    every m.  In units of ell, x holds w_g ell, shape (L, 6, 4, 4), and j
    the integrals j_p (_phase_integrals) of sigma, shape (3, L, 7, 6, 4,
    4), the first of the 7 shifts 0 (j_p of x).  The inner integral in
    closed form where |lambda ell| >= _SPLIT puts I in j_p(mu), j_p(sigma)
    and j_p+1(sigma); elsewhere, where |mu ell| >= _SPLIT, I_pq(mu, lambda)
    = j_p(mu) j_q(lambda) - I_qp(lambda, mu) and the closed form of the
    latter; where neither, the double series in mu and lambda (_DOUBLE).
    So each m-sum is a product of 4x4 matrices.
    """
    count = len(x)
    jx, js = j[:, :, 0], np.moveaxis(j[:, :, 1:], 0, 1)
    big = np.abs(x) >= _SPLIT
    inv = big / np.where(big, x, 1.0)
    bb, bs = b * big, b * ~big
    # b / (i w) and b / w^2 where |w ell| is large, else 0
    over, square = -1j * b * inv, b * inv * inv
    # t[l, p, g, q, h]: I_pq of halves g and h; |lambda ell| large first,
    # I_p0 = (j_p(mu) - j_p(sigma)) / (i lambda) and I_p1 = (j_p(sigma) + i
    # lambda j_p+1(sigma) - j_p(mu)) / lambda^2
    u = _products(np.concatenate([b * jx[0], b * jx[1], b], axis=1), np.concatenate([over, square], axis=1))
    u = u.reshape(count, 3, 6, 2, 6, 4, 4)
    t = np.empty((count, 2, 6, 2, 6, 4, 4), complex)
    t[:, :, :, 0] = u[:, :2, :, 0] - js[:, :2] * u[:, 2:, :, 0]
    t[:, :, :, 1] = js[:, :2] * u[:, 2:, :, 1] - u[:, :2, :, 1] - js[:, 1:] * u[:, 2:, :, 0]
    # |lambda ell| small, |mu ell| large: j_p(mu) j_q(lambda) - I_qp(lambda, mu)
    left = [bb * jx[0] - over, bb * jx[1] + square, over, square]
    u = _products(np.concatenate(left, axis=1), np.concatenate([bs * jx[0], bs * jx[1], bs], axis=1))
    u = u.reshape(count, 4, 6, 3, 6, 4, 4)
    jq = np.swapaxes(js, 1, 2)
    t[:, 0] += u[:, 0, :, :2] + jq[:, :, :2] * u[:, 2, :, 2:]
    t[:, 1] += u[:, 1, :, :2] - jq[:, :, :2] * u[:, 3, :, 2:] + jq[:, :, 1:] * u[:, 2, :, 2:]
    # both small: the double series sum_kn (-i mu)^k (-i lambda)^n c_kn, n
    # terms in each to 2^-53 of the largest |w ell| below _SPLIT
    small = np.where(big, 0.0, x)
    top, n = float(np.max(np.abs(small))), 1
    while top**n / math.factorial(n) > 2.0**-53:
        n += 1
    powers = bs[..., None] * np.vander(-1j * small.ravel(), n + 1, increasing=True).reshape(*x.shape, n + 1)
    # rows (g, a), columns (m, k); then rows (m, k), columns (h, b) per (p, q)
    rhs = powers.reshape(-1, n + 1) @ _DOUBLE[:, : n + 1, : n + 1].reshape(-1, n + 1).T
    rhs = np.transpose(rhs.reshape(count, 6, 4, 4, 4, n + 1), (0, 4, 2, 5, 1, 3)).reshape(count, 4, 4 * n + 4, 24)
    series = powers.reshape(count, 1, 24, 4 * n + 4) @ rhs
    t += np.transpose(series.reshape(count, 2, 2, 6, 4, 6, 4), (0, 1, 3, 2, 5, 4, 6))
    # from the halves to the coefficients' cos and sin, one axis at a
    # time, then the anti-Hermitian part, folded onto c <= d
    t = t.reshape(count, 6, 2, 12, 4, 4)
    t = np.stack([t[:, :, 0] + t[:, :, 1], -1j * (t[:, :, 0] - t[:, :, 1])], axis=2).reshape(count, 12, 6, 2, 4, 4)
    pairs = np.stack([t[:, :, :, 0] + t[:, :, :, 1], -1j * (t[:, :, :, 0] - t[:, :, :, 1])], axis=3)
    pairs = pairs.reshape(count, 12, 12, 4, 4)
    pairs -= np.conj(np.swapaxes(pairs, -1, -2))
    fold = (pairs + np.swapaxes(pairs, 1, 2))[:, _PAIRS[0], _PAIRS[1]]
    return fold * np.where(_PAIRS[0] == _PAIRS[1], -0.25, -0.5)[:, None, None]


def _basis(ell: np.ndarray, nu: np.ndarray, coupling: np.ndarray, second=True) -> list[np.ndarray]:
    """Step exponents per unit coefficient and monomial for steps of lengths ell, one array per length.

    A step from t with amplitudes alpha_k + beta_k tau has the exponent
    Omega_1 + Omega_2.  Omega_1 = -i(M + M^H), M = sum_k coupling_k e^{-i
    Omega_k t} (alpha_k J0_k + beta_k J1_k), J_jk = int_0^ell tau^j e^{-i
    nu_k tau} dtau exactly, entry by entry; row (j, k, c), in _real_form,
    is its part per unit of (alpha_k, beta_k)[j] times (cos, sin)[c] of
    Omega_k t.  Where second, one flag or one per length of the 1-d ell,
    is set, rows 12 on hold Omega_2 per unit of the 78 monomials of
    those 12 coefficients (_second_order), in the order of _PAIRS, its
    integrals of order p + q scaled by ell^(p + q + 2): shape (90, 64);
    elsewhere the 12 rows of Omega_1 alone, shape (12, 64).
    """
    up = np.full(len(ell), second, bool)
    ell = np.reshape(ell, (-1, 1, 1, 1))
    some = np.any(up)
    if some:
        # the halves (k, +) and (k, -) of each tone, in units of ell, and the
        # integrals of the sums sigma of two, the first shifted by 0
        xs = np.stack([nu, -np.swapaxes(nu, 1, 2)], axis=1).reshape(6, 4, 4) * ell[up]
        shifts = np.concatenate([np.zeros((len(xs), 1, 4)), np.diagonal(xs, axis1=2, axis2=3)], axis=1)
        j = _phase_integrals(shifts[:, :, None, :, None] + xs[:, None])
    # j_0 and j_1 of the (k, +) halves: j's first shift where every length has j
    halves = j[:2, :, 0, 0::2] if np.all(up) else _phase_integrals(nu * ell, 2)
    m = np.stack([ell * halves[0], ell * ell * halves[1]], axis=1) * coupling
    m = m[:, :, :, None] * np.array([1.0, -1j])[:, None, None]
    first = list(_real_form(-1j * (m + np.swapaxes(m.conj(), -1, -2))).reshape(-1, 12, 64))
    if not some:
        return first
    b = np.broadcast_to(np.stack([coupling, np.swapaxes(coupling, 1, 2)], axis=1).reshape(6, 4, 4), xs.shape)
    # I_pq scales as ell^(p + q + 2), p and q the powers of tau of the pair
    powers = 2.0 + (_PAIRS[0] >= 6) + (_PAIRS[1] >= 6)
    terms = _second_order(xs, j, b) * (ell[up].reshape(-1, 1) ** powers)[..., None, None]
    rows = iter(_real_form(terms).reshape(-1, 78, 64))
    return [np.concatenate([omega1, next(rows)]) if order else omega1 for omega1, order in zip(first, up)]


def _step_product(stack: np.ndarray, n: int, phases: np.ndarray) -> np.ndarray:
    """Product of n steps G_s exp(Y_s), later steps on the left, as a complex 4x4 copy.

    stack holds at least 4 n real 8x8 matrices, the exponents Y_s in its
    last n rows.  Each is replaced by exp(Y_s), _series_exp taking the
    first 3 n rows as work, and then by G_s exp(Y_s), G_s = diag(phases[s])
    scaling each row of the real form as complex numbers.  Pairs are then
    multiplied in log depth, level by level in batched products (the
    up-sweep of Blelloch, Prefix Sums and Their Applications, 1990), the
    levels alternating between the first ceil(n / 2) rows and the last n,
    an odd last step copied up.
    """
    level, up = stack[-n:], stack[: (n + 1) // 2]
    _series_exp(level, stack[: 3 * n].reshape(3, n, 8, 8))
    level.view(complex)[...] *= phases[:, None, :]
    while n > 1:
        half = n // 2
        np.matmul(level[0 : 2 * half : 2], level[1 : 2 * half : 2], out=up[:half])
        if n % 2:
            up[half] = level[n - 1]
        n = half + n % 2
        level, up = up, level
    return level[0, ::2].view(complex).T.copy()


def _integrate_full(params: FullModelParams) -> tuple[np.ndarray, int, float]:
    """Integrate the full model from the single-excitation state.

    Runs on the 4x4 block in the frame psi = e^{i detuning0 N t} phi, where
    i phi' = (K + W(t)) phi, K = Q diag(eps) Q^T (_dressed_block) and
    W(t) = sum_k w_k a_k(t) (e^{-i Omega_k t} R + h.c.), Omega_k the tone's
    frequency plus detuning0.  Each step of _step_grid, where a_k is
    linear, takes the first two Magnus terms of W in K's interaction
    picture, or the first where _step_grid says first order, integrated
    exactly (_basis); the dressed phases telescope into G = diag(e^{-i eps
    ell}):

        psi(T) = e^{i detuning0 N T} Q G_{n-1} E_{n-1} ... G_0 E_0 Q^T W,

    E_s = exp(Omega_1 + Omega_2).  Every chunk of up to _CHUNK steps
    reuses one stack of 4 _CHUNK real 8x8 matrices, taken once.
    A chunk writes its 12 coefficients per step (alpha and beta times cos
    and sin of Omega_k t) and their 78 monomials into the stack's front
    rows, which _step_product takes as work only later, and its exponents
    into the last rows by a GEMM of as many of them as the basis of its
    step length and order has rows, 90 or 12, lengths within the knots'
    rounding sharing one; one _step_product multiplies them,
    and the state is renormalized after it.  Returns (final_state, steps,
    dt), dt the longest step, the state in the (ggg, W, W', rrr) basis.
    """
    counts, second = _step_grid(params)
    times, values = params.schedule.times, params.schedule.values
    n = int(np.sum(counts))
    ell = np.diff(times) / counts
    first = np.cumsum(counts) - counts
    # per segment: its first knot, step length, amplitudes there and slopes
    segments = np.vstack([times[:-1], ell, values[:-1].T, (np.diff(values, axis=0).T / np.diff(times))])
    eps, q = _dressed_block(params)
    omega = tone_frequencies(params)[1:] + params.detuning0
    nu = omega[:, None, None] - eps[:, None] + eps
    coupling = TONE_WEIGHTS[:, None, None] * (q.T @ np.tril(_LADDER4) @ q)
    # first-order lengths keyed negative, so that they group apart
    group, keys = _groups(np.where(second, ell, -ell), times[-1] / np.max(counts))
    gates = np.exp(np.multiply.outer(ell, -1j * eps))
    stack = np.empty((4 * _CHUNK, 8, 8))
    chi = q[1].astype(complex)
    built = np.array([-1])
    for done in range(0, n, _CHUNK):
        count = min(_CHUNK, n - done)
        step = np.arange(done, done + count)
        seg = np.searchsorted(first, step, side="right") - 1
        at = segments.take(seg, axis=1)
        tau = (step - first[seg]) * at[1]
        phase = np.multiply.outer(omega, at[0] + tau)
        tones = np.stack([np.cos(phase), np.sin(phase)], axis=1)
        # row (j, k, c) is (alpha_k, beta_k)[j] times (cos, sin)[c] of Omega_k t,
        # then, if a step is second order, the monomials of rows c <= d
        coef = stack[: 3 * count].reshape(-1)[: 90 * count].reshape(90, count)
        np.stack([(at[2:5] + at[5:] * tau)[:, None] * tones, at[5:, None] * tones], out=coef[:12].reshape(2, 3, 2, count))
        if np.any(second[seg]):
            for c in range(12):
                row = 12 + c * (25 - c) // 2
                np.multiply(coef[c], coef[c:12], out=coef[row : row + 12 - c])
        kind = group[seg]
        exponents = stack[-count:].reshape(count, 64)
        # runs of steps that share a basis, basis by basis, 32 built at a time
        cuts = np.flatnonzero(np.diff(kind, prepend=-1, append=-1))
        runs = np.argsort(kind[cuts[:-1]], kind="stable")
        ids, ends = np.unique(kind[cuts[runs]], return_index=True)
        ends = np.append(ends, len(runs))
        for at_id in range(0, len(ids), 32):
            if not np.array_equal(ids[at_id : at_id + 32], built):
                built = ids[at_id : at_id + 32]
                bases = _basis(np.abs(keys[built]), nu, coupling, keys[built] > 0)
            for i, basis in enumerate(bases, at_id):
                for r in runs[ends[i] : ends[i + 1]]:
                    lo, hi = cuts[r], cuts[r + 1]
                    np.matmul(coef[: len(basis), lo:hi].T, basis, out=exponents[lo:hi])
        product = _step_product(stack, count, gates[seg])
        chi = product @ chi
        chi /= math.sqrt(np.vdot(chi, chi).real)
    psi = np.exp(1j * params.detuning0 * times[-1] * _LEVELS) * (q @ chi)
    return psi, n, float(np.max(ell))


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
    hierarchy tracks the effective model more closely.  Both models run
    on the schedule's linear pieces (_linear_pieces).
    """
    if not 0 < min_factor < math.inf:
        raise ValueError(
            f"minimum hierarchy factor must be positive and finite, not {min_factor!r}"
        )
    schedule = _linear_pieces(schedule)
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
