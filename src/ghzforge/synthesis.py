"""Constraint-satisfying curves, GHZ endpoints, and laser schedules.

Both rotation vectors are kept on the sphere of radius pi with constant
azimuths, which turns the realizability constraints into a single linear
slaving of the right polar angle to the left one.  What remains is a
boundary problem: the polar/azimuth values at the final time must both
satisfy the GHZ endpoint conditions and be compatible with the slaving
ratio integrated from the common starting point at the north pole.  That
reduces to one scalar root per sign branch, found by bisection in plain
Python floats (``_bisect_root``) down to two adjacent floats.

Two pulse families are provided for the polar angle: a constant rate and
a trapezoidal rate that switches on and off continuously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .algebra import w_state
from .unitary import _unitaries

__all__ = [
    "NoSolution",
    "TanSingularity",
    "NonFiniteSchedule",
    "EndpointSolution",
    "SphericalCurve",
    "PulseSchedule",
    "DEFAULT_SIGN_ORDER",
    "RADIUS",
    "solve_endpoints",
    "enumerate_endpoints",
    "rabi_schedule",
    "plateau_amplitudes",
    "reverse_schedule",
]

RADIUS = math.pi

# Sign triples in the canonical emission order.  The first four share the
# negative-root branch, the last four the positive one; every admissible
# endpoint appears exactly once.
DEFAULT_SIGN_ORDER = (
    (+1, -1, +1),
    (+1, +1, +1),
    (-1, +1, +1),
    (-1, -1, +1),
    (-1, +1, -1),
    (-1, -1, -1),
    (+1, -1, -1),
    (+1, +1, -1),
)

_ROOT_EPS = 1e-12
_ENDPOINT_TOL = 1e-9


class NoSolution(ValueError):
    """No admissible endpoint root for a sign triple."""


class TanSingularity(ValueError):
    """The schedule formulas diverge because cos(phi_right) vanishes."""


class NonFiniteSchedule(ValueError):
    """Schedule contains NaN or infinite amplitudes or times."""


@dataclass(frozen=True)
class EndpointSolution:
    """A GHZ-compatible final configuration of the two rotation vectors.

    Angles follow the usual spherical convention (polar theta in [0, pi],
    azimuth phi in [0, 2 pi)); the azimuths are constant along the curve,
    so the values here apply at every time.  q1, q2, q3 are the sign
    choices distinguishing the eight admissible branches, and ghz_phase
    is the relative phase of the GHZ state this endpoint produces from
    the single-excitation initial state.
    """

    theta_left_final: float
    theta_right_final: float
    phi_left: float
    phi_right: float
    q1: int
    q2: int
    q3: int
    ghz_phase: float

    @property
    def curve_slope(self) -> float:
        """Ratio theta_right(t)/theta_left(t) forced by the constraints."""
        return math.cos(self.phi_left) / math.cos(self.phi_right)

    def vectors(self) -> np.ndarray:
        """The final rotation-vector pair, shape (2, 3), left first."""
        return np.stack([
            _spherical(self.theta_left_final, self.phi_left),
            _spherical(self.theta_right_final, self.phi_right),
        ])

    def endpoint_residuals(self) -> np.ndarray:
        """Residuals of the four GHZ endpoint conditions (all should be 0)."""
        a, b = self.vectors()
        target = RADIUS**2 / math.sqrt(2.0)
        return np.array(
            [
                abs(a[2] * b[1] + a[1] * b[2]) - target,
                a[0] * b[0] + a[1] * b[1] - a[2] * b[2],
                a[0] * b[2] + a[2] * b[0],
                abs(a[1] * b[0] - a[0] * b[1]) - target,
            ]
        )

    def sphere_residual(self) -> float:
        """cos^2 theta_left + cos^2 theta_right - 1/2 (identically zero)."""
        return (
            math.cos(self.theta_left_final) ** 2
            + math.cos(self.theta_right_final) ** 2
            - 0.5
        )


def _spherical(theta, phi: float, pole: int = 1) -> np.ndarray:
    """Point of the radius-pi sphere, shape (..., 3) for an array of theta."""
    sin_t = np.sin(theta)
    return RADIUS * np.stack(
        [sin_t * np.cos(phi), sin_t * np.sin(phi), pole * np.cos(theta)], axis=-1
    )


def _boundary_mismatch(a3: float, q3: int) -> float:
    """Scalar function whose root fixes the endpoint for a sign branch.

    a3 is the cosine of the final left polar angle.  The first term is
    the right polar angle actually required by the GHZ conditions; the
    second is the value the slaving ratio delivers when the left angle
    reaches its own target.  Admissible endpoints make the two agree.
    """
    theta_left = math.acos(a3)
    cos_right = q3 * math.sqrt(max(0.0, 0.5 - a3 * a3))
    theta_right = math.acos(cos_right)
    slope = (math.cos(theta_left) / math.sin(theta_left)) * (
        math.sin(theta_right) / math.cos(theta_right)
    )
    return theta_right + slope * theta_left


def _bisect_root(f, lo: float, hi: float) -> float:
    """Root of f in the sign-changing bracket [lo, hi] by bisection.

    Halves the bracket until its midpoint rounds onto one of its ends, so
    the ends are adjacent floats, and returns the end at which f is
    positive; an end or a midpoint at which f is exactly 0 is returned at
    once.  Raises NoSolution on a bracket without a sign change.
    """
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise NoSolution(f"no sign change of the mismatch on [{lo!r}, {hi!r}]")
    if f_lo > 0.0:
        lo, hi = hi, lo
    while (mid := (lo + hi) / 2) not in (lo, hi):
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if f_mid < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def solve_endpoints(signs: tuple[int, int, int]) -> EndpointSolution:
    """Solve the endpoint problem for one sign triple."""
    return enumerate_endpoints([signs])[0]


def enumerate_endpoints(signs=DEFAULT_SIGN_ORDER) -> list[EndpointSolution]:
    """The admissible endpoint of each sign triple in signs, in order; all of them by default.

    The scalar root depends on q3 alone, so it is solved once for each
    q3 branch in signs, on the half-interval of cos(theta_left_final)
    that admits one: negative for q3 = +1, positive for q3 = -1.  The
    other half has no sign change of the mismatch for either q3.  The
    GHZ phases come from one batch of endpoint unitaries.
    """
    triples = [tuple(int(q) for q in t) for t in signs]
    if any(len(t) != 3 or not set(t) <= {-1, 1} for t in triples):
        raise ValueError("sign entries must be +1 or -1")
    roots = {}
    for q3 in dict.fromkeys(t[2] for t in triples):
        if q3 > 0:
            lo, hi = -1.0 / math.sqrt(2.0) + _ROOT_EPS, -_ROOT_EPS
        else:
            lo, hi = _ROOT_EPS, 1.0 / math.sqrt(2.0) - _ROOT_EPS
        roots[q3] = _bisect_root(lambda a, q3=q3: _boundary_mismatch(a, q3), lo, hi)
    solutions = [_endpoint(t, roots[t[2]]) for t in triples]
    unitaries = _unitaries(np.stack([sol.vectors() for sol in solutions], axis=1))
    return [replace(sol, ghz_phase=_reached_ghz_phase(u)) for sol, u in zip(solutions, unitaries)]


def _endpoint(signs: tuple[int, int, int], a3: float) -> EndpointSolution:
    """The endpoint of a sign triple at the root a3 of its branch, its GHZ phase 0."""
    q1, q2, q3 = signs
    theta_left = math.acos(a3)
    theta_right = math.acos(q3 * math.sqrt(max(0.0, 0.5 - a3 * a3)))

    cos_pl = q1 * math.cos(theta_left) / math.sin(theta_left)
    sin_pl = q2 * math.sqrt(max(0.0, 1.0 - cos_pl * cos_pl))
    phi_left = math.atan2(sin_pl, cos_pl) % (2.0 * math.pi)

    cos_pr = -q1 * math.cos(theta_right) / math.sin(theta_right)
    sin_pr = math.sqrt(2.0) * q2 * q3 * a3 / math.sin(theta_right)
    phi_right = math.atan2(sin_pr, cos_pr) % (2.0 * math.pi)

    solution = EndpointSolution(
        theta_left_final=theta_left,
        theta_right_final=theta_right,
        phi_left=phi_left,
        phi_right=phi_right,
        q1=q1,
        q2=q2,
        q3=q3,
        ghz_phase=0.0,
    )
    if np.max(np.abs(solution.endpoint_residuals())) > _ENDPOINT_TOL:
        raise NoSolution(
            f"root for signs ({q1:+d}, {q2:+d}, {q3:+d}) fails the endpoint "
            f"conditions, residuals {solution.endpoint_residuals()}"
        )
    return solution


def _reached_ghz_phase(unitary: np.ndarray) -> float:
    """Phase of the GHZ state produced by an endpoint's exact unitary."""
    psi = unitary @ w_state()
    weight = abs(psi[0]) ** 2 + abs(psi[3]) ** 2
    if weight < 1.0 - _ENDPOINT_TOL:
        raise NoSolution(
            "endpoint unitary does not send the initial state onto the "
            f"ggg/rrr plane (weight {weight:.12f})"
        )
    return float((np.angle(psi[3]) - np.angle(psi[0])) % (2.0 * math.pi))


@dataclass(frozen=True)
class SphericalCurve:
    """Fixed-azimuth curve of both rotation vectors on the radius-pi sphere.

    The left polar angle sweeps from 0 to the endpoint's theta_left_final
    over ``duration``, and the right one is slaved to it.  kind "constant"
    sweeps at fixed rate; kind "trapezoid" ramps the rate linearly up over
    a fraction tau of the duration, holds, and ramps back down, so the
    schedule switches on and off continuously.  ``pole`` selects which
    pole the curve starts from: +1 for the vector (0, 0, +pi), -1 for the
    mirrored start at (0, 0, -pi).  The mirrored branch negates every
    Rabi amplitude but is otherwise equivalent.
    """

    endpoint: EndpointSolution
    kind: str = "constant"
    duration: float = 1.0
    tau: float = 1.0 / 3.0
    pole: int = 1

    def __post_init__(self):
        if self.kind not in ("constant", "trapezoid"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if not (self.duration > 0 and math.isfinite(self.duration)):
            raise ValueError("profile duration must be positive and finite")
        if not (0.0 <= self.tau < 0.5):
            raise ValueError("ramp fraction tau must lie in [0, 1/2)")
        if self.pole not in (1, -1):
            raise ValueError("pole must be +1 or -1")

    def _ramp_and_plateau(self) -> tuple[float, float]:
        """Ramp length and plateau rate; a constant profile has no ramp."""
        tau = self.tau if self.kind == "trapezoid" else 0.0
        ramp = tau * self.duration
        plateau = self.endpoint.theta_left_final / (self.duration * (1.0 - tau))
        return ramp, plateau

    def rate(self, times: np.ndarray) -> np.ndarray:
        """d theta_left / dt at the given times (array in, array out)."""
        t = np.asarray(times, dtype=float)
        ramp, plateau = self._ramp_and_plateau()
        if ramp == 0.0:
            return np.full_like(t, plateau)
        shape = np.minimum(np.minimum(t / ramp, (self.duration - t) / ramp), 1.0)
        return plateau * np.clip(shape, 0.0, None)

    def angle(self, times: np.ndarray) -> np.ndarray:
        """theta_left(t), the running integral of rate()."""
        t = np.clip(np.asarray(times, dtype=float), 0.0, self.duration)
        ramp, plateau = self._ramp_and_plateau()
        if ramp == 0.0:
            return plateau * t
        up = 0.5 * plateau * t**2 / ramp
        mid = plateau * (t - 0.5 * ramp)
        down = self.endpoint.theta_left_final - 0.5 * plateau * (self.duration - t) ** 2 / ramp
        return np.where(t <= ramp, up, np.where(t <= self.duration - ramp, mid, down))

    def vectors_at(self, t) -> np.ndarray:
        """The rotation-vector pair at a time or an array of times, (2, ..., 3)."""
        th_l = self.angle(t)
        th_r = self.endpoint.curve_slope * th_l
        return np.stack([
            _spherical(th_l, self.endpoint.phi_left, self.pole),
            _spherical(th_r, self.endpoint.phi_right, self.pole),
        ])

    def velocities_at(self, t) -> np.ndarray:
        """The time derivative of vectors_at, (2, ..., 3)."""
        rate_l = self.rate(t)[..., None]
        rate_r = self.endpoint.curve_slope * rate_l
        th_l = self.angle(t)
        th_r = self.endpoint.curve_slope * th_l
        return np.stack([
            _spherical_tangent(th_l, self.endpoint.phi_left, self.pole) * rate_l,
            _spherical_tangent(th_r, self.endpoint.phi_right, self.pole) * rate_r,
        ])


def _spherical_tangent(theta, phi: float, pole: int) -> np.ndarray:
    # derivative of _spherical with respect to theta
    cos_t = np.cos(theta)
    return RADIUS * np.stack(
        [cos_t * np.cos(phi), cos_t * np.sin(phi), -pole * np.sin(theta)], axis=-1
    )


@dataclass(frozen=True)
class PulseSchedule:
    """Sampled real Rabi amplitudes over [0, T].

    Consumers interpolate linearly between samples, which is exact for
    the trapezoid family on grids aligned with its corners.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("schedule needs at least two time samples")
        if values.shape != (times.size, 3):
            raise ValueError("schedule values must have shape (len(times), 3)")
        bad = np.flatnonzero(~(np.isfinite(times) & np.all(np.isfinite(values), axis=1)))
        if bad.size:
            raise NonFiniteSchedule(
                f"schedule contains non-finite entries in {bad.size} sample(s), "
                f"first at index {bad[0]}"
            )
        if times[0] != 0.0:
            raise ValueError("schedule must start at t = 0")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("schedule times must be strictly increasing")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def duration(self) -> float:
        return float(self.times[-1])

    def values_at(self, ts: np.ndarray) -> np.ndarray:
        """Piecewise-linear amplitudes at arbitrary times, shape (..., 3)."""
        ts = np.asarray(ts, dtype=float)
        cols = [np.interp(ts, self.times, self.values[:, k]) for k in range(3)]
        return np.stack(cols, axis=-1)


def rabi_schedule(curve: SphericalCurve, samples: int = 1000) -> PulseSchedule:
    """Sample the Rabi amplitudes realizing a spherical curve.

    With fixed azimuths and both vectors on the radius-pi sphere, the
    three amplitudes are the polar rate times constant coefficients.
    """
    if samples < 2:
        raise ValueError("a schedule needs at least 2 samples")
    times = np.linspace(0.0, curve.duration, samples)
    rate = curve.rate(times)
    coeffs = plateau_amplitudes(curve.endpoint)
    values = float(curve.pole) * rate[:, None] * coeffs[None, :]
    return PulseSchedule(times=times, values=values)


def plateau_amplitudes(endpoint: EndpointSolution) -> np.ndarray:
    """Rabi amplitudes per unit polar rate for an endpoint's azimuths."""
    sin_l = math.sin(endpoint.phi_left)
    cos_l = math.cos(endpoint.phi_left)
    cos_r = math.cos(endpoint.phi_right)
    if abs(cos_r) < 1e-9:
        raise TanSingularity(
            "cos(phi_right) is numerically zero, schedule amplitudes diverge"
        )
    tan_r = math.sin(endpoint.phi_right) / cos_r
    return np.array(
        [
            -(sin_l + cos_l * tan_r),
            2.0 * cos_l,
            -(sin_l - cos_l * tan_r),
        ]
    )


def reverse_schedule(schedule: PulseSchedule) -> PulseSchedule:
    """Time-reverse a schedule and flip every amplitude sign.

    Running the result from the reached state undoes the original
    evolution exactly; applying it twice returns the original schedule.
    """
    return PulseSchedule(
        times=schedule.times[-1] - schedule.times[::-1],
        values=-schedule.values[::-1],
    )
