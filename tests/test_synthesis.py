import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghzforge import synthesis
from ghzforge.cli import main
from ghzforge.dynamics import check_constraints, rotation_rate
from ghzforge.synthesis import (
    DEFAULT_SIGN_ORDER,
    EndpointSolution,
    NoSolution,
    PulseSchedule,
    SphericalCurve,
    TanSingularity,
    enumerate_endpoints,
    plateau_amplitudes,
    rabi_schedule,
    reverse_schedule,
    solve_endpoints,
)

# Angles solved once with an independent scripted root search and frozen.
# Rows follow DEFAULT_SIGN_ORDER; columns are (theta_left_T, theta_right_T,
# phi_left, phi_right, reached_ghz_phase).
FROZEN_TABLE = {
    (1, -1, 1): (1.924226560682509, 0.906372715013134, 4.334541458069054, 2.470620341108281, 1.570796326794897),
    (1, 1, 1): (1.924226560682509, 0.906372715013134, 1.948643849110532, 3.812564966071305, 1.570796326794897),
    (-1, 1, 1): (1.924226560682509, 0.906372715013134, 1.192948804479261, 5.612212994698075, 4.712388980384690),
    (-1, -1, 1): (1.924226560682509, 0.906372715013134, 5.090236502700325, 0.670972312481512, 4.712388980384690),
    (-1, 1, -1): (0.906372715013134, 1.924226560682510, 2.470620341108281, 4.334541458069054, 4.712388980384690),
    (-1, -1, -1): (0.906372715013134, 1.924226560682510, 3.812564966071305, 1.948643849110532, 4.712388980384690),
    (1, -1, -1): (0.906372715013134, 1.924226560682510, 5.612212994698075, 1.192948804479261, 1.570796326794897),
    (1, 1, -1): (0.906372715013134, 1.924226560682510, 0.670972312481512, 5.090236502700325, 1.570796326794897),
}

ROW1 = solve_endpoints((1, -1, 1))

# Schedule amplitudes for the first row at unit angle rate, frozen from a
# high-precision evaluation of the fixed-azimuth rate formulas.
ROW1_PLATEAU = (0.6365976269930194, -0.7378413635711255, 1.2223241363427866)


def test_frozen_endpoint_table():
    for signs, expected in FROZEN_TABLE.items():
        sol = solve_endpoints(signs)
        got = (sol.theta_left_final, sol.theta_right_final, sol.phi_left,
               sol.phi_right, sol.ghz_phase)
        assert np.allclose(got, expected, atol=1e-12), signs


def test_enumerate_matches_sign_order():
    sols = enumerate_endpoints()
    assert len(sols) == 8
    assert [(s.q1, s.q2, s.q3) for s in sols] == list(DEFAULT_SIGN_ORDER)


def test_endpoint_residuals_tiny():
    for sol in enumerate_endpoints():
        assert max(abs(r) for r in sol.endpoint_residuals()) <= 1e-9
        assert abs(sol.sphere_residual()) <= 1e-10


def test_endpoint_azimuth_cotangent_relations():
    for sol in enumerate_endpoints():
        assert abs(math.cos(sol.phi_left) - sol.q1 / math.tan(sol.theta_left_final)) <= 1e-10
        assert abs(math.cos(sol.phi_right) + sol.q1 / math.tan(sol.theta_right_final)) <= 1e-10


def test_endpoint_angle_ranges():
    for sol in enumerate_endpoints():
        assert 0.0 <= sol.theta_left_final <= np.pi
        assert 0.0 <= sol.theta_right_final <= np.pi
        assert 0.0 <= sol.phi_left < 2.0 * np.pi
        assert 0.0 <= sol.phi_right < 2.0 * np.pi


def test_ghz_phase_by_first_sign():
    for sol in enumerate_endpoints():
        expected = 0.5 * np.pi if sol.q1 == 1 else 1.5 * np.pi
        assert abs(sol.ghz_phase - expected) <= 1e-9


def test_branch_selector():
    # solve_endpoints searches cos(theta_left) < 0 for q3 = +1 and > 0 for
    # q3 = -1; on the other half the mismatch keeps one sign, so no choice
    # of half-interval is left to make
    edge = 1.0 / math.sqrt(2.0)
    half = np.linspace(1e-12, edge - 1e-12, 4001)
    for q3, unsearched in ((1, half), (-1, -half)):
        values = [synthesis._boundary_mismatch(a, q3) for a in unsearched]
        assert min(values) > 0.0, q3
        with pytest.raises(NoSolution, match="no sign change"):
            synthesis._bisect_root(
                lambda a: synthesis._boundary_mismatch(a, q3), unsearched[0], unsearched[-1]
            )
    for f, lo, hi in _branch_brackets():
        assert f(lo) * f(hi) < 0.0


def _branch_brackets():
    """(mismatch, lo, hi) for both sign branches, as solve_endpoints builds them."""
    edge = 1.0 / math.sqrt(2.0)
    return [
        (lambda a: synthesis._boundary_mismatch(a, 1), -edge + 1e-12, -1e-12),
        (lambda a: synthesis._boundary_mismatch(a, -1), 1e-12, edge - 1e-12),
    ]


def _random_bracketed(rng: random.Random):
    """A smooth function with one root inside a random bracket around it."""
    root = rng.uniform(-3.0, 3.0)
    a, b = rng.uniform(0.2, 5.0), rng.uniform(-2.0, 2.0)
    kind = rng.randrange(4)
    if kind == 0:
        f = lambda x: math.tanh(a * (x - root)) + 0.1 * b * (x - root) ** 3
    elif kind == 1:
        f = lambda x: (x - root) * (1.0 + b * b + math.sin(a * x))
    elif kind == 2:
        f = lambda x: math.expm1(a * (x - root)) + b * b * (x - root)
    else:
        f = lambda x: a * (x - root) ** 3 + 1e-3 * b * b * (x - root)
    lo, hi = root - rng.uniform(1e-3, 4.0), root + rng.uniform(1e-3, 4.0)
    return (f, hi, lo) if rng.random() < 0.5 else (f, lo, hi)


def test_bisect_root_ends_on_adjacent_floats():
    cases = _branch_brackets()
    rng = random.Random(8)
    while len(cases) < 1002:
        f, lo, hi = _random_bracketed(rng)
        if f(lo) * f(hi) < 0.0:
            cases.append((f, lo, hi))
    for f, lo, hi in cases:
        x = synthesis._bisect_root(f, lo, hi)
        assert min(lo, hi) <= x <= max(lo, hi), (lo, hi)
        assert f(x) >= 0.0, (lo, hi)
        neighbours = (math.nextafter(x, -math.inf), math.nextafter(x, math.inf))
        assert f(x) == 0.0 or min(f(y) for y in neighbours) < 0.0, (lo, hi)


def test_solve_endpoints_roots_frozen_bitwise():
    # the roots the shipped payloads were written from, one per q3 branch
    roots = (-0.346118051896701, 0.6166054606887881)
    for (f, lo, hi), root, q3 in zip(_branch_brackets(), roots, (1, -1)):
        assert synthesis._bisect_root(f, lo, hi) == root, q3
        assert solve_endpoints((1, 1, q3)).theta_left_final == math.acos(root), q3


def test_bisect_root_endpoint_zeros():
    calls = []

    def f(x):
        calls.append(x)
        return x - 0.5

    assert synthesis._bisect_root(f, 0.5, 2.0) == 0.5
    assert synthesis._bisect_root(f, -1.0, 0.5) == 0.5
    assert calls == [0.5, 2.0, -1.0, 0.5]


def test_bisect_root_rejects_same_sign():
    with pytest.raises(NoSolution, match="no sign change"):
        synthesis._bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_enumerate_endpoints_solves_each_branch_once(monkeypatch):
    # the root depends on q3 alone: the eight endpoints take two
    # bisections and equal the endpoints solved one at a time
    calls = []
    bisect = synthesis._bisect_root

    def counted(f, lo, hi):
        calls.append((lo, hi))
        return bisect(f, lo, hi)

    monkeypatch.setattr(synthesis, "_bisect_root", counted)
    solutions = enumerate_endpoints()
    assert len(calls) == 2
    monkeypatch.undo()
    assert solutions == [solve_endpoints(signs) for signs in DEFAULT_SIGN_ORDER]


def test_endpoints_without_sign_change_is_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(synthesis, "_boundary_mismatch", lambda a3, q3: 1.0)
    assert main(["endpoints"]) == 2
    assert "no sign change" in capsys.readouterr().err


def test_curve_sample_batch_matches_pointwise():
    for kind in ("constant", "trapezoid"):
        for pole in (1, -1):
            curve = SphericalCurve(ROW1, kind, 1.3, pole=pole)
            times = np.linspace(0.0, 1.3, 37)
            for at in (curve.vectors_at, curve.velocities_at):
                batch = at(times)
                assert batch.shape == (2, len(times), 3)
                for k, t in enumerate(times):
                    point = at(float(t))
                    assert point.shape == (2, 3)
                    assert np.array_equal(batch[:, k], point)


def test_invalid_signs_rejected():
    with pytest.raises(ValueError):
        solve_endpoints((0, 1, 1))
    with pytest.raises(ValueError):
        solve_endpoints((1, 2, 1))


def test_constant_profile_shape():
    theta = ROW1.theta_left_final
    curve = SphericalCurve(ROW1, "constant", 2.0)
    times = np.linspace(0.0, 2.0, 9)
    assert np.allclose(curve.rate(times), theta / 2.0, atol=1e-15)
    assert np.allclose(curve.angle(times), theta / 2.0 * times, atol=1e-14)
    assert curve.angle(np.array([2.0]))[0] == pytest.approx(theta, abs=1e-12)


def test_trapezoid_profile_shape():
    theta = ROW1.theta_left_final
    curve = SphericalCurve(ROW1, "trapezoid", 3.0, tau=1.0 / 3.0)
    times = np.linspace(0.0, 3.0, 301)
    rate = curve.rate(times)
    plateau = theta / (3.0 * (1.0 - 1.0 / 3.0))
    assert rate[0] == 0.0 and rate[-1] == 0.0
    middle = (times >= 1.0) & (times <= 2.0)
    assert np.allclose(rate[middle], plateau, atol=1e-14)
    # continuity: no jump larger than slope * dt between dense samples
    assert np.max(np.abs(np.diff(rate))) <= plateau / 1.0 * (times[1] - times[0]) + 1e-12
    assert curve.angle(np.array([3.0]))[0] == pytest.approx(theta, abs=1e-12)


def test_trapezoid_angle_matches_rate_quadrature():
    curve = SphericalCurve(ROW1, "trapezoid", tau=0.2)
    times = np.linspace(0.0, 1.0, 20001)
    integral = np.concatenate(
        [[0.0], np.cumsum(0.5 * (curve.rate(times)[1:] + curve.rate(times)[:-1]) * np.diff(times))]
    )
    assert np.max(np.abs(integral - curve.angle(times))) <= 1e-8


def test_profile_validation():
    with pytest.raises(ValueError):
        SphericalCurve(ROW1, "spline")
    with pytest.raises(ValueError):
        SphericalCurve(ROW1, "constant", 0.0)
    with pytest.raises(ValueError):
        SphericalCurve(ROW1, "trapezoid", tau=0.5)
    with pytest.raises(ValueError):
        SphericalCurve(ROW1, "trapezoid", tau=-0.1)
    for pole in (0, 2):
        with pytest.raises(ValueError):
            SphericalCurve(ROW1, pole=pole)


def test_build_curve_slaved_angle():
    curve = SphericalCurve(ROW1)
    slope = ROW1.curve_slope
    assert slope == pytest.approx(0.4710322233010076, abs=1e-12)
    # polar angles of the curve's points, read back from the vectors
    vecs = curve.vectors_at(np.linspace(0.0, 1.0, 33))
    theta_left, theta_right = np.arctan2(np.hypot(vecs[..., 0], vecs[..., 1]), vecs[..., 2])
    assert np.max(np.abs(theta_right - slope * theta_left)) <= 1e-12
    assert theta_left[0] == 0.0
    assert theta_left[-1] == pytest.approx(ROW1.theta_left_final, abs=1e-12)
    assert theta_right[-1] == pytest.approx(ROW1.theta_right_final, abs=1e-9)


def test_build_curve_angles_stay_in_range():
    for sol in enumerate_endpoints():
        for kind in ("constant", "trapezoid"):
            theta_left = SphericalCurve(sol, kind).angle(np.linspace(0.0, 1.0, 101))
            for theta in (theta_left, sol.curve_slope * theta_left):
                assert np.all((-1e-12 <= theta) & (theta <= np.pi + 1e-12))


def test_curve_samples_satisfy_constraints():
    curve = SphericalCurve(ROW1, "trapezoid")
    for t in np.linspace(0.0, 1.0, 200):
        rates = rotation_rate(curve.vectors_at(float(t)), curve.velocities_at(float(t)))
        assert np.max(np.abs(check_constraints(rates))) <= 1e-9


def test_rabi_schedule_constant_rows_equal():
    schedule = rabi_schedule(SphericalCurve(ROW1), 50)
    assert schedule.values.shape == (50, 3)
    assert np.all(schedule.values == schedule.values[0])
    expected = np.array(ROW1_PLATEAU) * ROW1.theta_left_final
    assert np.max(np.abs(schedule.values[0] - expected)) <= 1e-12


def test_plateau_amplitudes_frozen():
    assert np.allclose(plateau_amplitudes(ROW1), ROW1_PLATEAU, atol=1e-12)


def test_rabi_schedule_trapezoid_edges_vanish():
    schedule = rabi_schedule(SphericalCurve(ROW1, "trapezoid"), 1000)
    assert np.max(np.abs(schedule.values[0])) == 0.0
    assert np.max(np.abs(schedule.values[-1])) == 0.0
    plateau_rate = ROW1.theta_left_final / (1.0 - 1.0 / 3.0)
    expected = np.array(ROW1_PLATEAU) * plateau_rate
    inside = (schedule.times >= 1.0 / 3.0) & (schedule.times <= 2.0 / 3.0)
    assert np.max(np.abs(schedule.values[inside] - expected)) <= 1e-12


def test_mirrored_start_negates_schedule():
    plus = rabi_schedule(SphericalCurve(ROW1, pole=1), 64)
    minus = rabi_schedule(SphericalCurve(ROW1, pole=-1), 64)
    assert np.array_equal(minus.values, -plus.values)
    assert np.array_equal(minus.times, plus.times)


def test_reverse_schedule_constant():
    schedule = rabi_schedule(SphericalCurve(ROW1), 32)
    rev = reverse_schedule(schedule)
    assert np.array_equal(rev.values, -schedule.values[::-1])
    assert rev.times[0] == 0.0
    assert np.allclose(rev.times, schedule.times, atol=1e-15)

    double = reverse_schedule(rev)
    assert np.array_equal(double.values, schedule.values)
    assert np.allclose(double.times, schedule.times, atol=1e-12)


def test_tan_singularity_guard():
    doctored = dataclasses.replace(ROW1, phi_right=0.5 * np.pi)
    with pytest.raises(TanSingularity):
        plateau_amplitudes(doctored)


def test_schedule_validation():
    with pytest.raises(ValueError):
        PulseSchedule(times=np.array([0.0]), values=np.zeros((1, 3)))
    with pytest.raises(ValueError):
        PulseSchedule(times=np.array([0.0, 0.0]), values=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        PulseSchedule(times=np.array([0.1, 1.0]), values=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        PulseSchedule(times=np.array([0.0, 1.0]), values=np.zeros((2, 2)))


def test_schedule_interpolation_hits_nodes():
    schedule = PulseSchedule(
        times=np.array([0.0, 0.25, 1.0]),
        values=np.array([[0.0, 1.0, -2.0], [3.0, -1.0, 0.5], [1.0, 1.0, 1.0]]),
    )
    assert np.array_equal(schedule.values_at(schedule.times), schedule.values)
    mid = schedule.values_at(np.array([0.125]))[0]
    assert np.allclose(mid, [1.5, 0.0, -0.75], atol=1e-15)


def test_schedule_interpolation_transposes_to_c_order():
    # the full model's drive scales the transposed amplitudes in place, a row per tone
    schedule = rabi_schedule(SphericalCurve(ROW1, "trapezoid", 1.0), 9)
    amps = schedule.values_at(np.linspace(0.0, 1.0, 100))
    assert amps.shape == (100, 3)
    assert amps.T.flags.c_contiguous
    # any shape of times moves the column axis last
    grid = np.linspace(0.0, 1.0, 10).reshape(2, 5)
    assert np.array_equal(schedule.values_at(grid), np.stack([schedule.values_at(row) for row in grid]))


@given(st.integers(2, 40), st.floats(0.1, 8.0, allow_nan=False))
def test_sampling_duration_consistency(samples, duration):
    schedule = rabi_schedule(SphericalCurve(ROW1, "constant", duration), samples)
    assert len(schedule.times) == samples
    assert schedule.times[0] == 0.0
    assert schedule.times[-1] == pytest.approx(duration, rel=1e-15)
    assert schedule.duration == schedule.times[-1]
