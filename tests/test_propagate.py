import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghzforge.algebra import build_generators, ghz_state, w_state
from ghzforge.dynamics import RabiTriple, ladder_hamiltonian
from ghzforge.propagate import (
    AmplitudeTooSmall,
    ConvergenceFailure,
    NonFiniteSchedule,
    NotNormalized,
    ZeroArea,
    _BLOCK,
    _PIECE,
    _midpoint_states,
    extract_ghz_phase,
    ghz_fidelity,
    normalize_to_area,
    propagate,
    squared_area,
)
from ghzforge.synthesis import (
    PulseProfile,
    PulseSchedule,
    build_curve,
    rabi_schedule,
    reverse_schedule,
    solve_endpoints,
)

import oracles

GENS = build_generators()
ROW1 = solve_endpoints((1, -1, 1))


def constant_schedule(values, duration=1.0, samples=16):
    times = np.linspace(0.0, duration, samples)
    return PulseSchedule(times=times, values=np.tile(values, (samples, 1)))


def row1_schedule(kind="constant", duration=1.0, samples=1000):
    profile = PulseProfile(kind=kind, duration=duration, theta_final=ROW1.theta_left_final)
    return rabi_schedule(build_curve(ROW1, profile), samples)


def test_zero_schedule_is_static():
    result = propagate(constant_schedule(np.zeros(3)), steps=64)
    assert result.final_fidelity == 0.0
    assert np.max(result.fidelity_trace) == 0.0
    assert result.ghz_phase is None
    assert np.max(np.abs(result.states - w_state())) <= 1e-12


def test_constant_schedule_matches_exact_exponential():
    values = np.array([0.7, -0.4, 1.1])
    result = propagate(constant_schedule(values, duration=2.0), steps=256, certify=False)
    ham = ladder_hamiltonian(RabiTriple(*values))
    exact = oracles.expm_eig(ham * 2.0) @ w_state()
    assert np.max(np.abs(result.states[-1] - exact)) <= 1e-10


def test_row1_constant_reaches_ghz():
    result = propagate(row1_schedule())
    assert result.final_fidelity >= 0.999
    assert result.certification_delta < 1e-8
    assert abs(result.ghz_phase - 0.5 * np.pi) <= 1e-6
    assert result.fidelity_trace[0] <= 1e-12
    assert result.target == "ghz"


def test_trace_bounds_and_norms():
    result = propagate(row1_schedule("trapezoid"))
    assert np.min(result.fidelity_trace) >= 0.0
    assert np.max(result.fidelity_trace) <= 1.0 + 1e-12
    norms = np.linalg.norm(result.states, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-9
    assert len(result.times) == result.steps + 1


def test_reverse_returns_w():
    forward = propagate(row1_schedule())
    back = propagate(reverse_schedule(row1_schedule()), initial=forward.states[-1], target="w")
    assert back.final_fidelity >= 0.999
    assert back.target == "w"


def test_w_target_metric():
    result = propagate(constant_schedule(np.zeros(3)), steps=16, target="w")
    assert result.final_fidelity == pytest.approx(1.0, abs=1e-12)


def test_propagate_input_validation():
    good = constant_schedule(np.array([0.1, 0.2, 0.3]))
    with pytest.raises(NotNormalized):
        propagate(good, initial=np.array([0.5, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        propagate(good, target="bell")
    with pytest.raises(ValueError):
        propagate(good, steps=0)
    with pytest.raises(NonFiniteSchedule):
        PulseSchedule(times=np.array([0.0, 1.0]), values=np.array([[np.inf, 0, 0], [0, 0, 0]]))


def test_ghz_fidelity_examples():
    assert ghz_fidelity(ghz_state(1.1), 1.1) == pytest.approx(1.0, abs=1e-12)
    assert ghz_fidelity(w_state(), 0.3) == 0.0
    mixed = np.array([1.0, 0.0, 0.0, 1j]) / math.sqrt(2.0)
    assert ghz_fidelity(mixed, 0.0) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(NotNormalized):
        ghz_fidelity(np.array([1.0, 1.0, 0.0, 0.0]), 0.0)


def test_extract_ghz_phase_examples():
    plus = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    minus = np.array([1.0, 0.0, 0.0, -1.0]) / math.sqrt(2.0)
    assert extract_ghz_phase(plus) == 0.0
    assert extract_ghz_phase(minus) == pytest.approx(np.pi, abs=1e-15)
    rotated = np.array([1.0, 0.0, 0.0, np.exp(0.7j)]) / math.sqrt(2.0)
    assert extract_ghz_phase(rotated) == pytest.approx(0.7, abs=1e-12)
    with pytest.raises(AmplitudeTooSmall):
        extract_ghz_phase(w_state())
    lopsided = np.array([0.05, 0.0, 0.0, 1.0])
    lopsided = lopsided / np.linalg.norm(lopsided)
    with pytest.raises(AmplitudeTooSmall):
        extract_ghz_phase(lopsided)


def test_squared_area_constant():
    values = np.array([1.2, -0.8, 0.5])
    area = squared_area(constant_schedule(values, duration=1.75))
    expected = float(np.sum(values**2)) * 1.75
    assert area == pytest.approx(expected, rel=1e-14)
    assert squared_area(constant_schedule(np.zeros(3))) == 0.0


def test_squared_area_exact_for_ramps():
    # One linear segment: Omega = (t, 2t, 3t) on [0, 1] integrates to 14/3.
    # A trapezoid rule on the two end samples would give 7 instead.
    schedule = PulseSchedule(
        times=np.array([0.0, 1.0]), values=np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    )
    assert squared_area(schedule) == pytest.approx(14.0 / 3.0, rel=1e-15)


def test_frozen_reference_areas():
    assert squared_area(row1_schedule()) == pytest.approx(9.048318710712635, rel=1e-13)
    assert squared_area(row1_schedule("trapezoid")) == pytest.approx(11.31039838839079, rel=1e-13)


def test_normalize_to_area_identity():
    schedule = row1_schedule()
    same = normalize_to_area(schedule, squared_area(schedule))
    assert np.array_equal(same.values, schedule.values)
    assert np.array_equal(same.times, schedule.times)


def test_normalize_to_area_scaling():
    schedule = constant_schedule(np.array([0.6, -0.2, 0.9]), duration=1.0)
    area = squared_area(schedule)
    scaled = normalize_to_area(schedule, 2.0 * area)
    assert squared_area(scaled) == pytest.approx(2.0 * area, rel=1e-12)
    assert np.allclose(scaled.values, 2.0 * schedule.values, rtol=1e-15)
    assert scaled.duration == pytest.approx(0.5, rel=1e-15)

    # the per-column first moments (hence the swept angle) are invariant
    for col in range(3):
        before = np.trapezoid(schedule.values[:, col], schedule.times)
        after = np.trapezoid(scaled.values[:, col], scaled.times)
        assert after == pytest.approx(before, rel=1e-12)


def test_normalize_preserves_fidelity():
    schedule = row1_schedule()
    target = 2.5 * squared_area(schedule)
    scaled = normalize_to_area(schedule, target)
    original = propagate(schedule)
    rescaled = propagate(scaled)
    assert abs(rescaled.final_fidelity - original.final_fidelity) <= 1e-8


def test_normalize_to_area_errors():
    schedule = row1_schedule()
    with pytest.raises(ZeroArea):
        normalize_to_area(schedule, 0.0)
    with pytest.raises(ZeroArea):
        normalize_to_area(schedule, -1.0)
    with pytest.raises(ZeroArea):
        normalize_to_area(constant_schedule(np.zeros(3)), 1.0)


def test_trapezoid_needs_longer_time_at_equal_area():
    constant = row1_schedule("constant")
    trapezoid = row1_schedule("trapezoid")
    matched = normalize_to_area(trapezoid, squared_area(constant))
    assert matched.duration > constant.duration
    assert propagate(matched).final_fidelity >= 0.999


def test_convergence_failure_when_capped(monkeypatch):
    # With the doubling budget clamped, a stiff noncommuting schedule
    # cannot certify and must raise instead of returning silently.
    import ghzforge.propagate as propagate_module

    monkeypatch.setattr(propagate_module, "_MAX_STEPS", 64)
    times = np.linspace(0.0, 1.0, 9)
    values = np.zeros((9, 3))
    values[::2, 0] = 80.0
    values[1::2, 1] = -80.0
    wild = PulseSchedule(times=times, values=values)
    with pytest.raises(ConvergenceFailure):
        propagate(wild, steps=8)


def _random_ladder(rng, n):
    amp = rng.normal(0.0, 2.0, (n, 3))
    hams = np.zeros((n, 4, 4))
    for k in range(3):
        hams[:, k, k + 1] = hams[:, k + 1, k] = amp[:, k]
    return hams


def _random_hermitian(rng, n):
    m = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
    return m + m.conj().transpose(0, 2, 1)


@pytest.mark.parametrize(
    "steps",
    [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, _PIECE - 1, _PIECE, _PIECE + 1, 3 * _PIECE + 7],
)
@pytest.mark.parametrize("build", [_random_ladder, _random_hermitian])
def test_midpoint_states_match_per_step_reference(steps, build):
    rng = np.random.default_rng(steps)
    hams = build(rng, steps)
    psi0 = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi0 /= np.linalg.norm(psi0)
    got = _midpoint_states(hams, 0.05, psi0)
    ref = oracles.midpoint_states_reference(hams, 0.05, psi0)
    assert got.shape == ref.shape == (steps, 4)
    assert np.max(np.abs(got - ref)) <= 1e-12
    assert np.max(np.abs(np.linalg.norm(got, axis=1) - np.linalg.norm(ref, axis=1))) <= 1e-12


@given(
    st.floats(-2.0, 2.0, allow_nan=False),
    st.floats(-2.0, 2.0, allow_nan=False),
    st.floats(-2.0, 2.0, allow_nan=False),
)
def test_propagation_stays_normalized(o1, o2, o3):
    result = propagate(constant_schedule(np.array([o1, o2, o3])), steps=32, certify=False)
    norms = np.linalg.norm(result.states, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-9
    assert np.max(result.fidelity_trace) <= 1.0 + 1e-12
