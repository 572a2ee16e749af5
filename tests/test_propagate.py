import functools
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghzforge.algebra import (
    ggg_state,
    ghz_state,
    rrr_state,
    w_state,
    wprime_state,
)
from ghzforge.fullmodel import _CHUNK, _real_form, _series_exp, _step_product
from ghzforge.propagate import (
    CERTIFY_TOL,
    AmplitudeTooSmall,
    ConvergenceFailure,
    NonFiniteSchedule,
    NotNormalized,
    TooManySteps,
    ZeroArea,
    _MAX_STEPS,
    _SCAN_PIECE,
    _commutator_bound,
    _integrate,
    extract_ghz_phase,
    ghz_fidelity,
    normalize_to_area,
    propagate,
    squared_area,
)
from ghzforge.synthesis import (
    PulseSchedule,
    SphericalCurve,
    enumerate_endpoints,
    rabi_schedule,
    reverse_schedule,
    solve_endpoints,
)

import oracles

ROW1 = solve_endpoints((1, -1, 1))


def constant_schedule(values, duration=1.0, samples=16):
    times = np.linspace(0.0, duration, samples)
    return PulseSchedule(times=times, values=np.tile(values, (samples, 1)))


def row1_schedule(kind="constant", duration=1.0, samples=1000):
    return rabi_schedule(SphericalCurve(ROW1, kind, duration), samples)


def test_zero_schedule_is_static():
    result = propagate(constant_schedule(np.zeros(3)), steps=64)
    assert result.final_fidelity == 0.0
    assert np.max(result.fidelity_trace) == 0.0
    assert result.ghz_phase is None
    assert np.max(np.abs(result.states - w_state())) <= 1e-12


def test_constant_schedule_matches_exact_exponential():
    values = np.array([0.7, -0.4, 1.1])
    result = propagate(constant_schedule(values, duration=2.0), steps=256)
    # at least 256 steps, 18 in each of 15 segments; a constant schedule is
    # rank 1, so the commutator bound certifies the first pass
    assert result.steps == 15 * 18
    ham = oracles.ladder_hamiltonian(values)
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
    assert len(result.times) == len(result.fidelity_trace) == 1000


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


# 0, or amplitudes whose squares and products, times the steps between the
# knots drawn below, stay in the normal range
NORMAL_AMPLITUDE = st.just(0.0) | st.builds(
    lambda mantissa, exponent, sign: sign * mantissa * 10.0**exponent,
    st.floats(1.0, 9.0), st.integers(-50, 49), st.sampled_from([1.0, -1.0]),
)


@given(st.data())
def test_squared_area_is_the_fsum_of_its_segment_terms(data):
    knots = data.draw(st.lists(st.floats(1e-30, 1e30), min_size=1, max_size=20, unique=True))
    times = np.array([0.0, *sorted(knots)])
    row = st.tuples(NORMAL_AMPLITUDE, NORMAL_AMPLITUDE, NORMAL_AMPLITUDE)
    values = np.array(data.draw(st.lists(row, min_size=len(times), max_size=len(times))))
    dt = np.diff(times)[:, None]
    a, b = values[:-1], values[1:]
    terms = dt * (a * a + a * b + b * b) / 3.0
    area = squared_area(PulseSchedule(times=times, values=values))
    assert area.hex() == math.fsum(terms.ravel().tolist()).hex()


@given(
    st.lists(st.floats(1e-30, 1e6), min_size=1, max_size=20, unique=True),
    st.data(),
)
def test_squared_area_below_the_normal_range_is_zero(knots, data):
    # below 2^-538 every square and product rounds to 0, and on schedules
    # this short the rounding cannot move the area past 2^-1022
    times = np.array([0.0, *sorted(knots)])
    amplitude = st.floats(-(2.0**-538), 2.0**-538)
    row = st.tuples(amplitude, amplitude, amplitude)
    values = np.array(data.draw(st.lists(row, min_size=len(times), max_size=len(times))))
    assert squared_area(PulseSchedule(times=times, values=values)) == 0.0


def test_squared_area_refuses_underflow_unless_every_amplitude_is_zero():
    # the hypothesis example of test_propagation_stays_normalized: its true
    # area, about 2.4e-427, lies below the subnormal range
    assert squared_area(constant_schedule(np.array([0.0, 0.0, 4.908400336631002e-214]))) == 0.0
    assert squared_area(constant_schedule(np.zeros(3), duration=1e300)) == 0.0
    # a true area of 9.05e-200 that rounds to 0
    with pytest.raises(ValueError, match="its squares underflow"):
        squared_area(row1_schedule(duration=1e200))


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


def test_step_cap_counts_the_certifying_pass(monkeypatch):
    # the cap leaves room for a certifying pass at twice the first pass's
    # steps, even where, as on this zero schedule, the first pass certifies
    import ghzforge.propagate as propagate_module

    monkeypatch.setattr(propagate_module, "_MAX_STEPS", 64)
    at_cap = PulseSchedule(times=np.arange(33.0), values=np.zeros((33, 3)))
    assert propagate(at_cap).steps == 32
    monkeypatch.setattr(propagate_module, "_integrate", lambda *args: pytest.fail("integrated"))
    above = PulseSchedule(times=np.arange(34.0), values=np.zeros((34, 3)))
    with pytest.raises(TooManySteps, match="cap of 64"):
        propagate(above)


def test_huge_finite_step_rotation_runs_without_warning():
    # 1e80 rad per step is meaningless but finite: the run completes, and a
    # RuntimeWarning from an overflowing series would fail this test
    schedule = PulseSchedule(times=np.array([0.0, 1e-20]), values=np.array([[1e100, 0.0, 0.0]] * 2))
    states = propagate(schedule).states
    assert np.all(np.isfinite(states))
    assert np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)) <= 1e-9


# Each builder returns (drive, blockade, dt).  A real drive makes the
# block a real ladder; a complex one makes it a general Hermitian block.
def _random_ladder(rng, n):
    return rng.normal(0.0, 1.0, n) + 0j, rng.uniform(0.5, 2.0), 0.02


def _random_hermitian(rng, n):
    return rng.normal(0.0, 1.0, n) + 1j * rng.normal(0.0, 1.0, n), rng.uniform(0.5, 2.0), 0.02


def _zero_drive(rng, n):
    return np.zeros(n, dtype=complex), rng.uniform(0.5, 2.0), 0.02


def _mixed_drive(rng, n):
    drive, blockade, dt = _random_hermitian(rng, n)
    drive[rng.random(n) < 0.5] = 0.0
    return drive, blockade, dt


def _long_steps(rng, n):
    # steps of norm well above 1, so the series exponential halves and
    # squares
    modulus = rng.uniform(1.5, 2.5, n)
    return modulus * np.exp(1j * rng.uniform(-math.pi, math.pi, n)), rng.uniform(0.5, 2.0), 0.6


def _exponents(drive, dt, blockade):
    """The steps' exponents -i H_k dt in the real form the product tree takes."""
    return _real_form(-1j * dt * oracles.block_hamiltonian(drive, blockade))


def _phases(rng, n):
    """Unit phases of the diagonal G_k that each step takes on its left."""
    return np.exp(1j * rng.uniform(-math.pi, math.pi, (n, 4)))


def _stack(size):
    """The product tree's stack for chunks of up to size steps, at its least size."""
    return np.empty((4 * size, 8, 8))


def _product(exponents, phases, stack):
    """_step_product of steps G_k exp(Y_k), their exponents written into stack first."""
    stack[-len(exponents):] = exponents
    return _step_product(stack, len(exponents), phases)


@pytest.mark.parametrize(
    "steps",
    # 2047 to 2049 and 4095 to 4097 sit around the chunk sizes of earlier
    # kernels and remain as deeper trees with odd remainders
    [1, 2, 3, 5, 31, 32, 33, 1023, 1024, 1025, 3079]
    + [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2047, 2048, 2049, 4095, 4096, 4097],
)
@pytest.mark.parametrize(
    "build", [_random_ladder, _random_hermitian, _zero_drive, _mixed_drive, _long_steps]
)
def test_midpoint_states_match_per_step_reference(steps, build):
    # the full model's product of step exponentials, applied once, against
    # the last state of the per-step loop
    rng = np.random.default_rng(steps)
    drive, blockade, dt = build(rng, steps)
    hams = oracles.block_hamiltonian(drive, blockade)
    theta = dt * np.max(np.sum(np.abs(hams), axis=-1))
    assert (theta > 1.0) == (build is _long_steps)
    psi0 = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi0 /= np.linalg.norm(psi0)
    prod = _product(_exponents(drive, dt, blockade), np.ones((steps, 4)), _stack(steps))
    ref = oracles.midpoint_states_reference(hams, dt, psi0)[-1]
    assert prod.shape == (4, 4)
    assert np.max(np.abs(prod @ psi0 - ref)) <= 1e-12
    assert np.max(np.abs(prod.conj().T @ prod - np.eye(4))) <= 1e-12


@pytest.mark.parametrize(
    "build", [_random_ladder, _random_hermitian, _zero_drive, _mixed_drive, _long_steps]
)
def test_step_product_reuses_workspace_exactly(build):
    # a full chunk, an odd remainder, then a full chunk again of one run,
    # through one stack as _integrate_full takes it: a stale slice or a
    # level read from the wrong rows would leave a trace of the earlier
    # chunk in the later product
    rng = np.random.default_rng(29)
    drive, blockade, dt = build(rng, 2 * _CHUNK + 999)
    exponents, phases = _exponents(drive, dt, blockade), _phases(rng, len(drive))
    stack = _stack(max(_CHUNK, 999))
    for part in np.split(np.arange(len(drive)), [_CHUNK, _CHUNK + 999]):
        fresh = _product(exponents[part], phases[part], _stack(len(part)))
        reused = _product(exponents[part], phases[part], stack)
        assert np.array_equal(reused, fresh)


def _two_stack_product(exponents, phases):
    """The product tree as two stacks: leaves of n steps and up of ceil(n / 2).

    The leaves are the steps G_k exp(Y_k); the levels then alternate
    between leaves and up, an odd last step copied up.  The one-stack
    kernel must take the same products in the same order.
    """
    n = len(exponents)
    leaves, up = exponents.copy(), np.empty(((n + 1) // 2, 8, 8))
    _series_exp(leaves)
    leaves.view(complex)[...] *= phases[:, None, :]
    level = leaves
    while n > 1:
        half = n // 2
        np.matmul(level[0 : 2 * half : 2], level[1 : 2 * half : 2], out=up[:half])
        if n % 2:
            up[half] = level[n - 1]
        n = half + n % 2
        level, up = up, level
    return level[0, ::2].view(complex).T.copy()


@pytest.mark.parametrize("steps", [1, 2, 3, 5, 17, 31, 32, 33, 1023, 1025, _CHUNK - 1, _CHUNK, 2047, 2048])
@pytest.mark.parametrize(
    "build", [_random_ladder, _random_hermitian, _zero_drive, _mixed_drive, _long_steps]
)
def test_one_stack_matches_two_stack_tree_bit_for_bit(steps, build):
    # through a stack sized for a full chunk, as the last chunk of a run
    # takes it: below _CHUNK steps rows lie unused between the two
    # regions.  The stack starts as NaN, so a row read before it is
    # written shows in the product; a second product through the same
    # stack must match too.  _mixed_drive has exact zeros between nonzero
    # steps from 17 steps on
    rng = np.random.default_rng(steps)
    drive, blockade, dt = build(rng, steps)
    exponents, phases = _exponents(drive, dt, blockade), _phases(rng, steps)
    stack = np.full_like(_stack(max(steps, _CHUNK)), np.nan)
    expected = _two_stack_product(exponents, phases)
    assert np.array_equal(_product(exponents, phases, stack), expected)
    assert np.array_equal(_product(exponents, phases, stack), expected)


@pytest.mark.parametrize("steps", [1, 2, 3, 999, _CHUNK, 2048])
@pytest.mark.parametrize("build", [_random_ladder, _random_hermitian, _long_steps])
def test_step_product_outlives_the_next_chunk(steps, build):
    # the tree ends in a row of its stack, so a product returned as a
    # view into it would change under the next chunk through the same
    # stack; these builders never repeat a chunk, as a zero or half-zero
    # drive of a step or three can
    rng = np.random.default_rng(31)
    drive, blockade, dt = build(rng, 2 * steps)
    exponents, phases = _exponents(drive, dt, blockade), np.ones((2 * steps, 4))
    stack = _stack(steps)
    first = _product(exponents[:steps], phases[:steps], stack)
    kept = first.copy()
    second = _product(exponents[steps:], phases[steps:], stack)
    assert not np.array_equal(second, kept)
    assert np.array_equal(first, kept)


def _cf4_exponent_hams(schedule, sub):
    """Hamiltonian times duration of every CF4 exponential, in the order applied.

    Built apart from the kernel: the amplitudes come from values_at at
    the Gauss nodes of each of the sub equal steps per segment.
    """
    times = schedule.times
    h = np.repeat(np.diff(times) / sub, sub)
    starts = (times[:-1, None] + np.diff(times)[:, None] * np.arange(sub) / sub).ravel()
    early = schedule.values_at(starts + (0.5 - math.sqrt(3.0) / 6.0) * h)
    late = schedule.values_at(starts + (0.5 + math.sqrt(3.0) / 6.0) * h)
    a1, a2 = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0, (3.0 + 2.0 * math.sqrt(3.0)) / 12.0
    first = (a2 * early + a1 * late) * h[:, None]
    second = (a1 * early + a2 * late) * h[:, None]
    return oracles.ladder_hamiltonian(np.stack([first, second], axis=1).reshape(-1, 3))


def _integrate_against_reference(schedule, sub, psi0):
    """_integrate and the per-exponential eigendecomposition loop, at the knots."""
    states = _integrate(schedule, psi0, sub)
    ref = oracles.midpoint_states_reference(_cf4_exponent_hams(schedule, sub), 1.0, psi0)
    assert states.shape == (len(schedule.times), 4)
    assert np.array_equal(states[0], psi0)
    return states[1:], ref[2 * sub - 1 :: 2 * sub]


def _knot_reference(schedule, psi0, sub=512):
    """States at the knots by the midpoint rule at sub and sub/2 steps per segment.

    The midpoint rule is symmetric, so its error is even in the step and
    the Richardson combination (4 fine - coarse) / 3 cancels its leading
    term.  Against the same combination at twice the steps, it moved by
    8e-14 on the random 23-knot schedule and 2e-13 on the 50-sample bump,
    far below the CF4 errors of 4e-10 and up that it measures here.
    """
    def midpoint(n):
        times = schedule.times
        h = np.repeat(np.diff(times) / n, n)
        mids = (times[:-1, None] + np.diff(times)[:, None] * (np.arange(n) + 0.5) / n).ravel()
        hams = oracles.ladder_hamiltonian(schedule.values_at(mids)) * h[:, None, None]
        states = oracles.midpoint_states_reference(hams, 1.0, psi0)[n - 1 :: n]
        return np.vstack([psi0, states])

    return (4.0 * midpoint(sub) - midpoint(sub // 2)) / 3.0


def _random_state(rng):
    psi0 = rng.normal(size=4) + 1j * rng.normal(size=4)
    return psi0 / np.linalg.norm(psi0)


def _random_schedule(rng, segments):
    # unequal segments over [0, 1.3], so each has its own step length
    gaps = rng.uniform(0.5, 1.5, segments)
    times = np.concatenate([[0.0], np.cumsum(gaps)]) * (1.3 / np.sum(gaps))
    values = rng.normal(0.0, 2.0, (segments + 1, 3))
    return PulseSchedule(times=times, values=values)


def _bend(schedule, eta):
    # a second amplitude direction, eta times a sine over the schedule
    direction = np.cross(schedule.values[len(schedule.values) // 2], [0.0, 0.0, 1.0])
    bump = eta * np.sin(2.0 * np.pi * schedule.times / schedule.duration)
    values = schedule.values + bump[:, None] * direction / np.linalg.norm(direction)
    return PulseSchedule(times=schedule.times, values=values)


def _bump_schedule(samples):
    # A synthesized schedule is rank 1; bending it with a second amplitude
    # direction makes the Hamiltonians at different times fail to commute,
    # so only an integrator can get it right.
    schedule = _bend(row1_schedule("trapezoid", samples=samples), 1.0)
    singular = np.linalg.svd(schedule.values, compute_uv=False)
    assert singular[1] > 0.1 * singular[0]
    return schedule


# Total step counts on both sides of the scan's piece boundaries, each
# split into segments x steps per segment so that knots fall at every
# step, every few steps, and at offsets that move from piece to piece.
_SPLITS = {1: 1, _SCAN_PIECE - 1: 1, _SCAN_PIECE: 256, _SCAN_PIECE + 1: 3, 3 * _SCAN_PIECE + 7: 403}


@pytest.mark.parametrize("steps", list(_SPLITS))
def test_integrate_matches_per_step_reference(steps):
    rng = np.random.default_rng(steps)
    sub = _SPLITS[steps]
    schedule = _random_schedule(rng, steps // sub)
    assert (len(schedule.times) - 1) * sub == steps
    assert np.linalg.matrix_rank(schedule.values) == min(3, len(schedule.times))
    got, ref = _integrate_against_reference(schedule, sub, _random_state(rng))
    assert np.max(np.abs(got - ref)) <= 1e-11
    assert np.max(np.abs(np.linalg.norm(got, axis=1) - np.linalg.norm(ref, axis=1))) <= 1e-12


def test_integrate_matches_reference_on_stiff_schedule():
    rng = np.random.default_rng(80)
    times = np.linspace(0.0, 1.0, 3)
    values = np.zeros((3, 3))
    values[::2, 0] = 80.0
    values[1::2, 1] = -80.0
    values[:, 2] = 80.0 * np.sign(rng.normal(size=3))
    # 2 segments of 2 _SCAN_PIECE + 3 steps: three of the five scan pieces
    # hold no knot
    got, ref = _integrate_against_reference(
        PulseSchedule(times=times, values=values), 2 * _SCAN_PIECE + 3, _random_state(rng)
    )
    assert np.max(np.abs(got - ref)) <= 1e-11
    assert np.max(np.abs(np.linalg.norm(got, axis=1) - np.linalg.norm(ref, axis=1))) <= 1e-12


def test_integrate_zero_schedule_is_exact():
    schedule = constant_schedule(np.zeros(3))
    for state in (ggg_state(), w_state(), wprime_state(), rrr_state()):
        # 15 segments of 547 steps cross a scan piece boundary mid-segment
        states = _integrate(schedule, state, 547)
        assert np.array_equal(states, np.tile(state, (16, 1)))


def test_rank1_trapezoid_is_exact_at_every_knot():
    # Under a rank-1 schedule H(t) = f(t) H0, so the state at knot t_i is
    # exp(-i H0 F(t_i)) psi0 with F the integral of the piecewise-linear f,
    # which the trapezoid rule gives exactly.
    schedule = row1_schedule("trapezoid")
    direction = schedule.values[np.argmax(np.linalg.norm(schedule.values, axis=1))]
    direction = direction / np.linalg.norm(direction)
    f = schedule.values @ direction
    assert np.max(np.abs(schedule.values - np.outer(f, direction))) <= 1e-15
    area = np.concatenate([[0.0], np.cumsum(np.diff(schedule.times) * (f[:-1] + f[1:]) / 2.0)])
    ham = oracles.ladder_hamiltonian(direction)
    exact = np.array([oracles.expm_eig(ham * F) @ w_state() for F in area])

    result = propagate(schedule)
    assert result.steps == len(schedule.times) - 1
    assert np.array_equal(result.times, schedule.times)
    assert np.max(np.abs(result.states - exact)) <= 1e-13
    exact_trace = np.abs(exact @ ghz_state(result.ghz_phase).conj()) ** 2
    assert np.max(np.abs(result.fidelity_trace - exact_trace)) <= 1e-13


def _assert_certificate_tracks_knot_error(schedule):
    # Where the commutator bound does not certify, the certificate is a
    # Richardson estimate of the largest state error at any knot.  It is
    # exact only in the limit of small steps: on random 23-knot schedules it
    # fell up to 0.23% short of the error (seed 2).
    result = propagate(schedule)
    error = np.max(np.linalg.norm(result.states - _knot_reference(schedule, w_state()), axis=1))
    assert abs(result.certification_delta - error) <= 0.01 * error
    assert result.certification_delta < 1e-8
    return result


def _count_passes(monkeypatch):
    """The steps per segment of every _integrate call that propagate makes."""
    import ghzforge.propagate as propagate_module

    calls = []
    integrate = propagate_module._integrate

    def counted(schedule, initial, sub):
        calls.append(sub)
        return integrate(schedule, initial, sub)

    monkeypatch.setattr(propagate_module, "_integrate", counted)
    return calls


def test_rank2_perturbation_takes_integrated_path(monkeypatch):
    calls = _count_passes(monkeypatch)
    schedule = _bump_schedule(50)
    result = _assert_certificate_tracks_knot_error(schedule)
    assert len(calls) >= 2
    assert result.steps == 2 * (len(schedule.times) - 1)
    base = propagate(row1_schedule("trapezoid", samples=50))
    assert abs(result.final_fidelity - base.final_fidelity) > 1e-3


def _random_23_knots(seed):
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 1.3, 23)
    return PulseSchedule(times=times, values=rng.normal(0.0, 2.0, (len(times), 3)))


@pytest.mark.parametrize("seed", [1, 2])
def test_certificate_tracks_knot_error_on_random_schedule(seed):
    result = _assert_certificate_tracks_knot_error(_random_23_knots(seed))
    assert result.steps > 2 * 22


def test_cf4_steps_are_fourth_order():
    # Halving the step of a fourth-order scheme divides its error by 16;
    # a second-order one, such as CF4 with its exponentials swapped,
    # divides it by 4.
    schedule = _random_23_knots(1)
    ref = _knot_reference(schedule, w_state())
    errors = [
        np.max(np.linalg.norm(_integrate(schedule, w_state(), sub) - ref, axis=1))
        for sub in (1, 2, 4)
    ]
    assert errors[-1] > 1e-9
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine >= 12.0


def _one_family_schedule(seed, family):
    # O1 = +-O3 zeroes the x rate O1 -+ O3 of the other family, whose knot
    # rates then all lie along y and commute: only this family's do not
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 1.3, 23)
    x, y = rng.normal(0.0, 2.0, (2, len(times)))
    sign = 1.0 if family == "left" else -1.0
    return PulseSchedule(times=times, values=np.stack([x / 2.0, y, sign * x / 2.0], axis=1))


@pytest.mark.parametrize(
    "build",
    [functools.partial(_random_23_knots, seed) for seed in range(1, 7)]
    + [functools.partial(_bump_schedule, 50)]
    + [functools.partial(_one_family_schedule, 7, family) for family in ("left", "right")],
    ids=[f"random-{seed}" for seed in range(1, 7)] + ["bump", "left-only", "right-only"],
)
def test_commutator_bound_is_never_below_the_knot_error(build):
    schedule = build()
    ref = _knot_reference(schedule, w_state())
    bound = _commutator_bound(schedule)
    for sub in (1, 2, 4):
        error = np.max(np.linalg.norm(_integrate(schedule, w_state(), sub) - ref, axis=1))
        assert error > 1e-12
        assert bound / sub**2 >= error


@pytest.mark.parametrize(
    "first, expected",
    # knot rates (1, 0, 0) then (0, 1, 0) in the left family, the right one,
    # or both, over one segment of length 2: T^2 |x cross y| / 12 = 1/3 each
    [([0.5, 0.0, 0.5], 1.0 / 3.0), ([0.5, 0.0, -0.5], 1.0 / 3.0), ([1.0, 0.0, 0.0], 2.0 / 3.0)],
)
def test_commutator_bound_closed_form(first, expected):
    schedule = PulseSchedule(times=np.array([0.0, 2.0]), values=np.array([first, [0.0, 1.0, 0.0]]))
    assert _commutator_bound(schedule) == pytest.approx(expected, rel=1e-14)
    assert _commutator_bound(schedule) >= expected


@pytest.mark.parametrize("rows", [2, 3, 50, 1000, 50_000])
def test_commutator_bound_matches_the_three_component_formula(rows):
    # the z components alone give the bound of all three components of
    # each cross product, bit for bit, over amplitudes of many scales
    rng = np.random.default_rng(rows)
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(1e-3, 1.0, rows - 1))])
    values = rng.normal(0.0, 1.0, (rows, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, (rows, 1))
    schedule = PulseSchedule(times=times, values=values)
    bound = _commutator_bound(schedule)
    assert math.isfinite(bound)
    assert bound == oracles.commutator_bound_reference(schedule)


def test_commutator_bound_of_overflowing_rates_is_not_finite():
    # O1 + O3 overflows in the left family, O1 - O3 in the right one: the
    # rates and so the bound are not finite, as in the earlier formula,
    # and no RuntimeWarning is raised
    values = np.array([[1e308, 1.0, 1e308], [1.0, 2.0, 0.5], [1e308, 3.0, -1e308]])
    schedule = PulseSchedule(times=np.array([0.0, 0.5, 1.0]), values=values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not math.isfinite(_commutator_bound(schedule))
    assert not math.isfinite(oracles.commutator_bound_reference(schedule))


def test_overflowing_bound_falls_back_to_doubling():
    # Scaling the amplitudes by 2^510 and the times by 2^-510 leaves every
    # exponent, and so every state, bit for bit the same, but the knot rates'
    # cross products overflow: the bound is not finite, certifies nothing and
    # raises no RuntimeWarning, and the run doubles as before.
    times = np.linspace(0.0, 1.3, 9)
    values = np.stack([np.full(9, 2.2), 3.9 * (-1.0) ** np.arange(9), np.zeros(9)], axis=1)
    base = PulseSchedule(times=times, values=values)
    scale = 2.0**510
    huge = PulseSchedule(times=times / scale, values=values * scale)
    assert np.max(np.abs(huge.values)) > 1e154
    assert math.isfinite(_commutator_bound(base))
    assert not math.isfinite(_commutator_bound(huge))
    expected, result = propagate(base), propagate(huge)
    assert result.steps == expected.steps > 2 * 8
    assert result.certification_delta == expected.certification_delta < 1e-8
    assert np.array_equal(result.states, expected.states)


@pytest.mark.parametrize("kind", ["constant", "trapezoid"])
def test_rank1_schedules_take_one_pass(monkeypatch, kind):
    # A default request takes the closed form, with no CF4 pass; its
    # certificate is mostly rounding allowance, measured at 7.0e-15 to
    # 1.2e-14 on the 16 synthesized schedules and their reverses.  Asked for
    # two steps per segment, the commutator bound ends the run after one pass.
    calls = _count_passes(monkeypatch)
    schedule = row1_schedule(kind)
    segments = len(schedule.times) - 1
    forward = propagate(schedule)
    back = propagate(reverse_schedule(schedule), initial=forward.states[-1], target="w")
    assert calls == []
    assert forward.steps == back.steps == segments
    assert max(forward.certification_delta, back.certification_delta) <= 2e-14
    forward = propagate(schedule, steps=2 * segments)
    assert calls == [2]
    assert forward.certification_delta <= 1e-15
    back = propagate(
        reverse_schedule(schedule), initial=forward.states[-1], steps=2 * segments, target="w"
    )
    assert calls == [2, 2]
    assert back.certification_delta <= 1e-15


@pytest.mark.parametrize("kind", ["constant", "trapezoid"])
def test_closed_form_matches_cf4_on_synthesized_schedules(monkeypatch, kind):
    # the oracle is CF4 at two steps per segment, which the commutator bound
    # alone certifies
    calls = _count_passes(monkeypatch)
    for endpoint in enumerate_endpoints():
        schedule = rabi_schedule(SphericalCurve(endpoint, kind, 1.0), 1000)
        closed = propagate(schedule)
        assert calls == []
        cf4 = propagate(schedule, steps=2 * (len(schedule.times) - 1))
        assert calls == [2]
        calls.clear()
        assert np.array_equal(closed.states[0], w_state())
        gap = np.max(np.linalg.norm(closed.states - cf4.states, axis=1))
        assert gap <= closed.certification_delta + cf4.certification_delta + 1e-14


def _summed_exponent_states(schedule, psi0):
    """exp(-i H(S_k)) psi0 by eigendecomposition, S_k the exact integral of
    the piecewise-linear amplitudes up to knot k."""
    areas = np.diff(schedule.times)[:, None] * (schedule.values[:-1] + schedule.values[1:]) / 2.0
    sums = np.vstack([np.zeros(3), np.cumsum(areas, axis=0)])
    return np.array([oracles.expm_eig(ham) @ psi0 for ham in oracles.ladder_hamiltonian(sums)])


@pytest.mark.parametrize("eta, passes", [(1e-12, []), (1e-9, []), (1e-6, [1])])
def test_closed_form_certificate_bounds_a_bent_schedule(monkeypatch, eta, passes):
    # The exponents of a bent rank-1 schedule no longer commute.  Up to
    # eta = 1e-9 the closed form is certified, at 1.6 times its measured
    # error; at 1e-6 its telescoped Trotter term reaches CERTIFY_TOL and a
    # CF4 pass takes over.  The commutator bound alone is below the closed
    # form's error at every eta: 1.3e-12 against 2.5e-7 at 1e-6.
    calls = _count_passes(monkeypatch)
    schedule = _bend(row1_schedule("trapezoid"), eta)
    result = propagate(schedule)
    assert calls == passes
    fine, coarse = (_integrate(schedule, w_state(), sub) for sub in (16, 8))
    assert np.max(np.linalg.norm(fine - coarse, axis=1)) / 15.0 <= 1e-15
    error = np.max(np.linalg.norm(result.states - fine, axis=1))
    assert error <= result.certification_delta < CERTIFY_TOL
    closed = _summed_exponent_states(schedule, w_state())
    assert np.max(np.linalg.norm(closed - fine, axis=1)) > _commutator_bound(schedule)
    if not passes:
        assert np.max(np.linalg.norm(result.states - closed, axis=1)) <= 1e-14


def test_norms_stay_at_roundoff_over_long_runs():
    # Roundoff in the closed-form step factors is biased; without
    # renormalized running products the norms drift over long runs.
    for kind in ("constant", "trapezoid"):
        schedule = row1_schedule(kind)
        result = propagate(schedule, steps=3 * _SCAN_PIECE)
        segments = len(schedule.times) - 1
        assert result.steps == segments * math.ceil(3 * _SCAN_PIECE / segments)
        norms = np.linalg.norm(result.states, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-14
        assert result.certification_delta <= 1e-13


def test_ladder_path_takes_no_eigendecomposition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigh called on the ladder path")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    result = propagate(row1_schedule())
    assert result.final_fidelity >= 0.999


def test_step_cap_refuses_before_allocating():
    schedule = row1_schedule()
    start = time.perf_counter()
    tracemalloc.start()
    try:
        for steps in (_MAX_STEPS + 1, 50_000_000):
            with pytest.raises(TooManySteps, match=str(_MAX_STEPS)):
                propagate(schedule, steps=steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 1 << 20
    assert issubclass(TooManySteps, ValueError)


@given(
    st.floats(-2.0, 2.0, allow_nan=False),
    st.floats(-2.0, 2.0, allow_nan=False),
    st.floats(-2.0, 2.0, allow_nan=False),
)
def test_propagation_stays_normalized(o1, o2, o3):
    result = propagate(constant_schedule(np.array([o1, o2, o3])), steps=32)
    norms = np.linalg.norm(result.states, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-9
    assert np.max(result.fidelity_trace) <= 1.0 + 1e-12
