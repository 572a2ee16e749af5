import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghzforge.fullmodel import (
    FullModelParams,
    _PAIRS4,
    _RAISING4,
    _drive,
    _integrate_full,
    HierarchyViolation,
    MANIFOLD,
    PAIR_COUNTS,
    RAISING,
    TONE_WEIGHTS,
    TooManySteps,
    derived_detunings,
    embed_state,
    full_hamiltonian,
    hierarchy_ratios,
    params_for_factor,
    compare_factors,
    tone_frequencies,
    validate_reduction,
)
from ghzforge.algebra import w_state, wprime_state
from ghzforge.synthesis import (
    PulseProfile,
    PulseSchedule,
    build_curve,
    rabi_schedule,
    solve_endpoints,
)

import oracles

ROW1 = solve_endpoints((1, -1, 1))


def row1_schedule(duration=1.0, samples=200):
    profile = PulseProfile(kind="constant", duration=duration, theta_final=ROW1.theta_left_final)
    return rabi_schedule(build_curve(ROW1, profile), samples)


def zero_schedule(duration=1.0):
    return PulseSchedule(times=np.array([0.0, duration]), values=np.zeros((2, 3)))


def make_params(blockade=40.0, detuning0=40.0, stark=4.0, schedule=None, spc=50):
    return FullModelParams(
        blockade=blockade,
        detuning0=detuning0,
        stark_amp=stark,
        schedule=schedule if schedule is not None else row1_schedule(),
        steps_per_cycle=spc,
    )


def test_detunings_reference_point():
    d1, d2, d3 = derived_detunings(1.0, 1.0, 1.0)
    assert d1 == pytest.approx(4.0, abs=1e-15)
    assert d2 == pytest.approx(0.0, abs=1e-15)
    assert d3 == pytest.approx(0.0, abs=1e-15)


def test_detunings_zero_drive():
    assert derived_detunings(0.0, 3.7, 1.9) == (0.0, 0.0, 0.0)


def test_detunings_large_blockade_limit():
    d1, d2, d3 = derived_detunings(1.0, 2.0, 1e12)
    assert d1 == pytest.approx(6.0 / 2.0, rel=1e-9)
    assert d2 == pytest.approx(-3.0 / 2.0, rel=1e-9)
    assert abs(d3) <= 1e-11


def test_detunings_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        derived_detunings(1.0, 0.0, 1.0)
    with pytest.raises(ZeroDivisionError):
        derived_detunings(1.0, 2.0, -1.0)


@given(
    st.floats(0.0, 30.0, allow_nan=False),
    st.floats(0.5, 500.0, allow_nan=False),
    st.floats(0.5, 500.0, allow_nan=False),
)
def test_detunings_match_independent_recomputation(stark, detuning0, blockade):
    got = derived_detunings(stark, detuning0, blockade)
    expected = oracles.detunings_reference(stark, detuning0, blockade)
    scale = max(1.0, *(abs(e) for e in expected))
    assert all(abs(g - e) <= 1e-15 * scale for g, e in zip(got, expected))


def test_zero_drive_diagonal():
    params = make_params(stark=0.0, schedule=zero_schedule())
    ham = full_hamiltonian(0.73, params)
    expected = params.blockade * np.array(PAIR_COUNTS, dtype=float)
    assert np.array_equal(np.diag(ham).real, expected)
    assert np.max(np.abs(ham - np.diag(np.diag(ham)))) == 0.0


def test_single_tone_uniform_hopping():
    first_only = PulseSchedule(
        times=np.array([0.0, 1.0]), values=np.array([[0.9, 0.0, 0.0]] * 2)
    )
    params = make_params(stark=0.0, schedule=first_only)
    ham = full_hamiltonian(0.0, params)
    expected = 0.9 * TONE_WEIGHTS[0]
    hop_pairs = [(4, 0), (2, 0), (1, 0), (6, 2), (5, 1), (7, 3)]
    for row, col in hop_pairs:
        assert ham[row, col] == pytest.approx(expected, abs=1e-15)


def test_hermitian_and_permutation_symmetric():
    params = make_params()
    for t in (0.0, 0.21, 0.77):
        ham = full_hamiltonian(t, params)
        assert np.max(np.abs(ham - ham.conj().T)) <= 1e-14
        for perm in oracles.PERMUTATIONS_3:
            op = oracles.atom_permutation_matrix(perm)
            assert np.max(np.abs(op @ ham @ op.T - ham)) <= 1e-14


def test_tone_frequencies_structure():
    params = make_params()
    freqs = tone_frequencies(params)
    d1, d2, d3 = params.detunings
    v = params.blockade
    assert freqs[0] == -params.detuning0
    assert freqs[1] == pytest.approx(d1, abs=1e-15)
    assert freqs[2] == pytest.approx(d2 + v, rel=1e-15)
    assert freqs[3] == pytest.approx(d3 + 2.0 * v, rel=1e-15)
    # matched blockade and detuning cancel the second and third shifts
    assert d2 == pytest.approx(0.0, abs=1e-12)
    assert d3 == pytest.approx(0.0, abs=1e-12)


def test_embedding_and_manifold():
    w8 = embed_state(w_state())
    occupied = np.nonzero(np.abs(w8) > 1e-12)[0]
    assert list(occupied) == [1, 2, 4]
    assert np.allclose(w8[occupied], 1.0 / np.sqrt(3.0), atol=1e-15)

    wp8 = embed_state(wprime_state())
    occupied = np.nonzero(np.abs(wp8) > 1e-12)[0]
    assert list(occupied) == [3, 5, 6]

    gram = MANIFOLD.conj().T @ MANIFOLD
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-14


def _max_rel(lhs, rhs):
    return float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs)))


def _block_hamiltonians(times, params):
    """The 4x4 block Hamiltonians c R + c* R^T + V P at the given times."""
    hams = _drive(times, params)[:, None, None] * _RAISING4
    return hams + hams.conj().transpose(0, 2, 1) + params.blockade * _PAIRS4


def test_symmetric_block_reduction_identities():
    for op8, op4 in ((RAISING, _RAISING4), (np.diag(PAIR_COUNTS), _PAIRS4)):
        assert _max_rel(op8 @ MANIFOLD, MANIFOLD @ op4) <= 1e-14
    for params in (make_params(), params_for_factor(row1_schedule(), 10.0)):
        for t in (0.0, 0.21, 0.5, 0.77, 1.0):
            block = _block_hamiltonians(np.array([t]), params)[0]
            assert _max_rel(full_hamiltonian(t, params) @ MANIFOLD, MANIFOLD @ block) <= 1e-14


def test_params_validation():
    with pytest.raises(ValueError):
        make_params(blockade=-1.0)
    with pytest.raises(ValueError):
        make_params(detuning0=0.0)
    with pytest.raises(ValueError):
        make_params(spc=0)
    with pytest.raises(ValueError):
        make_params(stark=-0.5)


@pytest.mark.parametrize("scale", ["blockade", "detuning0", "stark"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_params_reject_non_finite_scales(scale, value):
    with pytest.raises(ValueError, match="finite"):
        make_params(**{scale: value})


@pytest.mark.parametrize("factor", [math.nan, math.inf, -math.inf, -5.0, 0.0])
def test_params_for_factor_rejects_bad_factor(factor):
    with pytest.raises(ValueError, match="positive and finite"):
        params_for_factor(row1_schedule(), factor)


def test_gauge_identity_of_block_hamiltonian():
    # H = c R + c* R^T + V P equals e^{i phi N} S(|c|) e^{-i phi N} with
    # the real S(r) = r (R + R^T) + V P and N the excitation number
    rng = np.random.default_rng(11)
    for params in (make_params(), params_for_factor(row1_schedule(), 10.0)):
        times = rng.uniform(0.0, params.schedule.duration, 50)
        drive = _drive(times, params)
        hams = _block_hamiltonians(times, params)
        ladder = _RAISING4 + _RAISING4.T
        real = np.abs(drive)[:, None, None] * ladder + params.blockade * _PAIRS4
        twist = np.exp(1j * np.angle(drive)[:, None] * np.arange(4))
        rebuilt = twist[:, :, None] * real * twist.conj()[:, None, :]
        assert _max_rel(hams, rebuilt) <= 1e-14


def test_params_for_factor_scaling():
    schedule = row1_schedule()
    peak = float(np.max(np.abs(schedule.values)))
    params = params_for_factor(schedule, 10.0)
    assert params.stark_amp == pytest.approx(10.0 * peak, rel=1e-15)
    assert params.blockade == params.detuning0 == pytest.approx(200.0 * peak, rel=1e-15)

    upper, lower = hierarchy_ratios(params)
    assert upper == pytest.approx(20.0, rel=1e-12)
    assert lower == pytest.approx(10.0 * np.sqrt(3.0), rel=1e-12)


def test_hierarchy_violation_and_force():
    schedule = row1_schedule()
    params = params_for_factor(schedule, 1.0)
    with pytest.raises(HierarchyViolation):
        validate_reduction(params, required_factor=10.0)
    report = validate_reduction(params, required_factor=10.0, force=True)
    assert not report.hierarchy_ok
    assert report.hierarchy_factor < 10.0


def test_zero_drive_keeps_state_constant():
    params = make_params(stark=0.0, schedule=zero_schedule(duration=0.05))
    report = validate_reduction(params, required_factor=0.0)
    assert report.leakage_max <= 1e-14
    assert report.effective_vs_full_infidelity <= 1e-10


def test_compare_factors_propagates_once(monkeypatch):
    import ghzforge.fullmodel as fullmodel_module

    original = fullmodel_module.propagate
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(fullmodel_module, "propagate", counting)
    schedule = row1_schedule()
    reports, _ = compare_factors(schedule, (3.0, 4.0), steps_per_cycle=2, min_factor=3.0)
    assert len(calls) == 1 and len(reports) == 2

    # the shared effective run scores each factor as a run of its own does
    monkeypatch.setattr(fullmodel_module, "propagate", original)
    single = [
        dataclasses.asdict(
            validate_reduction(params_for_factor(schedule, f, 2), required_factor=3.0)
        )
        for f in (3.0, 4.0)
    ]
    assert [dataclasses.asdict(r) for r in reports] == single


def test_reduction_at_moderate_factor():
    schedule = row1_schedule()
    params = params_for_factor(schedule, 4.0)
    report = validate_reduction(params, required_factor=4.0)
    assert report.hierarchy_ok
    assert report.leakage_max <= 1e-12
    assert 0.0 <= report.effective_vs_full_infidelity < 0.2
    assert report.steps == pytest.approx(report.duration / report.dt, rel=1e-9)

    payload = dataclasses.asdict(report)
    assert set(payload) >= {
        "hierarchy_factor",
        "ratio_upper",
        "ratio_lower",
        "hierarchy_ok",
        "leakage_max",
        "effective_vs_full_infidelity",
        "detunings",
    }


# 6,351 steps: one chunk, then chunks of 1000 and of 999, each leaving an
# odd remainder
@pytest.mark.parametrize("chunk", [32768, 1000, 999])
def test_integrate_full_matches_per_step_reference(chunk, monkeypatch):
    monkeypatch.setattr("ghzforge.fullmodel._CHUNK", chunk)
    params = params_for_factor(row1_schedule(), 3.0)
    psi, steps, dt = _integrate_full(params)
    ref_psi, ref_leak, ref_steps, ref_dt = oracles.full_model_reference(params, chunk)
    assert 5000 < steps < 7000
    assert (steps, dt) == (ref_steps, ref_dt)
    assert np.max(np.abs(MANIFOLD @ psi - ref_psi)) <= 1e-11
    assert ref_leak <= 1e-14


def test_integrate_full_memory_stays_bounded():
    # a kernel that keeps the state after every step of a 32768-step
    # chunk peaks at 27.9 MiB here
    params = params_for_factor(row1_schedule(), 20.0)
    tracemalloc.start()
    try:
        _, steps, _ = _integrate_full(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert steps > 250_000
    assert peak < 8 << 20


def test_step_cap_refuses_before_allocating():
    # factor 1e5 passes the hierarchy check but needs about 7e12 steps
    params = params_for_factor(row1_schedule(), 1e5)
    assert min(hierarchy_ratios(params)) >= 1e5
    assert issubclass(TooManySteps, ValueError)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(TooManySteps, match="steps"):
            validate_reduction(params, required_factor=1e5)
        with pytest.raises(TooManySteps, match="steps"):
            validate_reduction(params, force=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 1 << 20
