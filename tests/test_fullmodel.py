import ast
import dataclasses
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ghzforge.fullmodel import (
    FullModelParams,
    _LADDER4,
    _CHUNK,
    _PAIRS4,
    _Workspace,
    _drive,
    _drive_band,
    _integrate_full,
    _real_steps,
    _step_fit,
    _step_grid,
    _step_product,
    HierarchyViolation,
    TooManySteps,
    derived_detunings,
    hierarchy_ratios,
    params_for_factor,
    compare_factors,
    tone_frequencies,
    validate_reduction,
)
from ghzforge.algebra import w_state, wprime_state
from ghzforge.synthesis import (
    PulseSchedule,
    SphericalCurve,
    rabi_schedule,
    solve_endpoints,
)

import oracles

ROW1 = solve_endpoints((1, -1, 1))


def row1_schedule(duration=1.0, samples=200):
    return rabi_schedule(SphericalCurve(ROW1, "constant", duration), samples)


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
    ham = oracles.full_hamiltonian(0.73, params)
    expected = params.blockade * np.array(oracles.PAIR_COUNTS, dtype=float)
    assert np.array_equal(np.diag(ham).real, expected)
    assert np.max(np.abs(ham - np.diag(np.diag(ham)))) == 0.0


def test_single_tone_uniform_hopping():
    first_only = PulseSchedule(
        times=np.array([0.0, 1.0]), values=np.array([[0.9, 0.0, 0.0]] * 2)
    )
    params = make_params(stark=0.0, schedule=first_only)
    ham = oracles.full_hamiltonian(0.0, params)
    expected = 0.9 * oracles.TONE_WEIGHTS[0]
    hop_pairs = [(4, 0), (2, 0), (1, 0), (6, 2), (5, 1), (7, 3)]
    for row, col in hop_pairs:
        assert ham[row, col] == pytest.approx(expected, abs=1e-15)


def test_hermitian_and_permutation_symmetric():
    params = make_params()
    for t in (0.0, 0.21, 0.77):
        ham = oracles.full_hamiltonian(t, params)
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
    w8 = oracles.embed_state(w_state())
    occupied = np.nonzero(np.abs(w8) > 1e-12)[0]
    assert list(occupied) == [1, 2, 4]
    assert np.allclose(w8[occupied], 1.0 / np.sqrt(3.0), atol=1e-15)

    wp8 = oracles.embed_state(wprime_state())
    occupied = np.nonzero(np.abs(wp8) > 1e-12)[0]
    assert list(occupied) == [3, 5, 6]

    gram = oracles.MANIFOLD.conj().T @ oracles.MANIFOLD
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-14


def _max_rel(lhs, rhs):
    return float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs)))


def test_symmetric_block_reduction_identities():
    # the package's block literals against the oracle's eight-level
    # operators: each maps the manifold onto itself as the literal says
    manifold = oracles.MANIFOLD
    raising4 = np.tril(_LADDER4)
    for op8, op4 in (
        (oracles.RAISING, raising4),
        (oracles.RAISING + oracles.RAISING.T, _LADDER4),
        (np.diag(oracles.PAIR_COUNTS), _PAIRS4),
    ):
        assert _max_rel(op8 @ manifold, manifold @ op4) <= 1e-14
    for params in (make_params(), params_for_factor(row1_schedule(), 10.0)):
        for t in (0.0, 0.21, 0.5, 0.77, 1.0):
            drive = _drive(np.array([t]), params)[0]
            block = drive * raising4 + drive.conjugate() * raising4.T + params.blockade * _PAIRS4
            ham = oracles.full_hamiltonian(t, params)
            assert _max_rel(ham @ manifold, manifold @ block) <= 1e-14


def test_oracle_model_is_typed_apart_from_the_package():
    # the eight-level oracle checks the package's block literals; a name
    # imported from ghzforge.fullmodel would let one wrong entry pass both
    import ghzforge

    tree = ast.parse(Path(oracles.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(alias.name != "ghzforge.fullmodel" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.module != "ghzforge.fullmodel"
            if node.module == "ghzforge":
                for alias in node.names:
                    obj = getattr(ghzforge, alias.name)
                    assert alias.name != "fullmodel", alias.name
                    assert getattr(obj, "__module__", None) != "ghzforge.fullmodel", alias.name


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
        hams = oracles.block_hamiltonian(drive, params.blockade)
        real = np.abs(drive)[:, None, None] * _LADDER4 + params.blockade * _PAIRS4
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
    assert np.max(np.abs(oracles.MANIFOLD @ psi - ref_psi)) <= 1e-11
    assert ref_leak <= 1e-14


@given(
    st.lists(st.floats(0.01, 2.0), min_size=1, max_size=6),
    st.data(),
    st.floats(0.0, 100.0),
)
def test_drive_stays_in_its_band(gaps, data, stark):
    # any schedule, negative and all-zero columns included: every |c| lies
    # in the a-priori band that the step fit spans
    knots = np.concatenate([[0.0], np.cumsum(gaps)])
    cols = [
        data.draw(st.lists(st.floats(-50.0, 50.0), min_size=len(knots), max_size=len(knots)))
        if data.draw(st.booleans()) else [0.0] * len(knots)
        for _ in range(3)
    ]
    schedule = PulseSchedule(times=knots, values=np.array(cols).T)
    params = make_params(stark=stark, schedule=schedule)
    times = np.concatenate([knots, np.random.default_rng(len(knots)).uniform(0.0, knots[-1], 200)])
    lo, hi = _drive_band(params)
    modulus = np.abs(_drive(times, params))
    assert np.all(lo <= modulus) and np.all(modulus <= hi)


def _one_step(r, fit):
    # a single real drive needs no twist, so the product is the step itself
    return _step_product(np.array([r + 0j]), _Workspace(1, fit))


@pytest.mark.parametrize("a", [1e-12, 4e-4, 0.05, 0.5, 1.0])
def test_step_fit_matches_real_steps(a):
    dt, blockade = 0.01, 30.0
    h = a / (3.0 * dt)
    lo, hi = 5.0, 5.0 + 2.0 * h
    fit = _step_fit(lo, hi, dt, blockade)
    assert len(fit[2]) <= 15
    rs = np.concatenate([[lo, hi], np.random.default_rng(7).uniform(lo, hi, 200)])
    direct = _real_steps(rs, dt, blockade).view(complex).reshape(-1, 4, 4)
    for r, step in zip(rs, direct):
        assert np.max(np.abs(_one_step(r, fit) - step)) <= 2e-15
    # past a = 1 the fit is refused; a band of one point is fitted
    with pytest.raises(ValueError, match="at most 1"):
        _step_fit(lo, lo + 2.0 * (1.0 + 1e-12) / (3.0 * dt), dt, blockade)
    point = _step_fit(lo, lo, dt, blockade)
    assert np.max(np.abs(_one_step(lo, point) - direct[0])) <= 2e-15


@pytest.mark.parametrize("dt", [0.01, 0.05, 0.1, 0.3, 2.0, 10.0])
def test_real_steps_match_eigendecomposition(dt):
    # step norms theta from 0.015 to 217, so the series runs with and
    # without halving and squaring
    rs = np.array([0.0, 0.4, 1.7, 5.0])
    norms = []
    for blockade in (0.5, 3.0):
        hams = oracles.block_hamiltonian(rs + 0j, blockade) * dt
        norms.extend(np.max(np.sum(np.abs(hams), axis=-1), axis=-1))
        steps = _real_steps(rs, dt, blockade).view(complex).reshape(-1, 4, 4)
        for step, ham, norm in zip(steps, hams, norms[-len(rs):]):
            bound = 16.0 * np.finfo(float).eps * max(1.0, norm)
            assert np.max(np.abs(step - oracles.expm_eig(ham))) <= bound
    # every norm is below 1 at the smallest dt and above 1 at the largest two
    assert (max(norms) <= 1.0) == (dt == 0.01) and (min(norms) > 1.0) == (dt >= 2.0)


@given(
    st.lists(st.floats(0.01, 2.0), min_size=1, max_size=6),
    st.data(),
    st.floats(0.05, 3.0),
    st.integers(1, 4),
)
def test_step_grid_admits_the_step_fit(gaps, data, factor, spc):
    # any schedule at any factor: _step_grid's dt keeps a = 3 h dt <= 1 over
    # the drive band, so the run's fit is taken with at most 15 nodes
    knots = np.concatenate([[0.0], np.cumsum(gaps)])
    values = np.array(
        data.draw(st.lists(
            st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3),
            min_size=len(knots), max_size=len(knots),
        ))
    )
    assume(np.max(np.abs(values)) > 0.0)
    params = params_for_factor(PulseSchedule(times=knots, values=values), factor, spc)
    n, dt = _step_grid(params)
    lo, hi = _drive_band(params)
    assert n >= 1.5 * (hi - lo) * params.schedule.duration
    assert len(_step_fit(lo, hi, dt, params.blockade)[2]) <= 15


def test_step_grid_takes_a_step_more_where_a_rounds_above_one(monkeypatch):
    # h = 7/3 over 9/7 time units asks for 9 steps, at which 3 h dt rounds
    # to 1 + 2^-52; the grid takes a tenth so that the fit is admitted
    monkeypatch.setattr("ghzforge.fullmodel._drive_band", lambda params: (0.0, 14.0 / 3.0))
    duration = 9.0 / 7.0
    assert math.ceil(7.0 * duration) == 9 and 7.0 * (duration / 9) > 1.0
    params = make_params(blockade=1.0, detuning0=1.0, schedule=zero_schedule(duration), spc=1)
    n, dt = _step_grid(params)
    assert n == 10
    assert len(_step_fit(0.0, 14.0 / 3.0, dt, params.blockade)[2]) <= 15


def test_refined_steps_match_reference():
    # factor 0.3 at one step per cycle: the drive band, not the stiff
    # phase, sets the grid, which then still admits the step fit
    params = params_for_factor(row1_schedule(), 0.3, 1)
    n, dt = _step_grid(params)
    lo, hi = _drive_band(params)
    duration = params.schedule.duration
    stiff = params.detuning0 + 2.0 * params.blockade
    assert n == math.ceil(1.5 * (hi - lo) * duration) > math.ceil(stiff * duration)
    assert len(_step_fit(lo, hi, dt, params.blockade)[2]) <= 15
    psi, steps, _ = _integrate_full(params)
    ref_psi, _, ref_steps, _ = oracles.full_model_reference(params, steps=n)
    assert steps == ref_steps == n
    assert np.max(np.abs(oracles.MANIFOLD @ psi - ref_psi)) <= 1e-11


def test_chunk_drives_match_direct_tone_sum(monkeypatch):
    # about 1M steps: the first, a middle and the last chunk's drive, from
    # the run's phase table, against the direct sum of amplitude times
    # e^{-i w t}
    params = params_for_factor(row1_schedule(), 30.0, 80)
    n, dt = _step_grid(params)
    assert 900_000 < n < 1_200_000
    chunks = -(-n // _CHUNK)
    picked = (0, chunks // 2, chunks - 1)
    drives = []

    def record(drive, *_):
        drives.append(drive.copy() if len(drives) in picked else None)
        return np.eye(4)

    monkeypatch.setattr("ghzforge.fullmodel._step_product", record)
    _integrate_full(params)
    assert len(drives) == chunks
    freqs = tone_frequencies(params)
    for index in picked:
        t = (_CHUNK * index + np.arange(len(drives[index])) + 0.5) * dt
        amps = np.column_stack(
            [np.full(len(t), params.stark_amp), oracles.TONE_WEIGHTS * params.schedule.values_at(t)]
        )
        phase = np.multiply.outer(t, freqs)
        direct = np.sum(amps * np.exp(-1j * phase), axis=1)
        bound = 4.0 * np.finfo(float).eps * (1.0 + np.max(np.abs(phase))) * np.sum(np.abs(amps), axis=1)
        assert np.all(np.abs(drives[index] - direct) <= bound)


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


def test_workspace_buffers_stay_small():
    # the real 8x8 steps and the tree's second level, from which the
    # drive, the Chebyshev table and the features are carved; a chunk of
    # 4,096 steps, or separate buffers for those, would break the bound
    params = params_for_factor(row1_schedule(), 10.0)
    _, dt = _step_grid(params)
    ws = _Workspace(_CHUNK, _step_fit(*_drive_band(params), dt, params.blockade))
    total = sum(v.nbytes for v in vars(ws).values() if isinstance(v, np.ndarray))
    assert total <= 1.6 * (1 << 20)


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
