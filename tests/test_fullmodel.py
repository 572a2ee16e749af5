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
    _PAIRS,
    _PAIRS4,
    _SHARED,
    _SLOW,
    _basis,
    _groups,
    _dressed_block,
    _integrate_full,
    _jacobi,
    _linear_pieces,
    _real_form,
    _series_exp,
    _step_grid,
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
from ghzforge.propagate import propagate
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
            drive = oracles._drive_reference(t, params)
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


@pytest.mark.parametrize("stark", [1e200, 1e154])
def test_params_reject_stark_shifts_past_the_float_range(stark):
    # 1e200 squares past the float range; 1e154 squares to 1e308, but six
    # times its shift over detuning0 does not fit
    with pytest.raises(ValueError, match="Stark shifts of stark_amp"):
        FullModelParams(blockade=1.0, detuning0=1.0, stark_amp=stark, schedule=row1_schedule())


@pytest.mark.parametrize("factor", [math.nan, math.inf, -math.inf, -5.0, 0.0])
def test_params_for_factor_rejects_bad_factor(factor):
    with pytest.raises(ValueError, match="positive and finite"):
        params_for_factor(row1_schedule(), factor)


def test_gauge_identity_of_block_hamiltonian():
    # in the frame psi = e^{i detuning0 N t} phi the block Hamiltonian
    # H = c R + c* R^T + V P becomes K + W(t): K = Q diag(eps) Q^T
    # constant, and W(t) = sum_k w_k a_k (e^{-i Omega_k t} R + h.c.) with
    # Omega_k the scheduled tone's frequency plus detuning0
    rng = np.random.default_rng(11)
    raising = np.tril(_LADDER4)
    for params in (make_params(), params_for_factor(row1_schedule(), 10.0)):
        eps, q = _dressed_block(params)
        omega = tone_frequencies(params)[1:] + params.detuning0
        frame = params.detuning0 * np.arange(4.0)
        for t in rng.uniform(0.0, params.schedule.duration, 20):
            ham = oracles.block_hamiltonian(oracles._drive_reference(t, params), params.blockade)
            turned = np.exp(-1j * frame * t)[:, None] * ham * np.exp(1j * frame * t) + np.diag(frame)
            drive = np.sum(oracles.TONE_WEIGHTS * params.schedule.values_at(t) * np.exp(-1j * omega * t))
            rebuilt = (q * eps) @ q.T + drive * raising + np.conj(drive) * raising.T
            assert _max_rel(turned, rebuilt) <= 1e-14


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
    with pytest.raises(HierarchyViolation, match="factor 1: scale ratios"):
        compare_factors(schedule, (1.0,), min_factor=10.0)
    effective = propagate(schedule).states[-1]
    report = validate_reduction(params_for_factor(schedule, 1.0), effective, required_factor=10.0)
    assert not report.hierarchy_ok
    assert report.hierarchy_factor < 10.0
    [forced], _ = compare_factors(schedule, (1.0,), min_factor=10.0, force=True)
    assert not forced.hierarchy_ok


def test_zero_drive_keeps_state_constant():
    params = make_params(stark=0.0, schedule=zero_schedule(duration=0.05))
    report = validate_reduction(params, propagate(params.schedule).states[-1], required_factor=0.0)
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

    # the shared effective run scores each factor as a run of its own on
    # the schedule's linear pieces does
    monkeypatch.setattr(fullmodel_module, "propagate", original)
    pieces = _linear_pieces(schedule)
    effective = propagate(pieces).states[-1]
    single = [
        dataclasses.asdict(validate_reduction(params_for_factor(pieces, f, 2), effective, 3.0))
        for f in (3.0, 4.0)
    ]
    assert [dataclasses.asdict(r) for r in reports] == single


def test_reduction_at_moderate_factor():
    schedule = row1_schedule()
    params = params_for_factor(schedule, 4.0)
    report = validate_reduction(params, propagate(schedule).states[-1], required_factor=4.0)
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


def _uneven_schedule():
    # 40 equal segments, whose steps share their length, then 60 of uneven
    # spacing, with an all-zero stretch between rows 60 and 74
    rng = np.random.default_rng(5)
    knots = np.concatenate([np.linspace(0.0, 0.4, 41), 0.4 + np.cumsum(rng.uniform(0.005, 0.03, 60))])
    values = rng.uniform(-3.0, 3.0, (101, 3))
    values[60:75] = 0.0
    return PulseSchedule(times=knots, values=values)


@pytest.fixture(scope="module")
def kframe_references():
    """The oracle's state per schedule and factor, with its params and step counts."""
    runs = [
        (schedule, factor)
        for schedule in (row1_schedule(), rabi_schedule(SphericalCurve(ROW1, "trapezoid", 1.0), 200))
        for factor in (0.3, 3.0, 10.0)
    ]
    # both orders in one run: second-order steps on the equal segments,
    # first-order ones on the rest
    runs += [(_uneven_schedule(), factor) for factor in (0.3, 3.0)]
    references = []
    for schedule, factor in runs:
        params = params_for_factor(schedule, factor)
        counts, second = _step_grid(params)
        references.append((params, counts, oracles.kframe_reference(params, counts, second)))
    return references


# a package chunk as large as the run, then chunks of 100 and of 99,
# which divide none of the step counts (199 to 3,188); the oracle batches
# its own way
@pytest.mark.parametrize("chunk", [32768, 100, 99])
def test_integrate_full_matches_per_step_reference(chunk, kframe_references, monkeypatch):
    monkeypatch.setattr("ghzforge.fullmodel._CHUNK", chunk)
    for params, counts, ref_psi in kframe_references:
        psi, steps, dt = _integrate_full(params)
        assert steps == np.sum(counts) and steps % chunk
        assert dt == np.max(np.diff(params.schedule.times) / counts)
        assert np.max(np.abs(psi - ref_psi)) <= 1e-12


def test_integrate_full_matches_per_step_reference_ending_on_a_full_chunk(kframe_references, monkeypatch):
    # chunks of 199 steps divide the synthesized schedules' step counts
    # (199, 398 and 597), so those runs end on a full chunk, at factor 10
    # after one or two others
    monkeypatch.setattr("ghzforge.fullmodel._CHUNK", 199)
    whole = [(params, ref_psi) for params, counts, ref_psi in kframe_references if np.sum(counts) % 199 == 0]
    assert len(whole) == 6
    for params, ref_psi in whole:
        psi, steps, _ = _integrate_full(params)
        assert steps % 199 == 0
        assert np.max(np.abs(psi - ref_psi)) <= 1e-12


@given(st.lists(st.lists(st.floats(-20.0, 20.0), min_size=6, max_size=6), min_size=1, max_size=8))
def test_series_exp_matches_eigendecomposition_on_the_generators(pairs):
    # complex Hermitian v.L + w.R, the input of check's closed-form comparison
    hams = oracles.generator_form(np.reshape(pairs, (-1, 2, 3)).transpose(1, 0, 2))
    for step, ham in zip(_series_exp(-1j * hams), hams):
        assert np.max(np.abs(step - oracles.expm_eig(ham))) <= 1e-12


@pytest.mark.parametrize("dt", [0.01, 0.05, 0.1, 0.3, 2.0, 10.0])
def test_real_steps_match_eigendecomposition(dt):
    # block steps exp(-i S(r) dt) of the real S(r) = r (R + R^T) + V P,
    # step norms theta from 0.015 to 217, so the series runs with and
    # without halving and squaring
    rs = np.array([0.0, 0.4, 1.7, 5.0])
    norms = []
    for blockade in (0.5, 3.0):
        hams = oracles.block_hamiltonian(rs + 0j, blockade) * dt
        norms.extend(np.max(np.sum(np.abs(hams), axis=-1), axis=-1))
        steps = _series_exp(np.multiply.outer(-1j * rs * dt, _LADDER4) - 1j * blockade * dt * _PAIRS4)
        for step, ham, norm in zip(steps, hams, norms[-len(rs):]):
            bound = 16.0 * np.finfo(float).eps * max(1.0, norm)
            assert np.max(np.abs(step - oracles.expm_eig(ham))) <= bound
    # every norm is below 1 at the smallest dt and above 1 at the largest two
    assert (max(norms) <= 1.0) == (dt == 0.01) and (min(norms) > 1.0) == (dt >= 2.0)


@given(st.floats(0.3, 1e3), st.floats(0.5, 2.0))
def test_jacobi_matches_eigendecomposition(factor, ratio):
    # K at hierarchy factors 0.3 to 1e3, with blockade over detuning0 from
    # 0.5 to 2: the eigenvalues to rounding of the norm of K, and each
    # eigenvector, signed as _jacobi signs it, to rounding over its gap
    params = dataclasses.replace(params_for_factor(row1_schedule(), factor), blockade=ratio * 2.0 * factor**2)
    eps, q = _dressed_block(params)
    k = params.stark_amp * _LADDER4 + params.blockade * _PAIRS4 + params.detuning0 * np.diag(np.arange(4.0))
    evals, evecs = np.linalg.eigh(k)
    evecs *= np.where(np.diag(evecs) < 0.0, -1.0, 1.0)
    scale = np.max(np.abs(evals))
    gaps = np.min(np.abs(np.subtract.outer(evals, evals)) + scale * np.eye(4), axis=1)
    assert np.max(np.abs(eps - evals)) <= 8.0 * np.finfo(float).eps * scale
    assert np.all(np.max(np.abs(q - evecs), axis=0) <= 64.0 * np.finfo(float).eps * scale / gaps)
    assert np.max(np.abs(q.T @ q - np.eye(4))) <= 1e-14


def test_jacobi_leaves_a_diagonal_matrix_as_it_is():
    # no drive: K is diagonal, and no rotation runs
    eps, q = _jacobi(np.diag([3.0, -1.0, 2.0, 0.0]))
    assert eps.tolist() == [-1.0, 0.0, 2.0, 3.0]
    assert np.array_equal(q, np.eye(4)[:, [1, 3, 2, 0]])


@given(
    st.lists(st.floats(0.01, 2.0), min_size=1, max_size=6),
    st.data(),
    st.floats(0.05, 3.0),
    st.integers(1, 4),
)
def test_step_grid_keeps_every_step_within_a_segment_at_the_rate(gaps, data, factor, spc):
    # any schedule at any factor: each segment takes equal steps, at least
    # one, of at most 1 / (spc^(2/3) max(stark_amp, _SLOW peak)) where they
    # are second order and 1 / (6.5 spc max(stark_amp, peak)) where first,
    # and not one more than that needs
    knots = np.concatenate([[0.0], np.cumsum(gaps)])
    values = np.array(
        data.draw(st.lists(
            st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3),
            min_size=len(knots), max_size=len(knots),
        ))
    )
    assume(np.max(np.abs(values)) > 0.0)
    params = params_for_factor(PulseSchedule(times=knots, values=values), factor, spc)
    counts, second = _step_grid(params)
    peak = np.max(np.abs(values))
    rate = np.where(second, spc ** (2.0 / 3.0) * max(params.stark_amp, _SLOW * peak), 6.5 * spc * max(params.stark_amp, peak))
    assert counts.dtype == np.int64 and len(counts) == len(gaps) and np.all(counts >= 1)
    assert second.dtype == bool and len(second) == len(gaps)
    steps = np.diff(knots) / counts
    assert np.all(steps * rate <= 1.0 + 1e-12)
    assert np.all((counts == 1) | (np.diff(knots) / np.maximum(counts - 1, 1) * rate > 1.0 - 1e-12))


@pytest.mark.parametrize("factor", [0.3, 10.0])
def test_step_grid_takes_second_order_steps_where_enough_share_a_length(factor):
    # the equal segments of _uneven_schedule share their step length, the
    # uneven ones do not; on equal segments of one second-order step each
    # (amplitude 0.3 at factor 10 and 4 steps per cycle, where first-order
    # steps take 3), _SHARED segments are enough and one fewer is not
    schedule = _uneven_schedule()
    params = params_for_factor(schedule, factor)
    peak = np.max(np.abs(schedule.values))
    counts, second = _step_grid(params)
    lengths = np.diff(schedule.times)
    assert np.array_equal(second, np.arange(100) < 40)
    assert np.array_equal(counts[:40], np.ceil(lengths[:40] * 50 ** (2.0 / 3.0) * max(params.stark_amp, _SLOW * peak)))
    assert np.array_equal(counts[40:], np.ceil(lengths[40:] * 6.5 * 50 * max(params.stark_amp, peak)))
    for rows in (_SHARED + 1, _SHARED):
        equal = PulseSchedule(times=np.linspace(0.0, 1.0, rows), values=np.full((rows, 3), 0.3))
        counts, second = _step_grid(params_for_factor(equal, 10.0, 4))
        assert np.all(second == (rows > _SHARED)) and np.all((counts == 1) == second)


def _reference_groups(ell, scale):
    """Each value's group and each group's least value, walking the sorted values one by one.

    A value more than 4 ulps of scale above the next smaller one starts
    a group; every value belongs to the group of the largest least value
    at or below it.
    """
    gap = 4.0 * np.finfo(float).eps * scale
    ordered = sorted(ell)
    least = [value for previous, value in zip([-math.inf, *ordered], ordered) if value - previous > gap]
    return [sum(low <= value for low in least) - 1 for value in ell], least


def test_groups_of_step_lengths_match_a_reference_grouping():
    eps = np.finfo(float).eps
    # the equal steps of a 1,000-row schedule, which differ by the knots'
    # rounding alone (half an ulp of 1): one group at the scale of one
    # step per segment, duration 1 over the largest count, as every
    # validate integration takes it
    linspace = np.diff(np.linspace(0.0, 1.0, 1000))
    group, least = _groups(linspace, 1.0)
    assert np.array_equal(group, np.zeros(999)) and np.array_equal(least, [np.min(linspace)])
    # two clusters 16 ulps apart at scale 1: two groups, in ascending order
    clusters = 1.0 + np.array([20.0, 0.0, 24.0, 4.0]) * eps
    group, least = _groups(clusters, 1.0)
    assert group.tolist() == [1, 0, 1, 0] and least.tolist() == [1.0, 1.0 + 20.0 * eps]
    # a chain of links within 4 ulps of scale that spans more, first-order
    # lengths keyed negative beside shared positive ones, and lengths that
    # share nothing: each against the reference
    rng = np.random.default_rng(51)
    chain = 1e-3 * (1.0 + np.arange(6) * 3.0 * eps)
    shared = rng.choice(rng.uniform(1e-3, 2e-3, 5), 200) * (1.0 + rng.integers(-2, 3, 200) * eps)
    keyed = np.where(rng.random(200) < 0.5, shared, -shared)
    cases = [(linspace, 1.0), (clusters, 1.0), (chain, 1e-3), (keyed, 2e-3), (rng.uniform(1e-3, 2e-3, 50), 2e-3)]
    for ell, scale in cases:
        group, least = _groups(ell, scale)
        expected_group, expected_least = _reference_groups(ell, scale)
        assert group.tolist() == expected_group and least.tolist() == expected_least
    assert len(_groups(chain, 1e-3)[1]) == 1 < np.ptp(chain) / (4.0 * eps * 1e-3)


def test_basis_of_mixed_orders_holds_each_orders_rows_alone():
    # lengths of both orders in one batch, as a chunk of _uneven_schedule
    # builds them: each array has its own order's rows and equals the
    # build of its order's lengths alone, bit for bit
    params = params_for_factor(_uneven_schedule(), 10.0)
    counts, second = _step_grid(params)
    eps, q = _dressed_block(params)
    nu = (tone_frequencies(params)[1:] + params.detuning0)[:, None, None] - eps[:, None] + eps
    coupling = oracles.TONE_WEIGHTS[:, None, None] * (q.T @ np.tril(_LADDER4) @ q)
    picked = np.array([38, 40, 39, 41, 99, 0])
    ell, order = (np.diff(params.schedule.times) / counts)[picked], second[picked]
    assert 0 < np.sum(order) < len(order)
    alone = {up: iter(_basis(ell[order == up], nu, coupling, up)) for up in (True, False)}
    for basis, up in zip(_basis(ell, nu, coupling, order), order):
        assert basis.shape == (90 if up else 12, 64)
        assert np.array_equal(basis, next(alone[up]))


@pytest.mark.parametrize("chunk", [_CHUNK, 99])
def test_alternating_step_lengths_build_each_basis_once_a_chunk(chunk, monkeypatch):
    # 200 segments whose gaps alternate 1 : 1.5, at factor 10 and 4 steps
    # per cycle: 300 second-order steps, one and two a segment, whose
    # lengths alternate run by run.  Each chunk builds its two lengths
    # once, not one per run (40 lengths in 2 calls, 15 ms against 2 ms at
    # factor 30), and the steps match the per-step reference
    import ghzforge.fullmodel as fullmodel_module

    gaps = np.tile([1.0, 1.5], 100)
    knots = np.concatenate([[0.0], np.cumsum(gaps)]) / np.sum(gaps)
    trapezoid = rabi_schedule(SphericalCurve(ROW1, "trapezoid", 1.0), 1000)
    params = params_for_factor(PulseSchedule(times=knots, values=trapezoid.values_at(knots)), 10.0, 4)
    counts, second = _step_grid(params)
    assert np.all(second) and counts.tolist() == [1, 2] * 100
    ell = np.diff(knots) / counts
    assert np.allclose(ell, np.tile([1.0, 0.75], 100) / 250.0, rtol=1e-12, atol=0.0)
    built = []
    original = fullmodel_module._basis

    def record(ell, *args):
        built.append(list(ell))
        return original(ell, *args)

    monkeypatch.setattr(fullmodel_module, "_CHUNK", chunk)
    monkeypatch.setattr(fullmodel_module, "_basis", record)
    psi, steps, _ = _integrate_full(params)
    assert steps == 300
    assert all(len(set(ell)) == len(ell) for ell in built)
    assert sum(map(len, built)) <= 2 * -(-steps // chunk)
    assert np.max(np.abs(psi - oracles.kframe_reference(params, counts))) <= 1e-12


@given(
    st.lists(st.floats(0.02, 0.98), max_size=5, unique=True),
    st.lists(st.floats(0.0, 1.0), max_size=60),
    st.data(),
)
def test_linear_pieces_keep_every_bend_and_match_every_knot(bends, grid, data):
    # a piecewise-linear schedule on random nodes, sampled on a random
    # grid that holds them, gaps at least 1e-3: the pieces keep both ends
    # and every bend, no other knot, and their interpolant matches every
    # sample within 64 ulps of the peak amplitude
    nodes = np.unique(np.concatenate([[0.0, 1.0], bends]))
    assume(np.all(np.diff(nodes) >= 1e-2))
    values = np.array(data.draw(st.lists(
        st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3), min_size=len(nodes), max_size=len(nodes),
    )))
    peak = np.max(np.abs(values))
    assume(peak > 0.0)
    line = values[:-2] + ((nodes[1:-1] - nodes[:-2]) / (nodes[2:] - nodes[:-2]))[:, None] * (values[2:] - values[:-2])
    assume(np.all(np.max(np.abs(line - values[1:-1]), axis=1) >= 1e-3 * peak))
    times = nodes
    for t in grid:
        if np.min(np.abs(times - t)) >= 1e-3:
            times = np.sort(np.append(times, t))
    schedule = PulseSchedule(times=times, values=PulseSchedule(times=nodes, values=values).values_at(times))
    pieces = _linear_pieces(schedule)
    assert np.array_equal(pieces.times, nodes)
    assert np.array_equal(pieces.values, schedule.values[np.searchsorted(times, nodes)])
    miss = np.max(np.abs(pieces.values_at(times) - schedule.values))
    assert miss <= 64.0 * np.finfo(float).eps * np.max(np.abs(schedule.values))


def test_linear_pieces_check_the_kept_chord_not_the_neighbours():
    # each knot lies within an ulp of the line through its neighbours,
    # but the chain bows up to 320 ulps off the chord of its ends, so the
    # pieces must bend
    times = np.linspace(0.0, 1.0, 41)
    ulp = np.finfo(float).eps
    drift = 16.0 * ulp * (np.arange(41.0) * (40.0 - np.arange(41.0))) / 20.0
    values = np.stack([1.0 + drift, np.full(41, 0.5), np.zeros(41)], axis=1)
    schedule = PulseSchedule(times=times, values=values)
    pieces = _linear_pieces(schedule)
    assert 2 < len(pieces.times) < 41
    assert np.max(np.abs(pieces.values_at(times) - values)) <= 64.0 * ulp * np.max(np.abs(values))


@pytest.mark.parametrize("profile, samples, intervals", [
    ("constant", 1000, [999]),
    ("constant", 971, [970]),
    ("trapezoid", 1000, [333, 333, 333]),
    ("trapezoid", 972, [323, 1, 323, 1, 323]),
])
def test_linear_pieces_of_the_synthesized_profiles(profile, samples, intervals):
    # the constant profile is one piece; the trapezoid bends at its
    # corners, and where a corner falls between samples the segment
    # around it is a piece of its own.  The effective model on the
    # pieces ends where it does on the samples
    schedule = rabi_schedule(SphericalCurve(ROW1, profile, 1.0), samples)
    pieces = _linear_pieces(schedule)
    assert np.diff(np.searchsorted(schedule.times, pieces.times)).tolist() == intervals
    on_samples = propagate(schedule, target="ghz").states[-1]
    assert np.max(np.abs(propagate(pieces, target="ghz").states[-1] - on_samples)) <= 1e-15


def test_schedule_without_collinear_knots_keeps_its_knots_and_reports():
    # a sine on 1,000 rows bends at every knot: compare_factors integrates
    # the samples themselves, one step per segment at the validate
    # workload's settings, as validate_reduction does on them
    times = np.linspace(0.0, 1.0, 1000)
    values = 3.0 * np.sin(2.0 * np.pi * 1.3 * times[:, None] + np.array([0.4, 1.4, 2.4]))
    schedule = PulseSchedule(times=times, values=values)
    assert _linear_pieces(schedule) is schedule
    reports, _ = compare_factors(schedule, (10.0, 20.0), 14)
    effective = propagate(schedule, target="ghz").states[-1]
    single = [validate_reduction(params_for_factor(schedule, f, 14), effective) for f in (10.0, 20.0)]
    assert [dataclasses.asdict(r) for r in reports] == [dataclasses.asdict(r) for r in single]
    assert [r.steps for r in reports] == [999, 999]


def test_uneven_knots_take_first_order_steps_without_second_order_rows(monkeypatch):
    # 1,000 rows of uneven knots at the validate workload's settings: no
    # step length is shared, so no second-order row is built (each costs
    # about 0.4 ms a length) and the steps follow the first-order rule
    gaps = np.random.default_rng(45).uniform(0.5, 1.5, 999)
    knots = np.concatenate([[0.0], np.cumsum(gaps)]) / np.sum(gaps)
    schedule = row1_schedule(samples=1000)
    schedule = PulseSchedule(times=knots, values=schedule.values_at(knots))
    params = params_for_factor(schedule, 10.0, 14)
    counts, second = _step_grid(params)
    assert not np.any(second)

    def refuse(*args):
        raise AssertionError("second-order rows built")

    monkeypatch.setattr("ghzforge.fullmodel._second_order", refuse)
    _, steps, _ = _integrate_full(params)
    assert steps == np.sum(counts) == np.sum(np.ceil(np.diff(knots) * 6.5 * 14 * params.stark_amp))


def test_refined_steps_match_reference():
    # factor 0.3 at 50 steps per cycle, on 4 segments of 192 second-order
    # steps: _SLOW times the peak amplitude, not the smaller stark_amp, sets
    # the rate, and the steps still match the per-step reference
    schedule = row1_schedule(samples=5)
    params = params_for_factor(schedule, 0.3, 50)
    peak = np.max(np.abs(schedule.values))
    assert params.stark_amp < peak
    counts, second = _step_grid(params)
    rate = 50 ** (2.0 / 3.0) * _SLOW * peak
    assert np.all(second) and np.array_equal(counts, np.ceil(np.diff(schedule.times) * rate))
    psi, steps, _ = _integrate_full(params)
    assert steps == np.sum(counts) > len(counts)
    assert np.max(np.abs(psi - oracles.kframe_reference(params, counts))) <= 1e-12


@pytest.mark.parametrize("fastest", [1e-4, 1e-2, 0.3, 3.0, 30.0, 300.0])
def test_second_order_basis_matches_nested_quadrature(fastest):
    # one step of length 1 with frequencies nu_k[a, b] = Omega_k - eps_a +
    # eps_b, the largest |nu| set to `fastest`, one near resonance 1e-4 of
    # it: the exponent of 12 random coefficients and their monomials
    # against the oracle's first two Magnus terms of the integrand they
    # stand for, so |nu ell| runs from about 1e-8 to 300
    rng = np.random.default_rng(45)
    eps, omega = rng.normal(0.0, 1.0, 4), rng.normal(0.0, 1.0, 3)
    omega[0] = eps[1] - eps[0] + 1e-4
    nu = omega[:, None, None] - eps[:, None] + eps
    scale = fastest / np.max(np.abs(nu))
    nu *= scale
    coupling = rng.normal(0.0, 1.0, (3, 4, 4))
    coef = rng.normal(0.0, 1.0, 12)
    z = coef.reshape(2, 3, 2) @ np.array([1.0, -1j])

    def integrand(times):
        amps = z[0] + z[1] * times[..., None]
        terms = np.einsum("...k,kab,...kab->...ab", amps, coupling, np.exp(-1j * nu * times[..., None, None, None]))
        return -1j * (terms + np.swapaxes(terms.conj(), -1, -2))

    panels = max(1, math.ceil(4.0 * fastest / 4.0))
    first, second = (term[0] for term in oracles.magnus_terms(integrand, [0.0], [1.0], panels))
    [basis] = _basis([1.0], nu, coupling)
    monomials = coef[_PAIRS[0]] * coef[_PAIRS[1]]
    real = [_real_form(term).ravel() for term in (first, second)]
    assert np.max(np.abs(coef @ basis[:12] - real[0])) <= 1e-13 * np.max(np.abs(real[0]))
    assert np.max(np.abs(monomials @ basis[12:] - real[1])) <= 1e-12 * np.max(np.abs(real[1]))


@pytest.mark.parametrize("profile", ["constant", "trapezoid"])
def test_state_error_stays_within_the_midpoint_rule(profile, monkeypatch):
    # at 4, 14 and 50 steps per cycle, factors 3, 10 and 30, on 50 and
    # 200 rows: the state errs by at most the midpoint rule's 0.026 / S^2
    # (0.72 of it at worst, 50 rows, factor 3 and S 14) against the
    # Richardson combination (16 psi_2n - psi_n) / 15 of 4 and 8 times the
    # steps of S 200
    import ghzforge.fullmodel as fullmodel_module

    for rows in (50, 200):
        schedule = rabi_schedule(SphericalCurve(ROW1, profile, 1.0), rows)
        for factor in (3.0, 10.0, 30.0):
            base, second = _step_grid(params_for_factor(schedule, factor, 200))
            refined = []
            for times in (4, 8):
                with monkeypatch.context() as patch:
                    patch.setattr(fullmodel_module, "_step_grid", lambda params, times=times: (times * base, second))
                    refined.append(_integrate_full(params_for_factor(schedule, factor))[0])
            reference = (16.0 * refined[1] - refined[0]) / 15.0
            for spc in (4, 14, 50):
                psi = _integrate_full(params_for_factor(schedule, factor, spc))[0]
                assert np.linalg.norm(psi - reference) <= 0.026 / spc**2


@pytest.mark.parametrize("profile", ["constant", "trapezoid"])
def test_reported_infidelity_at_the_validate_settings_is_converged(profile):
    # the validate workload's job, through the path validate-full takes: on
    # 1,000 rows at 14 steps per cycle, on the schedule's linear pieces,
    # against a run at 800 on the samples; factors 3 to 20 take 328
    # (constant) or 492 (trapezoid) steps, where the samples took 999, and
    # the report erred by at most 7.4e-7 at factors 3 to 100 (factor 15,
    # constant, endpoint (-1, 1, 1)); at 20 times the peak it erred by 1.1e-6
    factors = (3.0, 7.0, 12.0, 15.0, 20.0)
    for endpoint in ((1, -1, 1), (-1, 1, 1)):
        schedule = rabi_schedule(SphericalCurve(solve_endpoints(endpoint), profile, 1.0), 1000)
        effective = propagate(schedule, target="ghz").states[-1]
        reports, _ = compare_factors(schedule, factors, 14, force=True)
        for factor, report in zip(factors, reports):
            converged = validate_reduction(params_for_factor(schedule, factor, 800), effective)
            assert report.steps == {"constant": 328, "trapezoid": 492}[profile]
            assert abs(report.effective_vs_full_infidelity - converged.effective_vs_full_infidelity) <= 1e-6


def test_step_count_grows_as_the_factor():
    # the stiff scale grows as the factor squared, the steps as the factor
    # from _SLOW on, on 4 segments, so that the knots set the count at
    # neither factor; below _SLOW the slow tones set the rate, so factor
    # 10 takes the steps of factor _SLOW
    schedule = row1_schedule(samples=5)
    at10, floor, at100 = (np.sum(_step_grid(params_for_factor(schedule, f))[0]) for f in (10.0, _SLOW, 100.0))
    assert at10 == floor
    assert 0.9 * 100.0 / _SLOW * at10 <= at100 <= 1.1 * 100.0 / _SLOW * at10


def test_chunk_drives_match_direct_tone_sum(monkeypatch):
    # about 128,000 steps: the exponents of the first, a middle and the
    # last chunk against the ones built here from the direct amplitudes
    # and tone phases e^{-i Omega_k t} at each step's start and their
    # monomials, within the rounding of the phase; the same for the
    # phases G of the steps
    params = params_for_factor(row1_schedule(), 1000.0, 400)
    counts, second = _step_grid(params)
    assert np.all(second)
    n = int(np.sum(counts))
    assert 100_000 < n < 150_000
    chunks = -(-n // _CHUNK)
    picked = (0, chunks // 2, chunks - 1)
    seen = []
    import ghzforge.fullmodel as fullmodel_module

    original = fullmodel_module._step_product

    def record(stack, count, phases):
        if len(seen) in picked:
            seen.append((stack[-count:].copy(), phases.copy()))
        else:
            seen.append(None)
        return original(stack, count, phases)

    monkeypatch.setattr("ghzforge.fullmodel._step_product", record)
    _integrate_full(params)
    assert len(seen) == chunks
    times, values = params.schedule.times, params.schedule.values
    eps, q = _dressed_block(params)
    omega = tone_frequencies(params)[1:] + params.detuning0
    coupling = oracles.TONE_WEIGHTS[:, None, None] * (q.T @ np.tril(_LADDER4) @ q)
    nu = omega[:, None, None] - eps[:, None] + eps
    length = np.diff(times)[0] / counts[0]
    assert np.all(np.abs(np.diff(times) / counts - length) <= 1e-15)
    [basis] = _basis([length], nu, coupling)
    segment = np.repeat(np.arange(len(counts)), counts)
    start = np.concatenate([np.arange(c) * (np.diff(times)[j] / c) for j, c in enumerate(counts)])
    for index in picked:
        exponents, phases = seen[index]
        s = np.arange(index * _CHUNK, index * _CHUNK + len(exponents))
        t = times[segment[s]] + start[s]
        slope = (values[segment[s] + 1] - values[segment[s]]) / np.diff(times)[segment[s], None]
        amps = np.stack([params.schedule.values_at(t), slope], axis=1)
        phase = np.multiply.outer(t, omega)
        tones = np.stack([np.cos(phase), np.sin(phase)], axis=-1)
        coef = (amps[..., None] * tones[:, None]).reshape(len(s), 12)
        coef = np.hstack([coef, coef[:, _PAIRS[0]] * coef[:, _PAIRS[1]]])
        direct = coef @ basis
        bound = 4.0 * np.finfo(float).eps * (1.0 + np.max(np.abs(phase))) * (np.abs(coef) @ np.abs(basis))
        assert np.all(np.abs(exponents.reshape(len(s), 64) - direct) <= bound)
        gate = np.exp(-1j * np.multiply.outer((np.diff(times) / counts)[segment[s]], eps))
        assert np.max(np.abs(phases - gate)) <= 4.0 * np.finfo(float).eps * np.max(np.abs(eps * length))


def _block_midpoint(params, steps):
    """The midpoint rule on the 4x4 block at steps equal steps, one eigh exponential each.

    The steps of each batch are multiplied pairwise, later on the left,
    in complex form.
    """
    dt = params.schedule.duration / steps
    psi = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    for done in range(0, steps, 32768):
        t = (done + np.arange(min(32768, steps - done)) + 0.5) * dt
        evals, evecs = np.linalg.eigh(oracles.block_hamiltonian(oracles._drive_reference(t, params), params.blockade))
        level = (evecs * np.exp(-1j * evals * dt)[:, None, :]) @ evecs.conj().transpose(0, 2, 1)
        while len(level) > 1:
            odd = level[2 * (len(level) // 2) :]
            level = np.concatenate([level[1::2] @ level[0:-1:2], odd])
        psi = level[0] @ psi
    return psi


@pytest.fixture(scope="module")
def midpoint_runs():
    """Midpoint states at factor 10, per profile, at 14, 25 and 50 steps per unit of the stiff phase."""
    runs = {}
    for profile in ("constant", "trapezoid"):
        params = params_for_factor(rabi_schedule(SphericalCurve(ROW1, profile, 1.0), 200), 10.0)
        stiff = (params.detuning0 + 2.0 * params.blockade) * params.schedule.duration
        runs[profile] = {spc: _block_midpoint(params, math.ceil(stiff * spc)) for spc in (14, 25, 50)}
    return runs


@pytest.mark.parametrize("profile", ["constant", "trapezoid"])
def test_richardson_of_kframe_steps_matches_the_midpoint_richardson(profile, midpoint_runs, monkeypatch):
    # K-frame steps are fourth order, so (16 psi_2n - psi_n) / 15 is of
    # higher order: at 40 and 80 steps per segment against the midpoint
    # rule's fourth-order (4 psi_2n - psi_n) / 3 at 25 and 50 steps per
    # unit of the stiff phase
    schedule = rabi_schedule(SphericalCurve(ROW1, profile, 1.0), 200)
    params = params_for_factor(schedule, 10.0)
    runs = []
    for per in (40, 80):
        monkeypatch.setattr("ghzforge.fullmodel._step_grid", lambda params, per=per: (np.full(199, per), np.ones(199, bool)))
        runs.append(_integrate_full(params)[0])
    kframe = (16.0 * runs[1] - runs[0]) / 15.0
    midpoint = (4.0 * midpoint_runs[profile][50] - midpoint_runs[profile][25]) / 3.0
    assert np.linalg.norm(kframe - midpoint) <= 1e-8


@pytest.mark.parametrize("spc", [14, 50])
@pytest.mark.parametrize("profile", ["constant", "trapezoid"])
def test_kframe_steps_err_no_more_than_midpoint_steps(profile, spc, midpoint_runs):
    # at the same --steps-per-cycle, against the midpoint Richardson
    # reference: the K-frame error is 0.05-0.23 of the midpoint rule's
    reference = (4.0 * midpoint_runs[profile][50] - midpoint_runs[profile][25]) / 3.0
    params = params_for_factor(rabi_schedule(SphericalCurve(ROW1, profile, 1.0), 200), 10.0, spc)
    kframe = np.linalg.norm(_integrate_full(params)[0] - reference)
    assert kframe <= np.linalg.norm(midpoint_runs[profile][spc] - reference)


def test_integrate_full_memory_stays_bounded():
    # a kernel that keeps the state after every step of a 32768-step
    # chunk peaks at 27.9 MiB here; the steps grow as the factor, so
    # factor 10,000 takes the run past 250,000 of them
    params = params_for_factor(row1_schedule(), 10000.0)
    tracemalloc.start()
    try:
        _, steps, _ = _integrate_full(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert steps > 250_000
    assert peak < 8 << 20


def test_workspace_buffers_stay_small():
    # a second run, past any first-call allocation: the tree's one stack
    # of 2,048 real 8x8 matrices at 512 steps, 1.00 MiB, and each chunk's
    # temporaries peak at 1.50 MiB; a chunk of 1,024 steps (2.58 MiB)
    # breaks the bound, while one more buffer of 128 KiB held across
    # chunks (about 1.63 MiB) stays within it
    params = params_for_factor(row1_schedule(), 100.0)
    _integrate_full(params)
    tracemalloc.start()
    try:
        _, steps, _ = _integrate_full(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert steps > 4 * _CHUNK
    assert peak <= 1.75 * (1 << 20)


def test_step_cap_refuses_before_allocating():
    # factor 1e6 passes the hierarchy check but needs about 3.2e7 steps
    params = params_for_factor(row1_schedule(), 1e6)
    assert min(hierarchy_ratios(params)) >= 1e6
    assert issubclass(TooManySteps, ValueError)
    effective = propagate(params.schedule).states[-1]
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(TooManySteps, match="steps"):
            validate_reduction(params, effective, required_factor=1e6)
        with pytest.raises(TooManySteps, match="steps"):
            validate_reduction(params, effective)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 1 << 20
