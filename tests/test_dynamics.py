import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghzforge.algebra import build_generators
from ghzforge.dynamics import (
    ConstraintViolation,
    CurveSample,
    RabiTriple,
    VectorialRabi,
    check_constraints,
    effective_hamiltonian,
    ladder_hamiltonian,
    rabi_from_vectorial,
    rotation_rate,
    vectorial_from_rabi,
    vectorial_rabi,
)

import oracles

GENS = build_generators()

amplitudes = st.floats(-50.0, 50.0, allow_nan=False)


def test_effective_hamiltonian_zero():
    ham = effective_hamiltonian(RabiTriple(0.0, 0.0, 0.0))
    assert np.max(np.abs(ham)) == 0.0


def test_effective_hamiltonian_single_coupling():
    ham = effective_hamiltonian(RabiTriple(1.0, 0.0, 0.0))
    upper = np.triu(ham, k=1)
    assert ham[0, 1] == pytest.approx(1.0, abs=1e-15)
    upper[0, 1] = 0.0
    assert np.max(np.abs(upper)) <= 1e-15


def test_ladder_matches_generator_form():
    rng = np.random.default_rng(3)
    for _ in range(100):
        triple = RabiTriple(*rng.uniform(-5, 5, 3))
        generator_form = effective_hamiltonian(triple)
        ladder_form = ladder_hamiltonian(triple)
        assert np.max(np.abs(generator_form - ladder_form)) <= 1e-14


@given(amplitudes, amplitudes, amplitudes)
def test_hamiltonian_hermitian(o1, o2, o3):
    ham = effective_hamiltonian(RabiTriple(o1, o2, o3))
    assert np.max(np.abs(ham - ham.conj().T)) <= 1e-14


def test_rotation_rate_static_curve():
    rate = rotation_rate(np.array([0.4, -1.2, 2.0]), np.zeros(3))
    assert np.max(np.abs(rate)) == 0.0


def test_rotation_rate_axis_aligned():
    rate = rotation_rate(np.array([0.0, 0.0, 1.3]), np.array([0.0, 0.0, 0.7]))
    assert np.allclose(rate, [0.0, 0.0, 0.7], atol=1e-14)


def test_rotation_rate_series_branch():
    # For |v| -> 0 the rate tends to v_dot + (v x v_dot)/2.
    v = np.array([1e-9, -2e-9, 1.5e-9])
    v_dot = np.array([0.3, 0.8, -0.4])
    expected = v_dot + 0.5 * np.cross(v, v_dot)
    assert np.max(np.abs(rotation_rate(v, v_dot) - expected)) <= 1e-12


def test_rotation_rate_against_finite_difference():
    # The defining property: i dU/dt equals (rate . generators) U.
    rng = np.random.default_rng(5)
    curve = oracles.FourierCurve(rng)
    for t in (0.2, 0.9, 1.7):
        left, right, left_dot, right_dot = curve.at(t)
        ham = sum(
            rotation_rate(left, left_dot)[i] * GENS.left[i]
            + rotation_rate(right, right_dot)[i] * GENS.right[i]
            for i in range(3)
        )
        assert oracles.schroedinger_residual(curve, ham, t, 1e-6) <= 1e-8


def test_rotation_rate_batch_matches_scalar_calls():
    # rows on both sides of the series cutoff, at zero, and far from it
    rng = np.random.default_rng(11)
    norms = [0.0, 1e-9, 0.999e-6, 1e-6, 1.001e-6, 1e-3, 1.0, np.pi, 9.0]
    dirs = rng.normal(size=(len(norms), 3))
    vecs = dirs / np.linalg.norm(dirs, axis=1)[:, None] * np.array(norms)[:, None]
    vecs = np.concatenate([vecs, rng.uniform(-5.0, 5.0, (40, 3))])
    vdots = rng.normal(size=vecs.shape)
    batch = rotation_rate(vecs, vdots)
    assert batch.shape == vecs.shape
    for k in range(len(vecs)):
        single = rotation_rate(vecs[k], vdots[k])
        assert single.shape == (3,)
        assert np.array_equal(batch[k], single), k
    grid = rotation_rate(vecs.reshape(7, 7, 3), vdots.reshape(7, 7, 3))
    assert np.array_equal(grid.reshape(-1, 3), batch)


def test_check_constraints_stacked():
    rng = np.random.default_rng(12)
    left, right = rng.normal(size=(2, 5, 3))
    report = check_constraints(VectorialRabi(left=left, right=right))
    assert report.residuals.shape == (5, 3)
    for k in range(5):
        single = check_constraints(VectorialRabi(left=left[k], right=right[k]))
        assert np.array_equal(report.residuals[k], single.residuals)
    assert report.max_residual == max(
        check_constraints(VectorialRabi(left=left[k], right=right[k])).max_residual
        for k in range(5)
    )


def test_rabi_maps_batch_match_scalar_calls():
    rng = np.random.default_rng(13)
    amp = rng.normal(0.0, 3.0, (6, 5, 3))
    rates = vectorial_from_rabi(RabiTriple(*np.moveaxis(amp, -1, 0)))
    assert rates.left.shape == rates.right.shape == (6, 5, 3)
    triples = rabi_from_vectorial(rates)
    assert triples.as_array().shape == (6, 5, 3)
    for idx in np.ndindex(6, 5):
        single = vectorial_from_rabi(RabiTriple(*(float(o) for o in amp[idx])))
        assert np.array_equal(rates.left[idx], single.left), idx
        assert np.array_equal(rates.right[idx], single.right), idx
        back = rabi_from_vectorial(single)
        assert np.array_equal(triples.as_array()[idx], back.as_array()), idx
        assert back.as_array().shape == (3,)


def test_vectorial_rabi_wraps_both_vectors():
    sample = CurveSample(
        t=0.0,
        left=np.array([0.0, 0.0, 0.5]),
        right=np.array([0.0, 0.0, 0.25]),
        left_dot=np.array([0.0, 0.0, 1.0]),
        right_dot=np.array([0.0, 0.0, 0.5]),
    )
    rates = vectorial_rabi(sample)
    assert np.allclose(rates.left, [0, 0, 1.0], atol=1e-14)
    assert np.allclose(rates.right, [0, 0, 0.5], atol=1e-14)


def test_check_constraints_satisfied():
    report = check_constraints(
        VectorialRabi(left=np.array([1.0, 2.0, 0.0]), right=np.array([3.0, 2.0, 0.0]))
    )
    assert report.passed
    assert np.allclose(report.residuals, [0.0, 0.0, 0.0], atol=0.0)


def test_check_constraints_violated():
    report = check_constraints(
        VectorialRabi(left=np.array([0.0, 0.0, 1.0]), right=np.zeros(3))
    )
    assert not report.passed
    assert report.residuals[0] == pytest.approx(1.0, abs=0.0)
    assert report.max_residual == pytest.approx(1.0, abs=0.0)


def test_rabi_from_vectorial_reference_case():
    triple = rabi_from_vectorial(
        VectorialRabi(left=np.array([2.0, 4.0, 0.0]), right=np.array([0.0, 4.0, 0.0]))
    )
    assert (triple.omega1, triple.omega2, triple.omega3) == (1.0, 4.0, 1.0)


def test_rabi_from_vectorial_symmetric_and_zero():
    sym = rabi_from_vectorial(
        VectorialRabi(left=np.array([1.5, -0.25, 0.0]), right=np.array([1.5, -0.25, 0.0]))
    )
    assert (sym.omega1, sym.omega2, sym.omega3) == (1.5, -0.25, 0.0)

    zero = rabi_from_vectorial(VectorialRabi(left=np.zeros(3), right=np.zeros(3)))
    assert (zero.omega1, zero.omega2, zero.omega3) == (0.0, 0.0, 0.0)


def test_rabi_from_vectorial_rejects_violation():
    with pytest.raises(ConstraintViolation):
        rabi_from_vectorial(
            VectorialRabi(left=np.array([1.0, 2.0, 0.3]), right=np.array([1.0, 2.0, 0.0]))
        )
    with pytest.raises(ConstraintViolation):
        rabi_from_vectorial(
            VectorialRabi(left=np.array([1.0, 2.0, 0.0]), right=np.array([1.0, 2.5, 0.0]))
        )


@given(amplitudes, amplitudes, amplitudes)
def test_rabi_round_trip_identity(o1, o2, o3):
    triple = RabiTriple(o1, o2, o3)
    rates = vectorial_from_rabi(triple)
    back = rabi_from_vectorial(rates)
    scale = max(abs(o1), abs(o2), abs(o3), 1.0)
    assert abs(back.omega1 - o1) <= 1e-15 * scale
    assert abs(back.omega2 - o2) <= 1e-15 * scale
    assert abs(back.omega3 - o3) <= 1e-15 * scale


@given(amplitudes, amplitudes, amplitudes)
def test_inverse_map_satisfies_constraints(o1, o2, o3):
    rates = vectorial_from_rabi(RabiTriple(o1, o2, o3))
    assert check_constraints(rates).passed
    assert rates.left[0] == pytest.approx(o1 + o3, abs=1e-12)
    assert rates.right[0] == pytest.approx(o1 - o3, abs=1e-12)
    assert rates.left[1] == rates.right[1] == o2
