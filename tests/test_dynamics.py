import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghzforge.dynamics import (
    CONSTRAINT_TOL,
    ConstraintViolation,
    check_constraints,
    rabi_from_vectorial,
    rotation_rate,
    vectorial_from_rabi,
)

import oracles

amplitudes = st.floats(-50.0, 50.0, allow_nan=False)


def _generator_form(rabi):
    """The effective Hamiltonian of amplitudes (O1, O2, O3): the rates w of
    vectorial_from_rabi on the generators, w_left . L + w_right . R."""
    return oracles.generator_form(vectorial_from_rabi(rabi))


def test_effective_hamiltonian_zero():
    ham = _generator_form(np.zeros(3))
    assert np.max(np.abs(ham)) == 0.0


def test_effective_hamiltonian_single_coupling():
    ham = _generator_form(np.array([1.0, 0.0, 0.0]))
    upper = np.triu(ham, k=1)
    assert ham[0, 1] == pytest.approx(1.0, abs=1e-15)
    upper[0, 1] = 0.0
    assert np.max(np.abs(upper)) <= 1e-15


def test_ladder_matches_generator_form():
    rng = np.random.default_rng(3)
    for _ in range(100):
        triple = rng.uniform(-5, 5, 3)
        generator_form = _generator_form(triple)
        ladder_form = oracles.ladder_hamiltonian(triple)
        assert np.max(np.abs(generator_form - ladder_form)) <= 1e-14


@given(amplitudes, amplitudes, amplitudes)
def test_hamiltonian_hermitian(o1, o2, o3):
    ham = _generator_form(np.array([o1, o2, o3]))
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


def test_rotation_rate_large_norm_limit():
    # For |v| -> infinity the rate tends to (v_hat . v_dot) v_hat; a norm of
    # 1e120, cubed, would overflow, the squares of 1e200 and 1e300 overflow
    # too, and a RuntimeWarning would fail this test.
    for v, v_dot in (
        (np.array([1e120, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])),
        (1e120 * np.array([0.6, 0.0, 0.8]), np.array([1.0, 2.0, 3.0])),
        (np.array([1e200, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])),
        (1e200 * np.array([0.6, 0.0, 0.8]), np.array([1.0, 2.0, 3.0])),
        (1e300 * np.array([0.6, 0.0, 0.8]), np.array([1.0, 2.0, 3.0])),
    ):
        unit = v / np.max(np.abs(v))
        unit /= np.linalg.norm(unit)
        rate = rotation_rate(v, v_dot)
        assert np.all(np.isfinite(rate))
        assert np.max(np.abs(rate - np.dot(unit, v_dot) * unit)) <= 1e-12


def test_rotation_rate_against_finite_difference():
    # The defining property: i dU/dt equals (rate . generators) U.
    rng = np.random.default_rng(5)
    curve = oracles.FourierCurve(rng)
    for t in (0.2, 0.9, 1.7):
        left, right, left_dot, right_dot = curve.at(t)
        ham = oracles.generator_form(
            rotation_rate(np.stack([left, right]), np.stack([left_dot, right_dot]))
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
    rates = rng.normal(size=(2, 5, 3))
    residuals = check_constraints(rates)
    assert residuals.shape == (5, 3)
    for k in range(5):
        assert np.array_equal(residuals[k], check_constraints(rates[:, k]))


def test_rabi_maps_batch_match_scalar_calls():
    rng = np.random.default_rng(13)
    amp = rng.normal(0.0, 3.0, (6, 5, 3))
    rates = vectorial_from_rabi(amp)
    assert rates.shape == (2, 6, 5, 3)
    triples = rabi_from_vectorial(rates)
    assert triples.shape == (6, 5, 3)
    for idx in np.ndindex(6, 5):
        single = vectorial_from_rabi(amp[idx])
        assert np.array_equal(rates[(slice(None), *idx)], single), idx
        back = rabi_from_vectorial(single)
        assert np.array_equal(triples[idx], back), idx
        assert back.shape == (3,)


def test_rotation_rate_of_a_pair():
    point = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, 0.25]])
    velocity = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.5]])
    rates = rotation_rate(point, velocity)
    assert np.allclose(rates[0], [0, 0, 1.0], atol=1e-14)
    assert np.allclose(rates[1], [0, 0, 0.5], atol=1e-14)


def test_check_constraints_satisfied():
    residuals = check_constraints(np.array([[1.0, 2.0, 0.0], [3.0, 2.0, 0.0]]))
    assert np.allclose(residuals, [0.0, 0.0, 0.0], atol=0.0)


def test_check_constraints_violated():
    residuals = check_constraints(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))
    assert residuals[0] == pytest.approx(1.0, abs=0.0)
    assert np.max(np.abs(residuals)) == pytest.approx(1.0, abs=0.0)


def test_rabi_from_vectorial_reference_case():
    triple = rabi_from_vectorial(np.array([[2.0, 4.0, 0.0], [0.0, 4.0, 0.0]]))
    assert tuple(triple) == (1.0, 4.0, 1.0)


def test_rabi_from_vectorial_symmetric_and_zero():
    sym = rabi_from_vectorial(np.array([[1.5, -0.25, 0.0], [1.5, -0.25, 0.0]]))
    assert tuple(sym) == (1.5, -0.25, 0.0)

    zero = rabi_from_vectorial(np.zeros((2, 3)))
    assert tuple(zero) == (0.0, 0.0, 0.0)


def test_rabi_from_vectorial_rejects_violation():
    with pytest.raises(ConstraintViolation):
        rabi_from_vectorial(np.array([[1.0, 2.0, 0.3], [1.0, 2.0, 0.0]]))
    with pytest.raises(ConstraintViolation):
        rabi_from_vectorial(np.array([[1.0, 2.0, 0.0], [1.0, 2.5, 0.0]]))


@given(amplitudes, amplitudes, amplitudes)
def test_rabi_round_trip_identity(o1, o2, o3):
    rates = vectorial_from_rabi(np.array([o1, o2, o3]))
    back = rabi_from_vectorial(rates)
    scale = max(abs(o1), abs(o2), abs(o3), 1.0)
    assert abs(back[0] - o1) <= 1e-15 * scale
    assert abs(back[1] - o2) <= 1e-15 * scale
    assert abs(back[2] - o3) <= 1e-15 * scale


@given(amplitudes, amplitudes, amplitudes)
def test_inverse_map_satisfies_constraints(o1, o2, o3):
    rates = vectorial_from_rabi(np.array([o1, o2, o3]))
    assert np.max(np.abs(check_constraints(rates))) <= CONSTRAINT_TOL
    assert rates[0, 0] == pytest.approx(o1 + o3, abs=1e-12)
    assert rates[1, 0] == pytest.approx(o1 - o3, abs=1e-12)
    assert rates[0, 1] == rates[1, 1] == o2
