import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghzforge.algebra import build_generators, pseudospin_basis, w_state
from ghzforge.unitary import cayley_klein, exp_map, transformed_pseudospin_states

import oracles

GENS = build_generators()
BASIS = pseudospin_basis()

finite_component = st.floats(-20.0, 20.0, allow_nan=False)
vectors = st.tuples(finite_component, finite_component, finite_component).map(np.array)


def test_cayley_klein_limits():
    a, b = cayley_klein(np.zeros(3))
    assert abs(a - 1.0) <= 1e-15 and abs(b) <= 1e-15

    a, b = cayley_klein(np.array([0.0, 0.0, np.pi]))
    assert abs(a + 1j) <= 1e-15 and abs(b) <= 1e-15

    a, b = cayley_klein(np.array([np.pi, 0.0, 0.0]))
    assert abs(a) <= 1e-15 and abs(b + 1j) <= 1e-15


def test_cayley_klein_matrix_shape():
    a, b = cayley_klein(np.array([0.3, -0.8, 1.1]))
    mat = np.array([[a, -b.conj()], [b, a.conj()]])
    assert mat.shape == (2, 2)
    assert np.max(np.abs(mat.conj().T @ mat - np.eye(2))) <= 1e-14
    assert abs(np.linalg.det(mat) - 1.0) <= 1e-14


@given(vectors)
def test_cayley_klein_unit_row(vec):
    a, b = cayley_klein(vec)
    assert abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) <= 1e-12


def test_cayley_klein_norm_beyond_squares():
    # The squares of these entries overflow; a RuntimeWarning would fail the test.
    for scale in (1e200, 1e300):
        for vec in ([scale, 0.0, 0.0], scale * np.array([[0.6, 0.0, 0.8], [-0.3, 0.5, 0.1]])):
            a, b = cayley_klein(vec)
            assert np.max(np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0)) <= 1e-12


def test_batched_cayley_klein_matches_scalar_calls():
    rng = np.random.default_rng(7)
    direction = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
    near_cutoff = [direction * s for s in (0.0, 0.999e-6, 1e-6, 1.001e-6)]
    vecs = np.concatenate([near_cutoff, rng.uniform(-8, 8, (41, 3))])
    batch_a, batch_b = cayley_klein(vecs.reshape(5, 9, 3))
    assert batch_a.shape == batch_b.shape == (5, 9)
    for vec, a, b in zip(vecs, batch_a.ravel(), batch_b.ravel()):
        single_a, single_b = cayley_klein(vec)
        assert single_a.shape == single_b.shape == ()
        assert a == single_a and b == single_b


def test_series_branch_matches_direct_ratio():
    # Inside the small-angle branch the coefficients must agree with the
    # naively computed sin ratio, which is still well conditioned there.
    direction = np.array([0.3, -0.5, 0.8])
    direction /= np.linalg.norm(direction)
    for scale in (1e-12, 1e-9, 1e-7, 0.999e-6):
        vec = direction * scale
        a, b = cayley_klein(vec)
        norm = float(np.linalg.norm(vec))
        ratio = np.sin(norm / 2.0) / norm
        assert abs(a - (np.cos(norm / 2.0) - 1j * vec[2] * ratio)) <= 1e-15
        assert abs(b - (-1j * vec[0] + vec[1]) * ratio) <= 1e-15


def test_exp_map_identity():
    unit = exp_map(np.zeros((2, 3)))
    assert np.max(np.abs(unit - np.eye(4))) <= 1e-15


def test_exp_map_small_angle_linearization():
    eps = 1e-8
    vec = np.array([eps, 0.0, 0.0])
    unit = exp_map(np.stack([vec, np.zeros(3)]))
    linear = np.eye(4) - 1j * eps * GENS[0, 0]
    assert np.max(np.abs(unit - linear)) <= 1e-15


def test_exp_map_matches_eigendecomposition():
    rng = np.random.default_rng(7)
    for _ in range(50):
        pair = rng.uniform(-8, 8, (2, 3))
        closed = exp_map(pair)
        reference = oracles.exp_map_reference(pair)
        assert np.max(np.abs(closed - reference)) <= 1e-10


@given(vectors, vectors)
def test_exp_map_unitary(left, right):
    unit = exp_map(np.stack([left, right]))
    assert np.max(np.abs(unit.conj().T @ unit - np.eye(4))) <= 1e-12


def test_w_state_fixed_point_at_pole_pair():
    pole = np.array([0.0, 0.0, np.pi])
    unit = exp_map(np.stack([pole, pole]))
    image = unit @ w_state()
    assert abs(np.vdot(w_state(), image) - 1.0) <= 1e-14


def test_transformed_states_identity_pair():
    states = transformed_pseudospin_states(np.zeros((2, 3)))
    assert np.max(np.abs(states - BASIS)) <= 1e-15


def test_transformed_up_up_at_pole_pair():
    pole = np.array([0.0, 0.0, np.pi])
    states = transformed_pseudospin_states(np.stack([pole, pole]))
    expected = np.array([1j, 0.0, -1.0, 0.0]) / np.sqrt(2.0)
    assert np.max(np.abs(states[:, 0] - expected)) <= 1e-15


def test_transformed_states_match_exp_map():
    rng = np.random.default_rng(11)
    for _ in range(25):
        pair = rng.uniform(-6, 6, (2, 3))
        states = transformed_pseudospin_states(pair)
        reference = exp_map(pair) @ BASIS
        assert np.max(np.abs(states - reference)) <= 1e-12
        gram = states.conj().T @ states
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-12


@given(
    st.floats(-10, 10, allow_nan=False),
    st.floats(-10, 10, allow_nan=False),
    st.floats(-10, 10, allow_nan=False),
    st.floats(-10, 10, allow_nan=False),
)
def test_same_axis_composition(a, b, c, d):
    def z_pair(x, y):
        return np.array([[0.0, 0.0, x], [0.0, 0.0, y]])

    combined = exp_map(z_pair(a, b)) @ exp_map(z_pair(c, d))
    direct = exp_map(z_pair(a + c, b + d))
    assert np.max(np.abs(combined - direct)) <= 1e-12


def test_rotation_pair_rejects_non_finite():
    for fn in (exp_map, transformed_pseudospin_states):
        with pytest.raises(ValueError, match="finite"):
            fn(np.array([[np.nan, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        with pytest.raises(ValueError, match="finite"):
            fn(np.array([[0.0, 0.0, 0.0], [0.0, np.inf, 0.0]]))
        for shape in ((2, 2), (3,), (2, 4, 3)):
            with pytest.raises(ValueError, match="shape"):
                fn(np.zeros(shape))
