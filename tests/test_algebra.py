import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghzforge.algebra import (
    NotScalarMultiple,
    build_generators,
    casimirs,
    ggg_state,
    ghz_state,
    pseudospin_basis,
    rrr_state,
    w_state,
    wprime_state,
)

GENS = build_generators()
BASIS = pseudospin_basis()


def expand(state):
    """Coefficients of a physical-basis state in the pseudospin basis."""
    return BASIS.conj().T @ state


EPSILON = np.zeros((3, 3, 3))
for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPSILON[i, j, k] = 1.0
    EPSILON[j, i, k] = -1.0


def test_generator_entries_exact():
    half = 0.5
    expected_left_x = np.zeros((4, 4))
    expected_left_x[0, 1] = expected_left_x[1, 0] = half
    expected_left_x[2, 3] = expected_left_x[3, 2] = half
    assert np.array_equal(GENS[0][0], expected_left_x)

    expected_right_x = np.zeros((4, 4))
    expected_right_x[0, 1] = expected_right_x[1, 0] = half
    expected_right_x[2, 3] = expected_right_x[3, 2] = -half
    assert np.array_equal(GENS[1][0], expected_right_x)

    allowed = {0.0, 0.5, -0.5}
    for family in GENS:
        for mat in family:
            assert np.max(np.abs(mat - mat.conj().T)) == 0.0
            for entry in mat.ravel():
                assert entry.real in allowed and entry.imag in allowed
                assert entry.real == 0.0 or entry.imag == 0.0


def test_commutators():
    for family in GENS:
        for i in range(3):
            for j in range(3):
                comm = family[i] @ family[j] - family[j] @ family[i]
                expected = 1j * sum(EPSILON[i, j, k] * family[k] for k in range(3))
                assert np.max(np.abs(comm - expected)) <= 1e-14


def test_cross_family_commutators_vanish():
    for i in range(3):
        for j in range(3):
            cross = GENS[0][i] @ GENS[1][j] - GENS[1][j] @ GENS[0][i]
            assert np.max(np.abs(cross)) <= 1e-14


def test_pauli_like_products():
    eye = np.eye(4)
    for family in GENS:
        for i in range(3):
            for j in range(3):
                product = (2.0 * family[i]) @ (2.0 * family[j])
                expected = (i == j) * eye + 1j * sum(
                    EPSILON[i, j, k] * 2.0 * family[k] for k in range(3)
                )
                assert np.max(np.abs(product - expected)) <= 1e-14


def test_casimirs_reference_values():
    total, diff = casimirs(GENS)
    assert abs(total - 1.5) <= 1e-13
    assert abs(diff) <= 1e-13


def test_casimirs_family_swap():
    total, diff = casimirs(GENS[::-1])
    assert abs(total - 1.5) <= 1e-13
    assert abs(diff) <= 1e-13


def test_casimirs_scaled_generators():
    total, diff = casimirs(2.0 * GENS)
    assert abs(total - 6.0) <= 1e-13
    assert abs(diff) <= 1e-13


def test_casimirs_reject_non_scalar_sum():
    corrupted = np.array(GENS)
    corrupted[0, 0] = corrupted[0, 0] + np.diag([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(NotScalarMultiple):
        casimirs(corrupted)


def test_pseudospin_vectors_exact():
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(BASIS[:, 0], np.array([-1j, 0, 1, 0]) * s, atol=1e-15)
    assert np.allclose(BASIS[:, 1], np.array([0, -1j, 0, -1]) * s, atol=1e-15)
    assert np.allclose(BASIS[:, 2], np.array([0, -1j, 0, 1]) * s, atol=1e-15)
    assert np.allclose(BASIS[:, 3], np.array([-1j, 0, -1, 0]) * s, atol=1e-15)


def test_pseudospin_gram_identity():
    gram = BASIS.conj().T @ BASIS
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-14


def test_pseudospin_simultaneous_eigenvectors():
    labels = {
        0: (+0.5, +0.5),
        1: (+0.5, -0.5),
        2: (-0.5, +0.5),
        3: (-0.5, -0.5),
    }
    for column, (left_val, right_val) in labels.items():
        vec = BASIS[:, column]
        assert np.max(np.abs(GENS[0][2] @ vec - left_val * vec)) <= 1e-14
        assert np.max(np.abs(GENS[1][2] @ vec - right_val * vec)) <= 1e-14


def test_top_state_total_z_eigenvector():
    total_z = GENS[0][2] + GENS[1][2]
    assert np.max(np.abs(total_z @ BASIS[:, 0] - BASIS[:, 0])) <= 1e-14


def test_lowering_operator_proportionality():
    lower_left = GENS[0][0] - 1j * GENS[0][1]
    image = lower_left @ BASIS[:, 0]
    overlap = abs(np.vdot(BASIS[:, 2], image))
    assert abs(overlap - np.linalg.norm(image)) <= 1e-14
    assert np.linalg.norm(image) > 0.5


def test_expand_identity_case():
    coeffs = expand(BASIS[:, 0])
    assert np.allclose(coeffs, [1, 0, 0, 0], atol=1e-15)


@pytest.mark.parametrize("phase", [0.0, 1.3, np.pi, 5.9])
def test_expand_ghz(phase):
    coeffs = expand(ghz_state(phase))
    expected = np.array([0.5j, -0.5 * np.exp(1j * phase), 0.5 * np.exp(1j * phase), 0.5j])
    assert np.max(np.abs(coeffs - expected)) <= 1e-15


def test_expand_ground_and_w():
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(expand(ggg_state()), [1j * s, 0, 0, 1j * s], atol=1e-15)
    assert np.allclose(expand(w_state()), [0, 1j * s, 1j * s, 0], atol=1e-15)


def test_generators_and_basis_are_read_only():
    gens, basis = build_generators(), pseudospin_basis()
    assert gens.shape == (2, 3, 4, 4) and basis.shape == (4, 4)
    with pytest.raises(ValueError):
        gens[0, 0, 0, 1] = 1.0
    with pytest.raises(ValueError):
        basis[0, 0] = 1.0


def test_state_factories():
    assert np.array_equal(ggg_state(), [1, 0, 0, 0])
    assert np.array_equal(w_state(), [0, 1, 0, 0])
    assert np.array_equal(wprime_state(), [0, 0, 1, 0])
    assert np.array_equal(rrr_state(), [0, 0, 0, 1])
    ghz = ghz_state(0.7)
    assert abs(ghz[0] - 1 / np.sqrt(2)) <= 1e-15
    assert abs(ghz[3] - np.exp(0.7j) / np.sqrt(2)) <= 1e-15


@given(
    st.lists(st.floats(-1, 1, allow_nan=False), min_size=8, max_size=8).filter(
        lambda v: sum(x * x for x in v) > 1e-4
    )
)
def test_expansion_preserves_norm(raw):
    vec = np.array(raw[:4]) + 1j * np.array(raw[4:])
    vec = vec / np.linalg.norm(vec)
    coeffs = expand(vec)
    assert abs(np.sum(np.abs(coeffs) ** 2) - 1.0) <= 1e-12
    rebuilt = BASIS @ coeffs
    assert np.max(np.abs(rebuilt - vec)) <= 1e-12
