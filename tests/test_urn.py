from fractions import Fraction

import numpy as np
import pytest

from merw.enumeration import step_distribution_exact
from merw.params import ModelParams, ParameterError
from merw.urn import (
    added_colour_distribution_exact,
    first_colour_law,
    lambda2_eigenspace_basis,
    mean_replacement_matrix,
    pairing_matrix,
    project_counts,
    second_eigenvalue,
)

from tests._oracles import compositions


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------- one draw

def test_urn_step_two_ball_example():
    # counts (1,0), p = 3/4: next composition (2,0) w.p. 3/4, (1,1) w.p. 1/4
    law = added_colour_distribution_exact([1, 0], ModelParams(1, 0.75))
    assert law == [Fraction(3, 4), Fraction(1, 4)]


def test_urn_step_requires_a_ball():
    with pytest.raises(ValueError, match="non-empty urn"):
        added_colour_distribution_exact([0, 0], ModelParams(1, 0.5))


@pytest.mark.parametrize("counts", [[-1, 3], [3, -1], [1.5, 1], [True, 1], [1, 1, 0]])
def test_both_laws_refuse_invalid_compositions(counts):
    params = ModelParams(1, "1/2")
    for law in (added_colour_distribution_exact, step_distribution_exact):
        with pytest.raises(ParameterError, match="colour counts"):
            law(counts, params)


def test_first_colour_law_and_second_eigenvalue_are_generic():
    # a Fraction gives exact values, a float the same expression in floats
    assert first_colour_law(Fraction(7, 10), 4) == [Fraction(7, 10)] + [Fraction(1, 10)] * 3
    assert first_colour_law(0.3, 2) == [0.3, 1 - 0.3]
    assert second_eigenvalue(2, Fraction(5, 8)) == Fraction(1, 2)
    assert second_eigenvalue(3, 0.9) == (6 * 0.9 - 1) / 5


def test_added_colour_law_uniform_composition():
    law = added_colour_distribution_exact([7] * 6, ModelParams(3, "2/5"))
    assert law == [Fraction(1, 6)] * 6


def test_added_colour_law_matches_walk_step_law():
    # the central one-step equality: for every composition the urn's added
    # colour has the same law as the walk's next direction
    for d in (1, 2, 3):
        for p in ("1/10", "1/2", "9/10"):
            params = ModelParams(d, p)
            for n in range(1, 6):
                for counts in compositions(n, 2 * d):
                    urn_law = added_colour_distribution_exact(counts, params)
                    walk_law = step_distribution_exact(counts, params)
                    assert urn_law == walk_law
                    assert sum(urn_law) == 1


def test_added_colour_example_value():
    params = ModelParams(2, "3/5")
    assert added_colour_distribution_exact([2, 1, 0, 0], params)[0] == Fraction(4, 9)


# --------------------------------------------------------------- projection

def test_projection_example():
    assert project_counts(np.array([3, 1, 2, 2], dtype=np.int64)).tolist() == [2, 0]


def test_projection_of_balanced_counts_is_zero():
    assert project_counts(np.full(4, 3, dtype=np.int64)).tolist() == [0, 0]


def test_projection_is_linear_batch():
    batch = np.array([[1, 0, 0, 2], [4, 1, 1, 1]], dtype=np.int64)
    assert project_counts(batch).tolist() == [[1, -2], [3, 0]]


def test_pairing_matrix_agrees_with_projection():
    P = pairing_matrix(3)
    counts = np.array([5, 2, 0, 1, 4, 4], dtype=np.int64)
    assert np.array_equal(P @ counts, project_counts(counts))


# ----------------------------------------------------------- spectral data

def test_replacement_matrix_d1():
    data = mean_replacement_matrix(ModelParams(1, 0.75))
    assert data.matrix.tolist() == [[0.75, 0.25], [0.25, 0.75]]
    assert data.lambda1 == 1.0
    assert data.lambda2 == pytest.approx(0.5)
    assert data.lambda2_multiplicity == 1


def test_replacement_matrix_rank_one_case():
    # p = 1/(2d) makes the matrix constant and lambda2 = 0
    d = 3
    data = mean_replacement_matrix(ModelParams(d, 1 / (2 * d)))
    assert data.lambda2 == pytest.approx(0.0)
    np.testing.assert_allclose(data.matrix, np.full((2 * d, 2 * d), 1 / (2 * d)))


def test_lambda2_eigenvector_d2():
    data = mean_replacement_matrix(ModelParams(2, 0.5))
    assert data.lambda2 == pytest.approx(1 / 3)
    x = np.array([1.0, -1.0, 0.0, 0.0])
    np.testing.assert_allclose(data.matrix @ x, x / 3, atol=1e-15)


def test_columns_sum_to_one_and_symmetry():
    for d in (1, 2, 4):
        for p in (0.1, 0.5, 0.9):
            A = mean_replacement_matrix(ModelParams(d, p)).matrix
            np.testing.assert_allclose(A.sum(axis=0), 1.0, atol=1e-12)
            assert np.array_equal(A, A.T)


def test_spectral_identities():
    for d in range(1, 6):
        for p in (0.1, 0.5, 0.9):
            data = mean_replacement_matrix(ModelParams(d, p))
            A = data.matrix
            assert np.abs(A @ data.v1 - data.lambda1 * data.v1).max() <= 1e-12
            assert np.abs(data.u1 @ A - data.lambda1 * data.u1).max() <= 1e-12
            basis = lambda2_eigenspace_basis(d)
            assert basis.shape == (2 * d - 1, 2 * d)
            residual = A @ basis.T - data.lambda2 * basis.T
            assert np.abs(residual).max() <= 1e-12


def test_any_zero_sum_vector_is_lambda2_eigenvector():
    data = mean_replacement_matrix(ModelParams(3, 0.7))
    g = rng(42)
    for _ in range(10):
        x = g.normal(size=6)
        x -= x.mean()
        np.testing.assert_allclose(data.matrix @ x, data.lambda2 * x, atol=1e-12)
