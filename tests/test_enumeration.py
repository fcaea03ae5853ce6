from fractions import Fraction

import pytest

from merw.enumeration import exact_small_n_pmf, n_budget, project_pmf
from merw.params import BudgetError, ModelParams, ParameterError

from tests._oracles import brute_force_walk_pmf

P_GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
Q_GRID = (Fraction(1, 2), Fraction(7, 10))


def test_two_step_law_d1():
    pmf = exact_small_n_pmf(ModelParams(1, "3/4", "1/2"), 2)
    assert pmf == {(2,): Fraction(3, 8), (0,): Fraction(1, 4), (-2,): Fraction(3, 8)}


def test_one_step_law_is_first_step_law():
    params = ModelParams(2, "1/2", "0.7")
    pmf = exact_small_n_pmf(params, 1)
    assert pmf[(1, 0)] == Fraction(7, 10)
    assert pmf[(-1, 0)] == pmf[(0, 1)] == pmf[(0, -1)] == Fraction(1, 10)
    urn = exact_small_n_pmf(params, 1, engine="urn")
    assert urn[(1, 0, 0, 0)] == Fraction(7, 10)
    assert sum(urn.values()) == 1


def test_probabilities_sum_to_exactly_one():
    for d, n_max in ((1, 6), (2, 4)):
        for p in P_GRID:
            for q in Q_GRID:
                params = ModelParams(d, p, q)
                for n in range(1, n_max + 1):
                    for engine in ("walk", "urn"):
                        pmf = exact_small_n_pmf(params, n, engine=engine)
                        assert sum(pmf.values()) == 1
                        assert all(v >= 0 for v in pmf.values())


def test_walk_pmf_equals_projected_urn_pmf():
    for d, n_max in ((1, 6), (2, 4)):
        for p in P_GRID:
            for q in Q_GRID:
                params = ModelParams(d, p, q)
                for n in range(1, n_max + 1):
                    walk = exact_small_n_pmf(params, n, engine="walk")
                    urn = exact_small_n_pmf(params, n, engine="urn")
                    assert walk == project_pmf(urn)


def test_against_brute_force_over_histories_d1():
    # independent oracle: sum over all direction sequences with the
    # definitional remembered-time law
    for p in P_GRID:
        for q in Q_GRID:
            params = ModelParams(1, p, q)
            for n in range(1, 6):
                assert exact_small_n_pmf(params, n) == brute_force_walk_pmf(1, p, q, n)


def test_against_brute_force_over_histories_d2():
    params = ModelParams(2, Fraction(3, 5), Fraction(7, 10))
    for n in range(1, 5):
        assert exact_small_n_pmf(params, n, max_n=4) == brute_force_walk_pmf(
            2, Fraction(3, 5), Fraction(7, 10), n
        )


def test_symmetry_for_balanced_first_step_d1():
    for p in P_GRID:
        params = ModelParams(1, p, "1/2")
        for n in range(1, 7):
            pmf = exact_small_n_pmf(params, n)
            for point, prob in pmf.items():
                assert pmf[(-point[0],)] == prob


def test_support_parity_and_range():
    params = ModelParams(2, "1/2", "1/2")
    pmf = exact_small_n_pmf(params, 4)
    for point in pmf:
        l1 = sum(abs(x) for x in point)
        assert l1 <= 4 and l1 % 2 == 0


def test_budget_guard():
    assert n_budget(1) == 6 and n_budget(2) == 4 and n_budget(3) == 3
    with pytest.raises(BudgetError, match="budget"):
        exact_small_n_pmf(ModelParams(1, "1/2"), 7)
    with pytest.raises(BudgetError):
        exact_small_n_pmf(ModelParams(2, "1/2"), 5)
    # explicit override lifts it
    pmf = exact_small_n_pmf(ModelParams(1, "1/2"), 7, max_n=8)
    assert sum(pmf.values()) == 1


@pytest.mark.parametrize("n", [2.5, 2.0, True, "2"])
def test_non_integer_horizons_are_refused(n):
    with pytest.raises(ParameterError, match="n: expected an integer"):
        exact_small_n_pmf(ModelParams(1, "1/2"), n)


@pytest.mark.parametrize("max_n", [True, 2.5, 0, "8"])
def test_budget_override_must_be_a_positive_integer(max_n):
    with pytest.raises(ParameterError, match="max_n: expected an integer"):
        exact_small_n_pmf(ModelParams(1, "1/2"), 1, max_n=max_n)


def test_invalid_arguments():
    with pytest.raises(ParameterError):
        exact_small_n_pmf(ModelParams(1, "1/2"), 0)
    with pytest.raises(ParameterError):
        exact_small_n_pmf(ModelParams(1, "1/2"), 2, engine="dice")


def test_float_params_enumerate_their_exact_binary_values():
    # float 0.75 is exactly 3/4, so the float-parameter enumeration matches
    # the rational one
    assert exact_small_n_pmf(ModelParams(1, 0.75, 0.5), 3) == exact_small_n_pmf(
        ModelParams(1, "3/4", "1/2"), 3
    )
