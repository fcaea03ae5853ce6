from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from merw.params import ModelParams, ParameterError, parse_probability
from merw.urn import project_counts

from tests._oracles import pairing


def test_rational_string_inputs_are_exact():
    params = ModelParams(1, "3/4", "0.7")
    assert params.p == 0.75
    assert params.p_exact == Fraction(3, 4)
    assert params.q_exact == Fraction(7, 10)


def test_fraction_inputs_are_exact():
    params = ModelParams(2, Fraction(5, 8))
    assert params.p_exact == Fraction(5, 8)
    assert params.p == 0.625


def test_float_inputs_have_no_exact_form():
    params = ModelParams(2, 0.625, 0.5)
    assert params.p_exact is None
    assert params.p_as_fraction() == Fraction(5, 8)  # 0.625 is dyadic


@pytest.mark.parametrize("bad_p", [0.0, 1.0, -0.5, 1.5, "1", "0", "2/2"])
def test_p_range_is_open(bad_p):
    with pytest.raises(ParameterError, match="p must lie"):
        ModelParams(1, bad_p)


@pytest.mark.parametrize("bad_q", [0.0, 1.0, "5/4"])
def test_q_range_is_open(bad_q):
    with pytest.raises(ParameterError, match="q must lie"):
        ModelParams(1, 0.5, bad_q)


@pytest.mark.parametrize("bad_d", [0, -1, 1.5, 2.0, "2", True])
def test_dimension_must_be_positive_integer(bad_d):
    with pytest.raises(ParameterError):
        ModelParams(bad_d, 0.5)


def test_dimension_accepts_numpy_integers_as_a_plain_int():
    params = ModelParams(np.int64(2), "1/2")
    assert params.d == 2 and type(params.d) is int


def test_unparseable_probability():
    with pytest.raises(ParameterError, match="cannot parse"):
        ModelParams(1, "three quarters")


def test_parse_probability_decimal_string_is_exact():
    value, exact = parse_probability("0.7")
    assert exact == Fraction(7, 10)
    assert value == 0.7


def test_default_q_is_half():
    assert ModelParams(3, 0.2).q == 0.5


@given(st.integers(min_value=1, max_value=8))
def test_colour_index_is_a_bijection(d):
    # one ball of each colour projects to each of the 2d signed unit vectors once
    directions = project_counts(np.eye(2 * d, dtype=np.int64))
    assert np.all(np.abs(directions).sum(axis=1) == 1)
    assert len({tuple(v) for v in directions.tolist()}) == 2 * d
    np.testing.assert_array_equal(pairing(d) @ np.eye(2 * d), directions.T)


def test_colour_pairing_convention():
    # colour 2k is +e_{k+1}, colour 2k+1 is -e_{k+1}
    directions = project_counts(np.eye(6, dtype=np.int64))
    assert directions[0].tolist() == [1, 0, 0]
    assert directions[1].tolist() == [-1, 0, 0]
    assert directions[4].tolist() == [0, 0, 1]
    assert directions[5].tolist() == [0, 0, -1]


@given(st.integers(min_value=1, max_value=1000))
def test_critical_memory_lies_in_half_to_three_quarters(d):
    from merw.theory import critical_memory

    p_c = critical_memory(d)
    assert Fraction(1, 2) < p_c <= Fraction(3, 4)
