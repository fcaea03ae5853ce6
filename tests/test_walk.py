"""The walk's law: the exact next-step law and paths of the one simulator."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from merw.ensemble import simulate_replicas
from merw.enumeration import exact_small_n_pmf
from merw.params import ModelParams, ParameterError
from merw.urn import added_colour_distribution_exact


from tests._oracles import compositions


# ---------------------------------------------------------------- first step

def test_first_step_symmetric_d1():
    # q = 1/2 at d = 1 is the symmetric case; check frequencies
    params = ModelParams(1, 0.6, 0.5)
    n_draws = 20_000
    positions, _ = simulate_replicas(params, 1, [1], master_seed=3, replicas=n_draws)
    steps = positions[:, 0, 0]
    assert set(steps.tolist()) <= {-1, 1}
    hits = int(np.sum(steps == 1))
    assert abs(hits / n_draws - 0.5) < 4 * math.sqrt(0.25 / n_draws)


# ----------------------------------------------------------------- next step
# The next-step law is the urn's added-colour law read on step counts; its
# single values are checked in tests/test_urn.py.

def test_step_law_sums_to_one_everywhere():
    # enumerate all count vectors with n <= 5 for d <= 3
    for d in (1, 2, 3):
        for p in ("1/10", "1/2", "9/10"):
            params = ModelParams(d, p)
            for n in range(1, 6):
                for counts in compositions(n, 2 * d):
                    exact = added_colour_distribution_exact(counts, params)
                    assert sum(exact) == 1
                    assert all(w >= 0 for w in exact)


def test_memory_at_one_half_is_not_uniform_for_d2():
    # only d = 1 reduces to the simple walk at p = 1/2: for d >= 2 a repeat
    # probability of 1/2 exceeds the uniform 1/(2d)
    law = added_colour_distribution_exact([1, 0, 0, 0], ModelParams(2, "1/2"))
    assert law == [Fraction(1, 2), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6)]


# ------------------------------------------------------------------- paths

def test_single_step_path():
    positions, _ = simulate_replicas(ModelParams(3, 0.4), 1, [1], master_seed=2, replicas=50)
    assert positions.shape == (50, 1, 3)
    assert np.all(np.abs(positions[:, 0, :]).sum(axis=1) == 1)


def test_empty_snapshot_list_is_valid():
    positions, _ = simulate_replicas(ModelParams(1, 0.5), 10, [], master_seed=1, replicas=2)
    assert positions.shape == (2, 0, 1)


def test_snapshots_out_of_range():
    with pytest.raises(ParameterError):
        simulate_replicas(ModelParams(1, 0.5), 10, [11], master_seed=1, replicas=2)


def test_path_determinism():
    params = ModelParams(2, 0.7, "0.6")
    a, _ = simulate_replicas(params, 200, [50, 200], master_seed=123, replicas=3)
    b, _ = simulate_replicas(params, 200, [50, 200], master_seed=123, replicas=3)
    assert np.array_equal(a, b)


def test_exact_two_step_law_d1():
    # q=1/2, p=3/4: P(S_2 = +/-2) = 3/8, P(S_2 = 0) = 1/4
    params = ModelParams(1, 0.75, 0.5)
    n_paths = 40_000
    positions, _ = simulate_replicas(params, 2, [2], master_seed=2024, replicas=n_paths)
    values = positions[:, 0, 0]
    observed = [int(np.sum(values == x)) for x in (2, 0, -2)]
    expected = [n_paths * 3 / 8, n_paths / 4, n_paths * 3 / 8]
    assert sum(observed) == n_paths
    assert stats.chisquare(observed, expected).pvalue > 0.001


def test_path_law_matches_enumeration_at_n4():
    # chi-square of 10^5 sampled paths against the exact n = 4 distribution
    params = ModelParams(1, "3/4", "1/2")
    pmf = exact_small_n_pmf(params, 4)
    n_paths = 100_000
    positions, _ = simulate_replicas(params, 4, [4], master_seed=31415, replicas=n_paths)
    values = positions[:, 0, 0]
    support = sorted(pmf)
    observed = [int(np.sum(values == k[0])) for k in support]
    expected = [float(pmf[k]) * n_paths for k in support]
    assert sum(observed) == n_paths
    assert stats.chisquare(observed, expected).pvalue > 0.001


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=3),
    p=st.floats(min_value=0.05, max_value=0.95),
    q=st.floats(min_value=0.05, max_value=0.95),
    n=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    replicas=st.integers(min_value=1, max_value=4),
)
def test_state_invariants_along_any_path(d, p, q, n, seed, replicas):
    params = ModelParams(d, p, q)
    times = np.arange(1, n + 1)
    positions, _ = simulate_replicas(params, n, times, seed, replicas)
    assert positions.shape == (replicas, n, d)
    # with the origin prepended, every step is one unit move
    path = np.concatenate([np.zeros((replicas, 1, d), dtype=np.int64), positions], axis=1)
    assert np.all(np.abs(np.diff(path, axis=1)).sum(axis=2) == 1)
    l1 = np.abs(positions).sum(axis=2)
    assert np.all(l1 <= times) and np.all((l1 - times) % 2 == 0)
