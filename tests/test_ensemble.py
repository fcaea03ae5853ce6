import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from merw.ensemble import (
    EnsembleConfig,
    EnsembleSummary,
    _cross_moments,
    grid_times,
    run_ensemble,
    simulate_replicas,
)
from merw.enumeration import exact_small_n_pmf
from merw.params import BudgetError, ModelParams, ParameterError

from tests._oracles import exact_moments, pairing


def make_cfg(**overrides):
    base = dict(
        params=ModelParams(2, 0.5, 0.5),
        replicas=64,
        master_seed=7,
        n=50,
        snapshot_fractions=(0.5, 1.0),
    )
    base.update(overrides)
    return EnsembleConfig(**base)


# ------------------------------------------------------------ configuration

def test_config_rejects_single_replica():
    with pytest.raises(ParameterError, match="replicas"):
        make_cfg(replicas=1)


def test_config_requires_exactly_one_grid():
    with pytest.raises(ParameterError, match="exactly one"):
        make_cfg(exponent_times=(1.0,))
    with pytest.raises(ParameterError, match="exactly one"):
        EnsembleConfig(params=ModelParams(1, 0.5), replicas=4, master_seed=0, n=10)


def test_config_grid_validation():
    with pytest.raises(ParameterError, match="increasing"):
        make_cfg(snapshot_fractions=(1.0, 0.5))
    with pytest.raises(ParameterError, match="\\(0, 1\\]"):
        make_cfg(snapshot_fractions=(0.0, 1.0))
    with pytest.raises(ParameterError, match="must not be empty"):
        make_cfg(snapshot_fractions=())
    with pytest.raises(ParameterError, match="below 1"):
        make_cfg(snapshot_fractions=(0.001,), n=50)


@pytest.mark.parametrize("field, grid", [
    ("snapshot_fractions", 0.5), ("exponent_times", 1.0),
    ("snapshot_fractions", "0.5"), ("snapshot_fractions", "1"),  # "1" is no grid of (1.0,)
], ids=["fraction-scalar", "exponent-scalar", "fraction-string", "fraction-string-1"])
def test_config_refuses_a_scalar_or_string_grid(field, grid):
    with pytest.raises(ParameterError, match=f"^{field}: expected a sequence"):
        make_cfg(**{"snapshot_fractions": None, field: grid})


def test_grid_times_refuses_a_scalar_grid():
    with pytest.raises(ParameterError, match="^snapshot grid: expected a sequence"):
        grid_times(0.5, 10)


@pytest.mark.parametrize("items", [(None,), ("x",), ("0.5", "1"), (True,)],
                         ids=["none", "word", "strings", "bool"])
@pytest.mark.parametrize("target", ["snapshot_fractions", "exponent_times", "grid_times"])
def test_grid_items_must_be_real_numbers(target, items):
    # float() would raise a bare TypeError or ValueError on the first two and read the last two
    name = "snapshot grid" if target == "grid_times" else target
    with pytest.raises(ParameterError, match=f"^{name}: expected real numbers, got"):
        if target == "grid_times":
            grid_times(items, 10)
        else:
            make_cfg(**{"snapshot_fractions": None, target: items})


def test_grid_items_are_read_as_floats():
    cfg = make_cfg(snapshot_fractions=[Fraction(1, 2), np.int64(1)])
    assert cfg.snapshot_fractions == (0.5, 1.0)
    assert all(type(g) is float for g in cfg.snapshot_fractions)
    assert grid_times((np.float32(0.5), 1), 10) == (5, 10)


def test_config_and_summary_fields_are_pinned():
    # a new knob, or a summary field that only echoes the configuration, is a reviewed edit here
    assert [f.name for f in fields(EnsembleConfig)] == [
        "params", "replicas", "master_seed", "n", "snapshot_fractions", "exponent_times",
        "step_budget"]
    assert [f.name for f in fields(EnsembleSummary)] == [
        "times", "mean_position", "position_cov", "mean_se", "positions"]


def test_config_rejects_grid_values_with_one_time():
    with pytest.raises(ParameterError, match="0.51 and 0.55 both give time 5"):
        make_cfg(snapshot_fractions=(0.51, 0.55), n=10)
    with pytest.raises(ParameterError, match="0.5 and 0.6 both give time 3"):
        make_cfg(snapshot_fractions=None, exponent_times=(0.5, 0.6, 1.0), n=10)


def test_snapshot_times_mapping():
    cfg = make_cfg(n=1000, snapshot_fractions=(0.1, 0.5, 1.0))
    assert cfg.snapshot_times() == (100, 500, 1000)
    cfg = make_cfg(n=10_000, snapshot_fractions=None, exponent_times=(0.5, 1.0))
    assert cfg.snapshot_times() == (100, 10_000)


@pytest.mark.parametrize("n", [1000, 2**23 - 1, 10**8, 2**31 - 1])
def test_grid_times_floor_decimal_fractions_exactly(n):
    # beyond n = 2^23 a fixed 1e-9 tolerance is below one ulp of s*n, and
    # floor(0.29 * 10^8) read 28 999 999
    for k in range(1, 101):
        assert grid_times([k / 100], n) == (k * n // 100,)
    for k in range(1, 1001, 7):
        assert grid_times([k / 1000], n) == (k * n // 1000,)
    grid = (0.29, 0.57, 0.58, 1.0)
    cfg = make_cfg(n=n, replicas=2, snapshot_fractions=grid, step_budget=2**32)
    assert cfg.snapshot_times() == tuple(round(g * 100) * n // 100 for g in grid)


def test_config_rejects_horizon_beyond_int32():
    with pytest.raises(ParameterError, match="horizon"):
        make_cfg(n=2**31, step_budget=2**40)


def test_budget_guard():
    with pytest.raises(BudgetError, match="budget"):
        make_cfg(replicas=100, n=10_000, step_budget=10_000)


@pytest.mark.parametrize("budget", [float("nan"), 2.5e9, None, "10", 0, -5, True],
                         ids=["nan", "2.5e9", "None", "str", "0", "-5", "bool"])
def test_budget_must_be_a_positive_integer(budget):
    # nan would switch the guard off, and None or a string would raise TypeError
    with pytest.raises(ParameterError, match="step budget"):
        make_cfg(replicas=2, n=10, step_budget=budget)


# ------------------------------------------------------------- determinism

def test_rerun_is_bit_identical():
    cfg = make_cfg(replicas=200, n=300)
    a = run_ensemble(cfg)
    b = run_ensemble(cfg)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.position_cov, b.position_cov)
    args = cfg.params, cfg.n, cfg.snapshot_times(), cfg.master_seed, cfg.replicas
    _, sums_a = simulate_replicas(*args, track_center_of_mass=True)
    _, sums_b = simulate_replicas(*args, track_center_of_mass=True)
    assert np.array_equal(sums_a, sums_b)


def test_replica_streams_do_not_depend_on_ensemble_size():
    # replica r is keyed by (master_seed, r) alone, so growing the ensemble
    # must not disturb the existing paths
    small = run_ensemble(make_cfg(replicas=4, n=200))
    large = run_ensemble(make_cfg(replicas=16, n=200))
    assert np.array_equal(small.positions, large.positions[:4])


@pytest.mark.parametrize(
    "overrides, match",
    [
        (dict(replicas=0), "replicas"),
        (dict(n=0), "horizon"),
        (dict(master_seed=-1), "master_seed"),
        (dict(master_seed=2**64), "master_seed"),
        (dict(snapshot_times=[2.7]), "snapshot times"),
        (dict(snapshot_times=5), "snapshot times: expected a sequence"),
        # a bad seed too, so that code without the horizon check fails fast
        (dict(n=2**31, master_seed=-1), "horizon"),
    ],
    ids=["replicas-0", "n-0", "seed-negative", "seed-2^64", "time-2.7", "time-scalar", "n-2^31"],
)
def test_simulate_replicas_rejects_invalid_input(overrides, match):
    args = dict(params=ModelParams(2, "1/2"), n=10, snapshot_times=[], master_seed=1, replicas=3)
    args.update(overrides)
    with pytest.raises(ParameterError, match=match):
        simulate_replicas(**args)


# ---------------------------------------------------------------- snapshots

def test_snapshot_parity_invariant():
    positions, _ = simulate_replicas(ModelParams(2, 0.5), 10, [5, 10], master_seed=3, replicas=50)
    for i, t in enumerate((5, 10)):
        l1 = np.abs(positions[:, i, :]).sum(axis=1)
        assert np.all(l1 <= t)
        assert np.all((l1 - t) % 2 == 0)


def test_single_replica_supported_by_engine():
    positions, _ = simulate_replicas(ModelParams(1, 0.75), 100, [100], 11, 1)
    assert positions.shape == (1, 1, 1)


def test_snapshot_time_validation():
    with pytest.raises(ParameterError, match="snapshot times"):
        simulate_replicas(ModelParams(1, 0.5), 10, [0], 1, 2)
    with pytest.raises(ParameterError, match="snapshot times"):
        simulate_replicas(ModelParams(1, 0.5), 10, [11], 1, 2)


# ------------------------------------------------- agreement with the law

def test_engine_matches_exact_moments():
    # strong correctness check: empirical mean/covariance against the exact
    # moment recursion at n = 128, with an asymmetric q
    d, p, q, n, R = 2, 0.6, 0.7, 128, 20_000
    res = exact_moments(d, p, q, n, times={n // 2, n})
    P = pairing(d)
    cfg = EnsembleConfig(
        params=ModelParams(d, p, q),
        replicas=R,
        master_seed=5,
        n=n,
        snapshot_fractions=(0.5, 1.0),
    )
    summary = run_ensemble(cfg)
    for time, slot in ((n // 2, 0), (n, 1)):
        xbar, M = res["recorded"][time]
        mean_exact = P @ xbar
        cov_exact = P @ (M - np.outer(xbar, xbar)) @ P.T
        mean_emp = summary.mean_position[slot]
        cov_emp = summary.position_cov[slot, slot]
        se_mean = np.sqrt(np.diag(cov_exact) / R)
        assert np.all(np.abs(mean_emp - mean_exact) < 4 * se_mean)
        se_var = np.diag(cov_exact) * np.sqrt(2.0 / (R - 1))
        assert np.all(np.abs(np.diag(cov_emp) - np.diag(cov_exact)) < 4 * se_var)
    # cross-time covariance against the propagated second moment
    xbar_h, _ = res["recorded"][n // 2]
    xbar_n, _ = res["recorded"][n]
    cross_exact = P @ (res["cross"][n // 2] - np.outer(xbar_n, xbar_h)) @ P.T
    cross_emp = summary.position_cov[1, 0]
    v1 = np.diag(summary.position_cov[0, 0])
    v2 = np.diag(summary.position_cov[1, 1])
    se_cross = np.sqrt((v1 * v2 + np.diag(cross_exact) ** 2) / (R - 1))
    assert np.all(np.abs(np.diag(cross_emp) - np.diag(cross_exact)) < 4 * se_cross)


def test_center_of_mass_matches_exact_moments():
    d, p, q, n, R = 1, 0.5, 0.5, 64, 20_000
    res = exact_moments(d, p, q, n, times={n}, track_sum=True)
    P = pairing(d)
    g_mean_exact = (P @ res["T"]) / n
    g_cov_exact = P @ (res["Q"] - np.outer(res["T"], res["T"])) @ P.T / n**2
    _, sums = simulate_replicas(ModelParams(d, p, q), n, [n], 21, R, track_center_of_mass=True)
    g = sums / n
    g_mean = g.mean(axis=0)
    centered = g - g_mean
    g_cov = centered.T @ centered / (R - 1)
    se_mean = np.sqrt(g_cov_exact[0, 0] / R)
    assert abs(g_mean[0] - g_mean_exact[0]) < 4 * se_mean
    se_var = g_cov_exact[0, 0] * np.sqrt(2.0 / (R - 1))
    assert abs(g_cov[0, 0] - g_cov_exact[0, 0]) < 4 * se_var


def test_d1_half_memory_is_simple_walk_scale():
    # only at d = 1 does p = 1/2 give iid steps, so E|S_n|^2 = n exactly
    n, R = 1000, 5000
    positions, _ = simulate_replicas(ModelParams(1, 0.5), n, [n], 29, R)
    second_moment = float(np.mean(positions[:, 0, 0].astype(np.float64) ** 2))
    se = n * np.sqrt(2.0 / R)
    assert abs(second_moment - n) < 4 * se


def assert_sampled_law_matches_enumeration(params, n, seed, replicas):
    # empirical law of S_n from vectorized replicas against the exact
    # rational distribution
    pmf = exact_small_n_pmf(params, n)
    positions, _ = simulate_replicas(params, n, [n], master_seed=seed, replicas=replicas)
    tally = {}
    for row in positions[:, 0, :].tolist():
        tally[tuple(row)] = tally.get(tuple(row), 0) + 1
    assert set(tally) <= set(pmf)
    support = sorted(pmf)
    observed = [tally.get(k, 0) for k in support]
    expected = [float(pmf[k]) * replicas for k in support]
    assert stats.chisquare(observed, expected).pvalue > 0.001


def test_engine_law_matches_enumeration_chi_square():
    assert_sampled_law_matches_enumeration(
        ModelParams(1, "3/4", "1/2"), 4, seed=17, replicas=100_000
    )


@pytest.mark.parametrize(
    "n, seed, replicas",
    [
        pytest.param(3, 19, 50_000, id="d2-n3"),
        # n = 1 is the first-step law: +e_1 with probability q, else uniform
        pytest.param(1, 23, 100_000, id="d2-n1"),
    ],
)
def test_d2_law_matches_enumeration_chi_square(n, seed, replicas):
    assert_sampled_law_matches_enumeration(ModelParams(2, "1/2", "0.7"), n, seed, replicas)


# ---------------------------------------------------------------- summaries

def test_summary_covariance_symmetry_and_psd():
    cfg = make_cfg(replicas=500, n=400, snapshot_fractions=(0.25, 0.5, 1.0))
    summary = run_ensemble(cfg)
    cov = summary.position_cov
    T, d = len(summary.times), cfg.params.d
    grand = cov.transpose(0, 2, 1, 3).reshape(T * d, T * d)
    assert np.abs(grand - grand.T).max() <= 1e-12
    scale = max(np.abs(grand).max(), 1.0)
    assert np.linalg.eigvalsh(grand).min() >= -1e-12 * scale


def _python_cross_moments(positions):
    """sum_r x[r,t,i] x[r,s,j] in Python ints, rounded once to float64."""
    R, T, d = positions.shape
    x = positions.tolist()
    out = np.empty((T, T, d, d))
    for t, s, i, j in np.ndindex(T, T, d, d):
        out[t, s, i, j] = float(sum(x[r][t][i] * x[r][s][j] for r in range(R)))
    return out


def _near_guard(replicas, above):
    # the largest |x| with R * |x|^2 < 2^53, or the smallest past it
    peak = math.isqrt((2**53 - 1) // replicas) + above
    signs = np.array([[[1, -1], [-1, -1]], [[1, 1], [-1, 1]], [[-1, 1], [1, 1]]])
    return np.stack([signs[r % 3] * (peak - r % 2) for r in range(replicas)])


@pytest.mark.parametrize("positions", [
    pytest.param(
        simulate_replicas(ModelParams(2, "3/4"), 60, [1, 7, 30, 60], 5, 40)[0],
        id="simulated"),
    pytest.param(_near_guard(3, above=0), id="just-below-2^53"),
    pytest.param(_near_guard(3, above=1), id="just-above-2^53"),
    # far past the guard a float64 Gram product rounds most sums; int64 stays exact
    pytest.param(np.random.default_rng(11).integers(-2**27, 2**27, size=(64, 3, 2)),
                 id="far-above-2^53"),
    pytest.param(np.zeros((5, 3, 2), dtype=np.int64), id="zeros"),
])
def test_cross_moments_are_exact(positions):
    _, T, d = positions.shape
    cross = _cross_moments(positions)
    assert cross.dtype == np.float64 and cross.shape == (T, T, d, d)
    assert np.array_equal(cross, _python_cross_moments(positions))
    # the same bytes from a replica-major and an axis-major array
    axis_major = np.ascontiguousarray(positions.transpose(1, 2, 0)).transpose(2, 0, 1)
    for layout in (np.ascontiguousarray(positions), axis_major):
        assert _cross_moments(layout).tobytes() == cross.tobytes()


def test_summary_standard_errors():
    cfg = make_cfg(replicas=4000, n=100)
    summary = run_ensemble(cfg)
    expected_se = np.sqrt(
        np.einsum("ttii->ti", summary.position_cov) / cfg.replicas
    )
    np.testing.assert_allclose(summary.mean_se, expected_se)
