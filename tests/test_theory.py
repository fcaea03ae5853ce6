import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from merw import theory
from merw.params import ModelParams, ParameterError, RegimeError
from merw.theory import (
    CRITICAL,
    DIFFUSIVE,
    SUPERDIFFUSIVE,
    classify_regime,
    cm_covariance,
    cm_mean_drift,
    critical_covariance,
    critical_memory,
    diffusive_covariance,
    mean_drift,
    memory_exponent,
)
from merw.urn import second_eigenvalue

from tests._oracles import exact_moments, first_step_mean, gamma_sums, pairing, urn_covariance


# -------------------------------------------------------------------- regime

def test_critical_memory_values():
    assert critical_memory(1) == Fraction(3, 4)
    assert critical_memory(2) == Fraction(5, 8)
    assert critical_memory(3) == Fraction(7, 12)


def test_critical_memory_decreases_to_one_half():
    values = [critical_memory(d) for d in range(1, 200)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] > Fraction(1, 2)
    assert float(values[-1]) == pytest.approx(0.5, abs=2e-3)


def test_classify_exact_rational():
    report = classify_regime(ModelParams(1, "3/4"))
    assert report.regime == CRITICAL and report.exact
    assert report.p_c == Fraction(3, 4)
    assert report.alpha == pytest.approx(0.5)


def test_classify_dyadic_float_is_exactly_critical():
    # 0.75 and 0.625 are exact binary fractions, so float input is enough
    assert classify_regime(ModelParams(1, 0.75)).exact
    report = classify_regime(ModelParams(2, 0.625))
    assert report.regime == CRITICAL and report.exact


def test_classify_float_band():
    report = classify_regime(ModelParams(2, 0.625 + 2e-13))
    assert report.regime == CRITICAL and not report.exact
    # a rational off by the same amount is NOT critical
    off = Fraction(5, 8) + Fraction(1, 10**13)
    assert classify_regime(ModelParams(2, off)).regime == SUPERDIFFUSIVE


def test_classify_trichotomy():
    for d in (1, 2, 3):
        p_c = critical_memory(d)
        assert classify_regime(ModelParams(d, p_c - Fraction(1, 100))).regime == DIFFUSIVE
        assert classify_regime(ModelParams(d, p_c)).regime == CRITICAL
        assert classify_regime(ModelParams(d, p_c + Fraction(1, 100))).regime == SUPERDIFFUSIVE


def test_alpha_at_criticality_is_exactly_one_half():
    for d in (1, 2, 3, 7):
        params = ModelParams(d, critical_memory(d))
        assert second_eigenvalue(d, params.p_as_fraction()) == Fraction(1, 2)


def test_alpha_can_be_negative():
    # p < 1/(2d) makes the walk antipersistent
    assert memory_exponent(ModelParams(2, 0.1)) < 0


# --------------------------------------------------------- diffusive kernel

def test_diffusive_kernel_d1_simple_walk_scale():
    params = ModelParams(1, 0.5)
    np.testing.assert_allclose(diffusive_covariance(params, 1, 1), [[1.0]])


def test_diffusive_kernel_d2_prefactor():
    params = ModelParams(2, 0.5)
    np.testing.assert_allclose(diffusive_covariance(params, 1, 1), 1.5 * np.eye(2))


def test_diffusive_kernel_equal_times():
    params = ModelParams(3, 0.3)
    pref = (2 * 3 - 1) / (3 * (1 + 6 - 12 * 0.3))
    np.testing.assert_allclose(
        diffusive_covariance(params, 0.4, 0.4), pref * 0.4 * np.eye(3)
    )


def test_diffusive_kernel_symmetric_in_times():
    params = ModelParams(2, 0.4)
    np.testing.assert_array_equal(
        diffusive_covariance(params, 0.3, 0.9), diffusive_covariance(params, 0.9, 0.3)
    )


def test_diffusive_kernel_domain_errors():
    with pytest.raises(RegimeError, match="diffusive"):
        diffusive_covariance(ModelParams(1, "3/4"), 1, 1)
    with pytest.raises(RegimeError):
        diffusive_covariance(ModelParams(1, 0.9), 1, 1)
    with pytest.raises(ValueError):
        diffusive_covariance(ModelParams(1, 0.5), 0, 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_kernels_refuse_non_finite_times(bad):
    kernels = [
        (diffusive_covariance, ModelParams(1, "1/2")),
        (critical_covariance, ModelParams(1, "3/4")),
    ]
    for kernel, params in kernels:
        for s, t in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError, match="positive and finite"):
                kernel(params, s, t)


def test_kernels_refuse_bad_times_with_a_parameter_error():
    kernels = [
        (diffusive_covariance, ModelParams(1, "1/2")),
        (critical_covariance, ModelParams(1, "3/4")),
    ]
    for kernel, params in kernels:
        for s in (0.0, -1.0, math.nan):
            with pytest.raises(ParameterError, match="positive and finite"):
                kernel(params, s, 1.0)


# ------------------------------------- walk kernels against the urn's kernel

def test_sigma_I_projects_to_walk_variance():
    for d, p in ((1, 0.5), (2, 0.5), (3, 0.2)):
        P = pairing(d)
        np.testing.assert_allclose(
            P @ urn_covariance(d, p, 1.0, 1.0) @ P.T,
            diffusive_covariance(ModelParams(d, p), 1, 1), atol=1e-12,
        )


def test_diffusive_chain_consistency():
    # s * Sigma_I * exp(log(t/s) A), pushed through the pairing map, must
    # reproduce the walk-level kernel on a (d, p, s, t) grid
    grid = np.linspace(0.1, 1.0, 10)
    for d in (1, 2, 3):
        for p in (0.2, 0.5):
            params = ModelParams(d, p)
            P = pairing(d)
            for i, s in enumerate(grid):
                t = grid[min(i + 3, len(grid) - 1)]
                walk_cov = P @ urn_covariance(d, p, s, t) @ P.T
                np.testing.assert_allclose(
                    walk_cov, diffusive_covariance(params, s, t), atol=1e-10
                )


def test_critical_chain_consistency():
    for d in (1, 2, 3):
        params = ModelParams(d, critical_memory(d))
        P = pairing(d)
        for s, t in ((0.2, 0.7), (0.5, 0.5), (1.0, 1.0)):
            urn_cov = urn_covariance(d, params.p, s, t, critical=True)
            np.testing.assert_allclose(
                P @ urn_cov @ P.T, critical_covariance(params, s, t), atol=1e-12
            )


# ----------------------------------------------------------- critical kernel

def test_critical_kernel_values():
    params = ModelParams(1, "3/4")
    np.testing.assert_allclose(critical_covariance(params, 1, 1), [[1.0]])
    params2 = ModelParams(2, "5/8")
    np.testing.assert_allclose(critical_covariance(params2, 1, 1), 0.5 * np.eye(2))


def test_critical_kernel_vanishes_at_zero():
    params = ModelParams(1, "3/4")
    np.testing.assert_allclose(critical_covariance(params, 1e-15, 1), 0, atol=1e-14)


def test_critical_kernel_uses_min_time():
    params = ModelParams(2, "5/8")
    np.testing.assert_array_equal(
        critical_covariance(params, 0.3, 0.9), critical_covariance(params, 0.9, 0.3)
    )


def test_critical_kernel_domain_error():
    with pytest.raises(RegimeError, match="critical"):
        critical_covariance(ModelParams(1, 0.5), 1, 1)


# ----------------------------------------------------------- center of mass

def test_cm_covariance_values():
    np.testing.assert_allclose(cm_covariance(ModelParams(1, 0.5)), [[1 / 3]])
    np.testing.assert_allclose(cm_covariance(ModelParams(2, 0.5)), 0.6 * np.eye(2))


def test_cm_covariance_domain_error():
    with pytest.raises(RegimeError):
        cm_covariance(ModelParams(1, "3/4"))
    with pytest.raises(RegimeError):
        cm_covariance(ModelParams(2, 0.9))


def test_cm_equals_double_integral_of_kernel():
    # 2 * int_0^1 int_0^t kernel(s, t) ds dt, evaluated by quadrature
    for d, p in ((1, 0.5), (2, 0.5), (2, 0.3), (3, 0.55)):
        params = ModelParams(d, p)
        scalar = lambda s, t: diffusive_covariance(params, s, t)[0, 0]
        value, err = integrate.dblquad(scalar, 0, 1, 0, lambda t: t, epsrel=1e-10)
        expected = cm_covariance(params)[0, 0]
        assert abs(2 * value - expected) / expected < 1e-6


# ------------------------------------------------------------------ psd

def _grid_gram(kernel, times, d):
    T = len(times)
    gram = np.zeros((T * d, T * d))
    for i, s in enumerate(times):
        for j, t in enumerate(times):
            gram[i * d:(i + 1) * d, j * d:(j + 1) * d] = kernel(s, t)
    return gram


def test_kernels_are_psd_on_finite_grids():
    times = np.linspace(0.1, 1.0, 8)
    cases = [
        (ModelParams(1, 0.5), diffusive_covariance),
        (ModelParams(2, 0.5), diffusive_covariance),
        (ModelParams(3, 0.2), diffusive_covariance),
        (ModelParams(1, "3/4"), critical_covariance),
        (ModelParams(2, "5/8"), critical_covariance),
    ]
    for params, kernel_fn in cases:
        gram = _grid_gram(lambda s, t: kernel_fn(params, s, t), times, params.d)
        np.testing.assert_allclose(gram, gram.T, atol=1e-14)
        assert np.linalg.eigvalsh(gram).min() >= -1e-10
        np.linalg.cholesky(gram + 1e-10 * np.eye(gram.shape[0]))


def _reference_factor(params, kernel, s, t):
    # the kernel's factor on I_d in Python float arithmetic, one pair at a time
    s, t = min(s, t), max(s, t)
    if kernel is critical_covariance:
        return s / params.d
    d, p = params.d, params.p
    return (2 * d - 1.0) / (d * (1.0 + 2 * d - 4 * d * p)) * s * (t / s) ** memory_exponent(params)


@pytest.mark.parametrize(
    "params, kernel",
    [
        (ModelParams(1, 0.5), diffusive_covariance),
        (ModelParams(2, "1/2"), diffusive_covariance),
        (ModelParams(3, 0.2), diffusive_covariance),
        (ModelParams(1, "3/4"), critical_covariance),
        (ModelParams(3, "7/12"), critical_covariance),
    ],
)
def test_kernel_grids_equal_the_scalar_kernels_bit_for_bit(params, kernel):
    # array calls equal per-pair scalar calls, over unsorted times and a repeated time
    times = [0.37, 0.01, 1.0, 0.5, 0.37, 0.123456789, 0.99]
    got = kernel(params, np.array(times)[:, None], np.array(times)[None, :])
    assert got.shape == (len(times), len(times), params.d, params.d)
    want = [[(_reference_factor(params, kernel, s, t) * np.eye(params.d)).tolist() for t in times]
            for s in times]
    assert got.tolist() == want
    assert [[kernel(params, s, t).tolist() for t in times] for s in times] == want
    assert kernel(params, times, times).tolist() == [kernel(params, t, t).tolist() for t in times]


def test_kernel_grids_refuse_bad_times_and_regimes():
    for bad in ([0.5, 0.0], [np.nan, 1.0], [1.0, np.inf]):
        with pytest.raises(ValueError):
            diffusive_covariance(ModelParams(1, 0.5), bad, bad)
    with pytest.raises(RegimeError):
        diffusive_covariance(ModelParams(1, "3/4"), [0.5, 1.0], [0.5, 1.0])
    with pytest.raises(RegimeError):
        critical_covariance(ModelParams(1, 0.5), [0.5, 1.0], [0.5, 1.0])


# ------------------------------------------------------------------ drifts

def test_mean_drift_matches_moment_recursion():
    for d, p, q, n in ((2, 0.6, 0.7, 400), (1, 0.9, 0.3, 250), (3, 0.3, 0.5, 150)):
        res = exact_moments(d, p, q, n, times={n})
        xbar, _ = res["recorded"][n]
        expected = pairing(d) @ xbar
        np.testing.assert_allclose(
            mean_drift(ModelParams(d, p, q), [n])[0], expected, rtol=1e-9, atol=1e-12
        )


def test_mean_drift_first_step():
    params = ModelParams(2, 0.5, "0.7")
    np.testing.assert_allclose(mean_drift(params, [1]), [[0.7 - 0.1, 0.0]])


def test_cm_mean_drift_matches_moment_recursion():
    for d, p, q, n in ((1, 0.5, 0.7, 300), (2, 0.6, 0.5, 200)):
        res = exact_moments(d, p, q, n, times={n}, track_sum=True)
        expected = pairing(d) @ res["T"] / n
        np.testing.assert_allclose(
            cm_mean_drift(ModelParams(d, p, q), n), expected, rtol=1e-9, atol=1e-12
        )


@pytest.mark.parametrize("p", ["1e-17", "1/100000000000000000"])
def test_drifts_agree_where_alpha_rounds_to_minus_one(p):
    # at d = 1, 2p - 1 is -1.0 in floating point: E[S_n] = 0 from n = 2 on
    params = ModelParams(1, p, 0.7)
    assert 1.0 + memory_exponent(params) == 0.0
    n = 5
    drifts = mean_drift(params, range(1, n + 1))
    np.testing.assert_allclose(drifts[0], [0.7 - 0.3])
    np.testing.assert_array_equal(drifts[1:], np.zeros((n - 1, 1)))
    np.testing.assert_allclose(cm_mean_drift(params, n), np.mean(drifts, axis=0))


# (d, p, q) over the three regimes at d = 1-3, mostly with q != 1/2, and at d = 1,
# p = 1/4 (alpha = -1/2)
MEAN_CASES = [
    (1, "1/4", "7/10"), (1, "3/10", "3/10"), (1, "3/4", "7/10"), (1, "9/10", "3/10"),
    (2, "3/10", "7/10"), (2, "5/8", "3/10"), (2, "9/10", "3/5"),
    (3, "3/10", "3/5"), (3, "7/12", "1/2"), (3, "9/10", "7/10"),
]


@pytest.mark.parametrize("d, p, q", MEAN_CASES)
def test_means_match_decimal_recursion(d, p, q, monkeypatch):
    # E[S_t] = gamma_t E[S_1] and E[G_t] = sum_{s<=t} gamma_s E[S_1] / t to 1e-13 relative,
    # with times on both sides of the scan's first two block edges, at its own block size
    # and at two smaller ones that put several edges below t = 10^4
    params = ModelParams(d, p, q)
    first = pairing(d) @ first_step_mean(d, float(Fraction(q)))
    blocks = (theory._SCAN_STEPS, 1000, 7)
    grids = [sorted(t for t in {1, 2, 3, b, b + 1, b + 2, b + 3, 2 * b + 1, 2 * b + 2, 5000, 10**4}
                    if t <= max(b + 3, 10**4)) for b in blocks]
    exact = gamma_sums(d, Fraction(p), set().union(*grids))
    for block, times in zip(blocks, grids):
        monkeypatch.setattr(theory, "_SCAN_STEPS", block)
        gamma = np.array([exact[t][0] for t in times])
        np.testing.assert_allclose(mean_drift(params, times), gamma[:, None] * first, rtol=1e-13)
        for t in times:
            np.testing.assert_allclose(cm_mean_drift(params, t), exact[t][1] / t * first,
                                       rtol=1e-13)


@pytest.mark.parametrize("n", [
    2.5, 2.0, True, 0, "3",
    pytest.param([], id="no-times"), pytest.param([1, 2.5], id="non-integer-time"),
    pytest.param([0, 3], id="time-below-1"), pytest.param([3, 2], id="decreasing-times"),
    pytest.param([2, 2], id="repeated-time"),
])
def test_drifts_refuse_non_integer_horizons(n):
    # a scalar is a horizon for both drifts; a list is a time sequence for mean_drift alone
    params = ModelParams(2, 0.6, 0.7)
    with pytest.raises(ParameterError, match="times: expected"):
        mean_drift(params, n if isinstance(n, list) else [n])
    if not isinstance(n, list):
        with pytest.raises(ParameterError, match="n: expected an integer"):
            cm_mean_drift(params, n)


@pytest.mark.parametrize("times", [5, None, 2.5, "35"])
def test_mean_drift_refuses_times_that_are_no_sequence(times):
    with pytest.raises(ParameterError, match="^times: expected a sequence"):
        mean_drift(ModelParams(2, 0.6, 0.7), times)


# ------------------------------------------------------------- public names

def test_public_names_resolve_and_the_covariance_spec_is_gone():
    import merw
    import merw.theory

    assert all(hasattr(merw, name) for name in merw.__all__)
    for name in ("covariance_spec", "CovarianceSpec", "diffusive_covariance_grid",
                 "critical_covariance_grid"):
        assert name not in merw.__all__
        assert not hasattr(merw, name)
        assert not hasattr(merw.theory, name)


def test_every_src_definition_is_used_or_exported():
    # a top-level function or class that no src code names and merw does not
    # export is code that only tests can reach: it belongs in tests/_oracles.py
    import merw
    import merw.theory
    import merw.urn

    defined, used = {}, set()
    for path in sorted(Path(merw.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(f"{module}:{name}" for name, module in defined.items()
                    if name not in used and name not in merw.__all__)
    assert unused == []
    for name in ("_centring", "sigma_I", "matrix_exponential_factor", "urn_diffusive_covariance",
                 "urn_critical_covariance", "memory_exponent_exact", "pairing_matrix",
                 "lambda2_eigenspace_basis"):
        for module in (merw, merw.theory, merw.urn):
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_every_src_keyword_parameter_is_passed():
    # a parameter with a default that no src call passes, by keyword or by position,
    # only ever takes its default in src; the public API (merw.__all__), the console
    # script's cli.main and the KeySeed.generate_state that numpy calls are exempt
    import merw

    defs, calls = [], []

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((module, owner, child))
                visit(child, module, child.name)
            else:
                visit(child, module, child.name if isinstance(child, ast.ClassDef) else owner)

    for path in sorted(Path(merw.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        visit(tree, path.stem, None)
        calls += [node for node in ast.walk(tree) if isinstance(node, ast.Call)]

    def called(call, fn):
        f = call.func
        return (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == fn.name

    exempt = {"cli.main", "ensemble.KeySeed.generate_state"}
    unpassed = []
    for module, owner, fn in defs:
        qualname = f"{owner}.{fn.name}" if owner else fn.name
        if {owner, fn.name} & set(merw.__all__) or f"{module}.{qualname}" in exempt:
            continue
        args = fn.args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):] + [
            arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
        # a method called through an attribute gets self or cls before its first argument
        shift = int(bool(owner) and bool(positional) and positional[0].arg in ("self", "cls"))
        for arg in defaulted:
            index = positional.index(arg) if arg in positional else math.inf
            if not any(
                any(k.arg in (arg.arg, None) for k in call.keywords)
                or len(call.args) + (shift and isinstance(call.func, ast.Attribute)) > index
                or any(isinstance(a, ast.Starred) for a in call.args)
                for call in calls if called(call, fn)
            ):
                unpassed.append(f"{module}.{qualname}: {arg.arg}")
    assert unpassed == []
