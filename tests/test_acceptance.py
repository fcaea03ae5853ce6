"""Acceptance suite: one test per criterion, one printed pass/fail line each.

The Monte Carlo criteria (4-8) pin master seeds so that every verdict is a
deterministic function of this code; criterion 9 reruns them and demands
bit-identical reports.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from merw.enumeration import exact_small_n_pmf
from merw.montecarlo import BATTERIES
from merw.params import ModelParams
from merw.theory import (
    classify_regime,
    cm_covariance,
    critical_memory,
    diffusive_covariance,
)
from merw.urn import mean_replacement_matrix

from tests._oracles import brute_force_walk_pmf, lambda2_basis

SEED_CLT = 42
SEED_CM = 42
SEED_CRITICAL = 42
SEED_SUPER = 4242
SEED_SLLN = 99
SEED_LADDER = 7


def criterion(number: int, name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"acceptance criterion {number} ({name}) failed {detail}"


def _battery_configs():
    """Each criterion's (runner, config): the battery's registry shape at pinned seeds."""
    cases = {
        "clt": ("clt", ModelParams(2, "1/2", "1/2"), SEED_CLT),
        "cm": ("cm", ModelParams(1, "1/2", "1/2"), SEED_CM),
        "critical_d1": ("critical", ModelParams(1, "3/4", "1/2"), SEED_CRITICAL),
        "critical_d2": ("critical", ModelParams(2, "5/8", "1/2"), SEED_CRITICAL),
        "superdiffusive": ("superdiffusive", ModelParams(1, 0.9, "1/2"), SEED_SUPER),
        "slln": ("slln", ModelParams(2, "1/2", "1/2"), SEED_SLLN),
        "slln_ladder": ("slln", ModelParams(1, 0.9, "1/2"), SEED_LADDER),
    }
    return {
        name: (BATTERIES[battery].runner, BATTERIES[battery].config(params, seed))
        for name, (battery, params, seed) in cases.items()
    }


@pytest.fixture(scope="module")
def reports():
    return {name: fn(cfg) for name, (fn, cfg) in _battery_configs().items()}


def check_by_name(report, fragment):
    return [c for c in report.checks if fragment in c.name]


# 1. exact law equality: the projected urn enumeration against the walk's
#    definitional sum over step histories
def test_criterion_1_exact_law_equality():
    start = time.perf_counter()
    equal = True
    for d, n_max in ((1, 6), (2, 4)):
        for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            for q in (Fraction(1, 2), Fraction(7, 10)):
                params = ModelParams(d, p, q)
                for n in range(1, n_max + 1):
                    walk = exact_small_n_pmf(params, n)
                    equal = equal and walk == brute_force_walk_pmf(d, p, q, n)
                    equal = equal and sum(walk.values()) == 1
    elapsed = time.perf_counter() - start
    criterion(1, "exact law equality", equal and elapsed < 10,
              f"[{elapsed:.2f}s]")


# 2. spectral identities of the replacement matrix
def test_criterion_2_spectral_identities():
    start = time.perf_counter()
    worst = 0.0
    for d in range(1, 6):
        for p in (0.1, 0.5, 0.9):
            data = mean_replacement_matrix(ModelParams(d, p))
            A = data.matrix
            worst = max(worst, np.abs(A @ data.v1 - data.v1).max())
            worst = max(worst, np.abs(data.u1 @ A - data.u1).max())
            basis = lambda2_basis(d)
            worst = max(worst, np.abs(A @ basis.T - data.lambda2 * basis.T).max())
    elapsed = time.perf_counter() - start
    criterion(2, "spectral identities", worst <= 1e-12 and elapsed < 1,
              f"[max error {worst:.2e}, {elapsed:.2f}s]")


# 3. critical parameter and regime trichotomy
def test_criterion_3_critical_parameter():
    start = time.perf_counter()
    ok = critical_memory(1) == Fraction(3, 4) and critical_memory(2) == Fraction(5, 8)
    ok = ok and classify_regime(ModelParams(1, "3/4")).regime == "critical"
    ok = ok and classify_regime(ModelParams(2, "5/8")).regime == "critical"
    for d in (1, 2):
        p_c = critical_memory(d)
        grid = [Fraction(i, 101) for i in range(1, 101)] + [p_c]
        for p in grid:
            expected = ("diffusive" if p < p_c else
                        "critical" if p == p_c else "superdiffusive")
            ok = ok and classify_regime(ModelParams(d, p)).regime == expected
    elapsed = time.perf_counter() - start
    criterion(3, "critical parameter", ok and elapsed < 1, f"[{elapsed:.2f}s]")


# 4. diffusive CLT at d=2, p=1/2
def test_criterion_4_diffusive_clt(reports):
    report = reports["clt"]
    var_checks = [c for c in check_by_name(report, "var[s=1.0") ]
    ok = len(var_checks) == 2
    for c in var_checks:
        ok = ok and abs(c.observed - 1.5) / 1.5 <= 0.05
    for c in check_by_name(report, "cross_axis"):
        ok = ok and c.passed  # within 4 SE of zero
    cross = check_by_name(report, "cross_time[(s,t)=(0.5,1.0)")
    target = 0.75 * 2 ** (1.0 / 3.0)
    ok = ok and len(cross) == 2
    for c in cross:
        ok = ok and abs(c.observed - target) / target <= 0.07
    ok = ok and report.passed and report.runtime_seconds < 120
    criterion(4, "diffusive CLT", ok,
              f"[vars {[round(c.observed, 4) for c in var_checks]}, "
              f"{report.runtime_seconds:.0f}s]")


# 5. center of mass at d=1, p=1/2
def test_criterion_5_center_of_mass(reports):
    report = reports["cm"]
    var_check = check_by_name(report, "cm_var")[0]
    ok = abs(var_check.observed - 1 / 3) / (1 / 3) <= 0.05
    params = ModelParams(1, 0.5)
    kernel = lambda s, t: diffusive_covariance(params, s, t)[0, 0]
    quad, _ = integrate.dblquad(kernel, 0, 1, 0, lambda t: t, epsrel=1e-10)
    expected = cm_covariance(params)[0, 0]
    quad_ok = abs(2 * quad - expected) / expected < 1e-6
    ok = ok and quad_ok and report.passed and report.runtime_seconds < 120
    criterion(5, "center of mass", ok,
              f"[var {var_check.observed:.4f}, quadrature rel err "
              f"{abs(2 * quad - expected) / expected:.1e}, {report.runtime_seconds:.0f}s]")


# 6. critical regime at d=1 and d=2
def test_criterion_6_critical_regime(reports):
    obs = []
    ok = True
    for name, target in (("critical_d1", 1.0), ("critical_d2", 0.5)):
        report = reports[name]
        for c in check_by_name(report, "var[t=1.0"):
            ok = ok and abs(c.observed - target) / target <= 0.15
            obs.append(round(c.observed, 4))
        ok = ok and report.passed and report.runtime_seconds < 180
        ok = ok and any("15%" in note for note in report.notes)
    criterion(6, "critical regime", ok, f"[vars {obs}]")


# 7. superdiffusive regime at d=1, p=0.9
def test_criterion_7_superdiffusive(reports):
    report = reports["superdiffusive"]
    medians = report.extras["increment_medians"]
    monotone = all(b < a for a, b in zip(medians, medians[1:]))
    alpha = 0.8
    ok = monotone
    for t in (0.25, 0.5):
        c = next(c for c in report.checks if c.name == f"second_moment_ratio[t={t}]")
        ok = ok and abs(c.observed - t ** (2 * alpha)) / t ** (2 * alpha) <= 0.10
    frac = next(c for c in report.checks if "nondegenerate" in c.name)
    ok = ok and frac.observed > 0.5
    ok = ok and report.passed and report.runtime_seconds < 180
    criterion(7, "superdiffusive regime", ok,
              f"[monotone={monotone}, fraction {frac.observed:.2f}, "
              f"{report.runtime_seconds:.0f}s]")


# 8. strong law of large numbers
def test_criterion_8_slln(reports):
    report = reports["slln"]
    frac = next(c for c in report.checks if "final_fraction" in c.name)
    ok = frac.observed >= 0.99 and report.passed
    ladder = reports["slln_ladder"]
    rate = 10 ** (0.8 - 1.0)
    ratio_checks = check_by_name(ladder, "ladder_decay_ratio")
    ok = ok and len(ratio_checks) == 3
    for c in ratio_checks:
        ok = ok and rate / 2 < c.observed < rate * 2
    ok = ok and ladder.passed
    ok = ok and report.runtime_seconds + ladder.runtime_seconds < 180
    criterion(8, "strong law of large numbers", ok,
              f"[fraction {frac.observed:.2f}, decade ratios "
              f"{[round(c.observed, 3) for c in ratio_checks]}]")


# 9. determinism of the Monte Carlo criteria
def test_criterion_9_determinism(reports):
    identical = True
    for name, (fn, cfg) in _battery_configs().items():
        rerun = fn(cfg)
        a = json.dumps(reports[name].canonical_dict(), sort_keys=True)
        b = json.dumps(rerun.canonical_dict(), sort_keys=True)
        identical = identical and a == b
    criterion(9, "determinism", identical)
