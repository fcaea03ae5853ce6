"""Statistical verification of the limit predictions at desk scale.

Each battery runs a seeded ensemble, compares empirical moments against the
closed-form predictions and gates every comparison with an explicit
tolerance: four standard errors of the estimator, widened by a relative
floor where the prediction is only asymptotic (5% for diffusive variances,
7% for diffusive cross-time covariances, 15% at criticality where the
convergence rate is logarithmic).  Mean checks are centered at the exact
finite-time mean rather than zero: the first step favours the designated
direction, which leaves a drift of order n^(alpha - 1/2) that is resolvable
at these replica counts even though it vanishes in the limit.

Standard errors use normal-theory approximations (variance SE of
v*sqrt(2/(R-1)), covariance SE from the bivariate-normal formula), which is
adequate for the Gaussian-limit statistics under test.  Superdiffusive
checks use ratio statistics so that nothing needs to be known about the law
of the non-Gaussian limit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import theory
from .ensemble import EnsembleConfig, run_ensemble
from .params import ModelParams, ParameterError, RegimeError
from .theory import classify_regime

__all__ = [
    "CheckResult",
    "VerificationReport",
    "verify_slln",
    "verify_diffusive_clt",
    "verify_critical",
    "verify_superdiffusive",
    "verify_center_of_mass",
]

REL_FLOOR_VARIANCE = 0.05
REL_FLOOR_CROSS_TIME = 0.07
REL_FLOOR_CRITICAL = 0.15
REL_FLOOR_SUPERDIFFUSIVE = 0.10


@dataclass(frozen=True)
class CheckResult:
    """One gated comparison inside a verification battery."""

    name: str
    observed: float
    expected: float | None = None
    tolerance: float | None = None
    z: float | None = None
    passed: bool = False
    gating: bool = True
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "observed": self.observed,
            "expected": self.expected,
            "tolerance": self.tolerance,
            "z": self.z,
            "passed": self.passed,
            "gating": self.gating,
            "note": self.note,
        }


@dataclass
class VerificationReport:
    """Outcome of one battery: checks, verdict, configuration echo.

    ``runtime_seconds`` is wall-clock metadata and is excluded from
    :meth:`canonical_dict`, which is the representation used for
    bit-identical reproducibility comparisons.
    """

    theorem: str
    regime: str
    params: ModelParams
    n: int
    replicas: int
    master_seed: int
    checks: list[CheckResult]
    passed: bool
    runtime_seconds: float
    notes: list[str] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def canonical_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "regime": self.regime,
            "params": self.params.to_dict(),
            "n": self.n,
            "replicas": self.replicas,
            "master_seed": self.master_seed,
            "checks": [c.to_dict() for c in self.checks],
            "passed": self.passed,
            "notes": list(self.notes),
            "extras": self.extras,
        }

    def to_dict(self) -> dict:
        out = self.canonical_dict()
        out["runtime_seconds"] = self.runtime_seconds
        return out

    def summary_lines(self) -> list[str]:
        lines = [f"[{self.theorem}] regime={self.regime} d={self.params.d} "
                 f"p={self.params.p} n={self.n} replicas={self.replicas} "
                 f"seed={self.master_seed}"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            gate = "" if c.gating else " (diagnostic)"
            exp = "" if c.expected is None else f" expected={c.expected:.6g}"
            tol = "" if c.tolerance is None else f" tol={c.tolerance:.3g}"
            zs = "" if c.z is None else f" z={c.z:+.2f}"
            lines.append(f"  {status}{gate}: {c.name} observed={c.observed:.6g}{exp}{tol}{zs}")
        lines.append(f"  verdict: {'PASS' if self.passed else 'FAIL'} "
                     f"({self.runtime_seconds:.1f}s)")
        return lines


def _two_sided(name, expected, observed, se, rel_floor=0.0, gating=True, note="") -> CheckResult:
    tol = max(4.0 * se, rel_floor * abs(expected))
    diff = observed - expected
    z = float(diff / se) if se > 0 else None
    return CheckResult(
        name=name,
        observed=float(observed),
        expected=float(expected),
        tolerance=float(tol),
        z=z,
        passed=bool(abs(diff) <= tol),
        gating=gating,
        note=note,
    )


def _variance_se(v_emp: float, replicas: int) -> float:
    return abs(v_emp) * math.sqrt(2.0 / (replicas - 1))


def _covariance_se(v1: float, v2: float, c: float, replicas: int) -> float:
    return math.sqrt(max(v1 * v2 + c * c, 0.0) / (replicas - 1))


def _verdict(checks: Sequence[CheckResult]) -> bool:
    return all(c.passed for c in checks if c.gating)


def _require_fraction_grid(cfg: EnsembleConfig, battery: str) -> tuple[float, ...]:
    if cfg.snapshot_fractions is None:
        raise ParameterError(f"{battery} expects snapshot_fractions, not exponent_times")
    return cfg.snapshot_fractions


def _finish(theorem, regime, cfg, checks, t0, notes=None, extras=None) -> VerificationReport:
    return VerificationReport(
        theorem=theorem,
        regime=regime,
        params=cfg.params,
        n=cfg.n,
        replicas=cfg.replicas,
        master_seed=cfg.master_seed,
        checks=checks,
        passed=_verdict(checks),
        runtime_seconds=time.perf_counter() - t0,
        notes=notes or [],
        extras=extras or {},
    )


def verify_diffusive_clt(cfg: EnsembleConfig) -> VerificationReport:
    """Gaussian limit of S_{floor(sn)}/sqrt(n): variances, cross-time and
    cross-axis covariances against the diffusive kernel."""
    t0 = time.perf_counter()
    report = classify_regime(cfg.params)
    if report.regime != theory.DIFFUSIVE:
        raise RegimeError(
            f"p >= p_c = {report.p_c}: diffusive CLT out of domain (regime is {report.regime})"
        )
    fractions = _require_fraction_grid(cfg, "verify_diffusive_clt")
    summary = run_ensemble(cfg)
    params, n, R = cfg.params, cfg.n, cfg.replicas
    d = params.d
    sqrt_n = math.sqrt(n)
    checks: list[CheckResult] = []
    idx_of = {s: summary.index_of(cfg.time_of(s)) for s in fractions}
    eff = {s: cfg.time_of(s) / n for s in fractions}

    for s in fractions:
        i = idx_of[s]
        kernel = theory.diffusive_covariance(params, eff[s], eff[s])
        cov_n = summary.position_cov[i, i] / n
        drift = theory.mean_drift(params, cfg.time_of(s)) / sqrt_n
        for a in range(d):
            v_emp = cov_n[a, a]
            checks.append(_two_sided(
                f"var[s={s}, axis={a}]", kernel[a, a], v_emp,
                _variance_se(v_emp, R), REL_FLOOR_VARIANCE))
            checks.append(_two_sided(
                f"mean[s={s}, axis={a}]", drift[a],
                summary.mean_position[i, a] / sqrt_n,
                summary.mean_se[i, a] / sqrt_n,
                note="centered at the exact finite-time mean"))
        for a in range(d):
            for b in range(a + 1, d):
                c_emp = cov_n[a, b]
                checks.append(_two_sided(
                    f"cross_axis[s={s}, axes=({a},{b})]", 0.0, c_emp,
                    _covariance_se(cov_n[a, a], cov_n[b, b], c_emp, R)))

    for i_s, s in enumerate(fractions):
        for t in fractions[i_s + 1:]:
            i, j = idx_of[s], idx_of[t]
            kernel = theory.diffusive_covariance(params, eff[s], eff[t])
            cross = summary.position_cov[i, j] / n
            v_s = summary.position_cov[i, i] / n
            v_t = summary.position_cov[j, j] / n
            for a in range(d):
                checks.append(_two_sided(
                    f"cross_time[(s,t)=({s},{t}), axis={a}]", kernel[a, a], cross[a, a],
                    _covariance_se(v_s[a, a], v_t[a, a], cross[a, a], R),
                    REL_FLOOR_CROSS_TIME))
    return _finish("diffusive_clt", report.regime, cfg, checks, t0)


def verify_center_of_mass(cfg: EnsembleConfig) -> VerificationReport:
    """Gaussian limit of the center of mass G_n/sqrt(n) in the diffusive regime."""
    t0 = time.perf_counter()
    report = classify_regime(cfg.params)
    if report.regime != theory.DIFFUSIVE:
        raise RegimeError(
            f"p >= p_c = {report.p_c}: center-of-mass limit out of domain "
            f"(regime is {report.regime})"
        )
    if not cfg.track_center_of_mass:
        cfg = replace(cfg, track_center_of_mass=True)
    summary = run_ensemble(cfg)
    params, n, R = cfg.params, cfg.n, cfg.replicas
    d = params.d
    sqrt_n = math.sqrt(n)
    expected = theory.cm_covariance(params)
    drift = theory.cm_mean_drift(params, n) / sqrt_n
    cov_n = summary.cm_cov / n
    checks: list[CheckResult] = []
    for a in range(d):
        v_emp = cov_n[a, a]
        checks.append(_two_sided(
            f"cm_var[axis={a}]", expected[a, a], v_emp,
            _variance_se(v_emp, R), REL_FLOOR_VARIANCE))
        checks.append(_two_sided(
            f"cm_mean[axis={a}]", drift[a], summary.cm_mean[a] / sqrt_n,
            math.sqrt(max(cov_n[a, a], 0.0) / R),
            note="centered at the exact finite-time mean"))
    for a in range(d):
        for b in range(a + 1, d):
            c_emp = cov_n[a, b]
            checks.append(_two_sided(
                f"cm_cross_axis[axes=({a},{b})]", 0.0, c_emp,
                _covariance_se(cov_n[a, a], cov_n[b, b], c_emp, R)))
    return _finish("center_of_mass", report.regime, cfg, checks, t0)


def verify_critical(cfg: EnsembleConfig) -> VerificationReport:
    """Brownian limit at p = p_c under the sqrt(log n) normalization.

    Variances carry a 15% relative floor: the finite-size correction decays
    like 1/log(n), so tighter gates are not meaningful at desk scale.
    Increment decorrelation is gated at four standard errors only, since the
    martingale structure makes it bias-free at finite n.
    """
    t0 = time.perf_counter()
    report = classify_regime(cfg.params)
    if report.regime != theory.CRITICAL or not report.exact:
        raise RegimeError(
            f"critical verification requires p = p_c = {report.p_c} exactly "
            f"(got p = {cfg.params.p}, regime {report.regime})"
        )
    if cfg.exponent_times is None:
        raise ParameterError("verify_critical expects exponent_times, not snapshot_fractions")
    if cfg.n < 2:
        raise ParameterError(
            f"verify_critical needs n >= 2 (it normalizes by log n), got n = {cfg.n}"
        )
    summary = run_ensemble(cfg)
    params, n, R = cfg.params, cfg.n, cfg.replicas
    d = params.d
    log_n = math.log(n)
    times = [cfg.time_of(t) for t in cfg.exponent_times]
    eff = [math.log(m) / log_n for m in times]
    norms = [math.sqrt(log_n * m) for m in times]  # sqrt(log n) * n^(t_eff/2)
    checks: list[CheckResult] = []
    grid = list(cfg.exponent_times)

    for k, t in enumerate(grid):
        i = summary.index_of(times[k])
        cov_k = summary.position_cov[i, i] / norms[k] ** 2
        drift = theory.mean_drift(params, times[k]) / norms[k]
        expected_var = eff[k] / d
        for a in range(d):
            v_emp = cov_k[a, a]
            checks.append(_two_sided(
                f"var[t={t}, axis={a}]", expected_var, v_emp,
                _variance_se(v_emp, R), REL_FLOOR_CRITICAL,
                note="15% floor: convergence is logarithmic"))
            checks.append(_two_sided(
                f"mean[t={t}, axis={a}]", drift[a],
                summary.mean_position[i, a] / norms[k],
                summary.mean_se[i, a] / norms[k],
                note="centered at the exact finite-time mean"))
        for a in range(d):
            for b in range(a + 1, d):
                c_emp = cov_k[a, b]
                checks.append(_two_sided(
                    f"cross_axis[t={t}, axes=({a},{b})]", 0.0, c_emp,
                    _covariance_se(cov_k[a, a], cov_k[b, b], c_emp, R)))

    for ks in range(len(grid)):
        for kt in range(ks + 1, len(grid)):
            i, j = summary.index_of(times[ks]), summary.index_of(times[kt])
            cross = summary.position_cov[i, j] / (norms[ks] * norms[kt])
            v_s = summary.position_cov[i, i] / norms[ks] ** 2
            v_t = summary.position_cov[j, j] / norms[kt] ** 2
            for a in range(d):
                checks.append(_two_sided(
                    f"cross_time[(s,t)=({grid[ks]},{grid[kt]}), axis={a}]",
                    eff[ks] / d, cross[a, a],
                    _covariance_se(v_s[a, a], v_t[a, a], cross[a, a], R),
                    REL_FLOOR_CRITICAL))
                inc = cross[a, a] - v_s[a, a]
                v_diff = v_t[a, a] + v_s[a, a] - 2 * cross[a, a]
                checks.append(_two_sided(
                    f"increment_decorrelation[(s,t)=({grid[ks]},{grid[kt]}), axis={a}]",
                    0.0, inc, _covariance_se(v_diff, v_s[a, a], inc, R),
                    note="cov(Z_t - Z_s, Z_s); bias-free by the martingale structure"))
    notes = ["variance tolerances use a 15% relative floor (logarithmic convergence)"]
    return _finish("critical", report.regime, cfg, checks, t0, notes=notes)


def verify_superdiffusive(cfg: EnsembleConfig, epsilon: float = 0.05) -> VerificationReport:
    """Pathwise stabilization of S_n/n^alpha above criticality.

    Three statistics over a geometric snapshot ladder: (i) medians of
    consecutive increments of Z_k = S_{n_k}/n_k^alpha shrink (diagnostic
    only: no convergence rate is claimed, so the monotone trend is reported
    but not gated); (ii) second moments scale like t^(2 alpha) across the
    grid, tested as ratios so the unknown limit moment cancels; (iii) the
    limit is not degenerate at zero: most replicas keep |Z| above epsilon.
    """
    t0 = time.perf_counter()
    report = classify_regime(cfg.params)
    if report.regime != theory.SUPERDIFFUSIVE:
        raise RegimeError(
            f"p <= p_c = {report.p_c}: superdiffusive verification out of domain "
            f"(regime is {report.regime})"
        )
    fractions = _require_fraction_grid(cfg, "verify_superdiffusive")
    if len(fractions) < 3:
        raise ParameterError("superdiffusive verification needs a ladder of at least 3 snapshots")
    if not cfg.retain_positions:
        cfg = replace(cfg, retain_positions=True)
    summary = run_ensemble(cfg)
    alpha = report.alpha
    R = cfg.replicas
    times = np.array(summary.times, dtype=np.float64)
    pos = summary.positions.astype(np.float64)  # (R, T, d)
    checks: list[CheckResult] = []

    # (i) ladder increments of Z_k = S_{n_k}/n_k^alpha
    z = pos / times[None, :, None] ** alpha
    inc_norms = np.linalg.norm(np.diff(z, axis=1), axis=2)  # (R, T-1)
    medians = np.median(inc_norms, axis=0)
    ratios = medians[1:] / medians[:-1]
    checks.append(CheckResult(
        name="ladder_increment_medians_decreasing",
        observed=float(ratios.max()),
        expected=None,
        tolerance=None,
        z=None,
        passed=bool(np.all(np.diff(medians) < 0)),
        gating=False,
        note="observed = max adjacent median ratio; diagnostic only, no rate is claimed",
    ))

    # (ii) second-moment scaling via ratios against the final time
    sq = np.einsum("rtd,rtd->rt", pos, pos)  # |S_{n_k}|^2 per replica
    base = sq[:, -1]
    base_mean = base.mean()
    for t_label in fractions[:-1]:
        col = summary.index_of(cfg.time_of(t_label))
        t_eff = times[col] / times[-1]
        expected = t_eff ** (2 * alpha)
        a = sq[:, col]
        r = a.mean() / base_mean
        var_r = (
            a.var(ddof=1) - 2 * r * np.cov(a, base, ddof=1)[0, 1] + r * r * base.var(ddof=1)
        ) / base_mean**2
        se = math.sqrt(max(var_r, 0.0) / R)
        checks.append(_two_sided(
            f"second_moment_ratio[t={t_label}]", expected, r, se,
            REL_FLOOR_SUPERDIFFUSIVE,
            note="m2(t)/m2(1): the unknown limit moment cancels"))

    # (iii) non-degeneracy of the limit
    final_norm = np.linalg.norm(z[:, -1, :], axis=1)
    frac = float(np.mean(final_norm > epsilon))
    checks.append(CheckResult(
        name=f"nondegenerate_fraction[|Z| > {epsilon}]",
        observed=frac,
        expected=0.5,
        tolerance=None,
        z=None,
        passed=bool(frac > 0.5),
        gating=True,
        note="expected is a strict lower bound for the passing fraction",
    ))
    extras = {
        "ladder_times": [int(t) for t in summary.times],
        "increment_medians": [float(m) for m in medians],
        "alpha": alpha,
    }
    return _finish("superdiffusive", report.regime, cfg, checks, t0, extras=extras)


def verify_slln(cfg: EnsembleConfig, eps: float = 0.01, min_fraction: float = 0.99
                ) -> VerificationReport:
    """S_n/n -> 0 in every regime, checked along a geometric time ladder.

    Gates: the ensemble median of |S_t/t| decreases strictly along the
    ladder, and (below criticality, where the scale is known) at least
    ``min_fraction`` of the replicas end below ``eps``.  Above criticality
    the decay rate is gated instead: adjacent median ratios must stay within
    a factor two of the predicted (t'/t)^(alpha-1).
    """
    t0 = time.perf_counter()
    report = classify_regime(cfg.params)
    _require_fraction_grid(cfg, "verify_slln")
    if not cfg.retain_positions:
        cfg = replace(cfg, retain_positions=True)
    summary = run_ensemble(cfg)
    times = np.array(summary.times, dtype=np.float64)
    pos = summary.positions.astype(np.float64)
    scaled = np.linalg.norm(pos / times[None, :, None], axis=2)  # (R, T)
    medians = np.median(scaled, axis=0)
    checks: list[CheckResult] = [CheckResult(
        name="ladder_medians_decreasing",
        observed=float((medians[1:] / medians[:-1]).max()),
        expected=None,
        tolerance=None,
        z=None,
        passed=bool(np.all(np.diff(medians) < 0)),
        gating=True,
        note="observed = max adjacent median ratio of |S_t/t|",
    )]
    if report.regime == theory.SUPERDIFFUSIVE:
        for k in range(len(times) - 1):
            expected = (times[k + 1] / times[k]) ** (report.alpha - 1.0)
            observed = medians[k + 1] / medians[k]
            checks.append(CheckResult(
                name=f"ladder_decay_ratio[{int(times[k])}->{int(times[k + 1])}]",
                observed=float(observed),
                expected=float(expected),
                tolerance=float(expected),  # within a factor of two
                z=None,
                passed=bool(expected / 2.0 < observed < expected * 2.0),
                gating=True,
                note="median ratio must fall within a factor 2 of the predicted decay",
            ))
    else:
        frac = float(np.mean(scaled[:, -1] < eps))
        checks.append(CheckResult(
            name=f"final_fraction[|S_n/n| < {eps}]",
            observed=frac,
            expected=min_fraction,
            tolerance=None,
            z=None,
            passed=bool(frac >= min_fraction),
            gating=True,
            note="expected is the minimum passing fraction",
        ))
    extras = {
        "ladder_times": [int(t) for t in summary.times],
        "medians": [float(m) for m in medians],
        "alpha": report.alpha,
    }
    return _finish("slln", report.regime, cfg, checks, t0, extras=extras)
