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
adequate for the Gaussian-limit statistics under test.  The diffusive CLT and
the critical Brownian limit share one check body and differ only in kernel,
time scale and normalization.  That body and the centre-of-mass battery (one
snapshot, G_n at n) build their variance, mean and cross-axis checks in one
function, and gate each family of statistics (those, cross-time covariances,
increments) as one array over snapshots, time pairs or axes, with the
:mod:`merw.theory` kernel called on the snapshots and on the time pairs;
elementwise float64 arithmetic gives the same bytes as one check at a
time.  Superdiffusive checks use ratio statistics so that nothing needs to be
known about the law of the non-Gaussian limit.  The SLLN and superdiffusive
batteries share one ladder statistic, whose ratios leave out a ladder median
of 0, and a superdiffusive second-moment ratio over a final second moment of
0 reads 0 and fails its gate, so every report is finite.

``BATTERIES`` is the one registry of the batteries: each entry names its
runner, the regime it applies to, its default shape and grid, and the
domain every runner checks its input against.  The CLI and the acceptance
suite read their battery shapes from it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import theory
from .ensemble import DEFAULT_STEP_BUDGET, EnsembleConfig, run_ensemble, simulate_replicas
from .params import ModelParams, ParameterError, RegimeError
from .theory import RegimeReport, classify_regime

__all__ = [
    "BATTERIES",
    "Battery",
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
NONDEGENERATE_EPSILON = 0.05
SLLN_MIN_FRACTION = 0.99


class CheckResult(NamedTuple):
    """One gated comparison inside a verification battery.

    An immutable named tuple, so that a battery's thousands of records are
    built in C: derive a changed record with ``_replace``.
    """

    name: str
    observed: float
    expected: float | None = None
    tolerance: float | None = None
    z: float | None = None
    passed: bool = False
    gating: bool = True
    note: str = ""

    def to_dict(self) -> dict:
        return self._asdict()


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


def _checks(names, expected, observed, se, rel_floor=0.0, note="") -> list[CheckResult]:
    """One gated comparison per name, over arrays that broadcast together, in C order.

    A comparison passes when |observed - expected| <= max(4 se, rel_floor *
    |expected|); its z is (observed - expected) / se where se > 0, else None.
    """
    expected, observed, se = (np.ravel(x) for x in np.broadcast_arrays(expected, observed, se))
    wide, floor = 4.0 * se, rel_floor * np.abs(expected)
    tol = np.where(floor > wide, floor, wide)  # Python's max(wide, floor)
    diff = observed - expected
    defined = se > 0
    z = np.divide(diff, se, out=np.zeros_like(diff), where=defined)
    passed = np.abs(diff) <= tol
    k = len(names)
    # tuple.__new__ builds each record in C; the strict zip gives every one its eight fields
    return list(map(tuple.__new__, repeat(CheckResult), zip(
        names, observed.tolist(), expected.tolist(), tol.tolist(),
        np.where(defined, z, None).tolist(), passed.tolist(), repeat(True, k), repeat(note, k),
        strict=True)))


def _variance_se(v_emp, replicas: int):
    return abs(v_emp) * math.sqrt(2.0 / (replicas - 1))


def _covariance_se(v1, v2, c, replicas: int):
    x = v1 * v2 + c * c
    return np.sqrt(np.where(x < 0.0, 0.0, x) / (replicas - 1))


def _verdict(checks: Sequence[CheckResult]) -> bool:
    return all(c.passed for c in checks if c.gating)


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


def _snapshot_checks(labels, cov, var_expected, var_floor, drift, mean, mean_se, R,
                     var_note="", prefix="") -> list[CheckResult]:
    """Per-snapshot checks: variance and mean axis by axis, then the cross-axis covariances.

    Snapshot k has the normalized (d, d) covariance ``cov[k]`` and the name
    text ``labels[k]`` before its axis, after ``prefix``; ``var_expected``,
    ``drift``, ``mean`` and ``mean_se`` are (T, d).  Only variances have a floor.
    """
    d = cov.shape[-1]
    a, b = np.triu_indices(d, 1)  # axis pairs in itertools.combinations order
    var, c_emp = np.diagonal(cov, 0, 1, 2), cov[:, a, b]
    var_checks = _checks(
        [f"{prefix}var[{label}axis={x}]" for label in labels for x in range(d)],
        var_expected, var, _variance_se(var, R), var_floor, note=var_note)
    mean_checks = _checks(
        [f"{prefix}mean[{label}axis={x}]" for label in labels for x in range(d)],
        drift, mean, mean_se, note="centered at the exact finite-time mean")
    axis_checks = _checks(
        [f"{prefix}cross_axis[{label}axes=({x},{y})]" for label in labels
         for x, y in zip(a.tolist(), b.tolist())],
        0.0, c_emp, _covariance_se(var[:, a], var[:, b], c_emp, R))
    per_axis = [c for both in zip(var_checks, mean_checks) for c in both]
    Q = len(a)
    return [c for k in range(len(labels))
            for c in per_axis[2 * d * k:2 * d * (k + 1)] + axis_checks[Q * k:Q * (k + 1)]]


def _gaussian_checks(cfg, summary, kernel, eff, mean_div, var_div, pair_div, floors,
                     var_note="", increments=False) -> list[CheckResult]:
    """Checks of a Gaussian limit whose covariance is a factor times I_d.

    Snapshot k (grid value k, summary column k) sits at effective time
    ``eff[k]``; ``kernel(params, s, t)`` is evaluated at the T snapshots and
    the time pairs i < j only, not on a full (T, T) grid.
    The mean of snapshot k is scaled by ``mean_div[k]``, its covariance by
    ``var_div[k]`` and the covariance of snapshots i < j by ``pair_div[i, j]``;
    each broadcasts to its shape.  ``floors`` are the relative floors of the
    variance and cross-time gates.  With ``increments``, each cross-time
    check is followed by one of the decorrelation of the increment from its
    start.  Every statistic is one (T, d), (T, axis pairs) or (time pairs, d)
    array; the checks come out snapshot by snapshot (:func:`_snapshot_checks`),
    then time pair by time pair, each axis by axis.
    """
    params, R, d = cfg.params, cfg.replicas, cfg.params.d
    key = "s" if cfg.snapshot_fractions is not None else "t"
    grid = cfg.snapshot_fractions if key == "s" else cfg.exponent_times
    T = len(grid)
    var_floor, cross_floor = floors
    snap, axis = np.arange(T), np.arange(d)
    i, j = np.triu_indices(T, 1)  # time pairs in itertools.combinations order
    eff = np.asarray(eff, dtype=np.float64)
    mean_div = np.broadcast_to(mean_div, (T,))[:, None]
    cov = summary.position_cov
    cov_k = cov[snap, snap] / np.broadcast_to(var_div, (T,))[:, None, None]
    var = cov_k[:, axis, axis]
    cross = cov[i, j][:, axis, axis] / np.broadcast_to(pair_div, (T, T))[i, j][:, None]
    v_s, v_t = var[i], var[j]

    text = [str(g) for g in grid]  # as an f-string formats them, once per value
    pairs = [f"(s,t)=({text[x]},{text[y]})" for x, y in zip(i.tolist(), j.tolist())]
    snapshot_checks = _snapshot_checks(
        [f"{key}={g}, " for g in text], cov_k, kernel(params, eff, eff)[:, axis, axis],
        var_floor, theory.mean_drift(params, summary.times) / mean_div,
        summary.mean_position / mean_div, summary.mean_se / mean_div, R, var_note=var_note)
    time_checks = _checks(
        [f"cross_time[{pair}, axis={x}]" for pair in pairs for x in range(d)],
        kernel(params, eff[i], eff[j])[:, axis, axis], cross, _covariance_se(v_s, v_t, cross, R),
        cross_floor)
    if increments:
        inc = cross - v_s
        v_diff = v_t + v_s - 2 * cross
        inc_checks = _checks(
            [f"increment_decorrelation[{pair}, axis={x}]" for pair in pairs for x in range(d)],
            0.0, inc, _covariance_se(v_diff, v_s, inc, R),
            note="cov(Z_t - Z_s, Z_s); of order 1/s at finite n, 0 in the limit")
        time_checks = [c for both in zip(time_checks, inc_checks) for c in both]
    return snapshot_checks + time_checks


def _median_ratios(medians: np.ndarray) -> tuple[np.ndarray, str]:
    """Ratios of adjacent ladder medians, later over earlier, and a note on the undefined ones.

    A pair whose earlier median is 0 has no ratio: it reads 0.0, which no
    maximum of the ratios (all >= 0) picks up, and its gate fails on its own
    terms.  The note counts such pairs, and is empty when there are none.
    """
    earlier = medians[:-1]
    defined = earlier != 0
    ratios = np.divide(medians[1:], earlier, out=np.zeros(len(earlier)), where=defined)
    undefined = len(earlier) - int(np.count_nonzero(defined))
    note = f"; {undefined} pair(s) with an earlier median of 0 have no ratio" if undefined else ""
    return ratios, note


def _ladder(values: np.ndarray, name: str, gating: bool, note: str
            ) -> tuple[CheckResult, np.ndarray, np.ndarray]:
    """The check that the medians of (R, T) ``values`` fall along the ladder.

    It observes the largest adjacent median ratio (see :func:`_median_ratios`)
    and passes when the medians decrease strictly.  Returns the check, the T
    medians and the T - 1 ratios.
    """
    medians = np.median(values, axis=0)
    ratios, undefined = _median_ratios(medians)
    check = CheckResult(name, float(ratios.max()), passed=bool(np.all(np.diff(medians) < 0)),
                        gating=gating, note=note + undefined)
    return check, medians, ratios


def verify_diffusive_clt(cfg: EnsembleConfig) -> VerificationReport:
    """Gaussian limit of S_{floor(sn)}/sqrt(n): variances, cross-time and
    cross-axis covariances against the diffusive kernel."""
    t0 = time.perf_counter()
    report = BATTERIES["clt"].check(cfg)
    summary = run_ensemble(cfg)
    n = cfg.n
    checks = _gaussian_checks(
        cfg, summary, theory.diffusive_covariance,
        eff=[m / n for m in summary.times],
        mean_div=math.sqrt(n),
        var_div=n,
        pair_div=n,
        floors=(REL_FLOOR_VARIANCE, REL_FLOOR_CROSS_TIME),
    )
    return _finish("diffusive_clt", report.regime, cfg, checks, t0)


def verify_center_of_mass(cfg: EnsembleConfig) -> VerificationReport:
    """Gaussian limit of the center of mass G_n/sqrt(n) in the diffusive regime.

    G_n is taken at n, simulated here; the snapshot grid is checked but not read."""
    t0 = time.perf_counter()
    report = BATTERIES["cm"].check(cfg)
    params, n, R = cfg.params, cfg.n, cfg.replicas
    _, sums = simulate_replicas(params, n, (), cfg.master_seed, R, track_center_of_mass=True)
    g = sums / n
    g_mean = g.mean(axis=0)
    centered = g - g_mean
    cov_n = centered.T @ centered / (R - 1) / n
    sqrt_n = math.sqrt(n)
    checks = _snapshot_checks(
        [""], cov_n[None], np.diagonal(theory.cm_covariance(params))[None], REL_FLOOR_VARIANCE,
        theory.cm_mean_drift(params, n)[None] / sqrt_n, g_mean[None] / sqrt_n,
        np.sqrt(np.maximum(np.diagonal(cov_n), 0.0) / R)[None], R, prefix="cm_")
    return _finish("center_of_mass", report.regime, cfg, checks, t0)


def verify_critical(cfg: EnsembleConfig) -> VerificationReport:
    """Brownian limit at p = p_c under the sqrt(log n) normalization.

    Variances carry a 15% relative floor: the finite-size correction decays
    like 1/log(n), so tighter gates are not meaningful at desk scale.
    Increment decorrelation is gated at four standard errors with no floor.
    It is not bias-free at finite n: only S_t/gamma_t, gamma_t = prod_{k<t}
    (1 + 1/(2k)), is an exact martingale, so the sqrt(t)-normalised increment
    covariance is V(s)/s * (gamma_t/gamma_s * sqrt(s/t) - 1), of order 1/s
    (1.2e-3 V(s)/s at (s, t) = (100, 10^4), 1.1e-2 V(s)/s at (10, 100)).
    """
    t0 = time.perf_counter()
    report = BATTERIES["critical"].check(cfg)
    summary = run_ensemble(cfg)
    log_n = math.log(cfg.n)
    norms = [math.sqrt(log_n * m) for m in summary.times]  # sqrt(log n) * n^(t_eff/2)
    checks = _gaussian_checks(
        cfg, summary, theory.critical_covariance,
        eff=[math.log(m) / log_n for m in summary.times],
        mean_div=norms,
        var_div=[x ** 2 for x in norms],
        pair_div=np.outer(norms, norms),
        floors=(REL_FLOOR_CRITICAL, REL_FLOOR_CRITICAL),
        var_note="15% floor: convergence is logarithmic",
        increments=True,
    )
    notes = ["variance tolerances use a 15% relative floor (logarithmic convergence)"]
    return _finish("critical", report.regime, cfg, checks, t0, notes=notes)


def verify_superdiffusive(cfg: EnsembleConfig) -> VerificationReport:
    """Pathwise stabilization of S_n/n^alpha above criticality.

    Three statistics over a geometric snapshot ladder: (i) medians of
    consecutive increments of Z_k = S_{n_k}/n_k^alpha shrink (diagnostic
    only: no convergence rate is claimed, so the monotone trend is reported
    but not gated); (ii) second moments scale like t^(2 alpha) across the
    grid, tested as ratios so the unknown limit moment cancels; (iii) the
    limit is not degenerate at zero: most replicas keep |Z| above
    ``NONDEGENERATE_EPSILON``.
    """
    t0 = time.perf_counter()
    report = BATTERIES["superdiffusive"].check(cfg)
    summary = run_ensemble(cfg)
    alpha = report.alpha
    R = cfg.replicas
    times = np.array(summary.times, dtype=np.float64)
    pos = summary.positions.astype(np.float64)  # (R, T, d)

    # (i) ladder increments of Z_k = S_{n_k}/n_k^alpha
    z = pos / times[None, :, None] ** alpha
    ladder, medians, _ = _ladder(
        np.linalg.norm(np.diff(z, axis=1), axis=2), "ladder_increment_medians_decreasing",
        gating=False,
        note="observed = max adjacent median ratio; diagnostic only, no rate is claimed")
    checks = [ladder]

    # (ii) second-moment scaling via ratios against the final time
    sq = np.einsum("rtd,rtd->rt", pos, pos)  # |S_{n_k}|^2 per replica
    base = sq[:, -1]
    base_mean = base.mean()
    # where every replica ends at the origin there is no ratio: it reads 0 and fails its gate
    no_ratio = "" if base_mean else "; m2(1) is 0, so there is no ratio"
    for col, t_label in enumerate(cfg.snapshot_fractions[:-1]):
        t_eff = times[col] / times[-1]
        expected = t_eff ** (2 * alpha)
        a = sq[:, col]
        r = se = 0.0
        if base_mean:
            r = a.mean() / base_mean
            var_r = (
                a.var(ddof=1) - 2 * r * np.cov(a, base, ddof=1)[0, 1] + r * r * base.var(ddof=1)
            ) / base_mean**2
            se = math.sqrt(max(var_r, 0.0) / R)
        checks += _checks(
            [f"second_moment_ratio[t={t_label}]"], expected, r, se, REL_FLOOR_SUPERDIFFUSIVE,
            note="m2(t)/m2(1): the unknown limit moment cancels" + no_ratio)

    # (iii) non-degeneracy of the limit
    final_norm = np.linalg.norm(z[:, -1, :], axis=1)
    frac = float(np.mean(final_norm > NONDEGENERATE_EPSILON))
    checks.append(CheckResult(
        f"nondegenerate_fraction[|Z| > {NONDEGENERATE_EPSILON}]", frac, 0.5,
        passed=bool(frac > 0.5), note="expected is a strict lower bound for the passing fraction"))
    extras = {
        "ladder_times": [int(t) for t in summary.times],
        "increment_medians": [float(m) for m in medians],
        "alpha": alpha,
    }
    return _finish("superdiffusive", report.regime, cfg, checks, t0, extras=extras)


def verify_slln(cfg: EnsembleConfig, eps: float = 0.01) -> VerificationReport:
    """S_n/n -> 0 in every regime, checked along a geometric time ladder.

    Gates: the ensemble median of |S_t/t| decreases strictly along the
    ladder, and (below criticality, where the scale is known) at least
    ``SLLN_MIN_FRACTION`` of the replicas end below ``eps``.  Above criticality
    the decay rate is gated instead: adjacent median ratios must stay within
    a factor two of the predicted (t'/t)^(alpha-1).  ``eps`` must be positive
    and finite.
    """
    if not 0.0 < eps < math.inf:  # nan or eps <= 0 always fails the gate, inf always passes
        raise ParameterError(f"eps must be positive and finite, got {eps!r}")
    t0 = time.perf_counter()
    report = BATTERIES["slln"].check(cfg)
    summary = run_ensemble(cfg)
    times = np.array(summary.times, dtype=np.float64)
    pos = summary.positions.astype(np.float64)
    scaled = np.linalg.norm(pos / times[None, :, None], axis=2)  # (R, T)
    ladder, medians, ratios = _ladder(scaled, "ladder_medians_decreasing", gating=True,
                                      note="observed = max adjacent median ratio of |S_t/t|")
    checks = [ladder]
    if report.regime == theory.SUPERDIFFUSIVE:
        for k, observed in enumerate(ratios):
            expected = (times[k + 1] / times[k]) ** (report.alpha - 1.0)
            checks.append(CheckResult(
                f"ladder_decay_ratio[{int(times[k])}->{int(times[k + 1])}]", float(observed),
                float(expected), float(expected),  # tolerance: within a factor of two
                passed=bool(expected / 2.0 < observed < expected * 2.0),
                note="median ratio must fall within a factor 2 of the predicted decay"
                + ("" if medians[k] else "; the earlier median is 0, so there is no ratio")))
    else:
        frac = float(np.mean(scaled[:, -1] < eps))
        checks.append(CheckResult(
            f"final_fraction[|S_n/n| < {eps}]", frac, SLLN_MIN_FRACTION,
            passed=bool(frac >= SLLN_MIN_FRACTION), note="expected is the minimum passing fraction"))
    extras = {
        "ladder_times": [int(t) for t in summary.times],
        "medians": [float(m) for m in medians],
        "alpha": report.alpha,
    }
    return _finish("slln", report.regime, cfg, checks, t0, extras=extras)


#: Why parameters fall outside a battery's regime, by that regime.
_OUTSIDE = {
    theory.DIFFUSIVE: "p >= p_c = {p_c}: {name} is out of domain",
    theory.CRITICAL: "{name} requires p = p_c = {p_c} exactly",
    theory.SUPERDIFFUSIVE: "p <= p_c = {p_c}: {name} is out of domain",
}


@dataclass(frozen=True)
class Battery:
    """One verification battery: its runner, its domain and its default shape.

    ``regime`` is the regime the battery applies to: None for every regime,
    and :data:`theory.CRITICAL` means exactly critical
    (``RegimeReport.exact``).  ``grid`` is the default snapshot grid, read as
    the :class:`EnsembleConfig` field ``kind`` (fractions of n or exponents of
    n); the battery needs at least ``min_times`` snapshot times, and times >=
    2 on an exponent grid, which is normalized by log n.
    """

    runner: Callable[[EnsembleConfig], VerificationReport]
    regime: str | None
    n: int
    replicas: int
    grid: tuple[float, ...]
    kind: str = "snapshot_fractions"
    min_times: int = 1

    def applies(self, params: ModelParams) -> bool:
        """Whether the battery's limit theorem covers these parameters."""
        report = classify_regime(params)
        return self.regime is None or (report.regime == self.regime and report.exact)

    def check(self, cfg: EnsembleConfig) -> RegimeReport:
        """Raise unless ``cfg`` lies in the battery's domain; return its regime report."""
        name = self.runner.__name__
        report = classify_regime(cfg.params)
        if not self.applies(cfg.params):
            raise RegimeError(
                _OUTSIDE[self.regime].format(name=name, p_c=report.p_c)
                + f" (got p = {cfg.params.p}, regime {report.regime})"
            )
        grid = getattr(cfg, self.kind)
        if grid is None:
            raise ParameterError(f"{name} expects a grid of {self.kind}")
        if len(grid) < self.min_times:
            raise ParameterError(
                f"{name} needs a ladder of at least {self.min_times} snapshot times, "
                f"got {len(grid)}"
            )
        if self.kind == "exponent_times" and cfg.snapshot_times()[0] < 2:
            raise ParameterError(
                f"{name} needs n >= 2 and snapshot times >= 2 (it normalizes by log n, "
                f"and time 1 sits at log-time 0, where the limit has no variance), "
                f"got n = {cfg.n}, times {cfg.snapshot_times()}"
            )
        return report

    def config(self, params: ModelParams, seed: int, n: int | None = None,
               replicas: int | None = None, snapshot_fractions=None, exponent_times=None,
               step_budget: int = DEFAULT_STEP_BUDGET) -> EnsembleConfig:
        """The battery's ensemble, at its default shape unless overridden, checked.

        Without a grid of either kind the battery's default grid is used.
        """
        grid = {"snapshot_fractions": snapshot_fractions, "exponent_times": exponent_times}
        if snapshot_fractions is None and exponent_times is None:
            grid[self.kind] = self.grid
        cfg = EnsembleConfig(
            params=params,
            replicas=self.replicas if replicas is None else replicas,
            master_seed=seed,
            n=self.n if n is None else n,
            step_budget=step_budget,
            **grid,
        )
        self.check(cfg)
        return cfg


#: Every battery by name, in the order ``merw verify all`` runs them.
BATTERIES = {
    "slln": Battery(verify_slln, None, 1_000_000, 100, (1e-3, 1e-2, 1e-1, 1.0), min_times=2),
    "clt": Battery(verify_diffusive_clt, theory.DIFFUSIVE, 10_000, 10_000, (0.5, 1.0)),
    "cm": Battery(verify_center_of_mass, theory.DIFFUSIVE, 10_000, 10_000, (1.0,)),
    "critical": Battery(verify_critical, theory.CRITICAL, 10_000, 10_000, (1.0,),
                        kind="exponent_times"),
    "superdiffusive": Battery(verify_superdiffusive, theory.SUPERDIFFUSIVE, 128_000, 1_000,
                              tuple(2.0**-k for k in range(7, -1, -1)), min_times=3),
}
