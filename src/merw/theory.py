"""Closed-form limit predictions: regimes, covariance kernels, drifts.

The memory parameter splits the model into three regimes around the
critical value p_c = (2d+1)/(4d).  Below it the rescaled walk converges to
a centered Gaussian process; at it a Brownian limit appears under a
logarithmic normalization; above it the walk stabilizes almost surely at
scale n^alpha with alpha = (2dp-1)/(2d-1).  All kernels here are explicit
walk-level formulas; no numerical solver is involved.  The two Gaussian walk
kernels take times that are floats or arrays broadcasting together, and
evaluate their one formula at every pair in one call.  alpha, the first-step
law and the pairing map are read from :mod:`merw.urn`; the batteries of
:mod:`merw.montecarlo` choose which kernel gates which regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .params import ModelParams, RegimeError, check_integer
from .urn import first_colour_law, project_counts, second_eigenvalue

DIFFUSIVE = "diffusive"
CRITICAL = "critical"
SUPERDIFFUSIVE = "superdiffusive"

#: Float inputs within this distance of p_c are reported as numerically critical.
CRITICAL_BAND = 1e-12


def critical_memory(d: int) -> Fraction:
    """Critical memory parameter p_c = (2d+1)/(4d) as an exact rational."""
    return Fraction(2 * d + 1, 4 * d)


def memory_exponent(params: ModelParams) -> float:
    """Second-eigenvalue exponent alpha = (2dp-1)/(2d-1)."""
    return second_eigenvalue(params.d, params.p)


@dataclass(frozen=True)
class RegimeReport:
    """Classification of (d, p) against the critical memory parameter."""

    d: int
    p: float
    p_c: Fraction
    regime: str
    alpha: float
    exact: bool  # False when criticality was decided by the float band only

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "p": self.p,
            "p_c": str(self.p_c),
            "p_c_decimal": float(self.p_c),
            "regime": self.regime,
            "alpha": self.alpha,
            "exact": self.exact,
        }


def classify_regime(params: ModelParams) -> RegimeReport:
    """Return p_c, the regime label and the exponent alpha.

    Rational inputs are compared to p_c exactly.  Floats whose exact binary
    value equals p_c (possible for dyadic p_c such as 3/4 or 5/8) are also
    exactly critical; other floats within CRITICAL_BAND of p_c are labelled
    critical with ``exact=False``.
    """
    p_c = critical_memory(params.d)
    p_frac = params.p_as_fraction()
    alpha = memory_exponent(params)
    if p_frac == p_c:
        return RegimeReport(params.d, params.p, p_c, CRITICAL, alpha, exact=True)
    if params.p_exact is None and abs(params.p - float(p_c)) < CRITICAL_BAND:
        return RegimeReport(params.d, params.p, p_c, CRITICAL, alpha, exact=False)
    regime = DIFFUSIVE if p_frac < p_c else SUPERDIFFUSIVE
    return RegimeReport(params.d, params.p, p_c, regime, alpha, exact=True)


def _require_regime(params: ModelParams, regime: str, what: str) -> RegimeReport:
    report = classify_regime(params)
    if report.regime != regime:
        raise RegimeError(
            f"{what} requires the {regime} regime, but p = {params.p} is "
            f"{report.regime} (p_c = {report.p_c} at d = {params.d})"
        )
    return report


def _ordered(s, t) -> tuple[np.ndarray, np.ndarray]:
    # each pair of times as (earlier, later), float64 arrays of the broadcast shape
    s, t = np.broadcast_arrays(np.asarray(s, dtype=np.float64), np.asarray(t, dtype=np.float64))
    if not np.all((0 < s) & (s < math.inf) & (0 < t) & (t < math.inf)):
        raise ValueError(f"times must be positive and finite, got s={s}, t={t}")
    return np.minimum(s, t), np.maximum(s, t)


def diffusive_covariance(params: ModelParams, s, t) -> np.ndarray:
    """Walk-level limit kernel in the diffusive regime.

    For 0 < s <= t this is (2d-1)/(d(1+2d-4dp)) * s * (t/s)^alpha * I_d;
    passing s > t returns the kernel at the swapped pair, i.e. the kernel is
    symmetric in its time arguments.  ``s`` and ``t`` may be floats or arrays
    that broadcast together; the result has their shape followed by (d, d).
    The prefactor has a pole at p = p_c, so the function refuses
    non-diffusive parameters.
    """
    _require_regime(params, DIFFUSIVE, "the diffusive covariance kernel")
    s, t = _ordered(s, t)
    d, p = params.d, params.p
    alpha = memory_exponent(params)
    prefactor = (2 * d - 1.0) / (d * (1.0 + 2 * d - 4 * d * p))
    # libm's pow one pair at a time, as numpy's vectorized power may round differently
    power = np.reshape([r ** alpha for r in (t / s).ravel().tolist()], s.shape)
    return (prefactor * s * power)[..., None, None] * np.eye(d)


def critical_covariance(params: ModelParams, s, t) -> np.ndarray:
    """Walk-level limit kernel at criticality: (1/d) * min(s, t) * I_d, over
    floats or broadcasting arrays as :func:`diffusive_covariance`."""
    _require_regime(params, CRITICAL, "the critical covariance kernel")
    s, _ = _ordered(s, t)
    return (s / params.d)[..., None, None] * np.eye(params.d)


def cm_covariance(params: ModelParams) -> np.ndarray:
    """Limit covariance of the rescaled center of mass G_n/sqrt(n).

    With a = (2dp-1)/(2d-1) this equals 2/(3(1-2a)(2-a)d) * I_d; the factor
    (1-2a) vanishes at criticality, so the formula is diffusive-only.
    """
    _require_regime(params, DIFFUSIVE, "the center-of-mass covariance")
    a = memory_exponent(params)
    return 2.0 / (3.0 * (1.0 - 2.0 * a) * (2.0 - a) * params.d) * np.eye(params.d)


def _first_step_mean(params: ModelParams) -> np.ndarray:
    # E[S_1]: the first colour's law pushed through the pairing map
    return project_counts(np.array(first_colour_law(params.q, params.n_colours)))


def mean_drift(params: ModelParams, n: int) -> np.ndarray:
    """Exact E[S_n]: the projected first-step mean grown along alpha.

    The projected mean is an eigenvector of the replacement dynamics for
    alpha, so E[S_n] = prod_{k=1}^{n-1} (1 + alpha/k) * E[S_1], and the
    product is Gamma(n+alpha) / (Gamma(n) Gamma(1+alpha)).
    """
    n = check_integer("n", n, 1)
    alpha = memory_exponent(params)
    if 1.0 + alpha == 0.0:  # d = 1 with 2p - 1 rounding to -1: the k = 1 factor is 0
        growth = float(n == 1)
    else:
        growth = math.exp(math.lgamma(n + alpha) - math.lgamma(n) - math.lgamma(1.0 + alpha))
    return growth * _first_step_mean(params)


def cm_mean_drift(params: ModelParams, n: int) -> np.ndarray:
    """Exact E[G_n] = (1/n) sum_k E[S_k]."""
    n = check_integer("n", n, 1)
    alpha = memory_exponent(params)
    factors = 1.0 + alpha / np.arange(1, n, dtype=np.float64)
    growth = np.concatenate(([1.0], np.cumprod(factors)))
    return float(growth.sum()) / n * _first_step_mean(params)
