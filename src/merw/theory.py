"""Closed-form limit predictions: regimes, covariance kernels, exact means.

The memory parameter splits the model into three regimes around the
critical value p_c = (2d+1)/(4d).  Below it the rescaled walk converges to
a centered Gaussian process; at it a Brownian limit appears under a
logarithmic normalization; above it the walk stabilizes almost surely at
scale n^alpha with alpha = (2dp-1)/(2d-1).  The two Gaussian walk kernels
are explicit formulas, evaluated at every pair of broadcasting times in one
call.  E[S_t] = gamma_t E[S_1], gamma_t = prod_{k<t} (1 + alpha/k), and
E[G_n] come from one scan: a cumprod and a cumsum per fixed block of steps,
carrying gamma_t and its running sum, so memory does not grow with t.
alpha, the first-step law and the pairing map are read from :mod:`merw.urn`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .params import ModelParams, ParameterError, RegimeError, check_integer, check_sequence
from .urn import first_colour_law, project_counts, second_eigenvalue

DIFFUSIVE = "diffusive"
CRITICAL = "critical"
SUPERDIFFUSIVE = "superdiffusive"

#: Float inputs within this distance of p_c are reported as numerically critical.
CRITICAL_BAND = 1e-12
#: Steps per block of the mean scan, which holds a few blocks whatever the horizon.
_SCAN_STEPS = 1 << 14


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
        raise ParameterError(f"times must be positive and finite, got s={s}, t={t}")
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


def _mean_scan(params: ModelParams, times) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # gamma_t = prod_{k<t} (1 + alpha/k) and sum_{s<=t} gamma_s at the times, and E[S_1];
    # at alpha = -1 the k = 1 factor is 0, so gamma_t = 0 from t = 2 on
    at = np.array([check_integer("times", t, 1) for t in check_sequence("times", times)],
                  dtype=np.int64)
    if not at.size or np.any(at[1:] <= at[:-1]):
        raise ParameterError(f"times: expected a nonempty increasing sequence, got {times!r}")
    alpha, g, s = memory_exponent(params), 1.0, 1.0  # g, s: gamma and sum before the block
    gamma, total = np.ones(at.size), np.ones(at.size)  # the values at t = 1
    for lo in range(1, int(at[-1]), _SCAN_STEPS):
        block = g * np.cumprod(1.0 + alpha / np.arange(lo, min(lo + _SCAN_STEPS, at[-1])))
        sums = s + np.cumsum(block)  # block and sums hold times lo + 1 .. lo + block.size
        hit = slice(*np.searchsorted(at, [lo, lo + block.size], side="right"))
        gamma[hit], total[hit] = block[at[hit] - lo - 1], sums[at[hit] - lo - 1]
        g, s = block[-1], sums[-1]
    return gamma, total, project_counts(np.array(first_colour_law(params.q, params.n_colours)))


def mean_drift(params: ModelParams, times) -> np.ndarray:
    """Exact E[S_t] = prod_{k<t} (1 + alpha/k) E[S_1] at increasing times t >= 1, as (T, d)."""
    gamma, _, first = _mean_scan(params, times)
    return gamma[:, None] * first


def cm_mean_drift(params: ModelParams, n: int) -> np.ndarray:
    """Exact E[G_n] = (1/n) sum_{t<=n} E[S_t], from the same scan as :func:`mean_drift`."""
    _, total, first = _mean_scan(params, [check_integer("n", n, 1)])
    return total[0] / n * first
