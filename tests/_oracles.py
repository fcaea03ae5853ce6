"""Independent oracles used across the test suite.

The oracles avoid the package's own code paths: the brute-force law walks
over raw direction sequences using the definitional remembered-time rule,
the moment recursion propagates exact first and second moments of the
colour counts one drawing at a time, and the urn's limit kernel is built
with a numerical matrix exponential, from which the pairing map must give
the walk kernels.  The mean growth gamma_t and its running sum come from a
50-digit decimal recursion.  Replica r's substream is defined through numpy's
own ``SeedSequence``, which the simulator's vectorized keys must equal.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product

import numpy as np
from scipy import linalg


def compositions(total, parts):
    """All nonnegative integer vectors of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def brute_force_walk_pmf(d, p, q, n, designated_colour=0):
    """Exact law of S_n by summing over all (2d)^n direction sequences.

    The conditional step law is computed from the definition: a past time is
    remembered uniformly, its direction repeated with probability p,
    otherwise one of the other 2d-1 directions is taken uniformly.  p and q
    must be Fractions.
    """
    twod = 2 * d
    off_first = (1 - q) / (twod - 1)
    off_repeat = (1 - p) / (twod - 1)
    pmf = {}
    for seq in product(range(twod), repeat=n):
        prob = q if seq[0] == designated_colour else off_first
        for k in range(1, n):
            tau = seq[k]
            conditional = Fraction(0)
            for remembered in seq[:k]:
                conditional += p if tau == remembered else off_repeat
            prob *= conditional / k
        if prob == 0:
            continue
        pos = [0] * d
        for colour in seq:
            pos[colour // 2] += 1 if colour % 2 == 0 else -1
        key = tuple(pos)
        pmf[key] = pmf.get(key, Fraction(0)) + prob
    return pmf


def replacement_matrix(d, p):
    twod = 2 * d
    A = np.full((twod, twod), (1.0 - p) / (twod - 1))
    np.fill_diagonal(A, p)
    return A


def pairing(d):
    P = np.zeros((d, 2 * d))
    for k in range(d):
        P[k, 2 * k] = 1.0
        P[k, 2 * k + 1] = -1.0
    return P


def lambda2_basis(d):
    """Rows e_i - e_{i+1}, i = 0..2d-2: a basis of the zero-sum subspace, lambda2's eigenspace."""
    return np.eye(2 * d - 1, 2 * d) - np.eye(2 * d - 1, 2 * d, k=1)


def urn_covariance(d, p, s, t, critical=False):
    """Limit covariance of the urn's centred colour counts at times s <= t.

    Below p_c it is s * Sigma_I * expm(log(t/s) A) with
    Sigma_I = (2d-1)/(4d^2 (1+2d-4dp)) * (2d I - J); at p_c it is
    (s/4d^2) * (2d I - J).  In both cases its rows sum to zero.
    """
    twod = 2 * d
    centring = twod * np.eye(twod) - 1.0
    if critical:
        return s / (4.0 * d * d) * centring
    sigma = (twod - 1.0) / (4.0 * d * d * (1.0 + twod - 2 * twod * p)) * centring
    return s * sigma @ linalg.expm(math.log(t / s) * replacement_matrix(d, p))


def first_step_mean(d, q):
    twod = 2 * d
    xi = np.full(twod, (1.0 - q) / (twod - 1))
    xi[0] = q
    return xi


def gamma_sums(d, p, times):
    """gamma_t = prod_{k<t} (1 + alpha/k) and sum_{s<=t} gamma_s at the times, as floats.

    One multiplication and one addition per step in 50-digit decimal
    arithmetic, with alpha = (2dp-1)/(2d-1) exact from the Fraction p.
    Returns {t: (gamma_t, sum_{s<=t} gamma_s)}.
    """
    times, out = set(times), {}
    with localcontext() as ctx:
        ctx.prec = 50
        a = (2 * d * p - 1) / (2 * d - 1)
        alpha = Decimal(a.numerator) / Decimal(a.denominator)
        gamma = total = Decimal(1)
        for t in range(1, max(times) + 1):
            if t > 1:
                gamma *= 1 + alpha / (t - 1)
                total += gamma
            if t in times:
                out[t] = (float(gamma), float(total))
    return out


def exact_moments(d, p, q, n, times=(), track_sum=False):
    """Exact E[X_m] and E[X_m X_m^T] of the colour counts, m = 1..n.

    One drawing adds the one-hot vector eps with E[eps | X] = A X / m and
    E[eps eps^T | X] = diag(A X / m).  Cross-time second moments for the
    recorded times propagate by left-multiplying with (I + A/m); with
    ``track_sum`` the running-sum moments for the center of mass are kept
    alongside.

    Returns a dict with 'xbar', 'M', 'recorded' {t: (xbar_t, M_t)}, 'cross'
    {t: E[X_n X_t^T]} and, when tracked, 'T', 'C', 'Q' for T_n = sum X_k.
    """
    A = replacement_matrix(d, p)
    xbar = first_step_mean(d, q)
    M = np.diag(xbar).copy()
    recorded, cross = {}, {}
    if track_sum:
        T = xbar.copy()
        C = M.copy()
        Q = M.copy()
    times = set(times)
    for m in range(1, n):
        if m in times:
            recorded[m] = (xbar.copy(), M.copy())
            cross[m] = M.copy()
        AM = A @ M
        dg = np.diag(A @ xbar)
        M = M + (AM + AM.T) / m + dg / m
        if track_sum:
            Cn = C + (A @ C) / m
            C = Cn + M
            Q = Q + Cn + Cn.T + M
            T = T + xbar + (A @ xbar) / m
        for t in cross:
            cross[t] = cross[t] + (A @ cross[t]) / m
        xbar = xbar + (A @ xbar) / m
    if n in times:
        recorded[n] = (xbar.copy(), M.copy())
        cross[n] = M.copy()
    out = {"xbar": xbar, "M": M, "recorded": recorded, "cross": cross}
    if track_sum:
        out["T"] = T
        out["C"] = C
        out["Q"] = Q
    return out


def walk_mean_cov(d, p, q, n):
    """Exact mean and covariance of S_n from the moment recursion."""
    res = exact_moments(d, p, q, n, times={n})
    xbar, M = res["recorded"][n]
    P = pairing(d)
    mean = P @ xbar
    cov = P @ (M - np.outer(xbar, xbar)) @ P.T
    return mean, cov


def seed_sequence_generator(master_seed, replica):
    """Replica ``replica``'s substream by definition: Philox keyed by SeedSequence(seed, (r,))."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(master_seed, spawn_key=(replica,)))
    )


def lockstep_replicas(
    d, p, q, n, snapshot_times, master_seed, replicas, track_center_of_mass=False, chunk_steps=1024
):
    """Reference ensemble drawn through numpy's ``Generator`` calls, one replica row at a time.

    Replica r draws from ``seed_sequence_generator(master_seed, r)``:
    step 1 takes ``random()`` then ``integers(0, 2d-1)``; each chunk of up to
    ``chunk_steps`` later steps takes ``integers(0, highs)`` (highs = the step
    count before each step), ``random(width)`` and ``integers(0, 2d-1, size=width)``.
    The position is kept incrementally beside the counts, and the remembered
    colour is read off the counts' cumulative sum.  Returns (positions (R, T, d),
    centre-of-mass sums (R, d) or None), like ``simulate_replicas``.
    """
    twod = 2 * d
    times = sorted(set(int(t) for t in snapshot_times))
    time_slot = {t: i for i, t in enumerate(times)}
    R = replicas
    rows = np.arange(R)
    generators = [seed_sequence_generator(master_seed, r) for r in range(R)]
    counts = np.zeros((R, twod), dtype=np.int64)
    position = np.zeros((R, d), dtype=np.int64)
    out = np.zeros((R, len(times), d), dtype=np.int64)
    cm = np.zeros((R, d), dtype=np.int64) if track_center_of_mass else None

    def record(t):
        if cm is not None:
            cm[:] += position
        if t in time_slot:
            out[:, time_slot[t], :] = position

    u0 = np.empty(R)
    j0 = np.empty(R, dtype=np.int64)
    for r, gen in enumerate(generators):
        u0[r] = gen.random()
        j0[r] = gen.integers(0, twod - 1)
    first = np.where(u0 < q, 0, j0 + 1)
    counts[rows, first] += 1
    position[rows, first >> 1] += 1 - ((first & 1) << 1)
    record(1)

    step = 2
    while step <= n:
        hi = min(n, step + chunk_steps - 1)
        width = hi - step + 1
        highs = np.arange(step - 1, hi, dtype=np.int64)
        m_buf = np.empty((R, width), dtype=np.int64)
        u_buf = np.empty((R, width))
        j_buf = np.empty((R, width), dtype=np.int64)
        for r, gen in enumerate(generators):
            m_buf[r] = gen.integers(0, highs)
            u_buf[r] = gen.random(width)
            j_buf[r] = gen.integers(0, twod - 1, size=width)
        for k in range(width):
            remembered = (m_buf[:, k][:, None] >= counts.cumsum(axis=1)).sum(axis=1)
            jj = j_buf[:, k]
            nxt = np.where(u_buf[:, k] < p, remembered, jj + (jj >= remembered))
            counts[rows, nxt] += 1
            position[rows, nxt >> 1] += 1 - ((nxt & 1) << 1)
            record(step + k)
        step = hi + 1
    return out, cm
