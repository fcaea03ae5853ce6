"""Correctness checks on the positions an op produced.

The gate is exact at every finite n, so it judges any kernel that samples the
right law, including one that draws different paths from the same seed.
With a = (2dp-1)/(2d-1), the martingale structure gives
E[X_{t+1} | F_t] = a S_t / t, and since every step has unit length

    E|S_{t+1}|^2 = (1 + 2a/t) E|S_t|^2 + 1,    E|S_1|^2 = 1,

whatever the first-step law (Bercu & Laulin 2019, J. Stat. Phys. 175).
"""

from __future__ import annotations

import hashlib
import io
from fractions import Fraction
from statistics import NormalDist

import numpy as np

#: False-alarm rate of the gate on one op: that of a single two-sided 4-SE check.
#: It is shared among the op's snapshot columns (Bonferroni), so an op with
#: 100 columns is not 100 times likelier to fail by chance than one with 1.
ALPHA = 2 * NormalDist().cdf(-4.0)


def z_max(columns: int) -> float:
    """Largest |z| a column may reach when an op gates ``columns`` columns."""
    return NormalDist().inv_cdf(1 - ALPHA / (2 * columns))


def exact_second_moments(d: int, p, times) -> dict:
    """E|S_t|^2 at each of ``times``; exact when ``p`` is a Fraction."""
    a = (2 * d * p - 1) / (2 * d - 1)
    wanted = set(times)
    out = {}
    m = Fraction(1) if isinstance(p, Fraction) else 1.0
    for t in range(1, max(wanted) + 1):
        if t in wanted:
            out[t] = m
        m = (1 + 2 * a / t) * m + 1
    return out


def moment_gate(positions: np.ndarray, d: int, p: Fraction, times) -> tuple[float, list[str]]:
    """Gate the replica mean of |S_t|^2 against its exact value at every column.

    ``positions`` is (R, T, d) with T snapshot columns matching ``times``;
    each column must lie within ``z_max(T)`` empirical standard errors.
    Returns the largest |z| and one message per failing column.
    """
    limit = z_max(len(times))
    exact = exact_second_moments(d, float(p), times)
    sq = np.einsum("rtd,rtd->rt", positions, positions).astype(np.float64)
    mean = sq.mean(axis=0)
    se = sq.std(axis=0, ddof=1) / np.sqrt(sq.shape[0])
    worst, failures = 0.0, []
    for i, t in enumerate(times):
        diff = mean[i] - exact[t]
        if se[i] == 0.0:
            z = 0.0 if diff == 0.0 else float("inf")
        else:
            z = abs(diff) / se[i]
        worst = max(worst, z)
        if not z <= limit:
            failures.append(
                f"E|S_{t}|^2: observed {mean[i]:.6g}, exact {exact[t]:.6g}, "
                f"|z| = {z:.2f} > {limit:.2f}"
            )
    return worst, failures


def lattice_invariants(positions: np.ndarray, times) -> list[str]:
    """|x|_1 <= t and |x|_1 = t (mod 2) for every replica and snapshot."""
    l1 = np.abs(positions).sum(axis=2)  # (R, T)
    t = np.asarray(times, dtype=np.int64)[None, :]
    failures = []
    if np.any(l1 > t):
        failures.append(f"{int((l1 > t).sum())} positions have |x|_1 > t")
    if np.any((l1 - t) % 2):
        failures.append(f"{int(((l1 - t) % 2).sum())} positions have |x|_1 of the wrong parity")
    return failures


def digest(positions: np.ndarray) -> str:
    """SHA-256 of the snapshot positions as little-endian int64, shape included."""
    data = np.ascontiguousarray(positions, dtype="<i8")
    h = hashlib.sha256(repr(data.shape).encode())
    h.update(data.tobytes())
    return h.hexdigest()


def parse_dump(text: str, workload) -> tuple[np.ndarray | None, list[str]]:
    """Positions (R, T, d) from a `merw simulate --format csv` file, plus failures.

    Checks the header, the row count R*T and that rows come in replica-major
    order with the expected snapshot times.
    """
    d, R = workload.d, workload.replicas
    times = workload.snapshot_times()
    header, _, body = text.partition("\n")
    expected_header = ",".join(["replica", "n"] + [f"x_{k + 1}" for k in range(d)])
    if header != expected_header:
        return None, [f"header {header!r}, expected {expected_header!r}"]
    try:
        table = np.loadtxt(io.StringIO(body), delimiter=",", dtype=np.int64, ndmin=2)
    except ValueError as err:
        return None, [f"unparsable row: {err}"]
    if table.shape != (R * len(times), 2 + d):
        return None, [f"table of shape {table.shape}, expected {(R * len(times), 2 + d)}"]
    table = table.reshape(R, len(times), 2 + d)
    failures = []
    if np.any(table[:, :, 0] != np.arange(R)[:, None]):
        failures.append("replica column out of order")
    if np.any(table[:, :, 1] != np.asarray(times)[None, :]):
        failures.append("time column does not match the snapshot grid")
    return table[:, :, 2:], failures
