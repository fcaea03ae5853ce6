"""Vectorized ensembles of independent walk replicas: merw's one simulator.

Each replica carries its per-direction step counts, which are the colour
counts of the 2d-colour urn, and its position, which is their pairwise
difference (``urn.project_counts``): the walk and the urn are one process,
simulated once.

Replica r draws from its own Philox substream keyed by (master_seed, r), so
results do not depend on how work is batched and rerunning a configuration
reproduces every path bit for bit.  All replicas advance in lockstep: per
step each replica consumes one bounded integer (the remembered draw), one
uniform (repeat or flip) and one bounded integer (the flip target), with
the draws prefetched chunk-wise per replica in replica order.

Position moments come from exact integer snapshot sums, so summaries are
deterministic.  The replica cross-moments sum_r x[r,t,i] x[r,s,j] are one
float64 BLAS Gram product over the integer positions, which is exact (every
product and partial sum is an integer below 2^53) while R * max|x|^2 < 2^53
for the observed positions; diffusive walks have |x| ~ sqrt(n), so this holds
with a wide margin at every default shape.  Past that guard they are summed
in int64 (while R * n^2 < 2^62), else in float64.  Per-replica snapshot
positions are retained by default for median/fraction diagnostics and can be
dropped for large ensembles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .params import BudgetError, ModelParams, ParameterError

#: Steps prefetched per chunk.  Part of the determinism contract: changing it
#: reassigns draws to steps and therefore changes sampled paths.
CHUNK_STEPS = 1024

DEFAULT_STEP_BUDGET = 10**9


def replica_generator(master_seed: int, replica: int) -> np.random.Generator:
    """The independent substream for one replica: Philox keyed by (seed, r)."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(replica,))
    return np.random.Generator(np.random.Philox(seq))


def _grid_time(value: float, n: int, exponent: bool) -> int:
    # tolerate decimal fractions whose float product lands just below an integer
    return int(math.floor((n**value if exponent else value * n) + 1e-9))


def grid_times(grid: Sequence[float], n: int, exponent: bool = False) -> tuple[int, ...]:
    """Integer snapshot times of a grid at horizon n, one per grid value.

    Fractions s give times floor(s*n), exponents t (``exponent=True``) give
    floor(n**t).  The grid must be non-empty, strictly increasing and inside
    (0, 1], which also rules out nan and inf; its smallest time must be at
    least 1, and no two of its values may give the same time, so the times
    are strictly increasing too.
    """
    grid = tuple(float(g) for g in grid)
    if not grid:
        raise ParameterError("the snapshot grid must not be empty")
    if any(not 0.0 < g <= 1.0 for g in grid):
        raise ParameterError(f"snapshot grid values must lie in (0, 1], got {grid}")
    if list(grid) != sorted(set(grid)):
        raise ParameterError(f"snapshot grid must be strictly increasing, got {grid}")
    times = tuple(_grid_time(g, n, exponent) for g in grid)
    if times[0] < 1:
        raise ParameterError(f"smallest snapshot time is below 1 at horizon n = {n}")
    collisions = [
        f"{a} and {b} both give time {t}"
        for a, b, t, u in zip(grid, grid[1:], times, times[1:])
        if t == u
    ]
    if collisions:
        raise ParameterError(
            f"snapshot grid values collide at horizon n = {n}: " + "; ".join(collisions)
        )
    return times


@dataclass(frozen=True)
class EnsembleConfig:
    """A reproducible ensemble request.

    Snapshot times come from either ``snapshot_fractions`` (times floor(s*n),
    for the linear-time scalings) or ``exponent_times`` (times floor(n**t),
    for the critical scaling), both validated by :func:`grid_times`.
    """

    params: ModelParams
    replicas: int
    master_seed: int
    n: int
    snapshot_fractions: tuple[float, ...] | None = None
    exponent_times: tuple[float, ...] | None = None
    track_center_of_mass: bool = False
    retain_positions: bool = True
    step_budget: int = DEFAULT_STEP_BUDGET

    def __post_init__(self):
        if self.replicas < 2:
            raise ParameterError(f"replicas must be >= 2, got {self.replicas}")
        if self.n < 1:
            raise ParameterError(f"horizon n must be >= 1, got {self.n}")
        if not 0 <= self.master_seed < 2**64:
            raise ParameterError("master_seed must be an unsigned 64-bit integer")
        if (self.snapshot_fractions is None) == (self.exponent_times is None):
            raise ParameterError(
                "exactly one of snapshot_fractions and exponent_times must be given"
            )
        exponent = self.snapshot_fractions is None
        field_name = "exponent_times" if exponent else "snapshot_fractions"
        grid = tuple(float(g) for g in getattr(self, field_name))
        grid_times(grid, self.n, exponent)
        object.__setattr__(self, field_name, grid)

    def snapshot_times(self) -> tuple[int, ...]:
        """Integer snapshot times implied by the grid, strictly increasing."""
        exponent = self.snapshot_fractions is None
        grid = self.exponent_times if exponent else self.snapshot_fractions
        return grid_times(grid, self.n, exponent)

    def time_of(self, label: float) -> int:
        """Integer time for one grid value (fraction or exponent)."""
        return _grid_time(label, self.n, self.snapshot_fractions is None)


@dataclass
class EnsembleSummary:
    """Moments of snapshot positions across replicas, plus optional raw data.

    ``mean_position``, ``position_cov`` and ``mean_se`` are raw (integer
    position) moments: shape (T, d), (T, T, d, d) and (T, d); verification
    layers apply the regime-appropriate normalization.  ``positions`` is the
    (R, T, d) array of raw snapshot positions when retained.
    """

    params: ModelParams
    n: int
    replicas: int
    master_seed: int
    times: tuple[int, ...]
    mean_position: np.ndarray
    position_cov: np.ndarray
    mean_se: np.ndarray
    positions: np.ndarray | None = None
    cm_mean: np.ndarray | None = None
    cm_cov: np.ndarray | None = None
    time_index: dict = field(default_factory=dict)

    def index_of(self, time: int) -> int:
        return self.time_index[int(time)]


def _draw_chunk(generators, step_lo, step_hi, m_buf, u_buf, j_buf, twod):
    """Prefetch draws for steps [step_lo, step_hi], one replica row at a time."""
    width = step_hi - step_lo + 1
    highs = np.arange(step_lo - 1, step_hi, dtype=np.int64)  # count totals before each step
    for r, gen in enumerate(generators):
        m_buf[r, :width] = gen.integers(0, highs)
        u_buf[r, :width] = gen.random(width)
        j_buf[r, :width] = gen.integers(0, twod - 1, size=width)
    return width


def simulate_replicas(
    params: ModelParams,
    n: int,
    snapshot_times: Sequence[int],
    master_seed: int,
    replicas: int,
    track_center_of_mass: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Run ``replicas`` independent paths to time n, recording snapshots.

    Returns (positions, cm_sums): positions has shape (R, T, d) with T the
    number of distinct snapshot times in ascending order; cm_sums is the
    (R, d) array of per-replica running position sums (so G_n = cm_sums / n)
    or None when not tracked.

    Per step, a past step is remembered with probability proportional to
    the colour counts and repeated with probability p, else replaced by a
    uniform other colour; the position is kept incrementally beside the
    counts, so it always equals ``project_counts(counts)``.
    """
    d = params.d
    twod = params.n_colours
    times = sorted(set(int(t) for t in snapshot_times))
    if times and (times[0] < 1 or times[-1] > n):
        raise ParameterError(f"snapshot times must lie in [1, {n}], got {times}")
    time_slot = {t: i for i, t in enumerate(times)}
    R = replicas
    rows = np.arange(R)
    generators = [replica_generator(master_seed, r) for r in range(R)]

    counts = np.zeros((R, twod), dtype=np.int64)
    position = np.zeros((R, d), dtype=np.int64)
    out = np.zeros((R, len(times), d), dtype=np.int64)
    cm = np.zeros((R, d), dtype=np.int64) if track_center_of_mass else None

    # step 1: designated colour 0 with probability q, else uniform other
    u0 = np.empty(R)
    j0 = np.empty(R, dtype=np.int64)
    for r, gen in enumerate(generators):
        u0[r] = gen.random()
        j0[r] = gen.integers(0, twod - 1)
    first = np.where(u0 < params.q, 0, j0 + 1)
    counts[rows, first] += 1
    position[rows, first >> 1] += 1 - ((first & 1) << 1)
    if cm is not None:
        cm += position
    if 1 in time_slot:
        out[:, time_slot[1], :] = position

    if n >= 2:
        chunk = min(CHUNK_STEPS, n - 1)  # steps 2..n never fill more
        m_buf = np.empty((R, chunk), dtype=np.int64)
        u_buf = np.empty((R, chunk))
        j_buf = np.empty((R, chunk), dtype=np.int64)
        p = params.p
        step = 2
        while step <= n:
            hi = min(n, step + CHUNK_STEPS - 1)
            width = _draw_chunk(generators, step, hi, m_buf, u_buf, j_buf, twod)
            for k in range(width):
                t = step + k
                cdf = counts.cumsum(axis=1)
                remembered = (m_buf[:, k][:, None] >= cdf).sum(axis=1)
                jj = j_buf[:, k]
                flipped = jj + (jj >= remembered)
                nxt = np.where(u_buf[:, k] < p, remembered, flipped)
                counts[rows, nxt] += 1
                position[rows, nxt >> 1] += 1 - ((nxt & 1) << 1)
                if cm is not None:
                    cm += position
                if t in time_slot:
                    out[:, time_slot[t], :] = position
            step = hi + 1
    return out, cm


def _cross_moments(positions: np.ndarray, replicas: int, n: int) -> np.ndarray:
    """Sum over replicas of x[r, t, i] * x[r, s, j], shape (T, T, d, d), as float64.

    Computed as one BLAS Gram product X^T X over X = positions viewed as
    (R, T*d) in float64.  Every product and every partial sum is then an
    integer of magnitude at most R * max|x|^2, so while that is below 2^53 the
    result is exact, bit-identical to the integer sum, in whatever order and on
    however many threads BLAS sums.
    """
    R, T, d = positions.shape
    peak = int(np.abs(positions).max()) if positions.size else 0
    if R * peak * peak < 2**53:
        x = positions.reshape(R, T * d).astype(np.float64)
        return (x.T @ x).reshape(T, d, T, d).transpose(0, 2, 1, 3)
    # exact in int64 under the default step budget; fall back to float64 when
    # R * n^2 could overflow
    if replicas * n * n < 2**62:
        return np.einsum("rti,rsj->tsij", positions, positions).astype(np.float64)
    return np.einsum(
        "rti,rsj->tsij", positions.astype(np.float64), positions.astype(np.float64)
    )


def run_ensemble(cfg: EnsembleConfig) -> EnsembleSummary:
    """Simulate the configured ensemble and summarize its snapshot moments.

    Deterministic given the configuration; refuses to run when the total
    step count R * n exceeds the configured budget.
    """
    total_steps = cfg.replicas * cfg.n
    if total_steps > cfg.step_budget:
        raise BudgetError(
            f"ensemble needs {cfg.replicas} x {cfg.n} = {total_steps} steps, "
            f"exceeding the step budget of {cfg.step_budget}; raise step_budget "
            "to run anyway"
        )
    times = cfg.snapshot_times()
    positions, cm = simulate_replicas(
        cfg.params,
        cfg.n,
        times,
        cfg.master_seed,
        cfg.replicas,
        track_center_of_mass=cfg.track_center_of_mass,
    )
    R = cfg.replicas
    sums = positions.sum(axis=0)  # (T, d) int64, exact
    mean = sums / R
    cross = _cross_moments(positions, R, cfg.n)
    sums_f = sums.astype(np.float64)  # |sums| can reach R*n: square in float64
    outer = np.einsum("ti,sj->tsij", sums_f, sums_f) / R
    cov = (cross - outer) / (R - 1)
    var_diag = np.einsum("ttii->ti", cov)
    se = np.sqrt(np.maximum(var_diag, 0.0) / R)
    cm_mean = cm_cov = None
    if cm is not None:
        g = cm / cfg.n
        cm_mean = g.mean(axis=0)
        centered = g - cm_mean
        cm_cov = centered.T @ centered / (R - 1)
    return EnsembleSummary(
        params=cfg.params,
        n=cfg.n,
        replicas=R,
        master_seed=cfg.master_seed,
        times=times,
        mean_position=mean,
        position_cov=cov,
        mean_se=se,
        positions=positions if cfg.retain_positions else None,
        cm_mean=cm_mean,
        cm_cov=cm_cov,
        time_index={t: i for i, t in enumerate(times)},
    )
