"""Vectorized ensembles of independent walk replicas: merw's one simulator.

Each replica is one path of the walk and of its 2d-colour urn: the colour
counts are the per-direction step counts, and the position is their pairwise
difference (``urn.project_counts``), so the two are one process, simulated
once.  The kernel keeps per replica the colour CDF, cdf[c] = number of steps
with colour <= c for c < 2d-1, as (2d-1, R) int32 rows and advances all
replicas one step at a time with contiguous operations over those rows:
the remembered colour is the number of rows at or below the remembered
draw, and the new colour adds one to every row at or above it.  Step 1 is
the kernel's step that remembers colour 0 and repeats it with probability q.
Positions are formed only at snapshot times, and the centre of mass from the
CDF's running sum, both projected in place: the colour counts are written
into one (2d, R) array, and their pairwise differences straight into the
snapshot's (d, R) slot.

Replica r draws from its own Philox substream keyed by (master_seed, r), so
results do not depend on how work is batched and rerunning a configuration
reproduces every path bit for bit.  The key is numpy's ``SeedSequence(
master_seed, spawn_key=(r,))`` state (``replica_generator`` is that
definition), computed for all replicas in one pass by ``replica_keys``: the
seed words are mixed into the hash pool once, and only the spawn words of r
are hashed per replica, over uint32 arrays.  Each replica still gets its own
Philox, built by ``replica_generator`` from its key, because its words are
read one ``random_raw`` call per replica and draw pass, with a replica's
pending 32-bit half carried inside its generator from one call to the next.
A build hands Philox the key row and numpy's zero counter as ready arrays,
so it costs little more than numpy's own object set-up.
Draw chunk 0 is step 1 alone, and each later chunk up to ``CHUNK_STEPS``
steps; the first pass reads chunks 0 and 1, each later pass one chunk, and
as a replica's words are sequential in one stream no draw changes step.  A
chunk takes exactly numpy's ``Generator`` calls ``integers(0, highs)``
(highs = the step count before each step, from step 3 on), ``random(width)``
and ``integers(0, 2d-1, size=width)``, read as raw Philox words and decoded
in bulk by numpy's rules (Lemire's bounded integers on 32-bit halves,
doubles from the top 53 bits) into step-major buffers; a replica whose chunk
meets a rejected draw is replayed one draw at a time.  ``tests/test_golden.py``
pins digests of the sampled paths, so drift in the kernel or in numpy's
streams shows.

Position moments come from exact integer snapshot sums, so summaries are
deterministic.  The replica cross-moments sum_r x[r,t,i] x[r,s,j] are one
float64 BLAS Gram product over the integer positions, which is exact (every
product and partial sum is an integer below 2^53) while R * max|x|^2 < 2^53
for the observed positions; diffusive walks have |x| ~ sqrt(n), so this holds
with a wide margin at every default shape.  Past that guard they are summed
in int64 while R * max|x|^2 < 2^62, else in float64.  The per-replica snapshot
positions are kept in the summary for median and fraction diagnostics, as an
(R, T, d) view of a (T, d, R) array that stores a snapshot row per axis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .params import ModelParams, ParameterError, check_budget, check_integer
from .urn import project_counts

#: Steps prefetched per chunk.  Part of the determinism contract: changing it
#: reassigns draws to steps and therefore changes sampled paths.
CHUNK_STEPS = 1024

DEFAULT_STEP_BUDGET = 10**9

#: Largest horizon: the CDF rows are int32, and numpy draws a bounded integer
#: with a 64-bit rule once its range reaches 2^32, which the decoder does not
#: implement.
MAX_STEPS = 2**31 - 1

#: Replicas whose draws are decoded together, sized for L2.
_DECODE_BLOCK = 128

_TWO32 = np.uint64(2**32)

#: Philox's default counter, as the uint64[4] array numpy would otherwise build per call.
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)
_ZERO_COUNTER.flags.writeable = False


def replica_generator(master_seed: int, replica: int, key: np.ndarray | None = None
                      ) -> np.random.Generator:
    """The independent substream for one replica: Philox keyed by (seed, r).

    The key is the state of ``np.random.SeedSequence(master_seed,
    spawn_key=(replica,))``.  A caller that holds it already, as a row of
    :func:`replica_keys`, passes it as ``key``, and no ``SeedSequence`` is
    built.  The counter, numpy's default zero, is passed as one shared
    uint64[4] array (Philox copies it), which spares numpy converting a
    scalar 0 on every build.
    """
    if key is None:
        seed = np.random.SeedSequence(master_seed, spawn_key=(replica,))
    else:
        seed = _key_seed_type()(key)
    return np.random.Generator(np.random.Philox(seed, counter=_ZERO_COUNTER))


# the constants of numpy's SeedSequence hash (O'Neill's seed_seq_fe)
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def _hashmix(words, const, mult):
    # one hashmix of uint32 words under hash constant ``const``: the hash and the next constant
    after = const * mult & _M32
    words = (words ^ np.uint32(const)) * np.uint32(after)
    return words ^ (words >> _SHIFT), after


def _mix(x, y):
    words = _MIX_L * x - _MIX_R * y
    return words ^ (words >> _SHIFT)


def replica_keys(master_seed: int, replicas) -> np.ndarray:
    """Philox keys of the substreams of ``replicas``, as (R, 2) uint64.

    Row i equals ``np.random.SeedSequence(master_seed, spawn_key=(r,))
    .generate_state(2, np.uint64)`` for r = replicas[i], the key
    :func:`replica_generator` seeds Philox with.  The seed's two 32-bit words
    (zero-padded to the pool size of 4) are mixed into the pool once; only the
    spawn words of r, one below 2^32 and two from there on, are hashed per
    replica, over uint32 arrays.
    """
    master_seed = check_integer("master_seed", master_seed, 0, 2**64 - 1)
    r = np.asarray(replicas)
    if r.ndim != 1 or r.dtype.kind not in "iu" or (r.size and r.min() < 0):
        raise ParameterError("replica indices must be a 1-d array of non-negative integers")
    r = r.astype(np.uint64)
    const = _INIT_A
    pool = []
    for word in (master_seed & _M32, master_seed >> 32, 0, 0):
        mixed, const = _hashmix(np.array([word], dtype=np.uint32), const, _MULT_A)
        pool.append(mixed)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], mixed)
    low = (r & np.uint64(_M32)).astype(np.uint32)
    for dst in range(4):
        mixed, const = _hashmix(low, const, _MULT_A)
        pool[dst] = _mix(pool[dst], mixed)
    wide = np.flatnonzero(r >> np.uint64(32))
    if wide.size:
        high = (r[wide] >> np.uint64(32)).astype(np.uint32)
        for dst in range(4):
            mixed, const = _hashmix(high, const, _MULT_A)
            pool[dst][wide] = _mix(pool[dst][wide], mixed)
    state = np.empty((r.size, 4), dtype=np.uint32)
    const = _INIT_B
    for i in range(4):
        state[:, i], const = _hashmix(pool[i], const, _MULT_B)
    # numpy's rule: consecutive words, low word first, make one uint64
    return state.astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _key_seed_type() -> type:
    """The seed sequence that hands Philox one precomputed key and nothing else.

    Built on first use, so that importing merw does not import numpy.random.
    """
    from numpy.random.bit_generator import ISeedSequence

    class KeySeed(ISeedSequence):
        __slots__ = ("key",)

        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 2 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
                raise ValueError(
                    f"a replica key is 2 uint64 words, not {n_words} words of {np.dtype(dtype)}"
                )
            return self.key

    return KeySeed


def _below(probability: float) -> np.uint64:
    """The bound b with numpy's double (w >> 11) * 2^-53 < probability iff raw word w < b."""
    return np.uint64(math.ceil(probability * 2**53) << 11)


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
    # a decimal value's float product may land a few ulps below an integer: floor it up
    values = (n**g if exponent else g * n for g in grid)
    times = tuple(int(math.floor(x + max(1e-9, 4 * math.ulp(x)))) for x in values)
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
    for the critical scaling), both validated by :func:`grid_times`.  A
    configuration whose total step count R * n exceeds ``step_budget`` is
    refused when it is built.
    """

    params: ModelParams
    replicas: int
    master_seed: int
    n: int
    snapshot_fractions: tuple[float, ...] | None = None
    exponent_times: tuple[float, ...] | None = None
    track_center_of_mass: bool = False
    step_budget: int = DEFAULT_STEP_BUDGET

    def __post_init__(self):
        check_integer("replicas", self.replicas, 2)
        check_integer("horizon n", self.n, 1, MAX_STEPS)
        check_integer("master_seed", self.master_seed, 0, 2**64 - 1)
        check_budget(self.replicas, self.n, self.step_budget)
        if (self.snapshot_fractions is None) == (self.exponent_times is None):
            raise ParameterError(
                "exactly one of snapshot_fractions and exponent_times must be given"
            )
        field_name = "exponent_times" if self.snapshot_fractions is None else "snapshot_fractions"
        object.__setattr__(self, field_name, tuple(float(g) for g in getattr(self, field_name)))
        self.snapshot_times()  # validates the grid

    def snapshot_times(self) -> tuple[int, ...]:
        """Integer snapshot times implied by the grid, strictly increasing."""
        exponent = self.snapshot_fractions is None
        grid = self.exponent_times if exponent else self.snapshot_fractions
        return grid_times(grid, self.n, exponent)


@dataclass
class EnsembleSummary:
    """Moments of snapshot positions across replicas, plus the raw positions.

    ``mean_position``, ``position_cov`` and ``mean_se`` are raw (integer
    position) moments: shape (T, d), (T, T, d, d) and (T, d); verification
    layers apply the regime-appropriate normalization.  ``positions`` holds the
    raw snapshot positions as an (R, T, d) view of a (T, d, R) array.
    """

    params: ModelParams
    n: int
    replicas: int
    master_seed: int
    times: tuple[int, ...]
    mean_position: np.ndarray
    position_cov: np.ndarray
    mean_se: np.ndarray
    positions: np.ndarray
    cm_mean: np.ndarray | None = None
    cm_cov: np.ndarray | None = None


def _plan(segments, pending: int):
    """Word spans of the segments for a replica whose pending-half flag is ``pending``.

    A segment is an int (that many raw words, one per double) or an array of
    bounded-draw highs in [2, 2^32), one 32-bit half each when nothing is
    rejected.  Halves come low half first from one word, and the high half
    stays pending, also across raw words.  Returns the (start, stop, pending
    flag on entry) of each segment and the total word count.
    """
    spans, pos = [], 0
    for seg in segments:
        words = seg if isinstance(seg, int) else (len(seg) - pending + 1) // 2
        spans.append((pos, pos + words, pending))
        if not isinstance(seg, int):
            pending += 2 * words - len(seg)
        pos += words
    return spans, pos


def _decode(words, held, spans, segments, scratch):
    """Decode the (G, K) uint64 words of replicas that share one pending flag.

    ``held`` holds their (G,) pending halves, or is None when they hold none.
    A bounded draw in [0, h) takes a half u and gives (u*h) >> 32; numpy draws
    again iff (u*h) mod 2^32 < (2^32 - h) mod h.  ``scratch`` holds per
    bounded segment those limits and a product and a compare buffer of at
    least G rows.  Returns one (G, len) array per segment (raw words, or the
    draws as uint32), the rows that met a rejection, whose values must be
    replayed, and the pending halves after.
    """
    G = len(words)
    rejected = np.zeros(G, dtype=bool)
    values = []
    for (start, stop, pending), seg, buffers in zip(spans, segments, scratch):
        block = words[:, start:stop]
        if isinstance(seg, int):
            values.append(block)
            continue
        a = len(seg)
        if not a:
            values.append(np.empty((G, 0), dtype=np.uint32))
            continue
        halves = block.astype("<u8", copy=False).view("<u4")  # low half of each word first
        limit, product, below = buffers[0], buffers[1][:G], buffers[2][:G]
        if pending:
            np.multiply(held, seg[0], out=product[:, 0])
        np.multiply(halves[:, : a - pending], seg[pending:], out=product[:, pending:])
        parts = product.astype("<u8", copy=False).view("<u4")
        rejected |= np.less(parts[:, 0::2], limit, out=below).any(axis=1)
        values.append(parts[:, 1::2])
        left_over = pending + 2 * (stop - start) > a
        held = halves[:, a - pending].astype(np.uint64) if left_over else None
    return values, rejected, held


def _replay(bitgen, words, held, segments):
    """Decode one replica's segments one draw at a time, by the same rules.

    Starts from the words already fetched for it and takes further words
    from its own stream once they run out; ``held`` is its pending half or
    None.  Returns the values of each segment and the pending half after.
    """
    fetched = iter(words.tolist())

    def word():
        w = next(fetched, None)
        return int(bitgen.random_raw()) if w is None else w

    values = []
    for seg in segments:
        if isinstance(seg, int):
            values.append([word() for _ in range(seg)])
            continue
        out = []
        for h in seg.tolist():
            threshold = ((1 << 32) - h) % h
            while True:
                if held is None:
                    w = word()
                    u, held = w & 0xFFFFFFFF, w >> 32
                else:
                    u, held = held, None
                if (u * h) & 0xFFFFFFFF >= threshold:
                    break
            out.append((u * h) >> 32)
        values.append(out)
    return values, held


def _decoded_blocks(bitgens, held, segments):
    """Draw the segments for every replica, a block of replicas at a time.

    ``held`` (R,) int64 holds each replica's pending half, -1 for none, and is
    updated in place.  Each replica's words come from one ``random_raw`` call
    on its own stream, sized for no rejection; the replicas of a block are
    decoded together per pending flag, and a replica that met a rejection is
    replayed by :func:`_replay`.  Yields (columns, values): the replicas as a
    slice or an index array, and one array per segment with a row for each.
    The values are views of buffers that the next block reuses.
    """
    plans = {pending: _plan(segments, pending) for pending in (0, 1)}
    R = len(bitgens)
    block = min(R, _DECODE_BLOCK)
    word_buf = np.empty((block, max(total for _, total in plans.values())), dtype=np.uint64)
    scratch = [None if isinstance(seg, int) else (((_TWO32 - seg) % seg).astype(np.uint32),
               np.empty((block, len(seg)), np.uint64), np.empty((block, len(seg)), bool))
               for seg in segments]
    for r0 in range(0, R, _DECODE_BLOCK):
        r1 = min(R, r0 + _DECODE_BLOCK)
        # group on the flags as they stand before any replica of the block is redrawn
        flags = held[r0:r1] >= 0
        for pending in (0, 1):
            rows = r0 + np.flatnonzero(flags == bool(pending))
            if not rows.size:
                continue
            spans, total = plans[pending]
            words = word_buf[:rows.size, :total]
            for i, r in enumerate(rows.tolist()):
                words[i] = bitgens[r].random_raw(total)
            start = held[rows].astype(np.uint64) if pending else None
            values, rejected, end = _decode(words, start, spans, segments, scratch)
            held[rows] = -1 if end is None else end
            for i in np.flatnonzero(rejected).tolist():
                replayed, half = _replay(
                    bitgens[rows[i]], words[i], int(start[i]) if pending else None, segments
                )
                for out, part in zip(values, replayed):
                    out[i] = part
                held[rows[i]] = -1 if half is None else half
            yield (slice(r0, r1) if rows.size == r1 - r0 else rows), values


def _draw_chunk(bitgens, held, step_lo, step_hi, m_buf, rep_buf, j_buf, params):
    """Draw steps [step_lo, step_hi] into the step-major buffers (row k = step step_lo + k).

    The steps are one draw chunk, or from step_lo = 1 chunk 0 (step 1, which
    repeats colour 0 with probability q) and chunk 1, all read from one
    ``random_raw`` call per replica.  Per chunk and replica the draws are
    numpy's ``integers(0, highs)`` with highs the step count before each
    step, ``random(width)`` and ``integers(0, 2d-1, size=width)``, in that
    order: ``m_buf`` gets the remembered draws, ``rep_buf`` 1 where the
    uniform's raw word is below the chunk's repeat bound (for q or p), else
    0, and ``j_buf`` the flip draws (left as they are at d = 1, where they
    are all 0).
    """
    twod = params.n_colours
    chunks = [(step_lo, step_hi, _below(params.p))]
    if step_lo == 1:  # chunk 1 is empty, and draws nothing, at n = 1
        chunks = [(1, 1, _below(params.q)), (2, step_hi, _below(params.p))]
    # no draw for m at step 1 (m = -1 matches no CDF row: colour 0) or step 2 (m = 0: step 1)
    fixed = np.arange(step_lo - 2, min(step_hi, 2) - 1)
    m_buf[:fixed.size] = fixed[:, None]
    segments = []
    for lo, hi, _ in chunks:
        width = hi - lo + 1
        highs = np.arange(max(lo, 3) - 1, hi, dtype=np.uint64)
        # at d = 1 the other colour is unique and numpy draws nothing for it
        flips = np.full(width if twod > 2 else 0, twod - 1, dtype=np.uint64)
        segments += [highs, width, flips]
    width = step_hi - step_lo + 1
    below = np.empty((min(len(bitgens), _DECODE_BLOCK), width), dtype=bool)
    for cols, values in _decoded_blocks(bitgens, held, segments):
        for (lo, hi, bound), m, raw, j in zip(chunks, values[0::3], values[1::3], values[2::3]):
            rows = slice(lo - step_lo, hi - step_lo + 1)
            m_buf[rows.stop - m.shape[1]:rows.stop, cols] = m.T
            # compare while replica-major, then move the 1-byte result step-major
            rep_buf[rows, cols] = np.less(raw, bound, out=below[:len(raw), rows]).T
            if twod > 2:
                j_buf[rows, cols] = j.T
    return width


def _project(cdf: np.ndarray, total: int, out: np.ndarray) -> np.ndarray:
    """Project (2d-1, R) colour CDF rows, whose counts sum to ``total``, into (d, R) ``out``.

    Returns out.T.  The counts array is made per call, not kept: kept, it
    would live through the draw passes, where a run's memory peaks.
    """
    counts = np.empty((len(cdf) + 1, cdf.shape[1]), dtype=np.int64)
    counts[0] = cdf[0]
    np.subtract(cdf[1:], cdf[:-1], out=counts[1:-1])
    np.subtract(total, cdf[-1], out=counts[-1])
    return project_counts(counts.T, out=out.T)


def simulate_replicas(
    params: ModelParams,
    n: int,
    snapshot_times: Sequence[int],
    master_seed: int,
    replicas: int,
    track_center_of_mass: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Run ``replicas`` independent paths to time n, recording snapshots.

    Returns (positions, cm_sums): positions is an (R, T, d) view of a (T, d,
    R) array, T the number of distinct snapshot times in ascending order;
    cm_sums is the (R, d) array of per-replica running position sums (so G_n
    = cm_sums / n) or None when not tracked.  Requires 1 <= n < 2^31,
    replicas >= 1, an unsigned 64-bit master seed and snapshot times in [1, n].

    Each step remembers the colour of a uniform past step and repeats it with
    probability p, else takes a uniform other colour; step 1, draw chunk 0,
    remembers colour 0 and repeats it with probability q, and is read with
    draw chunk 1 in one ``random_raw`` call per replica.  A replica's state
    is its colour CDF, cdf[c] = number of steps with colour <= c for c <
    2d-1, kept as (2d-1, R) rows: the remembered colour is the number of
    rows at or below the remembered draw m, and a step of colour x adds one
    to every row c >= x.  Positions are read off the CDF only at snapshot
    times, and the centre of mass from the CDF's running sum.
    """
    d = params.d
    twod = params.n_colours
    n = check_integer("horizon n", n, 1, MAX_STEPS)
    R = check_integer("replicas", replicas, 1)
    master_seed = check_integer("master_seed", master_seed, 0, 2**64 - 1)
    times = sorted({check_integer("snapshot times", t, 1, n) for t in snapshot_times})
    time_slot = {t: i for i, t in enumerate(times)}
    keys = replica_keys(master_seed, np.arange(R))
    bitgens = [replica_generator(master_seed, r, key).bit_generator for r, key in enumerate(keys)]
    held = np.full(R, -1, dtype=np.int64)

    colour = np.int8 if twod <= 127 else np.int32
    out = np.zeros((len(times), d, R), dtype=np.int64)
    chunk = min(CHUNK_STEPS + 1, n)
    m_buf = np.empty((chunk, R), dtype=np.int32)
    rep_buf = np.empty((chunk, R), dtype=colour)
    j_buf = np.zeros((chunk, R), dtype=colour)
    at_or_below = np.empty((twod - 1, R), dtype=bool)
    remembered = np.empty(R, dtype=colour)
    nxt = np.empty(R, dtype=colour)
    rows_c = np.arange(twod - 1, dtype=colour)[:, None]
    cdf = np.zeros((twod - 1, R), dtype=np.int32)
    cm = np.zeros((twod - 1, R), dtype=np.int64) if track_center_of_mass else None
    step = 1
    while step <= n:
        # the first pass draws chunk 0 (step 1 alone) and chunk 1 together
        hi = min(n, step + CHUNK_STEPS - (step > 1))
        width = _draw_chunk(bitgens, held, step, hi, m_buf, rep_buf, j_buf, params)
        for k in range(width):
            # remembered colour: the number of CDF rows at or below m
            np.greater_equal(m_buf[k], cdf, out=at_or_below)
            np.sum(at_or_below, axis=0, dtype=colour, out=remembered)
            # flip target j + (j >= remembered), then remembered where the step repeats
            j = j_buf[k]
            np.greater_equal(j, remembered, out=nxt)
            nxt += j
            remembered ^= nxt
            remembered *= rep_buf[k]
            nxt ^= remembered
            np.less_equal(nxt, rows_c, out=at_or_below)
            cdf += at_or_below
            if cm is not None:
                cm += cdf
            t = step + k
            if t in time_slot:
                _project(cdf, t, out[time_slot[t]])
        step = hi + 1
    if cm is not None:
        cm = _project(cm, n * (n + 1) // 2, np.empty((d, R), dtype=np.int64))
    return out.transpose(2, 0, 1), cm


def _cross_moments(positions: np.ndarray) -> np.ndarray:
    """Sum over replicas of x[r, t, i] * x[r, s, j], shape (T, T, d, d), as float64.

    Computed as one BLAS Gram product X X^T over X = positions viewed (with no
    copy of the axis-major array) as (T*d, R) in float64.  Every product and
    every partial sum is then an integer of magnitude at most R * max|x|^2, so
    while that is below 2^53 the result is exact, bit-identical to the integer
    sum, in whatever order and on however many threads BLAS sums.  Past that,
    it is exact in int64 while R * max|x|^2 < 2^62, and rounded in float64.
    """
    R, T, d = positions.shape
    peak = int(np.abs(positions).max()) if positions.size else 0
    if R * peak * peak < 2**53:
        x = positions.transpose(1, 2, 0).reshape(T * d, R).astype(np.float64)
        return (x @ x.T).reshape(T, d, T, d).transpose(0, 2, 1, 3)
    if R * peak * peak < 2**62:
        return np.einsum("rti,rsj->tsij", positions, positions).astype(np.float64)
    return np.einsum(
        "rti,rsj->tsij", positions.astype(np.float64), positions.astype(np.float64)
    )


def run_ensemble(cfg: EnsembleConfig) -> EnsembleSummary:
    """Simulate the configured ensemble and summarize its snapshot moments.

    Deterministic given the configuration.
    """
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
    cross = _cross_moments(positions)
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
        positions=positions,
        cm_mean=cm_mean,
        cm_cov=cm_cov,
    )
