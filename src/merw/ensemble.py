"""Vectorized ensembles of independent walk replicas: merw's one simulator.

Each replica is one path of the walk and of its 2d-colour urn: the colour
counts are the per-direction step counts, and the position is their pairwise
difference (``urn.project_counts``), so the two are one process, simulated
once.  The kernel keeps per replica the colour CDF, cdf[c] = number of steps
with colour <= c for c < 2d-1, as (2d-1, R) rows (int16 while n < 2^15,
else int32) and advances all replicas one step at a time with four
contiguous operations over those rows, as the urn adds one ball of the
step's colour x: one to every row c >= x, found by compare and bump without
forming the remembered colour (see ``simulate_replicas``).  A step's draws
reach the kernel as two step-major rows: the remembered draw m, in the CDF's
type, and one uint8 step code (uint32 from 2d = 128 colours on), the flip
draw j, or all ones where the step repeats; so a draw pass holds 3 bytes per
replica-step while n < 2^15 and 2d < 128.  Step 1 is the kernel's step that
remembers colour 0 (m = -1) and repeats it with probability q.
Positions are formed only at snapshot times, and the centre of mass (for its
battery alone) from the CDF's running sum, both projected in place: the
colour counts are written into one (2d, R) array, and their pairwise
differences straight into the snapshot's (d, R) slot.

Replica r draws from its own Philox substream keyed by (master_seed, r), so
results do not depend on how work is batched and rerunning a configuration
reproduces every path bit for bit.  The key is numpy's ``SeedSequence(
master_seed, spawn_key=(r,))`` state, computed for all replicas in one pass
by ``replica_keys``.  ``_Substreams`` owns each replica's place in its
stream: its key row, its count of words read and its pending 32-bit half,
carried from the replica's one ``random_raw`` call per draw pass to the
next.  A run builds one Philox, which ``replica_generator`` re-keys to the
replica's place through numpy's state setter before each of those calls.
Draw chunk 0 is step 1 alone, and each later chunk up to ``CHUNK_STEPS``
steps; the first pass reads chunks 0 and 1, each later pass one chunk, and
as a replica's words are sequential in one stream no draw changes step.  A
chunk takes exactly numpy's ``Generator`` calls ``integers(0, highs)``
(highs = the step count before each step, from step 3 on), ``random(width)``
and ``integers(0, 2d-1, size=width)``, read as raw Philox words and decoded
in bulk by numpy's rules (Lemire's bounded integers on 32-bit halves,
doubles from the top 53 bits) into step-major buffers; a replica whose pass
meets a rejected draw is set back to the start of its pass and redrawn by
numpy's own ``Generator``.  ``tests/test_golden.py`` pins digests of the
sampled paths, so drift in the kernel or in numpy's streams shows.

Moments come from exact integer sums (``summarize``, also of the centre of
mass's running sums), so summaries are deterministic.  The replica
cross-moments sum_r x[r,t,i] x[r,s,j] are one float64 BLAS Gram product
over the integer values, which is exact (every product and partial sum is
an integer below 2^53) while R * max|x|^2 < 2^53; diffusive walks have |x|
~ sqrt(n), so this holds with a wide margin at every default shape.  Past
that guard (as the running sums, ~ n^(3/2), are at theirs) they are summed
in int64 while R * max|x|^2 < 2^62, else in float64.  The per-replica snapshot
positions are kept in the summary for median and fraction diagnostics, as an
(R, T, d) view of a (T, d, R) array that stores a snapshot row per axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .params import (DEFAULT_STEP_BUDGET, ModelParams, ParameterError, check_budget,
                     check_entries, check_integer, check_reals, check_sequence)
from .urn import project_counts

#: Steps prefetched per chunk.  Part of the determinism contract: changing it
#: reassigns draws to steps and therefore changes sampled paths.
CHUNK_STEPS = 1024

#: Largest horizon: the CDF rows are at most int32, and numpy draws a bounded integer
#: with a 64-bit rule once its range reaches 2^32, which the decoder does not
#: implement.
MAX_STEPS = 2**31 - 1

#: Replicas whose draws are decoded together, sized for L2.
_DECODE_BLOCK = 128

_TWO32 = np.uint64(2**32)


def replica_generator(streams, key, words: int) -> np.random.Philox:
    """Re-key the one Philox of ``streams`` to a replica's substream, ``words`` words in.

    The substream is Philox keyed by the replica's row of :func:`replica_keys`
    (as two ints) from numpy's default zero counter.  The state setter is
    handed ``streams.state`` with that key and the counter of the block that
    holds word ``words``, and the block's first ``words % 4`` words are read
    off; no half is left pending.  Returns the Philox.
    """
    state, bitgen = streams.state, streams.bitgen
    state["state"]["key"], state["state"]["counter"] = key, (words >> 2, 0, 0, 0)
    bitgen.state = state
    if words & 3:
        bitgen.random_raw(words & 3)
    return bitgen


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
    .generate_state(2, np.uint64)`` for r = replicas[i], the key that
    :func:`replica_generator` gives the run's Philox for replica r.  The seed's
    two 32-bit words (zero-padded to the pool size of 4) are mixed into the
    pool once; only the spawn words of r, one below 2^32 and two from there on,
    are hashed per replica, over uint32 arrays.
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
    grid = check_reals("snapshot grid", grid)
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
    configuration whose R * n steps exceed ``step_budget``, or whose (T d)^2
    covariance exceeds ``MAX_MATRIX_ENTRIES``, is refused when it is built.
    """

    params: ModelParams
    replicas: int
    master_seed: int
    n: int
    snapshot_fractions: tuple[float, ...] | None = None
    exponent_times: tuple[float, ...] | None = None
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
        object.__setattr__(self, field_name, check_reals(field_name, getattr(self, field_name)))
        check_entries("the snapshot covariance", len(self.snapshot_times()) * self.params.d)

    def snapshot_times(self) -> tuple[int, ...]:
        """Integer snapshot times implied by the grid, strictly increasing."""
        exponent = self.snapshot_fractions is None
        grid = self.exponent_times if exponent else self.snapshot_fractions
        return grid_times(grid, self.n, exponent)


@dataclass
class EnsembleSummary:
    """Moments across replicas of an integer statistic at T times, plus the statistic.

    ``mean_position`` (T, d), ``position_cov`` (T, T, d, d) and ``mean_se``
    (T, d) are the raw moments of the (R, T, d) ``positions`` at the T
    ``times`` (:func:`summarize`), normalized by the verification layers.
    From :func:`run_ensemble` the statistic is the snapshot positions, an
    (R, T, d) view of a (T, d, R) array.
    """

    times: tuple[int, ...]
    mean_position: np.ndarray
    position_cov: np.ndarray
    mean_se: np.ndarray
    positions: np.ndarray


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


def _scratch(segments, rows):
    """What :func:`_decode` needs per segment: None for raw words, else the
    rejection limits (uint32), their largest and a product buffer of ``rows`` rows."""
    limits = [None if isinstance(seg, int) else ((_TWO32 - seg) % seg).astype(np.uint32)
              for seg in segments]
    return [None if limit is None else (limit, limit.max(initial=0),
                                        np.empty((rows, len(limit)), np.uint64))
            for limit in limits]


def _decode(words, held, spans, segments, scratch):
    """Decode the (G, K) uint64 words of replicas that share one pending flag.

    ``held`` holds their (G,) pending halves, or is None when they hold none.
    A bounded draw in [0, h) takes a half u and gives (u*h) >> 32; numpy draws
    again iff (u*h) mod 2^32 < (2^32 - h) mod h.  ``scratch`` (from
    :func:`_scratch`, of at least G rows) holds per bounded segment those
    limits, their largest and a product buffer.  A rejection needs the
    segment's smallest low product to be below its largest limit, so only
    then are the limits compared draw by draw.  Returns one (G, len) array
    per segment (raw words, or the draws as uint32), the rows that met a
    rejection (an array, or False for none), whose values must be redrawn,
    and the pending halves after.
    """
    G = len(words)
    halves = words.astype("<u8", copy=False).view("<u4")  # low half of each word first
    rejected = False
    values = []
    for (start, stop, pending), seg, buffers in zip(spans, segments, scratch):
        if buffers is None:
            values.append(words[:, start:stop])
            continue
        a = len(seg)
        if not a:
            values.append(np.empty((G, 0), dtype=np.uint32))
            continue
        limit, largest, product = buffers[0], buffers[1], buffers[2][:G]
        first = 2 * start  # the segment's first half after the pending one
        if pending:
            np.multiply(held, seg[0], out=product[:, 0])
        np.multiply(halves[:, first:first + a - pending], seg[pending:], out=product[:, pending:])
        parts = product.view("<u4")
        low = parts[:, 0::2]
        if low.min() < largest:
            rejected = rejected | (low < limit).any(axis=1)
        values.append(parts[:, 1::2])
        held = halves[:, first + a - pending] if pending + 2 * (stop - start) > a else None
    return values, rejected, held


def _redraw(streams, key, words, held, segments):
    """Draw one replica's pass again through numpy's own ``Generator``.

    The bulk decoder met a rejected draw in the pass, which started ``words``
    words into the replica's substream (keyed by ``key``) with ``held`` its
    pending half, -1 for none.  The Philox of ``streams`` is set to that start
    and the segments are drawn as numpy draws them: ``integers(0, highs)``,
    and the raw words that ``random(width)`` reads.  Returns the values of
    each segment, the pending half after (-1 for none) and the words read
    after.
    """
    bitgen = streams.bitgen
    bitgen.state = {**streams.state, "state": {"counter": (words >> 2, 0, 0, 0), "key": key},
                    "has_uint32": int(held >= 0), "uinteger": max(held, 0)}
    bitgen.random_raw(words & 3)
    gen = np.random.Generator(bitgen)
    values = [bitgen.random_raw(seg) if isinstance(seg, int)
              else gen.integers(0, seg, dtype=np.uint64) for seg in segments]
    state = bitgen.state
    # the buffer holds block number counter[0] (from 1), buffer_pos words of it read
    read = 4 * int(state["state"]["counter"][0]) + state["buffer_pos"] - 4
    return values, state["uinteger"] if state["has_uint32"] else -1, read


class _Substreams:
    """Each replica's place in its Philox substream: key, words read and pending half.

    ``keys`` holds the (R, 2) rows of :func:`replica_keys`, ``words`` (R,)
    int64 the count of words each replica has read, and ``held`` (R,) int64
    its pending 32-bit half, -1 for none.  ``bitgen`` is the one Philox that
    :func:`replica_generator` re-keys to each replica in turn (its own seed is
    never drawn from) through the state dict ``state``.
    """

    def __init__(self, master_seed: int, replicas: int):
        self.keys = replica_keys(master_seed, np.arange(replicas))
        self.words = np.zeros(replicas, dtype=np.int64)
        self.held = np.full(replicas, -1, dtype=np.int64)
        self.bitgen = np.random.Philox(0)
        self.state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": (0, 0)},
                      "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _decoded_blocks(streams, segments):
    """Draw the segments for every replica of ``streams``, a block of replicas at a time.

    Each replica's words come from one ``random_raw`` call, sized for no
    rejection, on the one Philox re-keyed to the replica's place in its
    substream, and its words read and pending half in ``streams`` are
    updated; the replicas of a block are decoded together per pending flag,
    and a replica that met a rejection is redrawn by numpy's ``Generator``
    from the start of its pass (:func:`_redraw`).  Yields (columns, values):
    the replicas as a slice or an index array, and one array per segment with
    a row for each.  The values are views of buffers that the next block
    reuses.
    """
    held, read = streams.held, streams.words
    plans = {pending: _plan(segments, pending) for pending in (0, 1)}
    R = len(held)
    block = min(R, _DECODE_BLOCK)
    word_buf = np.empty(block * max(total for _, total in plans.values()), dtype=np.uint64)
    scratch = _scratch(segments, block)
    for r0 in range(0, R, _DECODE_BLOCK):
        r1 = min(R, r0 + _DECODE_BLOCK)
        # group on the flags as they stand before any replica of the block is redrawn
        flags = held[r0:r1] >= 0
        for pending in (0, 1):
            rows = r0 + np.flatnonzero(flags == bool(pending))
            if not rows.size:
                continue
            spans, total = plans[pending]
            keys, starts = streams.keys[rows].tolist(), read[rows].tolist()
            words = word_buf[:rows.size * total]
            np.concatenate([replica_generator(streams, key, w).random_raw(total)
                            for key, w in zip(keys, starts)], out=words)
            words = words.reshape(rows.size, total)
            start = held[rows].astype(np.uint64) if pending else None
            values, rejected, end = _decode(words, start, spans, segments, scratch)
            held[rows] = -1 if end is None else end
            read[rows] += total
            for i in np.flatnonzero(rejected).tolist():
                half = int(start[i]) if pending else -1
                redrawn, held[rows[i]], read[rows[i]] = _redraw(streams, keys[i], starts[i], half,
                                                                segments)
                for out, part in zip(values, redrawn):
                    out[i] = part
            yield (slice(r0, r1) if rows.size == r1 - r0 else rows), values


def _draw_chunk(streams, step_lo, step_hi, m_buf, code_buf, params):
    """Draw steps [step_lo, step_hi] into the step-major buffers (row k = step step_lo + k).

    The steps are one draw chunk, or from step_lo = 1 chunk 0 (step 1, which
    repeats colour 0 with probability q) and chunk 1, all read from one
    ``random_raw`` call per replica.
    Per chunk and replica the draws are numpy's ``integers(0, highs)`` with
    highs the step count before each step, ``random(width)`` and
    ``integers(0, 2d-1, size=width)``, in that order: ``m_buf`` gets the
    remembered draws and ``code_buf`` each step's unsigned code, all ones
    where the uniform's raw word is below the chunk's repeat bound (for q or
    p) and the step repeats, else the flip draw j (0 at d = 1, where numpy
    draws none).  A block's codes are formed step-major, as j | -repeat, from
    transposed views of its draws, and copied into ``code_buf`` (whose
    columns may be an index array, so the copy is an assignment).
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
    codes = np.empty((width, min(len(streams.held), _DECODE_BLOCK)), dtype=code_buf.dtype)
    for cols, values in _decoded_blocks(streams, segments):
        G = len(values[1])
        for (lo, hi, bound), m, raw, j in zip(chunks, values[0::3], values[1::3], values[2::3]):
            rows = slice(lo - step_lo, hi - step_lo + 1)
            m_buf[rows.stop - m.shape[1]:rows.stop, cols] = m.T
            code = codes[rows, :G]
            np.negative(np.less(raw.T, bound, out=code), out=code)
            if twod > 2:
                np.bitwise_or(code, j.T, out=code, casting="unsafe")
            code_buf[rows, cols] = code
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
    2d-1, kept as (2d-1, R) rows, int16 while n < 2^15 and int32 from there.
    A step of colour x adds one to every row c >= x.  With r the remembered
    colour, the rows c >= r are those with m < cdf[c] for the remembered
    draw m, and a flip draw j gives x = j + (j >= r), so x <= c iff j + (r <=
    c) <= c; a repeat's code is all ones in its unsigned type, and adding (r
    <= c) wraps it to 0 on exactly the rows c >= r.  Positions are read off
    the CDF only at snapshot times, and the centre of mass from the CDF's
    running sum.
    """
    d = params.d
    twod = params.n_colours
    n = check_integer("horizon n", n, 1, MAX_STEPS)
    R = check_integer("replicas", replicas, 1)
    master_seed = check_integer("master_seed", master_seed, 0, 2**64 - 1)
    times = sorted({check_integer("snapshot times", t, 1, n)
                    for t in check_sequence("snapshot times", snapshot_times)})
    time_slot = {t: i for i, t in enumerate(times)}
    streams = _Substreams(master_seed, R)

    colour = np.uint8 if twod <= 127 else np.uint32
    # draws stay below n and CDF rows at most n; signed, as m = -1 marks step 1
    index = np.int16 if n < 2**15 else np.int32
    out = np.zeros((len(times), d, R), dtype=np.int64)
    chunk = min(CHUNK_STEPS + 1, n)
    m_buf = np.empty((chunk, R), dtype=index)
    code_buf = np.empty((chunk, R), dtype=colour)
    mask = np.empty((twod - 1, R), dtype=bool)
    target = np.empty((twod - 1, R), dtype=colour)
    rows = np.arange(twod - 1, dtype=colour)[:, None]
    cdf = np.zeros((twod - 1, R), dtype=index)
    cm = np.zeros((twod - 1, R), dtype=np.int64) if track_center_of_mass else None
    step = 1
    while step <= n:
        # the first pass draws chunk 0 (step 1 alone) and chunk 1 together
        hi = min(n, step + CHUNK_STEPS - (step > 1))
        width = _draw_chunk(streams, step, hi, m_buf, code_buf, params)
        for k in range(width):
            # the rows c >= r, as m < cdf[c] iff r <= c
            np.less(m_buf[k], cdf, out=mask)
            # the rows c >= x, as x <= c iff code + (r <= c) <= c
            np.add(code_buf[k], mask, out=target)
            np.less_equal(target, rows, out=mask)
            cdf += mask
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
    peak = max(int(positions.max()), -int(positions.min())) if positions.size else 0
    if R * peak * peak < 2**53:
        x = positions.transpose(1, 2, 0).reshape(T * d, R).astype(np.float64)
        return (x @ x.T).reshape(T, d, T, d).transpose(0, 2, 1, 3)
    if R * peak * peak < 2**62:
        return np.einsum("rti,rsj->tsij", positions, positions).astype(np.float64)
    return np.einsum(
        "rti,rsj->tsij", positions.astype(np.float64), positions.astype(np.float64)
    )


def summarize(times, positions: np.ndarray) -> EnsembleSummary:
    """merw's one moment reduction, of an (R, T, d) integer statistic at the T ``times``:
    exact int64 sums, :func:`_cross_moments`, the covariance (cross - sums sums^T / R) /
    (R - 1) and the standard error sqrt(var / R) of each mean."""
    R = len(positions)
    sums = positions.sum(axis=0)  # (T, d) int64, exact
    mean = sums / R
    cross = _cross_moments(positions)
    sums_f = sums.astype(np.float64)  # |sums| can reach R*n: square in float64
    outer = np.einsum("ti,sj->tsij", sums_f, sums_f) / R
    cov = (cross - outer) / (R - 1)
    var_diag = np.einsum("ttii->ti", cov)
    se = np.sqrt(np.maximum(var_diag, 0.0) / R)
    return EnsembleSummary(times, mean, cov, se, positions)


def run_ensemble(cfg: EnsembleConfig) -> EnsembleSummary:
    """Simulate the configured ensemble and summarize its snapshot positions, deterministically."""
    times = cfg.snapshot_times()
    positions, _ = simulate_replicas(cfg.params, cfg.n, times, cfg.master_seed, cfg.replicas)
    return summarize(times, positions)
