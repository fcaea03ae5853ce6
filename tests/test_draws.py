"""The simulator's draws against numpy's own ``Generator`` calls.

``simulate_replicas`` reads raw Philox words and decodes them by numpy's
rules; these tests compare it with the per-replica ``Generator`` lockstep
reference (``tests._oracles.lockstep_replicas``) and its decoder with
``Generator.integers``/``random`` on the same substreams.  The simulator
re-keys one Philox to each replica's substream, keyed by ``replica_keys``, a
vectorized ``SeedSequence``; ``tests._oracles.seed_sequence_generator`` is
the definition it is compared with.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import merw
import merw.ensemble
from merw.ensemble import (
    _DECODE_BLOCK,
    CHUNK_STEPS,
    _decode,
    _decoded_blocks,
    _plan,
    _scratch,
    _Substreams,
    replica_generator,
    replica_keys,
    simulate_replicas,
)
from merw.params import ModelParams, ParameterError

from tests._oracles import lockstep_replicas, seed_sequence_generator

ALMOST_ONE = f"{2**40 - 1}/{2**40}"


@pytest.mark.parametrize(
    "d, p, q, n, replicas, track_cm",
    [
        (1, "3/4", "1/2", 7, 9, True),  # one chunk of even width 6
        (2, "1/2", "7/10", 1030, 12, False),  # chunks of 1024 and 5 steps
        (3, "3/10", "1/2", 1027, 10, True),  # chunks of 1024 and 2 steps
        (2, "9/10", "1/2", 2, 5, True),  # one chunk of one step, no remembered draw
        (3, "1/5", "1/5", 1, 6, True),  # step 1 alone, with a flip draw
        # long horizons: rejected draws are redrawn, at d = 2 with their flip segments
        (1, "1/2", "1/2", 30_000, 16, True),
        (2, "1/2", "1/2", 40_000, 16, True),
        # the whole run is the first draw pass; then a one-step second pass; both end
        # on a partial decode block
        (2, "3/4", "1/5", CHUNK_STEPS + 1, 2 * _DECODE_BLOCK + 3, True),
        (3, "2/5", "1/2", CHUNK_STEPS + 2, 2 * _DECODE_BLOCK + 3, False),
        # from 2d = 128 colours on, uint32 step codes; at d = 100 a third of the flip
        # draws reach 128 and more
        (64, "1/2", "1/2", 40, 5, True),
        (100, "1/3", "1/2", 40, 5, False),
        # the kernel's extremes: every step repeats colour 0, so a repeat's all-ones code
        # wraps to 0 on every row; every step from 2 on repeats step 1's colour, which is
        # not 0 in most replicas, so the code stays all ones on the rows below it; almost
        # every step flips
        (3, ALMOST_ONE, ALMOST_ONE, 300, 4, True),
        (3, ALMOST_ONE, "1/1000000000", 300, 6, True),
        (2, "1/1000000000", "1/2", 300, 5, True),
        # one on each side of the switch from int16 to int32 draw and CDF rows: with p and
        # q at 1 - 2^-40 every step takes colour 0, so CDF row 0 reaches n
        (1, ALMOST_ONE, ALMOST_ONE, 2**15 - 1, 3, True),
        (1, ALMOST_ONE, ALMOST_ONE, 2**15, 3, True),
    ],
)
def test_matches_generator_lockstep_reference(monkeypatch, d, p, q, n, replicas, track_cm):
    redraws = []
    real = merw.ensemble._redraw

    def counting(*args):
        redraws.append(args)
        return real(*args)

    monkeypatch.setattr(merw.ensemble, "_redraw", counting)
    assert_matches_lockstep(d, p, q, n, replicas, track_cm, sorted({1, (n + 1) // 2, n}))
    if n >= 30_000 and replicas >= 16:  # the 16-replica long-horizon rows meet rejected draws
        assert redraws


@pytest.mark.parametrize("d, p, q, n, replicas", [
    (1, "3/4", "1/2", 40, 9),
    (2, "1/2", "7/10", 41, _DECODE_BLOCK + 5),
    (3, "3/10", "1/5", 39, 10),
])
def test_matches_generator_lockstep_reference_at_every_step(d, p, q, n, replicas):
    # a snapshot at every t projects the CDF rows at every step, t = 1 included
    assert_matches_lockstep(d, p, q, n, replicas, True, range(1, n + 1))


def assert_matches_lockstep(d, p, q, n, replicas, track_cm, times):
    params = ModelParams(d, p, q)
    seed = 1000 + n
    expected = lockstep_replicas(
        d, params.p, params.q, n, times, seed, replicas, track_cm, chunk_steps=CHUNK_STEPS
    )
    got = simulate_replicas(params, n, times, seed, replicas, track_center_of_mass=track_cm)
    np.testing.assert_array_equal(got[0], expected[0])
    if track_cm:
        np.testing.assert_array_equal(got[1], expected[1])
    else:
        assert got[1] is None and expected[1] is None


def test_decoder_matches_numpy_where_half_the_draws_reject(monkeypatch):
    # highs in [2^31, 2^32) reject up to half of all bounded draws, so most
    # replicas are redrawn by numpy's Generator from the start of their pass and
    # their word offsets and pending halves diverge; every decoded value, count of
    # words read and pending half must equal numpy's own calls on the same
    # substream, for redrawn passes that start at each word offset in a Philox
    # block, with and without a held half
    R, seed = 2 * _DECODE_BLOCK + 44, 77  # two full decode blocks and a partial one
    rng = np.random.default_rng(5)
    streams = _Substreams(seed, R)
    reference = [seed_sequence_generator(seed, r) for r in range(R)]
    held = streams.held
    replica = {tuple(key): r for r, key in enumerate(streams.keys.tolist())}
    redrawn = []
    real = merw.ensemble._redraw

    def spying(streams, key, *args):
        redrawn.append(replica[tuple(key)])
        return real(streams, key, *args)

    monkeypatch.setattr(merw.ensemble, "_redraw", spying)
    starts = set()
    for call, size in enumerate((5, 4, 7)):
        # (word offset in its Philox block, held half) at the start of each replica's pass
        start = [(_words_read(gen.bit_generator) % 4, h >= 0) for gen, h in zip(reference, held)]
        redrawn.clear()
        highs = rng.integers(2**31, 2**32, size=size, dtype=np.uint64)
        segments = [highs, 2, np.full(3, 5, dtype=np.uint64)]
        got = [np.zeros((R, size), np.uint64), np.zeros((R, 2), np.uint64), np.zeros((R, 3), np.uint64)]
        for cols, values in _decoded_blocks(streams, segments):
            for out, part in zip(got, values):
                out[cols] = part
        starts.update(start[r] for r in redrawn)
        for r, gen in enumerate(reference):
            np.testing.assert_array_equal(got[0][r], gen.integers(0, highs.astype(np.int64)))
            np.testing.assert_array_equal((got[1][r] >> np.uint64(11)) * 2.0**-53, gen.random(2))
            np.testing.assert_array_equal(got[2][r], gen.integers(0, 5, size=3))
            state = gen.bit_generator.state
            assert held[r] == (state["uinteger"] if state["has_uint32"] else -1)
            assert streams.words[r] == _words_read(gen.bit_generator)
        if call == 0:
            assert 0 < np.count_nonzero(held >= 0) < R  # both pending groups occur next
    assert starts == {(offset, half) for offset in range(4) for half in (False, True)}


def test_decode_compares_each_draw_with_its_own_limit():
    # numpy rejects a draw of [0, h) iff its low product (u*h) mod 2^32 is below
    # (2^32 - h) mod h: 1 for h = 3 and 2^31 - 1 for h = 2^31 + 1.  A low product
    # at a column's limit - 1 is rejected and one at the limit is not, though it
    # is below the largest limit of the segment
    highs = np.array([3, 2**31 + 1], dtype=np.uint64)
    limit = (2**32 - highs) % highs
    assert limit.tolist() == [1, 2**31 - 1]
    inverse = pow(3, -1, 2**32)  # 3 * inverse = 1 mod 2^32
    halves = np.array([[0, 1], [inverse, 1], [inverse, 0]], dtype="<u4")  # (u for h = 3, u for h')
    words = halves.view("<u8")
    spans, total = _plan([highs], 0)
    assert total == 1
    values, rejected, held = _decode(words, None, spans, [highs], _scratch([highs], 3))
    # row 0: 0 < 1 for h = 3; row 1: 1 and 2^31 + 1 pass; row 2: 0 < 2^31 - 1 for h'
    assert rejected.tolist() == [True, False, True]
    products = halves.astype(object) * highs.astype(object)
    np.testing.assert_array_equal(values[0], (products >> 32).astype(np.uint64))
    assert held is None


def _words_read(bitgen):
    # Philox's buffer holds block number counter[0] (from 1), buffer_pos words of it read
    state = bitgen.state
    return 4 * int(state["state"]["counter"][0]) + state["buffer_pos"] - 4


@pytest.mark.parametrize("n, passes", [
    (CHUNK_STEPS + 1, [(1, CHUNK_STEPS + 1)]),
    (2 * CHUNK_STEPS + 1, [(1, CHUNK_STEPS + 1), (CHUNK_STEPS + 2, 2 * CHUNK_STEPS + 1)]),
    (2 * CHUNK_STEPS + 2, [(1, CHUNK_STEPS + 1), (CHUNK_STEPS + 2, 2 * CHUNK_STEPS + 1),
                           (2 * CHUNK_STEPS + 2, 2 * CHUNK_STEPS + 2)]),
])
def test_draw_chunks_0_and_1_are_one_pass(monkeypatch, n, passes):
    # one _draw_chunk call, and so one random_raw call per replica, per pass
    calls = []
    real = merw.ensemble._draw_chunk

    def counting(streams, step_lo, step_hi, *args):
        calls.append((step_lo, step_hi))
        return real(streams, step_lo, step_hi, *args)

    monkeypatch.setattr(merw.ensemble, "_draw_chunk", counting)
    simulate_replicas(ModelParams(2, "1/2"), n, [n], 1, 3)
    assert calls == passes


@pytest.mark.parametrize("seed", [0, 123, 2**32, 2**40 + 7, 2**64 - 1])
def test_replica_keys_equal_seed_sequence_keys(seed):
    # one and two seed words, one and two spawn words, without a 2^32-long array
    edges = [0, 1, 255, 256, 2**32 - 1, 2**32, 2**32 + 1]
    replicas = np.concatenate([np.array(edges, dtype=np.uint64), np.arange(300, dtype=np.uint64)])
    expected = [
        np.random.SeedSequence(seed, spawn_key=(r,)).generate_state(2, np.uint64).tolist()
        for r in replicas.tolist()
    ]
    assert replica_keys(seed, replicas).tolist() == expected


def test_replica_keys_refuse_bad_input():
    for seed, replicas in ((-1, [0]), (2**64, [0]), (1, [-1]), (1, [[0]]), (1, [0.5])):
        with pytest.raises(ParameterError):
            replica_keys(seed, replicas)


@pytest.mark.parametrize("replica", [0, 1, 2**32])
def test_substream_state_equals_seed_sequence_philox(replica):
    # counter, key, buffer and pending half: the whole Philox state, before any draw and
    # 7 words in, after the one Philox was left with a half pending by another stream
    seed = 2024
    key = replica_keys(seed, np.array([replica], dtype=np.uint64))[0].tolist()
    streams = _Substreams(seed, 1)
    np.random.Generator(streams.bitgen).integers(0, 5, size=3)
    want = seed_sequence_generator(seed, replica).bit_generator
    for words in (0, 7):
        want.random_raw(words)
        bitgen = replica_generator(streams, key, words)
        assert bitgen is streams.bitgen and type(bitgen) is np.random.Philox
        got, expected = bitgen.state, want.state
        for field in ("counter", "key"):
            np.testing.assert_array_equal(got["state"][field], expected["state"][field])
        np.testing.assert_array_equal(got["buffer"], expected["buffer"])
        for field in ("buffer_pos", "has_uint32", "uinteger"):
            assert got[field] == expected[field]
    np.testing.assert_array_equal(bitgen.random_raw(9), want.random_raw(9))


def test_simulate_replicas_builds_one_philox(monkeypatch):
    # one Philox per call, re-keyed to every replica in every pass
    calls = []
    real = np.random.Philox

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    seed_sequence_generator(9, 0)  # the wrapper sees the definition's own construction
    assert len(calls) == 1
    calls.clear()
    passes = []
    real_chunk = merw.ensemble._draw_chunk

    def chunk(streams, *args):
        passes.append(args[:2])
        return real_chunk(streams, *args)

    monkeypatch.setattr(merw.ensemble, "_draw_chunk", chunk)
    simulate_replicas(ModelParams(2, "1/2"), CHUNK_STEPS + 3, [CHUNK_STEPS + 3], 9,
                      2 * _DECODE_BLOCK + 5)
    assert len(passes) == 2
    assert len(calls) <= 1


def test_simulate_replicas_builds_no_seed_sequence(monkeypatch):
    calls = []
    real = np.random.SeedSequence

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    seed_sequence_generator(9, 0)  # the wrapper sees the definition's own construction
    assert len(calls) == 1
    calls.clear()
    simulate_replicas(ModelParams(2, "1/2"), 3, [3], 9, 1000)
    assert calls == []


def test_importing_merw_leaves_numpy_random_unloaded():
    # numpy.random loads on the first simulation, so the CLI's other commands start faster
    src = str(Path(merw.__file__).resolve().parents[1])
    code = "import sys, merw.cli; assert 'numpy.random' not in sys.modules, 'loaded'"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
