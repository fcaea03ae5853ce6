"""The simulator's draws against numpy's own ``Generator`` calls.

``simulate_replicas`` reads raw Philox words and decodes them by numpy's
rules; these tests compare it with the per-replica ``Generator`` lockstep
reference (``tests._oracles.lockstep_replicas``) and its decoder with
``Generator.integers``/``random`` on the same substreams.  The simulator keys
each replica's Philox from ``replica_keys``, a vectorized ``SeedSequence``;
``replica_generator`` without a key is the definition it is compared with.
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
    _ZERO_COUNTER,
    CHUNK_STEPS,
    _decoded_blocks,
    _key_seed_type,
    replica_generator,
    replica_keys,
    simulate_replicas,
)
from merw.params import ModelParams, ParameterError

from tests._oracles import lockstep_replicas


@pytest.mark.parametrize(
    "d, p, q, n, replicas, track_cm",
    [
        (1, "3/4", "1/2", 7, 9, True),  # one chunk of even width 6
        (2, "1/2", "7/10", 1030, 12, False),  # chunks of 1024 and 5 steps
        (3, "3/10", "1/2", 1027, 10, True),  # chunks of 1024 and 2 steps
        (2, "9/10", "1/2", 2, 5, True),  # one chunk of one step, no remembered draw
        (3, "1/5", "1/5", 1, 6, True),  # step 1 alone, with a flip draw
        (1, "1/2", "1/2", 30_000, 16, True),  # long horizon: rejected draws are replayed
        # the whole run is the first draw pass; then a one-step second pass; both end
        # on a partial decode block
        (2, "3/4", "1/5", CHUNK_STEPS + 1, 2 * _DECODE_BLOCK + 3, True),
        (3, "2/5", "1/2", CHUNK_STEPS + 2, 2 * _DECODE_BLOCK + 3, False),
    ],
)
def test_matches_generator_lockstep_reference(d, p, q, n, replicas, track_cm):
    assert_matches_lockstep(d, p, q, n, replicas, track_cm, sorted({1, (n + 1) // 2, n}))


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


def test_decoder_matches_numpy_where_half_the_draws_reject():
    # highs in [2^31, 2^32) reject up to half of all bounded draws, so most
    # replicas are replayed and their pending halves diverge; every decoded
    # value and pending half must equal numpy's own calls on the same substream
    R, seed = 2 * _DECODE_BLOCK + 44, 77  # two full decode blocks and a partial one
    rng = np.random.default_rng(5)
    keys = replica_keys(seed, np.arange(R))
    bitgens = [replica_generator(seed, r, key).bit_generator for r, key in enumerate(keys)]
    reference = [replica_generator(seed, r) for r in range(R)]
    held = np.full(R, -1, dtype=np.int64)
    for call, size in enumerate((5, 4, 7)):
        highs = rng.integers(2**31, 2**32, size=size, dtype=np.uint64)
        segments = [highs, 2, np.full(3, 5, dtype=np.uint64)]
        got = [np.zeros((R, size), np.uint64), np.zeros((R, 2), np.uint64), np.zeros((R, 3), np.uint64)]
        for cols, values in _decoded_blocks(bitgens, held, segments):
            for out, part in zip(got, values):
                out[cols] = part
        for r, gen in enumerate(reference):
            np.testing.assert_array_equal(got[0][r], gen.integers(0, highs.astype(np.int64)))
            np.testing.assert_array_equal((got[1][r] >> np.uint64(11)) * 2.0**-53, gen.random(2))
            np.testing.assert_array_equal(got[2][r], gen.integers(0, 5, size=3))
            state = gen.bit_generator.state
            assert held[r] == (state["uinteger"] if state["has_uint32"] else -1)
            mine = bitgens[r].state
            assert mine["buffer_pos"] == state["buffer_pos"]
            np.testing.assert_array_equal(mine["state"]["counter"], state["state"]["counter"])
        if call == 0:
            assert 0 < np.count_nonzero(held >= 0) < R  # both pending groups occur next


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

    def counting(bitgens, held, step_lo, step_hi, *args):
        calls.append((step_lo, step_hi))
        return real(bitgens, held, step_lo, step_hi, *args)

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
    # counter, key, buffer and pending half: the whole Philox state, before any draw
    seed = 2024
    key = replica_keys(seed, np.array([replica], dtype=np.uint64))[0]
    want = np.random.Philox(np.random.SeedSequence(seed, spawn_key=(replica,))).state
    for gen in (replica_generator(seed, replica, key), replica_generator(seed, replica)):
        got = gen.bit_generator.state
        for field in ("counter", "key"):
            np.testing.assert_array_equal(got["state"][field], want["state"][field])
        for field in ("buffer_pos", "has_uint32", "uinteger"):
            assert got[field] == want[field]
        gen.bit_generator.random_raw(3)
    np.testing.assert_array_equal(_ZERO_COUNTER, np.zeros(4, dtype=np.uint64))


def test_key_seed_hands_philox_its_key_and_nothing_else():
    key = replica_keys(5, np.arange(4))[3]
    seed = _key_seed_type()(key)
    np.testing.assert_array_equal(
        replica_generator(5, 3, key).bit_generator.random_raw(8),
        replica_generator(5, 3).bit_generator.random_raw(8),
    )
    for n_words, dtype in ((2, np.uint32), (4, np.uint32), (1, np.uint64), (4, np.uint64)):
        with pytest.raises(ValueError):
            seed.generate_state(n_words, dtype)
    with pytest.raises(ValueError):
        np.random.PCG64(seed)  # asks for four uint64 words


def test_simulate_replicas_builds_no_seed_sequence(monkeypatch):
    calls = []
    real = np.random.SeedSequence

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    replica_generator(9, 0)  # the wrapper sees the definition's own construction
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
