"""A fixed task that gauges how fast the host runs one thread at the moment.

On the shared 2-core box the benchmark was built on, the speed the host gives
one thread shifts by up to 1.5x for tens of seconds at a time: one run's ops
took 3.6 s each where the runs around it took 5.0-5.6 s, with merw and the
inputs unchanged. The median op time of a run therefore follows the host
as much as merw. The benchmark times this task throughout each run, between
the ops, and reports op times in units of it (``wall_ref``).

The task is a miniature of the three kinds of work merw's ops do, on fixed
inputs: elementwise numpy steps on arrays of 10^4 replicas (the per-step
kernel), the same arithmetic streamed over arrays of 10^6 replicas (the
reductions over all snapshots), and pure-Python row formatting (the cli).
Each kind reacts to the host's shifts differently, so one alone tracked them
worse than the three together. The task calls no merw code: a change to merw
moves the ops but not the reference.
"""

from __future__ import annotations

import time

import numpy as np

_SMALL = np.random.default_rng(0).integers(-5, 5, size=(10_000, 2))
_SMALL_STEP = np.sign(_SMALL)


def _kernel_steps() -> None:
    x = _SMALL.copy()
    for _ in range(150):
        x += _SMALL_STEP
        np.abs(x).sum(axis=1)


def _large_arrays() -> None:
    # built on each call, so that the task holds no memory while the ops run
    x = np.arange(2_000_000, dtype=np.int64).reshape(-1, 2) % 11 - 5
    x += np.sign(x)
    np.abs(x).sum(axis=1)


def _rows() -> int:
    return len("\n".join(f"{i},{i * 3},{-i}" for i in range(60_000)))


def reference_s() -> float:
    """Wall time of one run of the task (about 0.1 s on the build box)."""
    t0 = time.perf_counter()
    _kernel_steps()
    _large_arrays()
    _rows()
    return time.perf_counter() - t0
