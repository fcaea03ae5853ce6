"""Benchmark merw end to end and, in a traced run, layer by layer.

    python3 bench/run.py --workload {wide,deep,grid,dump,all} --seed N \\
        --seconds S --trace {0,1}

One op is one battery call (``merw.montecarlo.verify_*``) or one
``merw simulate`` call (``merw.cli.main``), timed from outside.  Ops of the
workload repeat at the same master seed until the next one would end past
``--seconds`` from the start; the first op warms up and is not timed.  Every
op is checked: it must not raise, its snapshot positions must pass the exact
second-moment gate and the lattice invariants, and it must reproduce the
first op's positions bit for bit.  A failing battery verdict is a
diagnostic, not a failed op (see README.md).

``--trace 0`` reports the end-to-end metrics, with op times in units of a
fixed reference task timed between the ops (see reference.py); ``--trace 1``
alternates untraced ops with ops run under per-layer hooks, and reports the
layers of the median traced op.  The last line of standard output is one JSON
object.  ``--workload all`` runs each workload in its own process, so that
peak RSS is per workload.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import digest, lattice_invariants, moment_gate, parse_dump
from hooks import Tracer, capture_returns
from reference import reference_s
from workloads import ROOT, SRC, WORKLOADS, build_inputs, import_merw

SETUP_SAMPLES_PER_OP = 3


def metric_units() -> dict[str, dict[str, str]]:
    """Units of the end-to-end and per-layer metrics, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


@dataclass
class Op:
    wall_s: float
    failures: list[str] = field(default_factory=list)
    digest: str | None = None
    max_z: float | None = None
    checks: int = 0
    gates_failed: int = 0
    rows: int = 0
    bytes_written: int = 0
    file_sha256: str | None = None
    peak_rss_mb: float | None = None
    self_s: dict = field(default_factory=dict)
    calls: dict = field(default_factory=dict)


def run_op(workload, inputs) -> tuple[Op, object]:
    """Run and time one op; return it with its (R, T, d) snapshot positions."""
    import merw.cli
    import merw.montecarlo

    if workload.battery is None:
        t0 = time.perf_counter()
        code = merw.cli.main(inputs)
        op = Op(time.perf_counter() - t0)
        if code != 0:
            op.failures.append(f"merw simulate exited with {code}")
        return op, None
    summaries: list = []
    with capture_returns("merw.ensemble", "run_ensemble", summaries):
        t0 = time.perf_counter()
        report = getattr(merw.montecarlo, workload.battery)(inputs)
        op = Op(time.perf_counter() - t0)
    op.checks = len(report.checks)
    op.gates_failed = sum(c.gating and not c.passed for c in report.checks)
    positions = summaries[-1].positions if summaries else None
    if positions is None:
        op.failures.append("no snapshot positions were captured from run_ensemble")
    return op, positions


def check_op(op: Op, workload, positions, out: Path, first: Op | None = None) -> None:
    """Apply the exact-moment gate and the invariants; record failures on ``op``.

    A dump that is byte for byte the file of the ``first`` op takes that op's
    verdict instead of being parsed again.
    """
    times = workload.snapshot_times()
    if workload.battery is None and not op.failures:
        data = out.read_bytes()
        out.unlink()
        op.bytes_written = len(data)
        op.file_sha256 = hashlib.sha256(data).hexdigest()
        if first is not None and first.file_sha256 == op.file_sha256:
            op.digest, op.max_z, op.rows = first.digest, first.max_z, first.rows
            op.failures += first.failures
            return
        positions, failures = parse_dump(data.decode("utf-8"), workload)
        op.failures += failures
        if positions is not None:
            op.rows = positions.shape[0] * positions.shape[1]
    if positions is None:
        return
    if positions.shape != (workload.replicas, len(times), workload.d):
        op.failures.append(f"positions have shape {positions.shape}")
        return
    op.digest = digest(positions)
    # a dump is gated on its final snapshot, a battery on every snapshot
    gated = slice(-1, None) if workload.battery is None else slice(None)
    op.max_z, failures = moment_gate(
        positions[:, gated, :], workload.d, workload.p_exact, times[gated]
    )
    op.failures += failures + lattice_invariants(positions, times)


def run_ops(workload, prepare, out: Path, deadline: float, tracer=None) -> list[Op]:
    """Repeat the op until the next one would end past ``deadline``; at least twice.

    ``prepare()`` gives each op its inputs.  With a tracer, every second op
    (1, 3, ...) runs with the layer hooks in.
    """
    ops: list[Op] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(ops) % 2 == 1
        try:
            inputs = prepare()
            with tracer.hooks() if traced else contextlib.nullcontext():
                op, positions = run_op(workload, inputs)
        except Exception:  # an op that raises is a failed op, not a crashed run
            op, positions = Op(float("nan"), [traceback.format_exc(limit=3)]), None
        if traced:
            op.self_s, op.calls = dict(tracer.self_s), dict(tracer.calls)
        if not ops:
            op.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check_op(op, workload, positions, out, ops[0] if ops else None)
        if ops and op.digest != ops[0].digest:
            op.failures.append("positions differ from the first op at the same seed")
        ops.append(op)
        now = time.perf_counter()
        if now + (now - start) / len(ops) > deadline and len(ops) >= 2:
            return ops


def set_up(workload, seed: int, out: Path, merw_modules=()) -> tuple[float, object]:
    """Import merw and build the workload's inputs; return the seconds and the inputs.

    ``merw_modules`` (what the first import of merw loaded) are dropped
    first, so each call re-runs merw's import together with any dependency
    merw pulls in.  The interpreter's start and numpy, loaded before that
    first import, are constant costs outside merw and are not counted.
    """
    for name in merw_modules:
        sys.modules.pop(name, None)
    t0 = time.perf_counter()
    import_merw()
    inputs = build_inputs(workload, seed, out)
    return time.perf_counter() - t0, inputs


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(ops: list[Op]) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_lines": sum(p.read_bytes().count(b"\n") for p in (SRC / "merw").glob("*.py")),
        "positions_sha256": ops[0].digest,
    }


def end_to_end(workload, ops: list[Op], peak_rss_mb: float, setup: list[float],
               reference: list[float]) -> dict:
    """Medians over the timed ``ops`` (the warm-up op left out), ``setup`` and ``reference``.

    An op's time is given in units of the reference task, timed between the
    same ops, so that shifts in the host's speed cancel (see reference.py).
    """
    wall_ref = statistics.median(op.wall_s for op in ops) / statistics.median(reference)
    return {
        "wall_ref": wall_ref,
        "steps_per_ref": workload.replica_steps / wall_ref,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup),
    }


def per_layer(workload, traced: list[Op], untraced: list[Op], hooked: set[str]) -> tuple[dict, dict]:
    """Layer metrics of the median traced op (so self times add up to its wall)."""
    op = sorted(traced, key=lambda o: o.wall_s)[(len(traced) - 1) // 2]

    def self_s(layer):
        return op.self_s.get(layer, 0.0) if layer in hooked else None

    def calls(layer):
        return op.calls.get(layer, 0) if layer in hooked else None

    def per(value, count, scale=1e9):
        if value is None:
            return None
        return value / count * scale if count else 0.0

    steps = workload.replica_steps
    kernel_calls = calls("ensemble.step_kernel")
    metrics = {
        "ensemble.substream_setup_s": self_s("ensemble.substream_setup"),
        "ensemble.substream_setups": calls("ensemble.substream_setup"),
        "ensemble.draw_prefetch_s": self_s("ensemble.draw_prefetch"),
        "ensemble.draw_prefetch_ns_per_step": per(self_s("ensemble.draw_prefetch"), steps),
        "ensemble.draw_chunks": calls("ensemble.draw_prefetch"),
        "ensemble.step_kernel_s": self_s("ensemble.step_kernel"),
        "ensemble.step_kernel_ns_per_step": per(self_s("ensemble.step_kernel"), steps),
        "ensemble.replica_steps": None if kernel_calls is None else kernel_calls * steps,
        "ensemble.reduce_s": self_s("ensemble.reduce"),
        "ensemble.cross_moments_s": self_s("ensemble.cross_moments"),
        "montecarlo.checks_s": self_s("montecarlo.checks"),
        "montecarlo.checks": op.checks,
        "montecarlo.gates_failed": op.gates_failed,
        "theory.s": self_s("theory"),
        "theory.calls": calls("theory"),
        "cli.serialize_s": self_s("cli.serialize"),
        "cli.serialize_ns_per_row": per(self_s("cli.serialize"), op.rows),
        "cli.rows": op.rows,
        "cli.bytes_written": op.bytes_written,
        "other_s": op.wall_s - sum(op.self_s.values()),
        "traced_wall_s": op.wall_s,
        "trace_overhead_s": op.wall_s - statistics.median(o.wall_s for o in untraced),
    }
    shares = {layer: op.self_s.get(layer, 0.0) / op.wall_s for layer in sorted(hooked)}
    shares["other"] = metrics["other_s"] / op.wall_s
    return metrics, shares


def print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<36} {shown:>14} {units[name]}")


def run_workload(args) -> int:
    deadline = time.perf_counter() + args.seconds
    workload = WORKLOADS[args.workload]
    units = metric_units()["per_layer" if args.trace else "end_to_end"]
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
        out = Path(tmp) / "dump.csv"
        before = set(sys.modules)
        try:
            _, inputs = set_up(workload, args.seed, out)
        except ImportError as err:
            print(f"error: cannot import merw from {SRC}: {err}", file=sys.stderr)
            return 2
        merw_modules = set(sys.modules) - before
        setup: list[float] = []
        reference: list[float] = []

        def prepare():
            # set-up and the reference task are sampled before every untraced
            # op, so that their samples spread over the run as the op times do
            if args.trace:
                return inputs
            for _ in range(SETUP_SAMPLES_PER_OP):
                reference.append(reference_s())
                seconds, fresh = set_up(workload, args.seed, out, merw_modules)
                setup.append(seconds)
            return fresh

        tracer = Tracer() if args.trace else None
        ops = run_ops(workload, prepare, out, deadline, tracer)

    failed = [op for op in ops if op.failures]
    print(f"workload {workload.name}: {len(ops)} ops, {len(failed)} failed, "
          f"R={workload.replicas} n={workload.n} T={len(workload.snapshot_times())}")
    for i, op in enumerate(ops):
        print(f"  op {i}: wall {op.wall_s:.4f} s{' (warm-up, untimed)' if i == 0 else ''}, "
              f"max|z| {op.max_z}, battery gates failed {op.gates_failed}/{op.checks} (diagnostic)")
        for failure in op.failures:
            print(f"    FAIL: {failure}")
    print(f"  fail_fraction {len(failed) / len(ops):.6g}")
    print("provenance " + json.dumps(provenance(ops)))
    completed = [op for op in ops if math.isfinite(op.wall_s)]  # ops that did not raise
    # op 0 warms up: it is checked, and gives peak RSS, but is not timed
    timed = [op for op in ops[1:] if math.isfinite(op.wall_s)] or completed
    if not completed:
        metrics = {}
    elif args.trace:
        untraced = [op for op in ops[2::2] if math.isfinite(op.wall_s)] or completed[:1]
        traced = [op for op in ops[1::2] if math.isfinite(op.wall_s)] or completed
        metrics, shares = per_layer(workload, traced, untraced, tracer.hooked)
        print_metrics(metrics, units)
        dominant = max(shares, key=shares.get)
        verdict = "as expected" if dominant in workload.dominant else "MISMATCH"
        print(f"  dominant layer {dominant} ({shares[dominant]:.1%}), expected one of "
              f"{', '.join(workload.dominant)}: {verdict}")
        print("  shares " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
        print("  no wait metrics: merw runs single-threaded, so no layer waits on another")
    else:
        metrics = end_to_end(workload, timed, ops[0].peak_rss_mb, setup, reference)
        print_metrics(metrics, units)
        wall = statistics.median(op.wall_s for op in timed)
        print(f"  as measured: wall_s {wall:.6g} s, msteps_per_s "
              f"{workload.replica_steps / wall / 1e6:.6g} Msteps/s, reference task "
              f"{statistics.median(reference):.6g} s (median of {len(reference)})")
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failed else 1


def run_all(args) -> int:
    """Each workload in a fresh process; a combined result as the last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=args.seconds * 3 + 300, cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if not lines or not lines[-1].startswith("{"):
            print(f"error: workload {name} produced no result", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
