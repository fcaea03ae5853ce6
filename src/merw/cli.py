"""Command-line front end: simulate, classify, spectrum, verify.

Exit codes: 0 success / all gating checks passed, 1 statistical failure,
2 usage or domain error, 3 step-budget guard.  Every randomized command is
deterministic given --seed; when --seed is omitted one is drawn from OS
entropy and printed to stderr so the run stays reproducible after the fact.
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys
from contextlib import nullcontext
from typing import Sequence

import numpy as np

from .ensemble import DEFAULT_STEP_BUDGET, grid_times, simulate_replicas
from .montecarlo import BATTERIES
from .params import BudgetError, ModelParams, ParameterError, RegimeError, check_integer
from .theory import classify_regime
from .urn import mean_replacement_matrix

SCHEMA_VERSION = "2"

EXIT_OK = 0
EXIT_STAT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

#: Rows formatted per write by `merw simulate --format csv|jsonl`.
BLOCK_ROWS = 1 << 16

VERIFY_SELECTORS = (*BATTERIES, "all")


def _record(command: str, seed: int | None, params: ModelParams, results) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "seed": seed,
        "params": params.to_dict(),
        "results": results,
    }


def _resolve_seed(args) -> int:
    if args.seed is not None:
        if not 0 <= args.seed < 2**64:
            raise ParameterError(f"--seed must be an unsigned 64-bit integer, got {args.seed}")
        return args.seed
    seed = secrets.randbits(64)
    print(f"seed: {seed}", file=sys.stderr)
    return seed


def _parse_params(args) -> ModelParams:
    return ModelParams(d=args.dimension, p=args.memory, q=args.first_step)


def _comma_list(text: str, kind):
    try:
        return tuple(kind(part) for part in text.split(","))
    except ValueError as err:
        raise ParameterError(f"cannot parse comma list {text!r}") from err


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-d", "--dimension", type=int, required=True,
                        help="lattice dimension (>= 1)")
    parser.add_argument("-p", "--memory", type=str, required=True,
                        help="memory parameter in (0,1); decimal or rational like 3/4")
    parser.add_argument("-q", "--first-step", type=str, default="1/2",
                        help="first-step parameter in (0,1); default 1/2")
    parser.add_argument("--seed", type=int, default=None,
                        help="unsigned 64-bit master seed; drawn from entropy if omitted")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="merw",
        description="Simulate the multi-dimensional elephant random walk and "
                    "verify its limit behaviour numerically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate paths and dump snapshot positions")
    _add_common(sim)
    sim.add_argument("-n", "--horizon", type=int, required=True, help="number of steps")
    sim.add_argument("--replicas", type=int, default=1)
    grid = sim.add_mutually_exclusive_group()
    grid.add_argument("--snapshots", type=str, default=None,
                      help="comma list of absolute times in [1, n]; default: final time")
    grid.add_argument("--fractions", type=str, default=None,
                      help="comma list of fractions s in (0,1]; times floor(s*n)")
    grid.add_argument("--exponents", type=str, default=None,
                      help="comma list of exponents t in (0,1]; times floor(n**t)")
    sim.add_argument("--format", choices=("csv", "jsonl", "json"), default="csv")
    sim.add_argument("--out", type=str, default=None, help="output path; default stdout")
    sim.add_argument("--budget", type=int, default=DEFAULT_STEP_BUDGET,
                     help="maximum total steps replicas*n")

    cls = sub.add_parser("classify", help="regime classification for (d, p)")
    _add_common(cls)
    cls.add_argument("--out", type=str, default=None)

    spec = sub.add_parser("spectrum", help="mean replacement matrix and its spectral data")
    _add_common(spec)
    spec.add_argument("--out", type=str, default=None)

    ver = sub.add_parser("verify", help="run a statistical verification battery")
    ver.add_argument("theorem", choices=VERIFY_SELECTORS)
    _add_common(ver)
    ver.add_argument("-n", "--horizon", type=int, default=None,
                     help="steps per replica; default depends on the battery")
    ver.add_argument("--replicas", type=int, default=None,
                     help="ensemble size; default depends on the battery")
    vgrid = ver.add_mutually_exclusive_group()
    vgrid.add_argument("--fractions", type=str, default=None)
    vgrid.add_argument("--exponents", type=str, default=None)
    ver.add_argument("--out", type=str, default=None, help="write the JSON report here")
    ver.add_argument("--budget", type=int, default=DEFAULT_STEP_BUDGET)
    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_json(record: dict, out_path: str | None) -> None:
    _emit(json.dumps(record, indent=2, allow_nan=False) + "\n", out_path)


def cmd_simulate(args) -> int:
    params = _parse_params(args)
    seed = _resolve_seed(args)
    n = check_integer("horizon", args.horizon, 1)
    replicas = check_integer("replicas", args.replicas, 1)
    if replicas * n > args.budget:
        raise BudgetError(
            f"simulation needs {replicas} x {n} = {replicas * n} steps, "
            f"exceeding the step budget of {args.budget}"
        )
    if args.snapshots is not None:
        times = sorted(set(_comma_list(args.snapshots, int)))
        if not times or times[0] < 1 or times[-1] > n:
            raise ParameterError(f"snapshot times must lie in [1, {n}], got {times}")
    elif args.fractions is not None:
        times = grid_times(_comma_list(args.fractions, float), n)
    elif args.exponents is not None:
        times = grid_times(_comma_list(args.exponents, float), n, exponent=True)
    else:
        times = [n]
    positions, _ = simulate_replicas(params, n, times, seed, replicas)
    d = params.d
    if args.format in ("csv", "jsonl"):
        if args.format == "csv":
            header = ",".join(["replica", "n"] + [f"x_{k + 1}" for k in range(d)]) + "\n"
            row_format = ",".join(["%d"] * (d + 2)) + "\n"
        else:
            header = ""
            row_format = '{"replica": %d, "n": %d, "x": [' + ", ".join(["%d"] * d) + "]}\n"
        if args.out is None:
            target = nullcontext(sys.stdout)
        else:
            target = open(args.out, "w", encoding="utf-8")
        with target as fh:
            fh.write(header)
            _write_rows(fh, positions, times, row_format)
    else:
        rows = [row for block in _row_blocks(positions, times) for row in block.tolist()]
        record = _record("simulate", seed, params, {
            "horizon": n,
            "replicas": replicas,
            "columns": ["replica", "n"] + [f"x_{k + 1}" for k in range(d)],
            "rows": rows,
        })
        _write_json(record, args.out)
    return EXIT_OK


def _row_blocks(positions: np.ndarray, times):
    """(replica, time, x_1..x_d) int64 rows, replica-major, about ``BLOCK_ROWS`` per block."""
    R, T, d = positions.shape
    per_block = max(1, BLOCK_ROWS // T)
    for r0 in range(0, R, per_block):
        block = positions[r0:r0 + per_block]
        rows = np.empty((len(block), T, d + 2), dtype=np.int64)
        rows[:, :, 0] = np.arange(r0, r0 + len(block))[:, None]
        rows[:, :, 1] = times
        rows[:, :, 2:] = block
        yield rows.reshape(-1, d + 2)


def _write_rows(fh, positions: np.ndarray, times, row_format: str) -> None:
    """Write the rows of :func:`_row_blocks`, each block by one %-operation on
    ``row_format`` repeated once per row."""
    for rows in _row_blocks(positions, times):
        fh.write(row_format * len(rows) % tuple(rows.ravel().tolist()))


def cmd_classify(args) -> int:
    params = _parse_params(args)
    report = classify_regime(params)
    record = _record("classify", args.seed, params, report.to_dict())
    _write_json(record, args.out)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    params = _parse_params(args)
    data = mean_replacement_matrix(params)
    record = _record("spectrum", args.seed, params, {
        "matrix": data.matrix.tolist(),
        "lambda1": data.lambda1,
        "lambda2": data.lambda2,
        "v1": data.v1.tolist(),
        "u1": data.u1.tolist(),
        "lambda2_multiplicity": data.lambda2_multiplicity,
    })
    _write_json(record, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    params = _parse_params(args)
    seed = _resolve_seed(args)
    if args.theorem == "all":
        batteries = [b for b in BATTERIES.values() if b.applies(params)]
    else:
        batteries = [BATTERIES[args.theorem]]
    grid = {}
    if args.fractions is not None:
        grid["snapshot_fractions"] = _comma_list(args.fractions, float)
    if args.exponents is not None:
        grid["exponent_times"] = _comma_list(args.exponents, float)
    # every selected battery's input is checked before any of them runs
    configs = [
        b.config(params, seed, args.horizon, args.replicas, step_budget=args.budget, **grid)
        for b in batteries
    ]
    reports = []
    for battery, cfg in zip(batteries, configs):
        report = battery.runner(cfg)
        reports.append(report)
        for line in report.summary_lines():
            print(line)
    payload = reports[0].to_dict() if len(reports) == 1 else [r.to_dict() for r in reports]
    record = _record("verify", seed, params, payload)
    if args.out is not None:
        _write_json(record, args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_STAT_FAIL


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else EXIT_USAGE
    try:
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "classify":
            return cmd_classify(args)
        if args.command == "spectrum":
            return cmd_spectrum(args)
        if args.command == "verify":
            return cmd_verify(args)
        raise ParameterError(f"unknown command {args.command!r}")
    except (ParameterError, RegimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
