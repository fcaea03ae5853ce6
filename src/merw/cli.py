"""Command-line front end: simulate, classify, spectrum, verify.

Exit codes: 0 success / all gating checks passed, 1 statistical failure,
2 usage or domain error, 3 step-budget guard, 141 stdout closed by its
reader (a broken pipe, as in ``merw simulate ... | head``).  Every
randomized command is deterministic given --seed; when --seed is omitted
one is drawn from OS entropy and printed to stderr so the run stays
reproducible after the fact.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import secrets
import sys
from contextlib import nullcontext
from typing import Sequence

import numpy as np

from .ensemble import DEFAULT_STEP_BUDGET, MAX_STEPS, grid_times, simulate_replicas
from .montecarlo import BATTERIES
from .params import (BudgetError, ModelParams, ParameterError, RegimeError, check_budget,
                     check_integer)
from .theory import classify_regime
from .urn import mean_replacement_matrix

SCHEMA_VERSION = "2"

EXIT_OK = 0
EXIT_STAT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended

#: Rows formatted per write by `merw simulate`.
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


def _seed(text: str) -> int:
    """The ``--seed`` of every subcommand: an unsigned 64-bit integer."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(f"must be an unsigned 64-bit integer, got {text!r}")
    return seed


def _resolve_seed(args) -> int:
    if args.seed is not None:
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
    parser.add_argument("--seed", type=_seed, default=None,
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
    sim.set_defaults(run=cmd_simulate)

    cls = sub.add_parser("classify", help="regime classification for (d, p)")
    _add_common(cls)
    cls.add_argument("--out", type=str, default=None)
    cls.set_defaults(run=cmd_classify)

    spec = sub.add_parser("spectrum", help="mean replacement matrix and its spectral data")
    _add_common(spec)
    spec.add_argument("--out", type=str, default=None)
    spec.set_defaults(run=cmd_spectrum)

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
    ver.set_defaults(run=cmd_verify)
    return parser


def _open_out(path: str | None):
    """The text handle that ``--out`` names, opened before any work is done; stdout if None."""
    if path is None:
        return nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as err:
        raise ParameterError(f"cannot write --out {path}: {err.strerror}") from err


def _json_text(record: dict) -> str:
    return json.dumps(record, indent=2, allow_nan=False) + "\n"


def _write_json(record: dict, fh) -> None:
    fh.write(_json_text(record))


#: Stands in for the rows of a ``--format json`` record while the rest is dumped.
_ROWS = "\0rows"


def cmd_simulate(args) -> int:
    params = _parse_params(args)
    seed = _resolve_seed(args)
    n = check_integer("horizon", args.horizon, 1, MAX_STEPS)
    replicas = check_integer("replicas", args.replicas, 1)
    check_budget(replicas, n, args.budget)
    if args.snapshots is not None:
        times = [check_integer("snapshot times", t, 1, n)
                 for t in _comma_list(args.snapshots, int)]
        if times != sorted(set(times)):
            raise ParameterError(f"snapshot grid must be strictly increasing, got {tuple(times)}")
    elif args.fractions is not None:
        times = grid_times(_comma_list(args.fractions, float), n)
    elif args.exponents is not None:
        times = grid_times(_comma_list(args.exponents, float), n, exponent=True)
    else:
        times = [n]
    d = params.d
    columns = ["replica", "n"] + [f"x_{k + 1}" for k in range(d)]
    template = _row_template(args.format, d)
    with _open_out(args.out) as fh:
        positions, _ = simulate_replicas(params, n, times, seed, replicas)
        if args.format == "json":
            # rows is the record's last field: the text of the rest goes around them
            head, tail = _json_text(_record("simulate", seed, params, {
                "horizon": n, "replicas": replicas, "columns": columns, "rows": _ROWS,
            })).split(json.dumps(_ROWS))
            fh.write(head + "[\n")
            _write_rows(fh, template, positions, times, drop=2)  # the last row's ",\n"
            fh.write("\n    ]" + tail)
        else:
            if args.format == "csv":
                fh.write(",".join(columns) + "\n")
            _write_rows(fh, template, positions, times)
    return EXIT_OK


def _row_template(fmt: str, d: int) -> list[str]:
    """The literal pieces between the d + 2 integer columns of one row: a csv
    line, a jsonl line, or a ``rows`` entry of the indent-2 json record."""
    if fmt == "csv":
        return ["", *[","] * (d + 1), "\n"]
    if fmt == "jsonl":
        return ['{"replica": ', ', "n": ', ', "x": [', *[", "] * (d - 1), "]}\n"]
    return ["      [\n        ", *[",\n        "] * (d + 1), "\n      ],\n"]


def _write_rows(fh, template: list[str], positions: np.ndarray, times, drop: int = 0) -> None:
    """Write the (replica, time, x_1..x_d) rows, replica-major, about ``BLOCK_ROWS``
    per write, leaving off the last ``drop`` characters of the last row."""
    R, T, _ = positions.shape
    per_block = max(1, BLOCK_ROWS // T)
    time_column = np.asarray(times, dtype=np.int64)[None, :]
    for r0 in range(0, R, per_block):
        block = positions[r0:r0 + per_block]
        replica_column = np.arange(r0, r0 + len(block))[:, None]
        text = _format_rows(template, [replica_column, time_column, *np.moveaxis(block, -1, 0)])
        fh.write(text[:len(text) - drop] if r0 + per_block >= R else text)


# A text row is a run of 8-byte cells.  A value cell holds one limb of 4
# decimal digits right-aligned in bytes 0-4 (byte 0 is room for a '-'), then up
# to 3 bytes of the literal that follows the value; a constant cell holds 8
# bytes of a longer literal.  Unused bytes are NUL and are dropped at the end.
_LIMB = 10**4
_TOP = 2 * _LIMB - 1  # table index of the unpadded top limb 0; limbs -9999..9999 sit around it
_BLANK = _TOP + _LIMB  # the all-NUL cell, for limbs above a value's top limb


@functools.cache
def _cell_table() -> np.ndarray:
    """Value cells by index: padded limbs 0000..9999, unpadded signed limbs -9999..9999, blank."""
    padded = np.arange(_LIMB)
    top = np.arange(1 - _LIMB, _LIMB)
    magnitude = np.abs(top)
    digits = 1 + (magnitude >= 10) + (magnitude >= 100) + (magnitude >= 1000)
    cells = np.zeros((_BLANK + 1, 8), dtype=np.uint8)
    for place in range(4):  # byte 4 - place holds the digit worth 10**place
        cells[:_LIMB, 4 - place] = ord("0") + padded // 10**place % 10
        cells[_LIMB:_BLANK, 4 - place] = np.where(
            place < digits, ord("0") + magnitude // 10**place % 10, 0)
    negative = top < 0
    cells[_LIMB + np.flatnonzero(negative), 4 - digits[negative]] = ord("-")
    return cells.view(np.uint64).ravel()


def _word(text: bytes) -> np.uint64:
    """The cell holding ``text`` (at most 8 bytes), NUL-padded."""
    return np.frombuffer(text.ljust(8, b"\0"), dtype=np.uint64)[0]


def _limb_indices(values: np.ndarray, index: np.ndarray) -> None:
    """Fill ``index``, of shape values.shape + (limbs,), with the table indices of
    each value's limb cells, most significant first."""
    limbs = index.shape[-1]
    magnitude = np.abs(values) if limbs > 1 else values  # read only when limbs > 1
    for i in range(limbs):  # limb i is worth _LIMB**i
        q = magnitude // _LIMB**i if i else magnitude
        cell = _TOP + (np.where(values < 0, -q, q) if i else values)  # q as the top limb
        if i < limbs - 1:
            cell = np.where(q >= _LIMB, q % _LIMB, cell)  # a padded lower limb
        if i:
            cell = np.where(q == 0, _BLANK, cell)  # above the value's top limb
        index[..., limbs - 1 - i] = cell


def _format_rows(template: list[str], columns) -> str:
    """Rows of the integer ``columns`` (arrays broadcast to one shape, a row per
    element) set between the literal pieces of ``template``: the text that
    ``"%d".join(template)`` gives row by row, built from gathered table cells."""
    literals = [piece.encode("ascii") for piece in template]
    columns = [np.asarray(column, dtype=np.int64) for column in columns]
    # each cell is (table index, word ORed into it): a column's last limb takes
    # the first 3 bytes of the literal after it, the rest goes in blank cells
    parts, tails = [], []
    for column, literal in zip([None, *columns], literals):
        if column is not None:
            peak = max(-int(column.min()), int(column.max()))
            limbs = next(k for k in range(1, 6) if peak < _LIMB**k)
            parts.append((column, limbs))
            tails += [0] * (limbs - 1) + [_word(bytes(5) + literal[:3])]
            literal = literal[3:]
        words = [_word(literal[i:i + 8]) for i in range(0, len(literal), 8)]
        parts.append((None, len(words)))
        tails += words
    shape = np.broadcast_shapes(*(column.shape for column in columns))
    index = np.empty(shape + (len(tails),), dtype=np.intp)
    at = 0
    for column, width in parts:
        if column is None:
            index[..., at:at + width] = _BLANK
        else:
            _limb_indices(column, index[..., at:at + width])
        at += width
    text = bytearray(8 * index.size)
    cells = np.frombuffer(text, dtype=np.uint64).reshape(index.shape)
    np.take(_cell_table(), index, out=cells, mode="clip")  # in range; "raise" buffers `out`
    cells |= np.array(tails, dtype=np.uint64)
    return text.translate(None, b"\0").decode("ascii")


def cmd_classify(args) -> int:
    params = _parse_params(args)
    report = classify_regime(params)
    record = _record("classify", args.seed, params, report.to_dict())
    with _open_out(args.out) as fh:
        _write_json(record, fh)
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
    with _open_out(args.out) as fh:
        _write_json(record, fh)
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
    with nullcontext() if args.out is None else _open_out(args.out) as report_fh:
        reports = []
        for battery, cfg in zip(batteries, configs):
            report = battery.runner(cfg)
            reports.append(report)
            for line in report.summary_lines():
                print(line)
        payload = reports[0].to_dict() if len(reports) == 1 else [r.to_dict() for r in reports]
        if report_fh is not None:
            _write_json(_record("verify", seed, params, payload), report_fh)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_STAT_FAIL


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else EXIT_USAGE
    try:
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader went away (`merw simulate ... | head`): end quietly, and
        # point stdout at devnull so the interpreter's final flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ParameterError, RegimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
