import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from merw import cli
from merw.cli import main
from merw.ensemble import CHUNK_STEPS, simulate_replicas
from merw.params import MAX_MATRIX_ENTRIES, ModelParams


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    with resources.files("merw.schemas").joinpath(name).open() as fh:
        return json.load(fh)


def validate_record(record, payload_schema_name):
    jsonschema.validate(record, load_schema("record.schema.json"))
    jsonschema.validate(record["results"], load_schema(payload_schema_name))


# ------------------------------------------------------------------ classify

def test_classify_exact_critical(capsys):
    code, out, _ = run_cli(capsys, "classify", "-d", "1", "-p", "3/4")
    assert code == 0
    record = json.loads(out)
    validate_record(record, "classify.schema.json")
    results = record["results"]
    assert results["regime"] == "critical"
    assert results["p_c"] == "3/4"
    assert results["alpha"] == 0.5
    assert results["exact"] is True


def test_classify_diffusive_d2(capsys):
    code, out, _ = run_cli(capsys, "classify", "-d", "2", "-p", "0.5")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["regime"] == "diffusive"
    assert results["p_c"] == "5/8"
    assert results["p_c_decimal"] == 0.625


def test_classify_rejects_boundary_p(capsys):
    code, _, err = run_cli(capsys, "classify", "-d", "3", "-p", "1")
    assert code == 2
    assert "p must lie" in err


def test_classify_rejects_garbage_p(capsys):
    code, _, err = run_cli(capsys, "classify", "-d", "1", "-p", "huge")
    assert code == 2
    assert "cannot parse" in err


def test_usage_error_exits_2(capsys):
    assert main(["classify", "-d", "1"]) == 2  # missing -p


# ------------------------------------------------------------------ spectrum

def test_spectrum_d1(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "-d", "1", "-p", "3/4")
    assert code == 0
    record = json.loads(out)
    validate_record(record, "spectrum.schema.json")
    results = record["results"]
    assert results["matrix"] == [[0.75, 0.25], [0.25, 0.75]]
    assert results["lambda2"] == 0.5
    assert results["lambda2_multiplicity"] == 1
    assert results["v1"] == [0.5, 0.5]
    assert results["u1"] == [1.0, 1.0]


def test_spectrum_rank_one(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "-d", "2", "-p", "1/4")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["lambda2"] == 0.0
    assert all(x == 0.25 for row in results["matrix"] for x in row)


# ------------------------------------------------------------------ simulate

def test_simulate_deterministic_rows(capsys, tmp_path):
    args = ["simulate", "-d", "1", "-p", "0.75", "-q", "0.5", "-n", "100",
            "--replicas", "3", "--seed", "7"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().splitlines()
    assert lines[0] == "replica,n,x_1"
    assert len(lines) == 4  # header + one final-time row per replica


def test_simulate_parity(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "-d", "2", "-p", "0.5", "-n", "10",
        "--snapshots", "5,10", "--replicas", "4", "--seed", "3",
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 8
    for row in rows:
        t = int(row[1])
        l1 = abs(int(row[2])) + abs(int(row[3]))
        assert l1 <= t and (l1 - t) % 2 == 0


def test_simulate_column_count_follows_dimension(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "-d", "3", "-p", "0.4", "-n", "5", "--seed", "1"
    )
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert header == ["replica", "n", "x_1", "x_2", "x_3"]
    assert len(header) == 2 + 3


def test_simulate_jsonl(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "-d", "2", "-p", "0.5", "-n", "20",
        "--replicas", "2", "--fractions", "0.5,1.0", "--seed", "9",
        "--format", "jsonl",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 4
    assert rows[0]["n"] == 10 and rows[1]["n"] == 20
    assert all(len(r["x"]) == 2 for r in rows)


def test_simulate_json_record(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "-d", "1", "-p", "1/2", "-n", "8",
        "--replicas", "2", "--seed", "5", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    validate_record(record, "simulate.schema.json")
    assert record["schema_version"] == "2"
    assert "engine" not in record["results"]
    assert record["seed"] == 5
    assert record["params"]["p_exact"] == "1/2"
    assert record["results"]["columns"] == ["replica", "n", "x_1"]
    assert len(record["results"]["rows"]) == 2


def test_simulate_exponent_grid(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "-d", "1", "-p", "3/4", "-n", "100",
        "--exponents", "0.5,1.0", "--seed", "2",
    )
    assert code == 0
    times = [int(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert times == [10, 100]


def test_simulate_budget_guard(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "-d", "1", "-p", "0.5", "-n", "1000000",
        "--replicas", "2000", "--budget", "1000", "--seed", "0",
    )
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("argv, side, below", [
    # the (2d)^2 mean replacement matrix, at the smallest d past the bound
    pytest.param(("spectrum", "-d", "1025"), 2 * 1025, 2 * 1024, id="spectrum"),
    # the (T d)^2 snapshot covariance, at T = 1 and the smallest d past the bound
    pytest.param(("verify", "clt", "-d", "2049", "-n", "10", "--replicas", "2",
                  "--fractions", "1.0"), 2049, 2048, id="verify"),
])
def test_square_arrays_past_the_bound_are_refused_before_they_are_built(capsys, argv, side,
                                                                        below):
    assert below**2 <= MAX_MATRIX_ENTRIES < side**2
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv, "-p", "1/10", "--seed", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and f"{side} x {side} = {side * side} entries" in err
    assert peak < MAX_MATRIX_ENTRIES  # bytes: an eighth of one float64 array at the bound


@pytest.mark.parametrize("budget", ["0", "-5"])
@pytest.mark.parametrize("argv", [
    pytest.param(("simulate",), id="simulate"),
    pytest.param(("verify", "clt", "--replicas", "3"), id="verify"),
])
def test_non_positive_budget_is_a_usage_error(capsys, argv, budget):
    code, out, err = run_cli(capsys, *argv, "-d", "1", "-p", "1/2", "-n", "100",
                             "--seed", "1", "--budget", budget)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "step budget" in err


def test_simulate_snapshot_validation(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "-d", "1", "-p", "0.5", "-n", "10",
        "--snapshots", "0,5", "--seed", "0",
    )
    assert code == 2


@pytest.mark.parametrize("grid", [
    pytest.param(("--fractions", "nan"), id="fractions-nan"),
    pytest.param(("--fractions", "inf"), id="fractions-inf"),
    pytest.param(("--exponents", "nan"), id="exponents-nan"),
    pytest.param(("--fractions", "1.0,0.5"), id="unsorted"),
    pytest.param(("--fractions", "0.51,0.55"), id="colliding"),
])
def test_simulate_rejects_invalid_grids(capsys, grid):
    code, out, err = run_cli(
        capsys, "simulate", "-d", "1", "-p", "0.5", "-n", "10", "--seed", "1", *grid
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("grid", [
    pytest.param(("--snapshots", "5,5"), id="snapshots-repeated"),
    pytest.param(("--snapshots", "10,5"), id="snapshots-unsorted"),
    pytest.param(("--fractions", "0.5,0.5"), id="fractions-repeated"),
])
def test_simulate_refuses_grids_that_are_not_strictly_increasing(capsys, grid):
    code, out, err = run_cli(
        capsys, "simulate", "-d", "1", "-p", "0.5", "-n", "10", "--seed", "1", *grid
    )
    assert code == 2 and out == ""
    assert err.startswith("error: snapshot grid must be strictly increasing")


@pytest.mark.parametrize("fmt", ["csv", "jsonl", "json"])
def test_rows_do_not_depend_on_the_positions_layout(monkeypatch, fmt):
    # simulate_replicas returns an axis-major view; a replica-major copy writes the same bytes
    monkeypatch.setattr(cli, "BLOCK_ROWS", 7)
    times = [10, 20, 40]
    positions, _ = simulate_replicas(ModelParams(2, "3/4"), 40, times, 8, 11)
    texts = []
    for layout in (positions, np.ascontiguousarray(positions)):
        buf = io.StringIO()
        cli._write_rows(buf, cli._row_template(fmt, 2), layout, times)
        texts.append(buf.getvalue())
    assert texts[0] == texts[1] and texts[0]


def _reference_rows(fmt, d, n, times, seed, replicas):
    params = ModelParams(d, "3/4", "1/2")  # the CLI's -q default
    positions, _ = simulate_replicas(params, n, times, seed, replicas)
    columns = ["replica", "n"] + [f"x_{k + 1}" for k in range(d)]
    buf = io.StringIO()
    if fmt == "csv":
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for r in range(replicas):
            for i, t in enumerate(times):
                writer.writerow([r, t] + [int(x) for x in positions[r, i]])
    elif fmt == "jsonl":
        for r in range(replicas):
            for i, t in enumerate(times):
                buf.write(json.dumps({"replica": r, "n": t, "x": positions[r, i].tolist()}) + "\n")
    else:
        # the whole record in memory, dumped at once
        rows = [[r, t, *x] for r, path in enumerate(positions.tolist())
                for t, x in zip(times, path)]
        record = {"schema_version": "2", "command": "simulate", "seed": seed,
                  "params": params.to_dict(), "results": {
                      "horizon": n, "replicas": replicas, "columns": columns, "rows": rows}}
        buf.write(json.dumps(record, indent=2) + "\n")
    return buf.getvalue()


@pytest.mark.parametrize("fmt", ["csv", "jsonl", "json"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_simulate_rows_match_csv_and_json_reference(capsys, tmp_path, monkeypatch, fmt, d):
    # 3 snapshots per replica and 2 replicas per block: 11 replicas end on a
    # partial block, 10 on a full one
    monkeypatch.setattr(cli, "BLOCK_ROWS", 7)
    for replicas in (11, 10):
        args = ["simulate", "-d", str(d), "-p", "3/4", "-n", "40", "--replicas", str(replicas),
                "--fractions", "0.25,0.5,1.0", "--seed", "8", "--format", fmt]
        expected = _reference_rows(fmt, d, 40, [10, 20, 40], 8, replicas)
        code, out, _ = run_cli(capsys, *args)
        assert code == 0 and out == expected
        path = tmp_path / f"rows.{fmt}"
        code, out, _ = run_cli(capsys, *args, "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("fmt", ["csv", "jsonl", "json"])
def test_simulate_rows_past_replica_9999_match_reference(capsys, fmt):
    # replica 10000 needs a second 4-digit limb; replicas 0-9999 leave it blank
    code, out, _ = run_cli(capsys, "simulate", "-d", "1", "-p", "3/4", "-n", "2",
                           "--replicas", "10001", "--seed", "8", "--format", fmt)
    assert code == 0
    assert out.splitlines() == _reference_rows(fmt, 1, 2, [2], 8, 10001).splitlines()


# SHA-256 of `merw simulate --format json` as the whole record was once
# dumped in memory with json.dumps(indent=2); the streamed rows must match it
JSON_DIGESTS = [
    (("-d", "1", "-p", "3/4", "-n", "40", "--replicas", "11",
      "--fractions", "0.25,0.5,1.0", "--seed", "8"),
     "17476cc401fcc8006a592480fb5264188eb934e3b8ec084404415580be90f566"),
    (("-d", "2", "-p", "1/2", "-n", "100", "--replicas", "5",
      "--snapshots", "10,50,100", "--seed", "3"),
     "2cbba195522b9506b725b0a551d785d9585c7a1bca6e303459659e539e3f9353"),
    (("-d", "3", "-p", "0.4", "-n", "30", "--replicas", "3", "--seed", "1"),
     "2192702d9329fa5529b74c8209a28ef65450ba40c4ec2748b8492824838b5bb2"),
    (("-d", "1", "-p", "0.95", "-n", "30000", "--replicas", "4",
      "--fractions", "0.5,1.0", "--seed", "2"),
     "8bedb7d1b45093d81c27816f6d5079ce50eac103a231744ba664ddee6feb959c"),
    # 140 000 rows: three row blocks, the last one partial
    (("-d", "1", "-p", "0.9", "-n", "20", "--replicas", "70000",
      "--fractions", "0.5,1.0", "--seed", "11"),
     "71364c9c729154427603d24fd61156ad5456e2eaae0588bced6e8bd240bb640c"),
]


@pytest.mark.parametrize("argv, digest", JSON_DIGESTS,
                         ids=["d1", "d2-negative", "d3", "d1-two-limbs", "d1-three-blocks"])
def test_simulate_json_bytes_are_pinned(capsys, tmp_path, argv, digest):
    path = tmp_path / "record.json"
    code, _, _ = run_cli(capsys, "simulate", *argv, "--format", "json", "--out", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


LIMB_EDGES = np.array([0, 9, 9999, 10**4, 10**8 - 1, 10**8, 2**31 - 1])
LIMB_EDGES = np.concatenate([LIMB_EDGES, -LIMB_EDGES[1:]])


@pytest.mark.parametrize("fmt", ["csv", "jsonl", "json"])
@pytest.mark.parametrize("d", [1, 2, 3])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_format_rows_matches_percent_d(fmt, d, data):
    ncols = d + 2
    drawn = data.draw(st.lists(
        st.lists(st.integers(-(2**31 - 1), 2**31 - 1), min_size=ncols, max_size=ncols),
        max_size=20))
    # every column takes every edge value, next to values of other widths
    edges = np.stack([np.roll(LIMB_EDGES, j) for j in range(ncols)], axis=1)
    rows = np.concatenate([edges, np.array(drawn, dtype=np.int64).reshape(-1, ncols)])
    rows = rows[data.draw(st.permutations(range(len(rows))))]
    # formatted in blocks, as `merw simulate` writes them: each block sizes its own columns
    block = data.draw(st.integers(1, len(rows)))
    template = cli._row_template(fmt, d)
    expected = "%d".join(template) * len(rows) % tuple(rows.ravel().tolist())
    got = "".join(cli._format_rows(template, list(rows[i:i + block].T))
                  for i in range(0, len(rows), block))
    assert got == expected


# the peak RSS (KiB) of the running process. ru_maxrss would not do: across fork
# and exec it keeps the parent's peak, so a child of a large test process reads
# that process's memory, not its own
PEAK_KIB = """
import sys
def peak_kib():
    with open("/proc/self/status") as fh:
        return int(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""
# runs `merw` in a fresh interpreter and reports its peak RSS (KiB) on stderr
CHILD = PEAK_KIB + """
from merw.cli import main
code = main(sys.argv[1:])
print("peak_kib", peak_kib(), file=sys.stderr)
sys.exit(code)
"""


def child(*argv, script=CHILD, **kwargs):
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.Popen([sys.executable, "-c", script, *argv], env=env,
                            stderr=subprocess.PIPE, text=True, **kwargs)


def peak_mib(*argv, script=CHILD):
    proc = child(*argv, script=script)
    _, err = proc.communicate()
    assert proc.returncode == 0, err
    return int(err.split("peak_kib")[-1]) / 1024


def test_simulate_json_peak_memory_stays_near_csv(tmp_path):
    peaks = {
        fmt: peak_mib("simulate", "-d", "2", "-p", "1/2", "-n", "100", "--replicas", "10000",
                      "--fractions", ",".join(f"0.{k}" for k in range(1, 10)) + ",1.0",
                      "--seed", "4", "--format", fmt, "--out", str(tmp_path / f"rows.{fmt}"))
        for fmt in ("csv", "json")
    }
    assert peaks["json"] - peaks["csv"] <= 20, peaks


def test_simulate_peak_memory_is_its_draw_pass_and_snapshots(tmp_path):
    # a run of one draw pass holds that pass at 3 B per replica-step (an int16
    # remembered draw and a uint8 step code) and the (T, d, R) int64 snapshot store;
    # 6 MiB of slack covers a decode block's buffers, one projection and the row
    # writer. Measured above a one-step, two-replica run, which pays the same imports
    d, n, R, T = 2, 500, 10_000, 100
    base = peak_mib("simulate", "-d", str(d), "-p", "3/4", "-n", "1", "--replicas", "2",
                    "--seed", "1", "--out", str(tmp_path / "base.csv"))
    peak = peak_mib("simulate", "-d", str(d), "-p", "3/4", "-n", str(n), "--replicas", str(R),
                    "--fractions", ",".join(str(k / T) for k in range(1, T + 1)),
                    "--seed", "1", "--out", str(tmp_path / "rows.csv"))
    bound = (3 * min(CHUNK_STEPS + 1, n) * R + 8 * T * d * R) / 2**20 + 6
    assert peak - base <= bound, (peak - base, bound)


def test_cm_mean_drift_peak_memory_does_not_grow_with_n():
    # the exact E[G_n] comes from a scan over fixed blocks of steps: at n = 10^7 the
    # peak RSS rises by a few blocks, not by the 24 B per step (229 MiB) that one
    # cumprod over the whole horizon holds. Measured above a call at n = 2 in the same
    # fresh interpreter, after the same imports
    rise = peak_mib(script=PEAK_KIB + """
from merw.params import ModelParams
from merw.theory import cm_mean_drift
params = ModelParams(1, "3/10", "7/10")
cm_mean_drift(params, 2)
base = peak_kib()
cm_mean_drift(params, 10**7)
print("peak_kib", peak_kib() - base, file=sys.stderr)
""")
    assert rise < 8, rise


def test_simulate_into_a_closed_pipe_exits_141_without_a_traceback():
    proc = child("simulate", "-d", "1", "-p", "1/2", "-n", "10", "--replicas", "100000",
                 "--seed", "1", stdout=subprocess.PIPE)
    proc.stdout.close()  # the reader is gone before the first row is written
    err = proc.stderr.read()
    assert proc.wait() == 141
    assert "Traceback" not in err and "Error" not in err, err


def test_simulate_horizon_past_max_steps_leaves_out_untouched(capsys, tmp_path):
    path = tmp_path / "existing.csv"
    path.write_bytes(b"replica,n,x_1\n0,5,1\n")
    code, out, err = run_cli(capsys, "simulate", "-d", "1", "-p", "1/2", "-n", str(2**31),
                             "--replicas", "1", "--budget", str(10**10), "--seed", "1",
                             "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: horizon")
    assert path.read_bytes() == b"replica,n,x_1\n0,5,1\n"


def test_simulate_without_seed_prints_one(capsys):
    code, out, err = run_cli(capsys, "simulate", "-d", "1", "-p", "0.5", "-n", "5")
    assert code == 0
    seed_lines = [line for line in err.splitlines() if line.startswith("seed: ")]
    assert len(seed_lines) == 1
    seed = int(seed_lines[0].split(": ")[1])
    assert 0 <= seed < 2**64


def test_seed_range_validation(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "-d", "1", "-p", "0.5", "-n", "5", "--seed", "-1"
    )
    assert code == 2
    assert "64-bit" in err


@pytest.mark.parametrize("command", ["classify", "spectrum"])
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_range_validation_in_every_subcommand(capsys, command, seed):
    code, out, err = run_cli(capsys, command, "-d", "1", "-p", "1/2", "--seed", seed)
    assert code == 2
    assert out == ""
    assert "64-bit" in err


@pytest.mark.parametrize("argv, never_run", [
    pytest.param(("simulate", "-n", "10"), "merw.cli.simulate_replicas", id="simulate"),
    pytest.param(("verify", "clt", "-n", "100", "--replicas", "3"),
                 "merw.montecarlo.run_ensemble", id="verify"),
])
def test_unwritable_out_is_a_usage_error_before_any_run(capsys, monkeypatch, tmp_path,
                                                         argv, never_run):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{never_run} ran before --out was checked")

    monkeypatch.setattr(never_run, refuse)
    out_path = tmp_path / "no" / "such" / "dir.csv"
    code, out, err = run_cli(capsys, *argv, "-d", "1", "-p", "1/2", "--seed", "1",
                             "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(out_path) in err


# -------------------------------------------------------------------- verify

def test_verify_regime_mismatch_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "verify", "clt", "-d", "1", "-p", "0.9",
        "-n", "100", "--replicas", "10", "--seed", "1",
    )
    assert code == 2
    assert "p >= p_c" in err and "3/4" in err


@pytest.mark.parametrize("argv", [
    pytest.param(("critical", "-d", "1", "-p", "3/4", "-n", "1"), id="critical-n1"),
    pytest.param(("clt", "-d", "1", "-p", "1/2", "-n", "10", "--fractions", "0.51,0.55"),
                 id="colliding-grid"),
    pytest.param(("slln", "-d", "1", "-p", "1/2", "-n", "100", "--fractions", "1.0"),
                 id="slln-one-time"),
    pytest.param(("critical", "-d", "1", "-p", "3/4", "-n", "10000", "--exponents", "0.05,1.0"),
                 id="critical-time-1"),
])
def test_verify_rejects_degenerate_input(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv, "--replicas", "10", "--seed", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv, code", [
    pytest.param(("-d", "1", "-p", "0.9", "-n", "2000", "--replicas", "10",
                  "--fractions", "0.5,1.0"), 2, id="short-ladder"),
    pytest.param(("-d", "1", "-p", "3/4", "-n", "1000", "--replicas", "10",
                  "--fractions", "0.5,1.0"), 2, id="grid-kind"),
    pytest.param(("-d", "2", "-p", "1/2", "-n", "1000", "--budget", "200000"), 3,
                 id="budget"),
])
def test_verify_all_checks_every_battery_before_running(capsys, tmp_path, argv, code):
    out_path = tmp_path / "all.json"
    got, out, err = run_cli(capsys, "verify", "all", *argv, "--seed", "1", "--out", str(out_path))
    assert got == code
    assert out == ""
    assert err.startswith("error: ")
    assert not out_path.exists()


def test_verify_selector_validation(capsys):
    assert main(["verify", "everything", "-d", "1", "-p", "0.5"]) == 2


def test_verify_clt_passes_and_writes_report(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "clt", "-d", "2", "-p", "0.5",
        "-n", "10000", "--replicas", "2000", "--seed", "11",
        "--out", str(out_path),
    )
    assert code == 0
    assert "verdict: PASS" in out
    assert " z=" in out and " tol=" in out
    record = json.loads(out_path.read_text())
    validate_record(record, "verify.schema.json")
    assert record["results"]["theorem"] == "diffusive_clt"
    assert record["results"]["passed"] is True


def test_verify_writes_strict_json_where_a_ladder_median_is_zero(capsys, tmp_path):
    out = tmp_path / "x.json"
    code, _, _ = run_cli(capsys, "verify", "slln", "-d", "1", "-p", "2/5", "-n", "2000",
                         "--replicas", "20", "--seed", "12", "--out", str(out))
    assert code == 1

    def refuse(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    record = json.loads(out.read_text(), parse_constant=refuse)
    validate_record(record, "verify.schema.json")


def test_verify_writes_strict_json_where_every_replica_ends_at_the_origin(capsys, tmp_path):
    out = tmp_path / "r.json"
    code, printed, _ = run_cli(capsys, "verify", "superdiffusive", "-d", "1", "-p", "9/10",
                               "-n", "4", "--replicas", "2", "--fractions", "0.25,0.5,1.0",
                               "--seed", "40", "--out", str(out))
    assert code == 1
    assert "inf" not in printed and "nan" not in printed

    def refuse(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    record = json.loads(out.read_text(), parse_constant=refuse)
    validate_record(record, "verify.schema.json")
    assert record["results"]["passed"] is False


def test_verify_statistical_failure_exits_1(capsys):
    # at n = 2000 the finite-size bias plus this seed's noise pushes one
    # variance outside its gate: a deterministic statistical failure
    code, out, _ = run_cli(
        capsys, "verify", "clt", "-d", "2", "-p", "0.5",
        "-n", "2000", "--replicas", "2000", "--seed", "42",
    )
    assert code == 1
    assert "verdict: FAIL" in out


@pytest.mark.parametrize("p", ["1e-17", "1/100000000000000000"])
def test_verify_clt_runs_where_alpha_rounds_to_minus_one(capsys, p):
    # at d = 1 and p below ~2.8e-17, 2p - 1 is -1.0 in floating point
    code, out, err = run_cli(
        capsys, "verify", "clt", "-d", "1", "-p", p,
        "-n", "100", "--replicas", "50", "--seed", "1",
    )
    assert code in (0, 1)
    assert "verdict:" in out and "Traceback" not in err


def test_verify_all_superdiffusive(capsys, tmp_path):
    out_path = tmp_path / "all.json"
    code, out, _ = run_cli(
        capsys, "verify", "all", "-d", "1", "-p", "0.9",
        "-n", "16000", "--replicas", "400", "--seed", "14",
        "--out", str(out_path),
    )
    assert code == 0
    assert "[slln]" in out and "[superdiffusive]" in out
    record = json.loads(out_path.read_text())
    validate_record(record, "verify.schema.json")
    assert [r["theorem"] for r in record["results"]] == ["slln", "superdiffusive"]


def test_verify_custom_exponent_grid(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "critical", "-d", "1", "-p", "3/4",
        "-n", "10000", "--replicas", "2000", "--seed", "13",
        "--exponents", "0.75,1.0",
    )
    assert code == 0
    assert "increment_decorrelation" in out
