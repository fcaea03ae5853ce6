"""Tests of the benchmark's own checks and hooks.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np
import pytest

from workloads import WORKLOADS, Workload, import_merw, simulate_argv

import_merw()

import hooks  # noqa: E402
from checks import (  # noqa: E402
    exact_second_moments,
    lattice_invariants,
    moment_gate,
    parse_dump,
    z_max,
)
from merw.cli import main as merw_main  # noqa: E402
import merw.ensemble  # noqa: E402
from merw.ensemble import EnsembleConfig, simulate_replicas  # noqa: E402
from merw.enumeration import exact_small_n_pmf  # noqa: E402
from merw.params import ModelParams  # noqa: E402
import run  # noqa: E402
from run import Op, check_op, end_to_end, metric_units, per_layer  # noqa: E402


@pytest.mark.parametrize("d, n_max", [(1, 6), (2, 4)])
@pytest.mark.parametrize("p", ["1/3", "1/2", "3/4", "9/10"])
@pytest.mark.parametrize("q", ["1/2", "1/5"])
def test_recursion_equals_exact_enumeration(d, n_max, p, q):
    params = ModelParams(d=d, p=p, q=q)
    recursion = exact_second_moments(d, Fraction(p), range(1, n_max + 1))
    for n in range(1, n_max + 1):
        pmf = exact_small_n_pmf(params, n)
        enumerated = sum(prob * sum(x * x for x in pos) for pos, prob in pmf.items())
        assert recursion[n] == enumerated


def _positions(p: str, times, replicas=2000, seed=7):
    positions, _ = simulate_replicas(ModelParams(d=2, p=p), max(times), times, seed, replicas)
    return positions


def test_gate_accepts_the_simulated_p_and_rejects_another():
    times = [50, 100, 200]
    positions = _positions("2/5", times)
    worst, failures = moment_gate(positions, 2, Fraction(2, 5), times)
    assert worst <= 4 and failures == []
    worst, failures = moment_gate(positions, 2, Fraction(1, 2), times)
    assert len(failures) == len(times) and worst > 10


def test_gate_threshold_is_4_se_for_one_column_and_wider_for_many():
    assert z_max(1) == pytest.approx(4.0)
    assert 4.0 < z_max(4) < z_max(100) < 5.0


def test_invariants_flag_parity_and_range():
    times = [3, 8]
    positions = _positions("1/2", times, replicas=50)
    assert lattice_invariants(positions, times) == []
    bad = positions.copy()
    bad[0, 0, 0] += 1
    assert any("parity" in f for f in lattice_invariants(bad, times))
    bad[0, 1, :] = (9, 1)
    assert any("> t" in f for f in lattice_invariants(bad, times))


def test_parse_dump_round_trip(tmp_path):
    workload = Workload(
        name="tiny", d=2, p="3/4", replicas=5, n=20, fractions=(0.25, 0.5, 1.0),
        battery=None, dominant=(),
    )
    out = tmp_path / "dump.csv"
    argv = ["simulate", "-d", "2", "-p", "3/4", "-n", "20", "--replicas", "5",
            "--fractions", "0.25,0.5,1.0", "--seed", "3", "--out", str(out)]
    assert merw_main(argv) == 0
    text = out.read_text()
    parsed, failures = parse_dump(text, workload)
    expected, _ = simulate_replicas(ModelParams(d=2, p="3/4"), 20, [5, 10, 20], 3, 5)
    assert failures == [] and np.array_equal(parsed, expected)
    assert parse_dump(text.replace("x_2", "y_2", 1), workload)[1]
    assert parse_dump(text.rsplit("\n", 2)[0] + "\n", workload)[1]


def test_a_repeated_dump_takes_the_first_verdict_and_a_changed_one_is_parsed(
    tmp_path, monkeypatch
):
    workload = Workload(
        name="tiny", d=2, p="3/4", replicas=50, n=20, fractions=(0.25, 0.5, 1.0),
        battery=None, dominant=(),
    )
    out = tmp_path / "dump.csv"
    assert merw_main(simulate_argv(workload, 1, out)) == 0
    first = Op(1.0)
    check_op(first, workload, None, out)
    assert first.failures == [] and first.rows == 150 and first.digest is not None

    def not_again(*args):
        raise AssertionError("an identical dump was parsed again")

    assert merw_main(simulate_argv(workload, 1, out)) == 0
    with monkeypatch.context() as patch:
        patch.setattr(run, "parse_dump", not_again)
        again = Op(1.0)
        check_op(again, workload, None, out, first)
    assert again.failures == [] and again.digest == first.digest and again.rows == 150

    assert merw_main(simulate_argv(workload, 2, out)) == 0
    other = Op(1.0)
    check_op(other, workload, None, out, first)
    assert other.failures == [] and other.digest != first.digest and not out.exists()


def test_workload_times_match_merw():
    for workload in WORKLOADS.values():
        cfg = EnsembleConfig(
            params=ModelParams(d=workload.d, p=workload.p), replicas=2, master_seed=0,
            n=workload.n, snapshot_fractions=workload.fractions,
        )
        assert list(cfg.snapshot_times()) == workload.snapshot_times()


def test_self_times_add_up_and_hooks_are_removed():
    import merw.ensemble
    import merw.montecarlo

    original = merw.ensemble.run_ensemble
    cfg = EnsembleConfig(params=ModelParams(d=2, p="1/2"), replicas=200, master_seed=1,
                         n=300, snapshot_fractions=(0.5, 1.0))
    tracer = hooks.Tracer()
    with tracer.hooks():
        assert merw.montecarlo.run_ensemble is not original
        t0 = time.perf_counter()
        merw.montecarlo.verify_diffusive_clt(cfg)
        wall = time.perf_counter() - t0
    assert merw.montecarlo.run_ensemble is original
    assert merw.ensemble.run_ensemble is original
    assert tracer.calls["ensemble.substream_setup"] == 200
    assert tracer.calls["ensemble.step_kernel"] == 1
    assert 0 < sum(tracer.self_s.values()) <= wall


def test_missing_function_reports_its_layer_as_null(monkeypatch):
    monkeypatch.setitem(hooks.LAYERS, "ensemble.draw_prefetch", ("merw.ensemble", ("_gone",)))
    cfg = EnsembleConfig(params=ModelParams(d=1, p="1/2"), replicas=10, master_seed=1,
                         n=100, snapshot_fractions=(1.0,))
    tracer = hooks.Tracer()
    with tracer.hooks():
        t0 = time.perf_counter()
        merw.ensemble.run_ensemble(cfg)
        wall = time.perf_counter() - t0
    assert "ensemble.draw_prefetch" not in tracer.hooked
    op = Op(wall, self_s=dict(tracer.self_s), calls=dict(tracer.calls))
    metrics, _ = per_layer(WORKLOADS["wide"], [op], [op], tracer.hooked)
    assert metrics["ensemble.draw_prefetch_s"] is None
    assert metrics["ensemble.draw_chunks"] is None
    assert metrics["ensemble.step_kernel_s"] > 0


def test_metrics_are_the_ones_benchmark_json_lists():
    op = Op(2.0, self_s={"ensemble.step_kernel": 1.5}, calls={"ensemble.step_kernel": 1})
    units = metric_units()
    workload = WORKLOADS["wide"]
    assert list(end_to_end(workload, [op], 100.0, [0.2], [0.04])) == list(units["end_to_end"])
    metrics, _ = per_layer(workload, [op], [op], {"ensemble.step_kernel"})
    assert list(metrics) == list(units["per_layer"])
