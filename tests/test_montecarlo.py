import json
import warnings

import numpy as np
import pytest

from merw.ensemble import EnsembleConfig
from merw.montecarlo import (
    BATTERIES,
    CheckResult,
    _median_ratios,
    verify_center_of_mass,
    verify_critical,
    verify_diffusive_clt,
    verify_slln,
    verify_superdiffusive,
)
from merw.params import ModelParams, ParameterError, RegimeError


def clt_cfg(seed=11):
    return EnsembleConfig(
        params=ModelParams(2, 0.5, 0.5),
        replicas=2000,
        master_seed=seed,
        n=10_000,
        snapshot_fractions=(0.5, 1.0),
    )


# ----------------------------------------------------------- battery smoke

def test_clt_battery_passes():
    report = verify_diffusive_clt(clt_cfg())
    assert report.passed
    names = [c.name for c in report.checks]
    assert any(n.startswith("var[") for n in names)
    assert any(n.startswith("cross_time[") for n in names)
    assert any(n.startswith("cross_axis[") for n in names)
    assert report.regime == "diffusive"


def test_critical_battery_passes_with_multi_time_grid():
    cfg = EnsembleConfig(
        params=ModelParams(1, "3/4", 0.5),
        replicas=2000,
        master_seed=13,
        n=10_000,
        exponent_times=(0.75, 1.0),
    )
    report = verify_critical(cfg)
    assert report.passed
    names = [c.name for c in report.checks]
    assert any(n.startswith("increment_decorrelation") for n in names)
    assert any("15%" in note for note in report.notes)


def test_superdiffusive_battery_passes():
    cfg = EnsembleConfig(
        params=ModelParams(1, 0.9, 0.5),
        replicas=500,
        master_seed=14,
        n=16_000,
        snapshot_fractions=tuple(2.0**-k for k in range(5, -1, -1)),
    )
    report = verify_superdiffusive(cfg)
    assert report.passed
    ladder_check = next(c for c in report.checks if "medians_decreasing" in c.name)
    assert not ladder_check.gating  # diagnostic, not a gate
    assert report.extras["ladder_times"][-1] == 16_000
    medians = report.extras["increment_medians"]
    assert len(medians) == 5


def test_slln_battery_diffusive():
    cfg = EnsembleConfig(
        params=ModelParams(1, 0.5, 0.5),
        replicas=50,
        master_seed=15,
        n=100_000,
        snapshot_fractions=(1e-2, 1e-1, 1.0),
    )
    report = verify_slln(cfg, eps=0.02)
    assert report.passed
    assert any("final_fraction" in c.name for c in report.checks)


def test_slln_battery_antipersistent():
    # p < 1/(2d) gives a negative exponent; the law of large numbers still holds
    cfg = EnsembleConfig(
        params=ModelParams(2, 0.1, 0.5),
        replicas=50,
        master_seed=20,
        n=100_000,
        snapshot_fractions=(1e-2, 1e-1, 1.0),
    )
    report = verify_slln(cfg, eps=0.02)
    assert report.extras["alpha"] < 0
    assert report.passed


def test_slln_battery_superdiffusive_uses_decay_ratios():
    cfg = EnsembleConfig(
        params=ModelParams(1, 0.85, 0.5),
        replicas=60,
        master_seed=16,
        n=100_000,
        snapshot_fractions=(1e-2, 1e-1, 1.0),
    )
    report = verify_slln(cfg)
    assert report.passed
    names = [c.name for c in report.checks]
    assert any("ladder_decay_ratio" in n for n in names)
    assert not any("final_fraction" in n for n in names)


def test_slln_report_stays_finite_where_a_ladder_median_is_zero():
    # at t = floor(10^-3 * 2000) = 2 most replicas sit at S_2 = 0, so the first median is 0
    cfg = BATTERIES["slln"].config(ModelParams(1, "2/5"), 12, n=2000, replicas=20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_slln(cfg)
    assert report.extras["medians"][0] == 0.0
    check = report.checks[0]
    assert check.name == "ladder_medians_decreasing" and not check.passed
    assert check.observed == max(b / a for a, b in zip(report.extras["medians"][1:],
                                                       report.extras["medians"][2:]))
    assert "1 pair(s) with an earlier median of 0" in check.note
    json.dumps(report.to_dict(), allow_nan=False)


def test_superdiffusive_report_stays_finite_where_every_replica_ends_at_the_origin():
    # both replicas end at S_4 = 0, so m2(1) is 0 and no second-moment ratio exists
    cfg = BATTERIES["superdiffusive"].config(ModelParams(1, "9/10"), 40, n=4, replicas=2,
                                             snapshot_fractions=(0.25, 0.5, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_superdiffusive(cfg)
    ratios = [c for c in report.checks if c.name.startswith("second_moment_ratio")]
    assert len(ratios) == 2 and not report.passed
    for check in ratios:
        assert check.observed == 0.0 and check.z is None and not check.passed
        assert check.tolerance == pytest.approx(0.1 * check.expected)
        assert check.note.endswith("; m2(1) is 0, so there is no ratio")
    json.dumps(report.to_dict(), allow_nan=False)


def test_median_ratios_leave_out_undefined_pairs():
    ratios, note = _median_ratios(np.array([0.0, 0.0, 2.0, 1.0]))
    assert ratios.tolist() == [0.0, 0.0, 0.5]
    assert note == "; 2 pair(s) with an earlier median of 0 have no ratio"
    ratios, note = _median_ratios(np.array([0.0, 0.0]))
    assert ratios.max() == 0.0 and note.startswith("; 1 pair(s)")
    assert _median_ratios(np.array([4.0, 2.0, 1.0]))[1] == ""


def test_center_of_mass_battery_passes():
    cfg = EnsembleConfig(
        params=ModelParams(1, 0.6, 0.5),
        replicas=4000,
        master_seed=17,
        n=4000,
        snapshot_fractions=(1.0,),
        track_center_of_mass=True,
    )
    report = verify_center_of_mass(cfg)
    assert report.passed
    assert any("cm_var" in c.name for c in report.checks)


def test_center_of_mass_enables_tracking_itself():
    cfg = EnsembleConfig(
        params=ModelParams(1, 0.6, 0.5),
        replicas=500,
        master_seed=18,
        n=500,
        snapshot_fractions=(1.0,),
    )
    report = verify_center_of_mass(cfg)
    assert any("cm_var" in c.name for c in report.checks)


# ------------------------------------------------------------ regime gates

def test_clt_refuses_non_diffusive_parameters():
    cfg = EnsembleConfig(
        params=ModelParams(1, 0.9),
        replicas=10,
        master_seed=0,
        n=100,
        snapshot_fractions=(1.0,),
    )
    with pytest.raises(RegimeError, match="p >= p_c"):
        verify_diffusive_clt(cfg)


def test_critical_refuses_off_critical_parameters():
    cfg = EnsembleConfig(
        params=ModelParams(1, 0.5),
        replicas=10,
        master_seed=0,
        n=100,
        exponent_times=(1.0,),
    )
    with pytest.raises(RegimeError, match="requires p = p_c"):
        verify_critical(cfg)


def test_critical_refuses_inexact_floats_off_the_band():
    cfg = EnsembleConfig(
        params=ModelParams(3, 0.5833333),  # near 7/12 but not exactly critical
        replicas=10,
        master_seed=0,
        n=100,
        exponent_times=(1.0,),
    )
    with pytest.raises(RegimeError):
        verify_critical(cfg)


def test_superdiffusive_refuses_diffusive_parameters():
    cfg = EnsembleConfig(
        params=ModelParams(2, 0.5),
        replicas=10,
        master_seed=0,
        n=128,
        snapshot_fractions=(0.25, 0.5, 1.0),
    )
    with pytest.raises(RegimeError, match="superdiffusive"):
        verify_superdiffusive(cfg)


def test_cm_refuses_critical_parameters():
    cfg = EnsembleConfig(
        params=ModelParams(1, "3/4"),
        replicas=10,
        master_seed=0,
        n=100,
        snapshot_fractions=(1.0,),
    )
    with pytest.raises(RegimeError):
        verify_center_of_mass(cfg)


def test_grid_kind_mismatches():
    with pytest.raises(ParameterError, match="snapshot_fractions"):
        verify_diffusive_clt(EnsembleConfig(
            params=ModelParams(2, 0.5),
            replicas=10,
            master_seed=0,
            n=100,
            exponent_times=(1.0,),
        ))
    with pytest.raises(ParameterError, match="exponent_times"):
        verify_critical(EnsembleConfig(
            params=ModelParams(1, "3/4"),
            replicas=10,
            master_seed=0,
            n=100,
            snapshot_fractions=(1.0,),
        ))
    with pytest.raises(ParameterError, match="ladder"):
        verify_superdiffusive(EnsembleConfig(
            params=ModelParams(1, 0.9),
            replicas=10,
            master_seed=0,
            n=100,
            snapshot_fractions=(1.0,),
        ))
    with pytest.raises(ParameterError, match="snapshot_fractions"):
        verify_center_of_mass(EnsembleConfig(
            params=ModelParams(1, 0.5),
            replicas=10,
            master_seed=0,
            n=100,
            exponent_times=(1.0,),
        ))
    with pytest.raises(ParameterError, match="ladder"):
        verify_slln(EnsembleConfig(
            params=ModelParams(1, 0.5),
            replicas=10,
            master_seed=1,
            n=100,
            snapshot_fractions=(1.0,),
        ))


@pytest.mark.parametrize("overrides", [
    dict(n=1),
    dict(n=1000, exponent_times=(0.05, 1.0)),  # 1000^0.05 gives time 1
], ids=["n-1", "time-1"])
def test_critical_config_refuses_time_one(overrides):
    # the log n normalization of an exponent grid puts time 1 at log-time 0
    with pytest.raises(ParameterError, match="snapshot times >= 2"):
        BATTERIES["critical"].config(ModelParams(1, "3/4"), 1, **overrides)


@pytest.mark.parametrize("params, selected", [
    (ModelParams(2, "1/2"), ["slln", "clt", "cm"]),
    (ModelParams(1, "3/4"), ["slln", "critical"]),
    (ModelParams(1, 0.9), ["slln", "superdiffusive"]),
    (ModelParams(3, 7 / 12), ["slln"]),  # critical only within the float band
], ids=["diffusive", "critical", "superdiffusive", "inexact-critical"])
def test_battery_selection(params, selected):
    assert [name for name, b in BATTERIES.items() if b.applies(params)] == selected


# -------------------------------------------------------------- reporting

def test_reports_are_deterministic_up_to_runtime():
    cfg = EnsembleConfig(
        params=ModelParams(1, 0.5, 0.5),
        replicas=200,
        master_seed=23,
        n=500,
        snapshot_fractions=(0.5, 1.0),
    )
    a = verify_diffusive_clt(cfg)
    b = verify_diffusive_clt(cfg)
    assert json.dumps(a.canonical_dict(), sort_keys=True) == json.dumps(
        b.canonical_dict(), sort_keys=True
    )
    assert "runtime_seconds" not in a.canonical_dict()
    assert "runtime_seconds" in a.to_dict()


def test_report_serializes_to_json():
    cfg = EnsembleConfig(
        params=ModelParams(1, "3/5", "0.7"),
        replicas=100,
        master_seed=3,
        n=200,
        snapshot_fractions=(1.0,),
    )
    report = verify_diffusive_clt(cfg)
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["params"]["p_exact"] == "3/5"
    assert payload["params"]["q_exact"] == "7/10"
    assert isinstance(payload["checks"], list)
    assert all(isinstance(c["passed"], bool) for c in payload["checks"])


def test_check_records_are_immutable_and_keep_their_key_order():
    check = CheckResult("var[s=1, axis=0]", 1.5, 1.4, 0.2, 0.5, True)
    with pytest.raises(AttributeError):
        check.passed = False
    assert list(check.to_dict()) == [
        "name", "observed", "expected", "tolerance", "z", "passed", "gating", "note"]
    assert check.to_dict() == {"name": "var[s=1, axis=0]", "observed": 1.5, "expected": 1.4,
                               "tolerance": 0.2, "z": 0.5, "passed": True, "gating": True,
                               "note": ""}
    assert check._replace(passed=False).to_dict()["passed"] is False and check.passed


def test_summary_lines_are_printable():
    cfg = EnsembleConfig(
        params=ModelParams(1, 0.5),
        replicas=100,
        master_seed=5,
        n=100,
        snapshot_fractions=(1.0,),
    )
    lines = verify_diffusive_clt(cfg).summary_lines()
    assert lines[0].startswith("[diffusive_clt]")
    assert any("verdict" in line for line in lines)
