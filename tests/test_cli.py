"""End-to-end command line checks.

main() is invoked in process with an argv list; every assertion runs
against the JSON reports and the documented exit codes.  Seeds are always
passed explicitly so reruns must be byte identical.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import lqmle
from lqmle.cli import _UNRECORDED, build_parser, main

SIM = [
    "simulate",
    "--model", "dar", "--order", "1,1",
    "--theta", "1.0,0.5,0.3,0.5",
    "--dist", "logistic",
    "--n", "300", "--burn", "50", "--seed", "7",
]


@pytest.fixture()
def dar_csv(tmp_path):
    out = tmp_path / "dar.csv"
    rc = main(SIM + ["--out", str(out)])
    assert rc == 0
    return out


def test_simulate_writes_series_and_manifest(dar_csv):
    manifest = dar_csv.with_name(dar_csv.name + ".manifest.json")
    assert dar_csv.exists() and manifest.exists()
    doc = json.loads(manifest.read_text())
    assert doc["schema"] == "lqmle.simulate/1"
    assert doc["nobs"] == 300
    assert doc["manifest"]["seed"] == 7
    want = hashlib.sha256(dar_csv.read_bytes()).hexdigest()
    assert doc["output_sha256"] == want


def test_simulate_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(SIM + ["--out", str(a)]) == 0
    assert main(SIM + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    da = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    db = json.loads((tmp_path / "b.csv.manifest.json").read_text())
    assert da["output_sha256"] == db["output_sha256"]


def test_fit_report_contents(dar_csv, tmp_path):
    out = tmp_path / "fit.json"
    rc = main([
        "fit", "--data", str(dar_csv), "--model", "dar", "--order", "1,1",
        "--seed", "1", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "lqmle.fit/1"
    assert doc["criterion"] == "logistic"
    # the DAR(1,1) criterion conditions on its first observation
    assert doc["nobs"] == 299
    names = [row["name"] for row in doc["estimates"]]
    assert names == ["const", "ar1", "alpha0", "alpha1"]
    for row in doc["estimates"]:
        assert row["asd"] > 0
        assert 0 <= row["p_value"] <= 1
        assert isinstance(row["boundary"], bool)
    assert doc["convergence"]["converged"] is True
    assert doc["diagnostics"]["residual_summary"]["nobs"] == 299
    assert doc["aic"] == pytest.approx(-2 * doc["loglik"] + 8, abs=1e-9)


def test_fit_rerun_is_byte_identical(dar_csv, tmp_path):
    outs = []
    for name in ("f1.json", "f2.json"):
        out = tmp_path / name
        rc = main([
            "fit", "--data", str(dar_csv), "--model", "dar", "--order", "1,1",
            "--seed", "1", "--out", str(out),
        ])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_fit_manifest_records_the_same_option_keys(dar_csv, tmp_path):
    out = tmp_path / "fit.json"
    assert main(["fit", "--data", str(dar_csv), "--model", "dar", "--out", str(out)]) == 0
    assert set(json.loads(out.read_text())["manifest"]["options"]) == {
        "model", "order", "no_intercept", "column", "delim", "header", "diff",
        "criterion", "start", "multistart", "max_iter", "hill_k", "residuals",
    }


@pytest.mark.parametrize(
    "flags,key",
    [
        (["--max-iter", "1"], "max_iter"),
        (["--start", "1,0.5,0.3,0.5"], "start"),
        (["--no-multistart"], "multistart"),
    ],
)
def test_test_manifest_records_the_fit_flags(dar_csv, tmp_path, flags, key):
    options = []
    for extra in ([], flags):
        out = tmp_path / f"test{len(extra)}.json"
        rc = main([
            "test", "--data", str(dar_csv), "--model", "dar", "--order", "1,1",
            "--restrict", "1,1,1,1=2.3", *extra, "--out", str(out),
        ])
        assert rc in (0, 5)
        options.append(json.loads(out.read_text())["manifest"]["options"])
    assert [k for k in options[0] if options[0][k] != options[1][k]] == [key]


def test_every_unrecorded_name_is_a_parsed_argument():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {action.dest for p in sub.choices.values() for action in p._actions}
    assert set(_UNRECORDED) - {"func", "command"} <= dests


@pytest.mark.parametrize("value", ["nan,0.5,0.3,0.5", "1,0.5,inf,0.5", "1,x,0.3,0.5"])
@pytest.mark.parametrize(
    "command,flag,extra",
    [
        ("fit", "--start", []),
        ("test", "--start", ["--restrict", "1,1,1,1=2.3"]),
        ("diagnose", "--theta", []),
        ("simulate", "--theta", ["--n", "30"]),
    ],
)
def test_point_flags_must_be_finite_numbers(dar_csv, tmp_path, capsys, command, flag, extra, value):
    out = tmp_path / "x.out"
    data = [] if command == "simulate" else ["--data", str(dar_csv)]
    with pytest.raises(SystemExit) as exc:
        main([command, *data, "--model", "dar", flag, value, *extra, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    assert f"argument {flag}: must be comma-separated finite numbers, got {value!r}" in capsys.readouterr().err


def test_fit_residuals_output(dar_csv, tmp_path):
    out = tmp_path / "fit.json"
    resid = tmp_path / "resid.csv"
    rc = main([
        "fit", "--data", str(dar_csv), "--model", "dar", "--order", "1,1",
        "--seed", "1", "--residuals", str(resid), "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["residuals_path"] == str(resid)
    lines = resid.read_text().strip().splitlines()
    # one residual per criterion term: DAR(1,1) conditions on y_0
    assert len(lines) == 299


def test_fit_nonconvergence_exit_code(dar_csv, tmp_path):
    out = tmp_path / "noconv.json"
    rc = main([
        "fit", "--data", str(dar_csv), "--model", "dar", "--order", "1,1",
        "--max-iter", "1", "--no-multistart", "--seed", "1", "--out", str(out),
    ])
    assert rc == 5
    doc = json.loads(out.read_text())
    assert doc["convergence"]["converged"] is False


def test_bad_order_is_usage_error(dar_csv, tmp_path):
    rc = main([
        "fit", "--data", str(dar_csv), "--model", "dar", "--order", "banana",
        "--out", str(tmp_path / "x.json"),
    ])
    assert rc == 2
    assert not (tmp_path / "x.json").exists()


def test_unknown_flag_raises_argparse_exit():
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["fit", "test"])
def test_wrong_length_start_is_usage_error(dar_csv, tmp_path, capsys, command):
    out = tmp_path / "x.json"
    extra = ["--restrict", "0,1,0,0=0.5"] if command == "test" else []
    rc = main([
        command, "--data", str(dar_csv), "--model", "dar", "--start", "1,2",
        "--seed", "1", *extra, "--out", str(out),
    ])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "--start has 2 values; dar needs 4 (const, ar1, alpha0, alpha1)" in err


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--max-iter", "0", "must be at least 1, got 0"),
        ("--hill-k", "1", "must be at least 2, got 1"),
    ],
)
def test_fit_flags_below_range_exit_before_the_fit(
    dar_csv, tmp_path, capsys, monkeypatch, flag, value, message
):
    monkeypatch.setattr("lqmle.cli.fit", lambda *a, **k: pytest.fail("the fit ran"))
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--data", str(dar_csv), "--model", "dar", flag, value, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    assert f"argument {flag}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,target,extra",
    [
        ("fit", "lqmle.cli.fit", []),
        ("diagnose", "lqmle.cli.evaluate", ["--theta", "1.0,0.5,0.3,0.5"]),
    ],
)
def test_hill_k_at_residual_count_exits_before_the_fit(
    dar_csv, tmp_path, capsys, monkeypatch, command, target, extra
):
    # 300 observations, one conditioning row: 299 residuals, so k = 299 leaves no reference
    monkeypatch.setattr(target, lambda *a, **k: pytest.fail("the model was evaluated"))
    out = tmp_path / "x.json"
    argv = [command, "--data", str(dar_csv), "--model", "dar", *extra, "--out", str(out)]
    assert main(argv + ["--hill-k", "299"]) == 2
    assert not out.exists()
    assert "--hill-k 299 must be below the residual count 299" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1e-6", "nan", "inf"])
def test_calibrate_tol_must_be_positive_and_finite(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setattr("lqmle.kernel.calibrate_scale", lambda *a, **k: pytest.fail("calibration ran"))
    out = tmp_path / "cal.json"
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--family", "t", "--nu", "3", f"--tol={value}", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    assert f"argument --tol: must be a finite number above 0, got {value}" in capsys.readouterr().err


def test_calibrate_student_t_with_many_degrees_of_freedom(tmp_path):
    scales = {}
    for family, nu in (("t", "30"), ("t", "400"), ("normal", None)):
        out = tmp_path / f"cal-{family}{nu}.json"
        argv = ["calibrate", "--family", family, "--out", str(out)]
        assert main(argv + (["--nu", nu] if nu else [])) == 0
        scales[family, nu] = json.loads(out.read_text())["scale"]
    assert scales["t", "30"] < scales["t", "400"] < scales["normal", None]


def test_missing_data_file(tmp_path):
    out = tmp_path / "r.json"
    rc = main([
        "fit", "--data", str(tmp_path / "ghost.csv"), "--model", "dar",
        "--order", "1,1", "--out", str(out),
    ])
    assert rc == 3
    assert not out.exists()


def test_corrupt_data_file(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0\nnope\n")
    rc = main([
        "fit", "--data", str(bad), "--model", "dar", "--order", "1,1",
        "--out", str(tmp_path / "r.json"),
    ])
    assert rc == 3


def test_test_subcommand_reports_all_three(dar_csv, tmp_path):
    out = tmp_path / "test.json"
    rc = main([
        "test", "--data", str(dar_csv), "--model", "dar", "--order", "1,1",
        "--restrict", "1,1,1,1=2.3", "--seed", "1", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "lqmle.test/1"
    assert doc["restriction"] == {"R": [[1.0, 1.0, 1.0, 1.0]], "r": [2.3]}
    by_method = {t["method"]: t for t in doc["tests"]}
    for key in ("wald", "lm"):
        assert by_method[key]["df"] == 1
        assert 0 <= by_method[key]["p_value"] <= 1
    assert doc["deviance"] >= 0
    assert doc["loglik_restricted"] <= doc["loglik_unrestricted"] + 1e-9


def test_test_without_multistart_runs_the_warm_start(tmp_path):
    # replication 4 of a burn-0 DAR(1,1) logistic scenario with seed 5 and
    # n = 400: the projected box midpoint alone stops after one iteration
    # far below the restricted optimum; the unrestricted estimate projected
    # onto the restriction reaches it in a few Newton steps
    model = lqmle.make_model("dar", p=1, q=1)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(5, spawn_key=(4,))))
    y = lqmle.simulate(model, np.array([1.0, 0.5, 0.3, 0.5]), 400, lqmle.logistic(), rng=rng)
    data = tmp_path / "rep4.csv"
    np.savetxt(data, np.r_[0.0, y], fmt="%.17g")
    docs = {}
    for flags in ([], ["--no-multistart"]):
        out = tmp_path / f"test{len(flags)}.json"
        rc = main([
            "test", "--data", str(data), "--model", "dar", "--order", "1,1",
            "--restrict", "1,1,1,1=2.3", "--out", str(out), *flags,
        ])
        assert rc == 0
        docs[len(flags)] = json.loads(out.read_text())
    assert docs[1]["loglik_restricted"] == docs[0]["loglik_restricted"]
    assert docs[1]["loglik_restricted"] == pytest.approx(-1191.7638, abs=1e-4)


def test_test_with_an_unconverged_fit_exits_5_with_its_report(tmp_path, capsys):
    model = lqmle.make_model("dar", p=1, q=1)
    theta0 = np.array([1.0, 0.5, 0.3, 0.5])
    y = lqmle.simulate(model, theta0, 400, lqmle.logistic(), seed=5, burn=100)
    data = tmp_path / "s5.csv"
    np.savetxt(data, y, fmt="%.17g")
    out = tmp_path / "test.json"
    rc = main([
        "test", "--data", str(data), "--model", "dar", "--order", "1,1",
        "--restrict", "1,1,1,1=2.3", "--max-iter", "1", "--out", str(out),
    ])
    assert rc == 5
    assert "a fit did not converge; report written anyway" in capsys.readouterr().err
    doc = json.loads(out.read_text())
    for t in doc["tests"]:
        assert 0 <= t["p_value"] <= 1


def test_restriction_dimension_mismatch(dar_csv, tmp_path):
    rc = main([
        "test", "--data", str(dar_csv), "--model", "dar", "--order", "1,1",
        "--restrict", "1,1=2.3", "--out", str(tmp_path / "t.json"),
    ])
    assert rc == 2


def test_infeasible_restriction_is_numeric_error(dar_csv, tmp_path):
    rc = main([
        "test", "--data", str(dar_csv), "--model", "dar", "--order", "1,1",
        "--restrict", "0,0,1,0=-5", "--seed", "1",
        "--out", str(tmp_path / "t.json"),
    ])
    assert rc == 4


@pytest.mark.parametrize("entry", ["1,nan,1,1=2", "1,1,1,1=inf", "1,1,1,1", "1,1,1,1=2,3"])
def test_restrict_entries_must_be_finite_numbers(dar_csv, tmp_path, capsys, monkeypatch, entry):
    monkeypatch.setattr("lqmle.cli.fit", lambda *a, **k: pytest.fail("the fit ran"))
    out = tmp_path / "t.json"
    rc = main([
        "test", "--data", str(dar_csv), "--model", "dar", "--restrict", entry, "--out", str(out),
    ])
    assert rc == 2
    assert not out.exists()
    assert f"restriction {entry!r} must look like c1,...,cd=r with finite numbers" in capsys.readouterr().err


def test_rank_deficient_restriction_exits_4_before_the_fit(dar_csv, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("lqmle.cli.fit", lambda *a, **k: pytest.fail("the fit ran"))
    out = tmp_path / "t.json"
    rc = main([
        "test", "--data", str(dar_csv), "--model", "dar", "--restrict", "1,1,1,1=2",
        "--restrict", "2,2,2,2=4", "--out", str(out),
    ])
    assert rc == 4
    assert not out.exists()
    assert "RankDeficientConstraint: restriction matrix is not full row rank" in capsys.readouterr().err


def test_calibrate_student_t(tmp_path):
    out = tmp_path / "cal.json"
    rc = main(["calibrate", "--family", "t", "--nu", "3", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "lqmle.calibrate/1"
    assert doc["scale"] == pytest.approx(1.2454147, abs=1e-4)
    assert doc["psi_error"] < 1e-5


def test_calibrate_logistic_is_unit(tmp_path):
    out = tmp_path / "cal.json"
    rc = main(["calibrate", "--family", "logistic", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["scale"] == pytest.approx(1.0, abs=1e-5)


def test_calibrate_rejects_unknown_family(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--family", "gamma", "--out", str(tmp_path / "c.json")])
    assert exc.value.code == 2


def test_diagnose_report(dar_csv, tmp_path):
    out = tmp_path / "diag.json"
    rc = main([
        "diagnose", "--data", str(dar_csv), "--model", "dar", "--order", "1,1",
        "--theta", "1.0,0.5,0.3,0.5", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "lqmle.diagnose/1"
    assert doc["diagnostics"]["residual_summary"]["nobs"] == 299
    ks = [row["k"] for row in doc["diagnostics"]["hill_sweep"]]
    assert ks == sorted(set(ks))


MC_CONFIG = """\
seed: 99
max_failure_fraction: 0.2
scenarios:
  - label: dar-null
    model: {name: dar, order: [1, 1]}
    theta0: [1.0, 0.5, 0.3, 0.5]
    dist: {family: logistic}
    nobs: 150
    reps: 4
    constraint:
      R: [[1, 1, 1, 1]]
      r: [2.3]
  - label: dar-power
    model: {name: dar, order: [1, 1]}
    theta0: [1.0, 0.5, 0.3, 0.5]
    dist: {family: logistic}
    nobs: 150
    reps: 4
    alternative_scale: 1.3
    constraint:
      R: [[1, 1, 1, 1]]
      r: [2.3]
"""


def test_mc_workers_do_not_change_report(tmp_path):
    cfg = tmp_path / "mc.yaml"
    cfg.write_text(MC_CONFIG)
    outs = []
    for workers, name in ((1, "mc1.json"), (2, "mc2.json")):
        out = tmp_path / name
        rc = main(["mc", str(cfg), "--workers", str(workers), "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert doc["schema"] == "lqmle.mc/1"
    labels = [s["label"] for s in doc["summaries"]]
    assert labels == ["dar-null", "dar-power"]
    assert doc["summaries"][1]["alternative_scale"] == 1.3


def test_mc_failed_scenario_reported(tmp_path):
    cfg = tmp_path / "mc.yaml"
    cfg.write_text(
        "scenarios:\n"
        "  - label: broken\n"
        "    model: {name: garch, order: [1, 1]}\n"
        "    theta0: [1.0, 0.1, 0.3]\n"
        "    dist: {family: logistic}\n"
        "    nobs: 120\n"
        "    reps: 4\n"
        "    seed: 5\n"
        "    constraint:\n"
        "      R: [[1, 0, 0]]\n"
        "      r: [-5]\n"
    )
    out = tmp_path / "mc.json"
    rc = main(["mc", str(cfg), "--out", str(out)])
    assert rc == 4
    doc = json.loads(out.read_text())
    assert doc["failed"][0]["label"] == "broken"
    assert doc["failed"][0]["error"] == (
        "4/4 replications failed: InfeasibleConstraint (3); estimate on parameter boundary (1)"
    )
    assert doc["summaries"] == []


def test_mc_rejects_malformed_config(tmp_path):
    cfg = tmp_path / "mc.yaml"
    cfg.write_text("scenarios: {not: a list\n")
    rc = main(["mc", str(cfg), "--out", str(tmp_path / "mc.json")])
    assert rc == 3


def test_mc_rejects_theta0_of_wrong_length(tmp_path, capsys):
    cfg = tmp_path / "mc.yaml"
    cfg.write_text(
        "scenarios:\n"
        "  - label: short\n"
        "    model: {name: dar, order: [1, 1]}\n"
        "    theta0: [1.0, 0.5, 0.3]\n"
        "    dist: {family: logistic}\n"
        "    nobs: 120\n"
        "    reps: 2\n"
        "    seed: 5\n"
    )
    rc = main(["mc", str(cfg), "--out", str(tmp_path / "mc.json")])
    assert rc == 3
    assert "scenario 0" in capsys.readouterr().err


def test_render_every_schema(dar_csv, tmp_path, capsys):
    fit_out = tmp_path / "fit.json"
    assert main([
        "fit", "--data", str(dar_csv), "--model", "dar", "--order", "1,1",
        "--seed", "1", "--out", str(fit_out),
    ]) == 0
    cal_out = tmp_path / "cal.json"
    assert main(["calibrate", "--family", "logistic", "--out", str(cal_out)]) == 0
    sim_manifest = dar_csv.with_name(dar_csv.name + ".manifest.json")
    for path in (fit_out, cal_out, sim_manifest):
        assert main(["render", str(path)]) == 0
    text = capsys.readouterr().out
    assert "const" in text
    assert "scale" in text


def _render(capsys, path) -> str:
    capsys.readouterr()
    assert main(["render", str(path)]) == 0
    return capsys.readouterr().out


def test_render_mc_report(tmp_path, capsys):
    # a power scenario and a failed one, so every part of the view is drawn
    cfg = tmp_path / "mc.yaml"
    cfg.write_text(
        MC_CONFIG
        + "  - label: broken\n"
        "    model: {name: garch, order: [1, 1]}\n"
        "    theta0: [1.0, 0.1, 0.3]\n"
        "    dist: {family: logistic}\n"
        "    nobs: 120\n"
        "    reps: 2\n"
        "    constraint:\n"
        "      R: [[1, 0, 0]]\n"
        "      r: [-5]\n"
    )
    out = tmp_path / "mc.json"
    assert main(["mc", str(cfg), "--out", str(out)]) == 4
    text = _render(capsys, out)
    assert "scenario: dar-null  model: dar" in text
    assert "dgp scale: 1.3" in text
    assert "reject rate at 0.05: wald" in text
    assert "scenario broken: FAILED (" in text


def test_render_diagnose_report(dar_csv, tmp_path, capsys):
    out = tmp_path / "diag.json"
    assert main([
        "diagnose", "--data", str(dar_csv), "--model", "dar", "--order", "1,1",
        "--theta", "1.0,0.5,0.3,0.5", "--hill-k", "30", "--out", str(out),
    ]) == 0
    text = _render(capsys, out)
    assert "model: dar  nobs: 299" in text
    assert "theta: const=1.0000, ar1=0.5000, alpha0=0.3000, alpha1=0.5000" in text
    for head in ("residual kernel mean: ", "residual quartiles: ", "lyapunov: ", "hill sweep: k="):
        assert head in text
    assert "(k=30)" in text


def test_render_stable_calibration(tmp_path, capsys):
    out = tmp_path / "cal.json"
    assert main(["calibrate", "--family", "stable", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "mc_se" not in doc
    assert doc["index"] == pytest.approx(1.6884507, abs=1e-6)
    assert doc["psi_error"] < 1e-6
    text = _render(capsys, out)
    assert "calibrated tail index: 1.688451" in text
    assert "kernel expectation at index: " in text


# An ARMA-GARCH t2 series whose unrestricted fit ends with beta1 on its 0
# face at an indefinite information matrix: the Wald statistic cannot be
# formed there, the score statistic can.
SINGULAR_SIM = [
    "simulate", "--model", "arma_garch", "--no-intercept",
    "--theta", "0.3,0.2,0.2,0.1,0.3", "--dist", "t", "--nu", "2",
    "--dist-scale", "0.9585596", "--n", "400", "--burn", "50", "--seed", "10",
]


@pytest.fixture(scope="module")
def singular_test_report(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("singular")
    data, out = tmp / "ag.csv", tmp / "test.json"
    assert main(SINGULAR_SIM + ["--out", str(data)]) == 0
    rc = main([
        "test", "--data", str(data), "--model", "arma_garch", "--no-intercept",
        "--restrict", "1,1,2,3,1=1.5", "--out", str(out),
    ])
    return rc, out


def test_test_writes_report_when_a_statistic_cannot_be_formed(singular_test_report):
    rc, out = singular_test_report
    assert rc == 4
    doc = json.loads(out.read_text())
    wald, lm = doc["tests"]
    assert wald["method"] == "wald" and wald["df"] == 1
    assert wald["statistic"] is None and wald["p_value"] is None
    assert wald["error"].startswith("SingularInformation: ")
    assert wald["constraint"] == lm["constraint"] == doc["restriction"]
    assert "error" not in lm
    assert lm["statistic"] == pytest.approx(0.325, abs=1e-3)
    assert lm["p_value"] == pytest.approx(0.569, abs=1e-3)


def test_render_test_report(singular_test_report, capsys):
    _, out = singular_test_report
    text = _render(capsys, out)
    assert " wald: not computed (SingularInformation: " in text
    assert "   lm: statistic 0.3250 df=1  p-value 0.5686" in text
    assert "deviance (descriptive, no p-value): " in text


def test_render_unknown_schema(tmp_path):
    doc = tmp_path / "weird.json"
    doc.write_text('{"schema": "lqmle.unknown/9"}')
    assert main(["render", str(doc)]) == 3


def _run_module(*args):
    # ``python -m lqmle`` from a checkout, without the installed console script
    src = str(Path(lqmle.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "lqmle", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


def test_module_entry_point_runs_the_cli(tmp_path):
    proc = _run_module("--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: lqmle")
    # the exit code main returns is the process's
    proc = _run_module("fit", "--data", str(tmp_path / "ghost.csv"), "--model", "dar")
    assert proc.returncode == 3, proc.stderr


def test_render_missing_file(tmp_path):
    assert main(["render", str(tmp_path / "none.json")]) == 3


# -- one spec parser for flags and config ------------------------------------

SCENARIO = (
    "scenarios:\n"
    "  - model: {name: dar, order: [1, 1]}\n"
    "    theta0: [1.0, 0.5, 0.3, 0.5]\n"
    "    nobs: 120\n"
    "    reps: 2\n"
    "    seed: 5\n"
)


@pytest.mark.parametrize(
    "config,rc,message",
    [
        (SCENARIO + "    dist: logistic\n", 0, ""),
        ("scenarios:\n  - 3\n", 3, "scenario 0: expected a mapping, got 3"),
        ("scenarios:\n", 3, "expected a mapping with a 'scenarios' list"),
        (SCENARIO + "    dist: {family: t}\n", 3, "family t needs nu"),
        (SCENARIO + "    dist: {family: cauchy}\n", 3, "dist family 'cauchy'"),
        (SCENARIO + "    dist: {family: empirical}\n", 3, "family empirical needs data"),
        (SCENARIO + "    dist: logistic\n    burn: -5\n", 3, "burn nonnegative"),
        (
            SCENARIO.replace("{name: dar, order: [1, 1]}", "{name: dar, intercept: false}")
            + "    dist: logistic\n",
            3,
            "intercept applies to arma_garch only",
        ),
        (
            SCENARIO + "    dist: logistic\n    alternative_scal: 1.3\n",
            3,
            "scenario 0: unknown key(s) 'alternative_scal'; known keys are model, dist",
        ),
        (
            SCENARIO + "    dist: {family: logistic, sclae: 2.0}\n",
            3,
            "scenario 0: dist: unknown key(s) 'sclae'; known keys are family, scale, nu, alpha, data",
        ),
        (
            SCENARIO + "    dist: logistic\n    constraint: {R: [[1, 1, 1, 1]], r: [2.3], level: 0.01}\n",
            3,
            "scenario 0: constraint: unknown key(s) 'level'; known keys are R, r",
        ),
        (
            SCENARIO + "    dist: logistic\n    constraint: [1, 1]\n",
            3,
            "scenario 0: constraint must be a mapping {R, r}, got [1, 1]",
        ),
        (SCENARIO + "    dist: {family: t, nu: 3, scale: 0.5}\n", 0, ""),
        (SCENARIO + "    dist: logistic\n    level: 1.5\n", 3, "level must lie strictly between 0 and 1, got 1.5"),
        (SCENARIO + "    dist: logistic\n    level: 0\n", 3, "level must lie strictly between 0 and 1, got 0.0"),
        (
            SCENARIO.replace("[1.0, 0.5, 0.3, 0.5]", "[.nan, 0.5, 0.3, 0.5]") + "    dist: logistic\n",
            3,
            "scenario 0: theta0 must be finite, got [nan, 0.5, 0.3, 0.5]",
        ),
        (
            SCENARIO + "    dist: logistic\n    alternative_scale: .inf\n",
            3,
            "alternative_scale must be finite and positive, got inf",
        ),
        (
            SCENARIO.replace("[1.0, 0.5, 0.3, 0.5]", "[1, 0.5, -3, 0.5]") + "    dist: logistic\n",
            3,
            "scenario 0: parameters outside box bounds: ['alpha0']",
        ),
        (
            SCENARIO + "    dist: logistic\n    alternative_scale: 20\n",
            3,
            "scenario 0: parameters outside box bounds: ['const', 'ar1']",
        ),
        (
            SCENARIO + "    dist: logistic\n    constraint: {R: [[1, 1, 1]], r: [2.3]}\n",
            3,
            "scenario 0: restriction shapes (1, 3), (1,) do not match dim 4",
        ),
        (
            SCENARIO + "    dist: logistic\n    constraint: {R: [[1, 1, 1, 1], [2, 2, 2, 2]], r: [2, 4]}\n",
            3,
            "scenario 0: restriction matrix is not full row rank",
        ),
        (
            SCENARIO + "    dist: logistic\n    constraint: {R: [[1, 1, 1, 1]], r: [.nan]}\n",
            3,
            "scenario 0: restriction R theta = r has a non-finite entry",
        ),
    ],
    ids=["dist-name", "entry-not-mapping", "no-scenario-list", "t-without-nu",
         "unknown-family", "empirical-without-data", "negative-burn", "intercept-on-dar",
         "misspelt-scenario-key", "misspelt-dist-key", "unknown-constraint-key",
         "constraint-not-mapping", "dist-mapping", "level-above-1", "level-0", "nan-theta0",
         "infinite-alternative-scale", "theta0-outside-box", "alternative-outside-box",
         "short-restriction-row", "rank-deficient-restriction",
         "nan-restriction-value"],
)
def test_mc_config_parses_or_exits_3(tmp_path, capsys, config, rc, message):
    cfg = tmp_path / "mc.yaml"
    cfg.write_text(config)
    out = tmp_path / "mc.json"
    assert main(["mc", str(cfg), "--out", str(out)]) == rc
    assert out.exists() == (rc == 0)
    assert message in capsys.readouterr().err


DAR_SIM = ["simulate", "--model", "dar", "--theta", "1.0,0.5,0.3,0.5", "--seed", "1"]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--model", "dar", "--no-intercept", "--theta", "1.0,0.5,0.3,0.5", "--n", "30"],
         "intercept applies to arma_garch only, not dar"),
        (["--model", "garch", "--no-intercept", "--theta", "1.0,0.1,0.3", "--n", "30"],
         "not garch"),
        (["--model", "expar", "--no-intercept", "--theta", "0.3,0.4,1.0", "--n", "30"],
         "not expar"),
        (DAR_SIM[1:] + ["--n", "30", "--burn", "-1"], "burn >= 0"),
        (DAR_SIM[1:] + ["--n", "0"], "nobs >= 1"),
        (DAR_SIM[1:] + ["--n", "-5"], "nobs >= 1"),
        (DAR_SIM[1:] + ["--n", "30", "--dist", "t"], "family t needs nu"),
        (DAR_SIM[1:] + ["--n", "30", "--dist", "stable"], "family stable needs alpha"),
        (DAR_SIM[1:] + ["--n", "30", "--dist", "empirical"], "family empirical needs data"),
        (DAR_SIM[1:] + ["--n", "30", "--order", "1,2,3"], "dar takes order P,Q"),
    ],
    ids=["no-intercept-dar", "no-intercept-garch", "no-intercept-expar", "negative-burn",
         "zero-n", "negative-n", "t-without-nu", "stable-without-alpha",
         "empirical-without-data", "dar-order-3"],
)
def test_simulate_flags_fail_cleanly(tmp_path, capsys, argv, message):
    out = tmp_path / "y.csv"
    assert main(["simulate", *argv, "--out", str(out)]) == 2
    assert not out.exists()
    assert not out.with_name("y.csv.manifest.json").exists()
    assert message in capsys.readouterr().err


def test_simulate_writes_no_non_finite_series(tmp_path, capsys):
    out = tmp_path / "y.csv"
    argv = ["simulate", "--model", "dar", "--theta", "1,0.5,-3,0.5", "--n", "5", "--seed", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(out)]) == 4
    assert not out.exists()
    assert not out.with_name("y.csv.manifest.json").exists()
    err = capsys.readouterr().err
    assert "NonFiniteObjective: simulated series is not finite from observation 0 on" in err


def test_simulate_manifest_digests_empirical_draws(tmp_path):
    digests = []
    for name, values in (("a", "-1.0\n0.5\n1.0\n"), ("b", "-2.0\n0.5\n1.0\n")):
        draws = tmp_path / f"{name}-draws.csv"
        draws.write_text(values)
        out = tmp_path / f"{name}.csv"
        argv = DAR_SIM + ["--n", "30", "--dist", "empirical", "--dist-data", str(draws)]
        assert main(argv + ["--out", str(out)]) == 0
        doc = json.loads(out.with_name(f"{name}.csv.manifest.json").read_text())
        assert doc["manifest"]["input_sha256"] == hashlib.sha256(draws.read_bytes()).hexdigest()
        digests.append(doc["manifest"]["input_sha256"])
    assert digests[0] != digests[1]
    out = tmp_path / "logistic.csv"
    assert main(DAR_SIM + ["--n", "30", "--out", str(out)]) == 0
    doc = json.loads(out.with_name("logistic.csv.manifest.json").read_text())
    assert doc["manifest"]["input_sha256"] is None


DRAWS = (-1.5, -0.4, 0.1, 0.3, 0.9, 2.2, -0.7)

# model form -> (flags, config model entry, theta)
FORMS = {
    "dar-1,1": (["--model", "dar", "--order", "1,1"], {"name": "dar", "order": [1, 1]},
                "1.0,0.5,0.3,0.5"),
    "dar-2,1": (["--model", "dar", "--order", "2,1"], {"name": "dar", "order": [2, 1]},
                "0.5,0.3,0.1,0.4,0.3"),
    "garch-1,1": (["--model", "garch", "--order", "1,1"], {"name": "garch", "order": [1, 1]},
                  "1.0,0.15,0.4"),
    "garch-1,2": (["--model", "garch", "--order", "1,2"], {"name": "garch", "order": [1, 2]},
                  "1.0,0.15,0.2,0.2"),
    "expar-1": (["--model", "expar", "--order", "1"], {"name": "expar", "order": 1},
                "0.3,0.4,1.0"),
    "arma_garch": (["--model", "arma_garch"], "arma_garch", "0.1,0.5,0.2,0.5,0.2,0.5"),
    "arma_garch-no-intercept": (
        ["--model", "arma_garch", "--no-intercept"],
        {"name": "arma_garch", "intercept": False},
        "0.5,0.2,0.5,0.2,0.5",
    ),
}

# family -> (flags, config dist entry); the empirical flags name a draw file
FAMILIES = {
    "logistic": ([], "logistic"),
    "normal": (["--dist-scale", "1.75"], {"family": "normal", "scale": 1.75}),
    "uniform": (["--dist-scale", "2.85"], {"family": "uniform", "scale": 2.85}),
    "t": (["--nu", "3", "--dist-scale", "1.25"], {"family": "t", "nu": 3, "scale": 1.25}),
    "stable": (["--alpha", "1.7"], {"family": "stable", "alpha": 1.7}),
    "empirical": (["--dist-data", "DRAWS"], {"family": "empirical", "data": list(DRAWS)}),
}


def _simulate_argv(form, family, draws):
    flags, _, theta = FORMS[form]
    dist_flags = [str(draws) if v == "DRAWS" else v for v in FAMILIES[family][0]]
    return ["simulate", *flags, "--dist", family, *dist_flags, "--theta", theta,
            "--n", "60", "--burn", "20", "--seed", "3"]


@pytest.fixture()
def draws_csv(tmp_path):
    path = tmp_path / "draws.csv"
    path.write_text("".join(f"{v}\n" for v in DRAWS))
    return path


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("form", FORMS)
def test_flags_and_config_build_equal_specs(draws_csv, form, family):
    from lqmle.cli import _flag_dist, _flag_model, _load_scenarios, build_parser

    args = build_parser().parse_args(_simulate_argv(form, family, draws_csv) + ["--out", "y"])
    _, model_entry, theta = FORMS[form]
    raw = {
        "model": model_entry,
        "dist": FAMILIES[family][1],
        "theta0": [float(v) for v in theta.split(",")],
        "nobs": 100,
        "reps": 1,
    }
    (scenario,) = _load_scenarios({"scenarios": [raw]}, "config", 0)
    assert _flag_model(args) == scenario.model
    assert _flag_dist(args) == scenario.dist


# sha256 of each simulated series: how a spec is parsed must not move a draw
SIMULATE_SHA256 = {
    ("dar-1,1", "logistic"): "8d959df463abf0b469df625c594a62783bd90afc252d910b78d648cbbe31351b",
    ("dar-1,1", "normal"): "1e814d69f4a4b5e6d746d59b86c9984b3943f5eb4a5d330ff0de91837e6ab36f",
    ("dar-1,1", "uniform"): "044b4d2f5ce5dee4a9b3d9ba3f880509737213e810b135f1912ba0059009edf5",
    ("dar-1,1", "t"): "c8c35ff088b9306820dfa99ad9d9f3358b641761af338377b662641508806059",
    ("dar-1,1", "stable"): "54e22a3d914faa82385b2d19d8f2edc79cbd912cabe205d3a90a8dbaa68f65bf",
    ("dar-1,1", "empirical"): "46fd866893a44a09f6496ebe2f439280eca41154c416055f85e3d4a744d0002c",
    ("dar-2,1", "logistic"): "6f0208f5501cb97041b8b7c9d7f7745a8b9cf13735820b900a4029b1292298a7",
    ("dar-2,1", "normal"): "d5c61d21d20c36ad7e49e6545fecb58c3cd60ea5504fd6f7cb303ff58111e369",
    ("dar-2,1", "uniform"): "d6c44c118ba417e0e8cff1ce39325ab9050fcdc951ec4134219f7c2b90e28fe6",
    ("dar-2,1", "t"): "49df6a195a153ea64a37b4f1c91ed7d5bbc6e0628fe236b15fe9ea54aad03856",
    ("dar-2,1", "stable"): "805b2980ccd2fc935ba362f110ba38b0fc162b545f2cb7931c76015b24e8123a",
    ("dar-2,1", "empirical"): "277c4f618cbe87d463f83806513c63b9495691a95498d7795f46d5cc955885a1",
    ("garch-1,1", "logistic"): "aae99eb5f246cf5d6faa3ef413a3d34ce9008ebe93ff2a173180a1cf37c3ccca",
    ("garch-1,1", "normal"): "5c809b5799db6ce07938676d8b0b5e05ced9a0625609fc15ff9293897d3bcb99",
    ("garch-1,1", "uniform"): "374bcc306a2406cb6d94eca033f85773c5fb22b8a344d63c80d7f4163c80b294",
    ("garch-1,1", "t"): "03c39e3f1e984b93eaee363c8525cf94066b94af258d8d873f1f25dcd5480dd4",
    ("garch-1,1", "stable"): "de9c91aad686fb7ae62c3318d0f6464bfa70dc3215b01b4437256055ad4dc8f6",
    ("garch-1,1", "empirical"): "4fa3b8ada85258cd52bc36eabaa0905d841ea1915fed9b4324b490431dd58613",
    ("garch-1,2", "logistic"): "67c2139719dcbb8e306165d33ff17c0e5115983f6041a8f631a7e2a847b73774",
    ("garch-1,2", "normal"): "7777bdb6219e4c5c3e6de916ee98e1242cc15e56f37bee1ae356fd360f9726ad",
    ("garch-1,2", "uniform"): "c87bba4a0caab5d895304fec1bdbf1227d1ec7d113fe010691e37c38416c901f",
    ("garch-1,2", "t"): "d4d8e13c90b4809c681d79040e2fe066ed17e56e95a30c95a6598c74038eccd1",
    ("garch-1,2", "stable"): "733c6e9da3dc26fc0cc6715796a66f2c03fbe720db5ad13c14357fec50be3fae",
    ("garch-1,2", "empirical"): "809c605e038cdc10a2245368260723ec564f84edc037c2f60e83861db1d85ed2",
    ("expar-1", "logistic"): "8cfca699d43da87ec40bfeb5feaac934a973784a1ecbc1e29f116ee7645ba272",
    ("expar-1", "normal"): "03d84764c77e4078a270f029934960748ebaf29aacbcea261c234d2929aec198",
    ("expar-1", "uniform"): "887ed1b15c9ad6ca155004538180c1807583ec29951c4d819abcffc0d2e19a9e",
    ("expar-1", "t"): "70d1732cfff6e9c96893bcc876dc0f6f927a2c67d38c4b4774f82aa54ec46d0f",
    ("expar-1", "stable"): "ddf1ef3d0d2e40bd20dcdad4b37516cd97a90d1111d7e5f41243f11cc00207f8",
    ("expar-1", "empirical"): "f6d298ef5f4da115e79c3e66506853261860094157bae8d9fd0ba88b5aa92f7c",
    ("arma_garch", "logistic"): "805babc77dc3b500d99da1e9c255d63b538b0cdbaf828802694309659028f808",
    ("arma_garch", "normal"): "f4135c36ca2851bf4d3692c71938d7456210bfe526ae7b078970707a125a734a",
    ("arma_garch", "uniform"): "04073d05d569d4bd36f249d1839f5f427d801ef110aadc7675dc038e9506c76e",
    ("arma_garch", "t"): "cb3b72219e34bbd80715696ae320f137628f58a6499d40f84061e8378ba8800d",
    ("arma_garch", "stable"): "62ef4762d95c77575cb1841aa6855b1d2856585c4bece42ed490fcf5891c6efc",
    ("arma_garch", "empirical"): "2e87de4a08fd1db85607d99f6c48b31b78802141af2f47737eaed32ea2ca81ac",
    ("arma_garch-no-intercept", "logistic"): "62993ba4de4a8f9b9f6be10a8a8e78d41c60ab1e424d64e3653bbdbbb080e0b5",
    ("arma_garch-no-intercept", "normal"): "609570ec1d9dceddfdcd270f2bda6c51336efe69470a737a529a7ae05fc198b7",
    ("arma_garch-no-intercept", "uniform"): "2b09dc6a835418598a0e97d0e8fd6229759e24e842381f6338d6d464c8ab468e",
    ("arma_garch-no-intercept", "t"): "81dc2278f578c52b5864015fc701679e019f16d3b77ab1103f5fad94d2f87e30",
    ("arma_garch-no-intercept", "stable"): "bbdf95c0a8c822d8b859e571e0010ad1eb61dfefd643d261112dc7e6b6abdb56",
    ("arma_garch-no-intercept", "empirical"): "a48cc2097454bdd44f205548cd9b6f9e62593e3cf88839d332d9e816d2d906ba",
}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("form", FORMS)
def test_simulate_series_match_golden_digests(tmp_path, draws_csv, form, family):
    out = tmp_path / "y.csv"
    assert main(_simulate_argv(form, family, draws_csv) + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SIMULATE_SHA256[form, family]


@pytest.mark.parametrize(
    "line,message",
    [
        ("workers: two", "workers must be a positive integer, got 'two'"),
        ("workers: 0", "workers must be a positive integer, got 0"),
        ("workers: -3", "workers must be a positive integer, got -3"),
        ("workers: 1.5", "workers must be a positive integer, got 1.5"),
        ("workers: true", "workers must be a positive integer, got True"),
        ("max_failure_fraction: lots", "max_failure_fraction must be a number in [0, 1], got 'lots'"),
        ("max_failure_fraction: -1", "max_failure_fraction must be a number in [0, 1], got -1"),
        ("max_failure_fraction: 1.5", "max_failure_fraction must be a number in [0, 1], got 1.5"),
        ("seed: abc", "seed must be a nonnegative integer, got 'abc'"),
        ("seed: -1", "seed must be a nonnegative integer, got -1"),
        ("wokers: 2", "unknown key(s) 'wokers'; known keys are scenarios, seed, workers"),
    ],
)
def test_mc_top_level_keys_exit_3(tmp_path, capsys, line, message):
    cfg = tmp_path / "mc.yaml"
    cfg.write_text(f"{line}\n{SCENARIO}    dist: logistic\n")
    out = tmp_path / "mc.json"
    assert main(["mc", str(cfg), "--out", str(out)]) == 3
    assert not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--workers", "0", "must be at least 1, got 0"),
        ("--workers", "-3", "must be at least 1, got -3"),
        ("--seed", "-1", "must be at least 0, got -1"),
    ],
)
def test_mc_flags_out_of_range_exit_2(tmp_path, capsys, monkeypatch, flag, value, message):
    monkeypatch.setattr("lqmle.cli.run_scenario", lambda *a, **k: pytest.fail("a scenario ran"))
    cfg = tmp_path / "mc.yaml"
    cfg.write_text(f"{SCENARIO}    dist: logistic\n")
    out = tmp_path / "mc.json"
    with pytest.raises(SystemExit) as exc:
        main(["mc", str(cfg), flag, value, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    assert f"argument {flag}: {message}" in capsys.readouterr().err


def test_mc_top_level_keys_in_range_run(tmp_path):
    cfg = tmp_path / "mc.yaml"
    cfg.write_text(f"seed: 3\nworkers: 1\nmax_failure_fraction: 1\n{SCENARIO}    dist: logistic\n")
    out = tmp_path / "mc.json"
    assert main(["mc", str(cfg), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["manifest"]["seed"] == 3
