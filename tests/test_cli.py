"""End-to-end command line checks.

main() is invoked in process with an argv list; every assertion runs
against the JSON reports and the documented exit codes.  Seeds are always
passed explicitly so reruns must be byte identical.
"""

import hashlib
import json

import pytest

from lqmle.cli import main

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
    assert doc["nobs"] == 300
    names = [row["name"] for row in doc["estimates"]]
    assert names == ["const", "ar1", "alpha0", "alpha1"]
    for row in doc["estimates"]:
        assert row["asd"] > 0
        assert 0 <= row["p_value"] <= 1
        assert isinstance(row["boundary"], bool)
    assert doc["convergence"]["converged"] is True
    assert doc["diagnostics"]["residual_summary"]["nobs"] == 300
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
    assert len(lines) == 300


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
    assert doc["diagnostics"]["residual_summary"]["nobs"] == 300
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


def test_render_unknown_schema(tmp_path):
    doc = tmp_path / "weird.json"
    doc.write_text('{"schema": "lqmle.unknown/9"}')
    assert main(["render", str(doc)]) == 3


def test_render_missing_file(tmp_path):
    assert main(["render", str(tmp_path / "none.json")]) == 3
