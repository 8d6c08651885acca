"""The benchmark's tracer (``bench/tracing.py``) against this package.

The tracer wraps package functions and model methods by name, so a
refactor that renames or drops one of them breaks ``bench/run.py
--trace 1``.  Installing it here makes that fail in the unit tests.
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lqmle
import lqmle.cli  # the tracer wraps cli.main
from lqmle.dataio import write_series
from lqmle.distributions import logistic, student_t
from lqmle.models import make_model, stationarity

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_tracer_wraps_the_package_and_records_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    fit, evaluate = lqmle.fit, lqmle.estimation.evaluate
    model = make_model("dar", p=1, q=1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        y = lqmle.simulate(model, np.array([0.5, 0.4, 1.0, 0.3]), 60, logistic(), seed=3)
        lqmle.fit(model, y)
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.spans}
    assert {
        "montecarlo.simulate",
        "models.path.dar",
        "estimation.fit.dar",
        "estimation.evaluate.o2",
        "models.filter.o2.dar",
    } <= names
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["models.filter.o2_us.dar"] > 0
    assert lqmle.fit is fit and lqmle.estimation.evaluate is evaluate


def test_bench_tracer_counts_stable_expectations_per_calibration(monkeypatch):
    # long-series reports kernel.stable_kernel_expectation.calls; it holds
    # only while calibrate_stable_index calls the module-level function
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        lqmle.calibrate_stable_index()
    finally:
        tracer.uninstall()
    inner = [s for s in tracer.spans if s.name == "kernel.stable_kernel_expectation"]
    assert inner and all(s.parent.name == "kernel.calibrate_stable_index" for s in inner)
    assert tracing.layer_metrics(tracer.spans)["kernel.stable_kernel_expectation.calls"] == len(inner)


def test_bench_tracer_reports_constrained_fit_evaluations(monkeypatch):
    # mc-study's per-layer figure for the restricted fits of a replication:
    # it holds only while _replicate calls fit_constrained through the
    # montecarlo module global and fit_constrained calls evaluate
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    model = make_model("dar", p=1, q=1)
    scenario = lqmle.Scenario(
        model=model,
        theta0=(1.0, 0.5, 0.3, 0.5),
        dist=logistic(),
        nobs=100,
        reps=3,
        seed=5,
        constraint=(((1.0, 1.0, 1.0, 1.0),), (2.3,)),
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        lqmle.run_scenario(scenario, max_failure_fraction=1.0)
    finally:
        tracer.uninstall()
    cfits = [s for s in tracer.spans if s.name == "estimation.fit_constrained.dar"]
    assert cfits
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["estimation.fit_constrained.evaluate_calls"] > 0
    assert metrics["estimation.fit.evaluate_calls"] > 0


def test_bench_tracer_sees_the_restricted_fit_of_lqmle_test(monkeypatch, tmp_path):
    # fit_constrained's second caller: lqmle test passes the unrestricted
    # estimate by keyword, and the tracer names the span from the model
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    model = make_model("dar", p=1, q=1)
    data = tmp_path / "dar.csv"
    write_series(data, lqmle.simulate(model, np.array([1.0, 0.5, 0.3, 0.5]), 100, logistic(), seed=5))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rc = lqmle.cli.main([
            "test", "--data", str(data), "--model", "dar", "--order", "1,1",
            "--restrict", "1,1,1,1=2.3", "--out", str(tmp_path / "test.json"),
        ])
    finally:
        tracer.uninstall()
    assert rc == 0
    cfits = [s for s in tracer.spans if s.name == "estimation.fit_constrained.dar"]
    assert len(cfits) == 1 and cfits[0].parent.name == "cli.main"
    assert any(c.name.startswith("estimation.evaluate.") for c in cfits[0].children)
    assert tracing.layer_metrics(tracer.spans)["estimation.fit_constrained.evaluate_calls"] > 0


def test_bench_tracer_yields_every_declared_per_layer_metric(monkeypatch, tmp_path):
    # fit-zoo's traced run: lqmle fit in process on a DAR and an ARMA-GARCH
    # series must reach every layer BENCHMARK.json declares, so a refactor
    # that stops calling a traced name fails here, not only under --trace 1
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    analyses = [
        ("dar", make_model("dar", p=1, q=1), [1.0, 0.5, 0.3, 0.5], []),
        ("arma_garch", make_model("arma_garch", include_intercept=False), [0.3, 0.2, 0.2, 0.1, 0.3], ["--no-intercept"]),
    ]
    argvs = []
    for name, model, theta, extra in analyses:
        data = tmp_path / f"{name}.csv"
        # t2 innovations, as in half of fit-zoo's cells: this DAR fit backtracks once,
        # so it makes an order-0 filter call
        write_series(data, lqmle.simulate(model, np.array(theta), 400, student_t(2.0), seed=3, burn=100))
        argvs.append(["fit", "--data", str(data), "--model", name, *extra, "--seed", "11", "--out", str(tmp_path / f"{name}.json")])
    # the bench runs in a fresh process, where the first Lyapunov diagnostic
    # of each residual count draws its resample; earlier tests drew these
    stationarity._draw_counts.cache_clear()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [lqmle.cli.main(argv) for argv in argvs]
    finally:
        tracer.uninstall()
    assert codes == [0, 0]
    metrics = tracing.layer_metrics(tracer.spans)
    assert [m["name"] for m in declared if metrics.get(m["name"]) is None] == []


@pytest.mark.parametrize("workload", ["fit-zoo", "mc-study"])
def test_traced_bench_round_is_correct_and_yields_every_declared_metric(tmp_path, workload):
    # one traced round of the bench itself, run on a copy of bench/ next to
    # this package's sources so that its outputs stay in tmp_path: any
    # evaluation that bypasses the traced boundaries shows as a missing metric
    root = BENCH.parent
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(root / "src")
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1"]
    done = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), *argv], capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    declared = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]
    assert [m["name"] for m in declared if m["name"] not in result["metrics"]] == []
