"""The three workloads: fit-zoo, mc-study and long-series.

Each workload makes its inputs from the seed with the benchmark's own
code (``reference``), runs whole rounds of the same operations until
the measuring time is used up, and checks every output afterwards,
outside the timed calls.  An operation fails when it raises, does not
converge, or fails its output check; ``Outcome`` counts both and keeps
the reason of each failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import stats
from scipy.signal import lfilter

import reference as ref

# `lqmle fit` is run with this fixed seed for its random starts.
FIT_SEED = 11
# A step of this size per coordinate must not raise the criterion at a fit.
PROBE_STEP = 1e-4


def _small_work(state):
    """A Python loop over 400 observations, small numpy arrays, a solve and an IIR filter."""
    ref.criterion("arma_garch", state["y"], ref.THETA0["arma_garch"])
    x = state["y"] / 3.0
    for _ in range(20):
        t = np.tanh(0.5 * x)
        d = np.column_stack([x, t, x * t, x * x])
        h = np.einsum("t,tk,tl->kl", x * t, d, d)
        np.linalg.solve(h + np.eye(4), d.sum(axis=0))
        lfilter([1.0], [1.0, -0.3], d, axis=0)


def _large_work(state):
    """A Python path loop over 3000 steps and a stable-law kernel mean over 200k draws."""
    ref.path("garch", ref.THETA0["garch"], state["y"])
    u = state["rng"].uniform(-0.5 * math.pi, 0.5 * math.pi, 200_000)
    w = state["rng"].standard_exponential(200_000)
    x = np.sin(1.7 * u) / np.cos(u) ** (1 / 1.7) * (np.cos(-0.7 * u) / w) ** (-0.7 / 1.7)
    float(np.sum(x * np.tanh(0.5 * x)))


class SpeedProbe:
    """Fixed work that uses no lqmle code, timed next to the measured calls.

    On a shared machine the speed of one and the same computation drifts
    by tens of percent over tens of seconds.  A timing scaled by the
    probe's median in the same run keeps the program's own changes, since
    the probe never runs program code, and loses most of that drift.  The
    work resembles what the workload spends its time on: ``small`` for
    n=400 fits and replications, ``large`` for long paths and big-array
    sampling.  ``ref_ms`` is about the work's median on the machine the
    reference figures come from; scaled timings read as times on a
    machine where the probe takes that long.
    """

    KINDS = {"small": (_small_work, 400, 2.0), "large": (_large_work, 3000, 17.0)}

    def __init__(self, kind: str) -> None:
        self._work, nobs, self.ref_ms = self.KINDS[kind]
        self._state = {"y": ref.path("arma_garch", ref.THETA0["arma_garch"], _rng(0).logistic(size=nobs)), "rng": _rng(1)}
        self.samples: list[float] = []

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = time.perf_counter()
            self._work(self._state)
            self.samples.append(time.perf_counter() - t0)

    @property
    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.samples)

    @property
    def scale(self) -> float:
        """Factor that turns a time measured in this run into a reference-speed time."""
        return self.ref_ms / self.median_ms


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    reasons: dict = field(default_factory=dict)
    figures: dict = field(default_factory=dict)

    def fail(self, reason: str, count: int = 1, wrong: bool = False) -> None:
        self.failed += count
        if wrong:
            self.wrong += count
        self.reasons[reason] = self.reasons.get(reason, 0) + count


def _rng(*key) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(k) for k in key])))


def _child_seed(*key) -> int:
    return int(np.random.SeedSequence([int(k) for k in key]).generate_state(1, np.uint64)[0])


def run_rounds(seconds: float, one_round) -> int:
    """Run whole rounds until ``seconds`` of wall time have passed; at least one."""
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        one_round(k)
        k += 1
    return k


def typical_ms(groups: dict) -> float:
    """Geometric mean over cells of each cell's median time, in ms.

    A workload mixes cells whose costs differ several-fold, so the
    median of all its times falls in the gap between two clusters and
    jumps with the seed; one median per cell, averaged on a log scale,
    does not.
    """
    return 1e3 * math.exp(statistics.fmean(math.log(statistics.median(v)) for v in groups.values()))


def _series(model: str, family: str, nobs: int, *key, burn: int = 100) -> np.ndarray:
    eta = ref.innovations(family, _rng(*key), nobs + burn)
    return ref.path(model, ref.THETA0[model], eta)[burn:]


def check_fit(model: str, y, theta_hat, loglik: float, nobs: int) -> str | None:
    """Reason the reported fit is wrong, or None.

    The reported loglik must equal the reference criterion at theta_hat,
    be no lower than the criterion at the true theta0, and no step of
    PROBE_STEP in one coordinate (kept in the box) may raise it beyond
    the optimizer's own score tolerance.
    """
    lo, hi = (np.asarray(b) for b in ref.BOUNDS[model])
    theta_hat = np.asarray(theta_hat, dtype=float)
    at_hat = ref.criterion(model, y, theta_hat, nobs)
    tol = 1e-9 * (1.0 + abs(at_hat))
    if not abs(at_hat - loglik) <= tol:
        return f"reported loglik {loglik!r} differs from the criterion {at_hat!r}"
    at_true = ref.criterion(model, y, ref.THETA0[model], nobs)
    if at_true > at_hat + tol:
        return f"criterion at theta0 {at_true!r} exceeds the one at the estimate {at_hat!r}"
    for j in range(theta_hat.size):
        for sign in (-1.0, 1.0):
            probe = theta_hat.copy()
            probe[j] = min(max(probe[j] + sign * PROBE_STEP, lo[j]), hi[j])
            if probe[j] != theta_hat[j] and ref.criterion(model, y, probe, nobs) > at_hat + tol:
                return f"a step in coordinate {j} raises the criterion above the estimate's"
    return None


# -- fit-zoo ----------------------------------------------------------------

ZOO_CELLS = [(m, f) for m in ref.MODELS for f in ("logistic", "t2")]
ZOO_NOBS = 400
# Distinct series per cell; longer runs revisit them, which also checks
# that a repeated analysis reproduces its report byte for byte.
ZOO_POOL = 10


class FitZoo:
    name = "fit-zoo"
    probe_kind = "small"

    def __init__(self, lqmle, seed: int, workdir: Path, probe: SpeedProbe) -> None:
        self.lq, self.seed, self.workdir, self.probe = lqmle, seed, workdir, probe

    def setup(self) -> None:
        self.inputs = {}
        for r in range(ZOO_POOL):
            for c, (model, family) in enumerate(ZOO_CELLS):
                y = _series(model, family, ZOO_NOBS, self.seed, 1, r, c)
                path = self.workdir / f"zoo-{r}-{c}.csv"
                path.write_text("".join(repr(float(v)) + "\n" for v in y))
                self.inputs[r, c] = (y, path)

    def run(self, seconds: float, traced: bool) -> Outcome:
        out = Outcome()
        report = self.workdir / "report.json"
        runs = []

        def one_round(k):
            for c, (model, _) in enumerate(ZOO_CELLS):
                _, path = self.inputs[k % ZOO_POOL, c]
                argv = ["fit", "--data", str(path), "--model", model, "--seed", str(FIT_SEED), "--out", str(report)]
                if model == "arma_garch":
                    argv.append("--no-intercept")
                err = io.StringIO()
                self.probe.sample()
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stderr(err):
                        rc = self.lq.cli.main(argv)
                except Exception as exc:  # a crash of one analysis is a failed operation
                    rc = f"{type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
                text = report.read_text() if rc == 0 else err.getvalue().strip()[-300:]
                report.unlink(missing_ok=True)
                runs.append((k % ZOO_POOL, c, rc, text, dt))

        run_rounds(seconds, one_round)
        first_text = {}
        verdict = {}
        for key_r, c, rc, text, _ in runs:
            out.attempted += 1
            if rc != 0:
                out.fail(f"lqmle fit exit {rc}: {text}")
                continue
            key = (key_r, c)
            if key not in verdict:
                first_text[key] = text
                verdict[key] = self._check(key, json.loads(text))
            elif text != first_text[key]:
                out.fail("a repeated analysis changed its report", wrong=True)
                continue
            if verdict[key] is not None:
                out.fail(verdict[key], wrong=True)

        times = [1e3 * dt for *_, dt in runs]
        p90 = float(np.quantile(times, 0.9))
        cells = {}
        for _, c, _, _, dt in runs:
            cells.setdefault(c, []).append(dt)
        out.figures = {
            "op_ms": typical_ms(cells),
            "ops_per_s": len(times) / (sum(times) / 1e3),
            "fit_ms.p50": statistics.median(times),
            "fit_ms.p90": p90,
            "fit_ms.samples": len(times),
            "fit_ms.beyond_p90": sum(t > p90 for t in times),
        }
        return out

    def _check(self, key, doc) -> str | None:
        model, _ = ZOO_CELLS[key[1]]
        y, _ = self.inputs[key]
        theta = [row["estimate"] for row in doc["estimates"]]
        aic = -2.0 * doc["loglik"] + 2.0 * len(theta)
        if not abs(doc["aic"] - aic) <= 1e-9 * (1.0 + abs(aic)):
            return f"aic {doc['aic']!r} is not -2 loglik + 2k = {aic!r}"
        return check_fit(model, y, theta, doc["loglik"], doc["nobs"])


# -- mc-study ------------------------------------------------------------------

MC_REPS = 24
MC_NOBS = 400
DAR_RESTRICTION = (((1.0, 1.0, 1.0, 1.0),), (2.3,))
# Replications whose estimate sits on a box face are valid outcomes the
# harness keeps out of its summaries; they are not failures.
BOX_FACE = "estimate on parameter boundary"
# A mean estimate must lie within this many standard errors of its target.
MEAN_BAND_SE = 6.0
# Two-sided tail probability of the binomial band around the test level.
BAND_TAIL = 1e-7


class McStudy:
    name = "mc-study"
    probe_kind = "small"

    def __init__(self, lqmle, seed: int, workdir: Path, probe: SpeedProbe) -> None:
        self.lq, self.seed, self.probe = lqmle, seed, probe

    def setup(self) -> None:
        lq = self.lq
        dar = lq.make_model("dar", p=1, q=1)
        ag = lq.make_model("arma_garch", include_intercept=False)
        normal = lq.normal(ref.NORMAL_SCALE)
        # (label, model, innovations, restriction, estimator); all at theta0
        self.cells = [
            ("dar-logistic", dar, lq.logistic(), DAR_RESTRICTION, "lqmle"),
            ("dar-normal", dar, normal, DAR_RESTRICTION, "lqmle"),
            ("ag-normal", ag, normal, None, "lqmle"),
            ("ag-gauss", ag, normal, None, "gqmle"),
        ]

    def scenario(self, k: int, c: int):
        label, model, dist, restriction, estimator = self.cells[c]
        return self.lq.Scenario(
            model=model,
            theta0=ref.THETA0[model.name],
            dist=dist,
            nobs=MC_NOBS,
            reps=MC_REPS,
            seed=_child_seed(self.seed, 2, k, c),
            estimator=estimator,
            constraint=restriction,
            label=label,
        )

    def run(self, seconds: float, traced: bool) -> Outcome:
        out = Outcome()
        results = []  # (round, cell, workers, seconds, summary or error)
        worker_counts = (1,) if traced else (1, 2)

        def one_round(k):
            for c in range(len(self.cells)):
                sc = self.scenario(k, c)
                for w in worker_counts:
                    self.probe.sample(5)
                    t0 = time.perf_counter()
                    try:
                        res = self.lq.run_scenario(sc, workers=w, keep_records=True, max_failure_fraction=1.0)
                    except Exception as exc:  # the whole cell failed
                        res = f"{type(exc).__name__}: {exc}"
                    results.append((k, c, w, time.perf_counter() - t0, res))

        rounds = run_rounds(seconds, one_round)
        usable = total = 0
        for k in range(rounds):
            cell_runs = {(c, w): res for kk, c, w, _, res in results if kk == k}
            for c, (label, *_) in enumerate(self.cells):
                runs = [cell_runs[c, w] for w in worker_counts]
                out.attempted += MC_REPS * len(runs)
                broken = [r for r in runs if isinstance(r, str)]
                if broken:
                    out.fail(f"{label}: {broken[0]}", MC_REPS * len(runs))
                    continue
                first = runs[0]
                usable += first.reps_used
                total += first.reps
                for rec in first.records:
                    if not rec.ok and rec.error != BOX_FACE:
                        out.fail(f"{label}: {rec.error.split(':')[0]}", len(runs))
                problem = self._check_cell(c, runs)
                if problem is not None:
                    out.fail(f"{label}: {problem}", MC_REPS * len(runs), wrong=True)

        w1 = [(dt, res) for _, _, w, dt, res in results if w == 1 and not isinstance(res, str)]
        cells = {}
        for dt, res in w1:
            cells.setdefault(res.label, []).append(dt / res.reps)
        w2 = [(dt, res) for _, _, w, dt, res in results if w == 2 and not isinstance(res, str)]

        def rate(runs):
            return sum(r.reps for _, r in runs) / sum(dt for dt, _ in runs)

        out.figures = {
            "op_ms": typical_ms(cells),
            "ops_per_s": rate(w1 + w2),
            "mc_reps_per_s": rate(w1),
            "montecarlo.usable_ratio": usable / total if total else None,
        }
        if w2:
            out.figures["mc_reps_per_s.w2"] = rate(w2)
            out.figures["montecarlo.pool.speedup"] = rate(w2) / rate(w1)
        return out

    def _check_cell(self, c: int, runs) -> str | None:
        _, model, _, restriction, estimator = self.cells[c]
        first = runs[0]
        doc = json.dumps(first.as_dict(), sort_keys=True)
        for other in runs[1:]:
            if json.dumps(other.as_dict(), sort_keys=True) != doc:
                return "summaries differ between 1 and 2 workers"
            if other.records != first.records:
                return "replication records differ between 1 and 2 workers"
        good = [rec for rec in first.records if rec.ok]
        if len(good) < 2:
            return f"only {len(good)} usable replications"
        if restriction is not None:
            for name, rate in (("wald", first.wald_reject_rate), ("lm", first.lm_reject_rate)):
                k = round(rate * len(good))
                upper = stats.binom.sf(k - 1, len(good), first.level)
                lower = stats.binom.cdf(k, len(good), first.level)
                if min(upper, lower) < BAND_TAIL / 2:
                    return f"{name} rejects {k}/{len(good)} at level {first.level}, outside the binomial band"
        target = np.asarray(ref.THETA0[model.name], dtype=float)
        if estimator == "gqmle":
            # the Gaussian criterion normalizes E[eta^2] = 1, so the
            # variance intercept and ARCH coefficient scale by c^2
            target[2:4] *= ref.NORMAL_SCALE**2
        se = np.asarray(first.sd) / math.sqrt(len(good))
        if np.any(np.abs(np.asarray(first.mean_estimate) - target) > MEAN_BAND_SE * se):
            return f"mean estimate {first.mean_estimate} is not within {MEAN_BAND_SE} SE of {tuple(target)}"
        return None


# -- long-series ------------------------------------------------------------------

LONG_NOBS = 4000
# n=4000 fits per model and innovation law in a round.
LONG_FITS = 3
LONG_POOL = 2
POP_NOBS = 1_000_000
POP_MODELS = ("garch", "arma_garch", "dar")
# -H/n on a correct program strays from A by sampling noise alone: over
# 24 check paths its relative spectral gap ran 0.008-0.055 at 20k
# observations and 0.002-0.019 at 100k, hence the length and the band.
CHECK_NOBS = 100_000
INFO_GAP = 0.05
CALIBRATIONS = (("normal", "normal", None), ("uniform", "uniform", None), ("t3", "student_t", 3.0), ("t2", "student_t", 2.0))
STABLE_INDEX = 1.69


class LongSeries:
    name = "long-series"
    probe_kind = "large"

    def __init__(self, lqmle, seed: int, workdir: Path, probe: SpeedProbe) -> None:
        self.lq, self.seed, self.probe = lqmle, seed, probe

    def setup(self) -> None:
        lq = self.lq
        self.models = {
            "dar": lq.make_model("dar", p=1, q=1),
            "garch": lq.make_model("garch", p=1, q=1),
            "arma_garch": lq.make_model("arma_garch", include_intercept=False),
            "expar": lq.make_model("expar", p=1),
        }
        # LONG_FITS series per model, law and round; rounds past
        # LONG_POOL reuse the series of the first ones
        self.series = {
            (r, m, f, s): _series(m, f, LONG_NOBS, self.seed, 3, r, i, j, s)
            for r in range(LONG_POOL)
            for i, m in enumerate(ref.MODELS)
            for j, f in enumerate(("logistic", "t2"))
            for s in range(LONG_FITS)
        }

    def run(self, seconds: float, traced: bool) -> Outcome:
        lq = self.lq
        ops = []  # (kind, key, seconds, result or error)

        def timed(kind, key, fn):
            self.probe.sample()
            t0 = time.perf_counter()
            try:
                res = fn()
            except Exception as exc:  # a raising call is a failed operation
                res = f"{type(exc).__name__}: {exc}"
            ops.append((kind, key, time.perf_counter() - t0, res))

        def one_round(k):
            fits = [
                ("fit", (m, y), lambda m=m, y=y: lq.fit(self.models[m], y, lq.FitOptions(seed=FIT_SEED)))
                for s in range(LONG_FITS)
                for m in ref.MODELS
                for f in ("logistic", "t2")
                for y in (self.series[k % LONG_POOL, m, f, s],)
            ]
            seed = _child_seed(self.seed, 4, k)
            heavy = [
                ("popinfo", (m, k), lambda m=m: lq.population_information(
                    self.models[m], ref.THETA0[m], lq.logistic(), nobs=POP_NOBS, seed=seed
                ))
                for m in POP_MODELS
            ] + [
                ("calibrate", (label, k), lambda family=family, shape=shape: lq.calibrate_scale(family, shape=shape))
                for label, family, shape in CALIBRATIONS
            ] + [("calibrate", ("stable", k), lq.calibrate_stable_index)]
            # spread the fits between the long calls, so that each model's
            # fits sample the whole round rather than one stretch of it
            chunk = -(-len(fits) // len(heavy))
            for i, op in enumerate(heavy):
                for fit_op in fits[i * chunk : (i + 1) * chunk]:
                    timed(*fit_op)
                timed(*op)

        rounds = run_rounds(seconds, one_round)
        out = Outcome()
        for kind, key, _, res in ops:
            out.attempted += 1
            if isinstance(res, str):
                out.fail(f"{kind} {key[0]}: {res}")
                continue
            if kind == "fit" and not res.converged:
                out.fail(f"fit {key[0]}: did not converge")
                continue
            problem = getattr(self, f"_check_{kind}")(key, res)
            if problem is not None:
                out.fail(f"{kind} {key[0]}: {problem}", wrong=True)

        def secs(kind):
            return [dt for kd, _, dt, _ in ops if kd == kind]

        cal = secs("calibrate")
        per_round = len(cal) // rounds
        per_model = {}
        for kind, key, dt, _ in ops:
            if kind == "fit":
                per_model.setdefault(key[0], []).append(dt)
        out.figures = {
            "op_ms": typical_ms(per_model),
            "ops_per_s": len(ops) / sum(dt for *_, dt, _ in ops),
            "long_fit_ms.p50": 1e3 * statistics.median(secs("fit")),
            "popinfo_s": statistics.median(secs("popinfo")),
            "calibrate_s": statistics.median(sum(cal[i : i + per_round]) for i in range(0, len(cal), per_round)),
        }
        return out

    def _check_fit(self, key, res) -> str | None:
        model, y = key
        return check_fit(model, y, res.theta.values, res.loglik, res.nobs)

    def _check_popinfo(self, key, res) -> str | None:
        model, k = key
        a, b = res
        for name, mat in (("A", a), ("B", b)):
            if not np.allclose(mat, mat.T, rtol=0.0, atol=1e-12 * np.max(np.abs(mat))):
                return f"{name} is not symmetric"
            if not np.linalg.eigvalsh(mat)[0] > 0.0:
                return f"{name} is not positive definite"
        theta0 = np.asarray(ref.THETA0[model])
        eta = ref.innovations("logistic", _rng(self.seed, 5, k, POP_MODELS.index(model)), CHECK_NOBS)
        y = self.models[model].path(theta0, eta)
        y_ref = ref.path(model, theta0, eta)
        if not np.max(np.abs(y - y_ref)) <= 1e-9 * (1.0 + np.max(np.abs(y_ref))):
            return "path differs from the reference recursion"
        h = self.lq.evaluate(self.models[model], y_ref, theta0, order=2).info_hessian
        gap = np.linalg.norm(a - h, 2) / np.linalg.norm(a, 2)
        if not gap <= INFO_GAP:
            return f"A and -H/n differ by {gap:.3f} in relative spectral norm"
        return None

    def _check_calibrate(self, key, res) -> str | None:
        label, _ = key
        if label == "stable":
            return None if abs(res - STABLE_INDEX) <= 0.01 else f"stable index {res} is not within 0.01 of {STABLE_INDEX}"
        err = abs(ref.kernel_mean(label, res) - 1.0)
        return None if err <= 1e-6 else f"E[k(cX)] - 1 = {err:.2e} at c = {res}"


WORKLOADS = {w.name: w for w in (FitZoo, McStudy, LongSeries)}
