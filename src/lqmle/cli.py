"""Command line front end.

Subcommands: fit, simulate, mc, test, calibrate, diagnose, render.
Result documents are deterministic JSON (see reports); anything that
varies between runs of the same inputs -- wall time, worker count --
goes to stderr only.

Exit codes: 0 success, 2 usage error, 3 input or data error, 4 numeric
failure, 5 optimizer did not converge (the report is still written).

``main`` may be called repeatedly in one process.  The argument parser
is built once, when the module is imported, and a parse leaves no state
behind: every call gets its own namespace, so no call sees the options
of an earlier one.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import yaml

from . import __version__, kernel
from .dataio import read_series, write_series
from .diagnostics import hill_sweep, residual_diagnostics
from .distributions import InnovationDist, empirical
from .errors import (
    DataFormatError,
    ExcessiveFailures,
    LqmleError,
    ShapeMismatch,
    SingularInformation,
)
from .estimation import _CRITERION, FitOptions, _check_restriction, _project_into_box, evaluate, fit, fit_constrained
from .inference import deviance, lm_test, t_test, wald_test
from .models import MODEL_REGISTRY, ModelSpec, make_model, simulate
from .montecarlo import Scenario, run_scenario
from .reports import dump_json, render_document, sha256_file

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_NOCONV = 5


class _UsageError(Exception):
    pass


# -- shared argument groups ----------------------------------------------


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="delimited text file with the series")
    p.add_argument("--column", default=None, help="column index or header name")
    p.add_argument("--delim", type=_one_char, default=",", help="field delimiter, one character (default comma)")
    p.add_argument("--header", action="store_true", help="first row holds column names")
    p.add_argument("--diff", action="store_true", help="first-difference the series")


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, choices=sorted(MODEL_REGISTRY))
    p.add_argument(
        "--order",
        default=None,
        help="model order: P,Q for dar and garch, P for expar (arma_garch is fixed at 1,1)",
    )
    p.add_argument(
        "--no-intercept",
        action="store_true",
        help="drop the mean intercept (arma_garch only)",
    )


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``, else a usage error naming the flag."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _positive_float(text: str) -> float:
    """argparse type: a finite number above zero, else a usage error naming the flag."""
    value = float(text)
    if not (np.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {text}")
    return value


_positive_float.__name__ = "float"


def _one_char(text: str) -> str:
    """argparse type: exactly one character, else a usage error naming the flag."""
    if len(text) != 1:
        raise argparse.ArgumentTypeError(f"must be exactly one character, got {text!r}")
    return text


def _floats(text: str) -> tuple[float, ...]:
    """argparse type: comma-separated finite numbers, else a usage error naming the flag."""
    try:
        values = tuple(float(tok) for tok in text.split(","))
        if np.all(np.isfinite(values)):
            return values
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be comma-separated finite numbers, got {text!r}")


def _add_fit_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--criterion", default="lqmle", choices=sorted(_CRITERION))
    p.add_argument("--start", type=_floats, default=None, help="comma-separated starting values")
    p.add_argument(
        "--no-multistart",
        dest="multistart",
        action="store_false",
        help="fit from the model's start values alone, without its screened start "
        "candidates; a restricted fit runs only its first start, the unrestricted "
        "estimate projected onto the restriction",
    )
    p.add_argument("--max-iter", type=_int_at_least(1), default=FitOptions.max_iter)
    p.add_argument(
        "--seed",
        type=_int_at_least(0),
        default=None,
        help="recorded in the manifest; the fit draws no random numbers",
    )


# Entries of a model's order, as constructor keywords; arma_garch is fixed at 1,1.
_ORDER_KEYS = {"dar": ("p", "q"), "garch": ("p", "q"), "expar": ("p",), "arma_garch": None}


def _build_model(spec) -> ModelSpec:
    """Model from a registry name or a mapping {name, order, intercept}.

    ``order`` (a list of integers, one integer or "P,Q" text) fills P,Q
    of dar and garch or P of expar; ``intercept`` (arma_garch only) keeps
    or drops the mean intercept.  Raises ValueError (DataFormatError for
    an unknown key) naming the bad key or value.
    """
    if isinstance(spec, str):
        spec = {"name": spec}
    if not isinstance(spec, dict):
        raise ValueError(f"model must be a name or a mapping, got {spec!r}")
    _check_keys(spec, ("name", "order", "intercept"), "model: ")
    name, order, kwargs = spec.get("name"), spec.get("order"), {}
    if name not in MODEL_REGISTRY:
        raise ValueError(f"model name {name!r} is not one of {sorted(MODEL_REGISTRY)}")
    if order is not None:
        entries = order if isinstance(order, (list, tuple)) else str(order).split(",")
        try:
            order = [int(v) for v in entries]
        except (TypeError, ValueError):
            raise ValueError(f"order must be comma-separated integers, got {order!r}") from None
        keys = _ORDER_KEYS[name]
        if keys is None:
            if order != [1, 1]:
                raise ValueError(f"{name} supports only order 1,1")
        elif len(order) != len(keys):
            raise ValueError(f"{name} takes order {','.join(keys).upper()}, got {order}")
        else:
            kwargs = dict(zip(keys, order))
    if "intercept" in spec:
        if name != "arma_garch":
            raise ValueError(f"intercept applies to arma_garch only, not {name}")
        kwargs["include_intercept"] = bool(spec["intercept"])
    return make_model(name, **kwargs)


# Family names of the CLI and the config -> (InnovationDist family, the key
# holding its shape or sample values, what that key means).
_FAMILIES = {
    "logistic": ("logistic", None, None),
    "normal": ("normal", None, None),
    "uniform": ("uniform", None, None),
    "t": ("student_t", "nu", "degrees of freedom"),
    "stable": ("stable", "alpha", "tail index"),
    "empirical": ("empirical", "data", "draw values"),
}


_SHAPE_KEYS = tuple(key for _, key, _ in _FAMILIES.values() if key is not None)
_DIST_KEYS = ("family", "scale", *_SHAPE_KEYS)


def _check_shape_keys(spec: dict) -> None:
    """ValueError naming a shape key with a value that the spec's (known) family does not take."""
    fam = spec["family"]
    for key in _SHAPE_KEYS:
        if key != _FAMILIES[fam][1] and spec.get(key) is not None:
            raise ValueError(f"family {fam} takes no {key}")


def _build_dist(spec) -> InnovationDist:
    """Innovation law from a family name or a mapping {family, scale, nu, alpha, data}.

    Raises ValueError naming an unknown family, an unknown key, the key
    the family lacks or a shape key it does not take.
    """
    if isinstance(spec, str):
        spec = {"family": spec}
    if not isinstance(spec, dict):
        raise ValueError(f"dist must be a family name or a mapping, got {spec!r}")
    _check_keys(spec, _DIST_KEYS, "dist: ")
    fam = spec.get("family")
    if fam not in _FAMILIES:
        raise ValueError(f"dist family {fam!r} is not one of {list(_FAMILIES)}")
    _check_shape_keys(spec)
    family, key, meaning = _FAMILIES[fam]
    scale = float(spec.get("scale", 1.0))
    if key is None:
        return InnovationDist(family, scale=scale)
    if spec.get(key) is None:
        raise ValueError(f"family {fam} needs {key} ({meaning})")
    if key == "data":
        return empirical(np.asarray(spec[key], dtype=float), scale)
    return InnovationDist(family, scale=scale, shape=float(spec[key]))


def _from_flags(build, spec):
    """Run a spec parser on a mapping built from flags; a bad spec is a usage error."""
    try:
        return build(spec)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _flag_model(args) -> ModelSpec:
    intercept = {"intercept": False} if args.no_intercept else {}
    return _from_flags(_build_model, {"name": args.model, "order": args.order, **intercept})


def _flag_dist(args) -> InnovationDist:
    data = read_series(args.dist_data) if args.dist_data is not None else None
    spec = {"family": args.dist, "scale": args.dist_scale, "nu": args.nu, "alpha": args.alpha}
    return _from_flags(_build_dist, {**spec, "data": data})


def _model_block(model) -> dict:
    return {"name": model.name, "param_names": list(model.param_names)}


_UNRECORDED = ("func", "command", "out", "data", "config", "dist_data", "seed", "workers")


def _manifest(args, input_path, seed) -> dict:
    """The manifest every result document embeds.

    It holds the tool, version and command, the resolved options, the
    input file's sha256 and the seed.  The options leave out the
    ``_UNRECORDED`` arguments: the handler and command name, the report
    path (where the bytes go, not what they hold), input files (the
    digest records them by content), the seed (its own entry) and the mc
    worker count, which must not change a byte.
    """
    return {
        "tool": "lqmle",
        "version": __version__,
        "command": args.command,
        "options": {key: value for key, value in vars(args).items() if key not in _UNRECORDED},
        "input_sha256": sha256_file(input_path) if input_path else None,
        "seed": seed,
    }


def _read_data(args) -> np.ndarray:
    column = args.column
    if column is not None:
        try:
            column = int(column)
        except ValueError:
            pass
    return read_series(
        args.data, column=column, delimiter=args.delim, header=args.header, diff=args.diff
    )


def _parse_point(point: tuple[float, ...], flag: str, model: ModelSpec) -> tuple[float, ...]:
    """The values of a point flag, one per model parameter, else a usage error."""
    if len(point) != model.dim:
        raise _UsageError(
            f"{flag} has {len(point)} values; {model.name} needs {model.dim} "
            f"({', '.join(model.param_names)})"
        )
    return point


def _check_hill_k(hill_k: int | None, y: np.ndarray, model: ModelSpec) -> None:
    """--hill-k must fall below the residual count, one per observation after the presample."""
    count = y.size - model.presample
    if hill_k is not None and hill_k >= count:
        raise _UsageError(f"--hill-k {hill_k} must be below the residual count {count}")


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    fresh = int(np.random.SeedSequence().entropy % (2**63))
    print(f"seed: {fresh}", file=sys.stderr)
    return fresh


def _fit_options(args, model: ModelSpec) -> FitOptions:
    start = None
    if args.start is not None:
        start = _parse_point(args.start, "--start", model)
    return FitOptions(
        criterion=_CRITERION[args.criterion],
        max_iter=args.max_iter,
        multistart=args.multistart,
        start=start,
    )


def _finite_or_none(value) -> float | None:
    if value is None:
        return None
    value = float(value)
    return value if np.isfinite(value) else None


def _add_dist_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--dist",
        default="logistic",
        choices=list(_FAMILIES),
    )
    p.add_argument("--dist-scale", type=float, default=1.0)
    p.add_argument("--nu", type=float, default=None, help="degrees of freedom for --dist t")
    p.add_argument("--alpha", type=float, default=None, help="tail index for --dist stable")
    p.add_argument("--dist-data", default=None, help="draw file for the empirical family")


# -- fit ------------------------------------------------------------------


def _estimate_rows(result) -> list[dict]:
    rows = []
    for j, name in enumerate(result.theta.names):
        asd = _finite_or_none(result.se[j]) if result.se is not None else None
        p_value = None
        if asd is not None and asd > 0.0:
            p_value = _finite_or_none(t_test(result, j).p_value)
        rows.append(
            {
                "name": name,
                "estimate": float(result.theta.values[j]),
                "asd": asd,
                "p_value": p_value,
                "boundary": bool(result.boundary[j]),
            }
        )
    return rows


def _cmd_fit(args) -> int:
    model = _flag_model(args)
    y = _read_data(args)
    _check_hill_k(args.hill_k, y, model)
    opts = _fit_options(args, model)
    result = fit(model, y, opts)
    report = residual_diagnostics(model, result, hill_k=args.hill_k)
    if args.residuals is not None:
        write_series(args.residuals, result.residuals)
    doc = {
        "schema": "lqmle.fit/1",
        "manifest": _manifest(args, input_path=args.data, seed=args.seed),
        "model": _model_block(model),
        "nobs": int(result.nobs),
        "criterion": result.criterion,
        "estimates": _estimate_rows(result),
        "loglik": float(result.loglik),
        "aic": report.aic,
        "convergence": {
            "converged": bool(result.converged),
            "iterations": int(result.iterations),
            "clamp_count": int(result.clamp_count),
            "n_starts": int(result.n_starts),
        },
        "diagnostics": report.as_dict(),
        "residuals_path": args.residuals,
    }
    dump_json(doc, args.out)
    if not result.converged:
        print("fit did not converge; report written anyway", file=sys.stderr)
        return EXIT_NOCONV
    return EXIT_OK


# -- simulate --------------------------------------------------------------


def _cmd_simulate(args) -> int:
    model = _flag_model(args)
    theta = _parse_point(args.theta, "--theta", model)
    dist = _flag_dist(args)
    seed = _resolve_seed(args.seed)
    try:
        y = simulate(model, np.asarray(theta), args.n, dist, seed=seed, burn=args.burn)
    except ShapeMismatch as exc:
        raise _UsageError(str(exc)) from None
    write_series(args.out, y)
    doc = {
        "schema": "lqmle.simulate/1",
        "manifest": _manifest(args, input_path=args.dist_data, seed=seed),
        "nobs": int(args.n),
        "output": str(args.out),
        "output_sha256": sha256_file(args.out),
    }
    sidecar = f"{args.out}.manifest.json"
    dump_json(doc, sidecar)
    print(f"wrote {args.out} and {sidecar}", file=sys.stderr)
    return EXIT_OK


# -- mc ---------------------------------------------------------------------


def _check_keys(mapping: dict, known, where: str = "") -> None:
    """DataFormatError naming every key of ``mapping`` outside ``known``."""
    unknown = [key for key in mapping if key not in known]
    if unknown:
        raise DataFormatError(
            f"{where}unknown key(s) {', '.join(map(repr, unknown))}; known keys are {', '.join(known)}"
        )


def _constraint(c):
    """(R, r) as float tuples from a {R, r} mapping, or None."""
    if c is None:
        return None
    if not isinstance(c, dict):
        raise ValueError(f"constraint must be a mapping {{R, r}}, got {c!r}")
    _check_keys(c, ("R", "r"), "constraint: ")
    return tuple(tuple(map(float, row)) for row in c["R"]), tuple(map(float, c["r"]))


def _integer(key: str):
    """Converter of ``key``'s value to int: a bool or a non-integral number is refused by name."""

    def convert(v) -> int:
        if isinstance(v, bool) or not (isinstance(v, int) or isinstance(v, float) and v.is_integer()):
            raise ValueError(f"{key} must be an integer, got {v!r}")
        return int(v)

    return convert


# Scenario keys of an mc config, in the order messages list them, and the
# converter of each value to its Scenario field.
_SCENARIO_KEYS = {
    "model": _build_model,
    "dist": _build_dist,
    "theta0": lambda v: tuple(map(float, v)),
    "nobs": _integer("nobs"),
    "reps": _integer("reps"),
    "estimator": str,
    "burn": _integer("burn"),
    "constraint": _constraint,
    "alternative_scale": float,
    "level": float,
    "label": str,
    "seed": lambda v: v if v is None else _integer("seed")(v),
}
# the keys a scenario must give; the others have defaults
_REQUIRED_KEYS = ("model", "dist", "theta0", "nobs", "reps")


def _load_scenarios(config: dict, path, master_seed: int) -> list[Scenario]:
    """Scenarios from the ``scenarios`` list of a loaded config.

    Each entry is a mapping from Scenario's field names to values:
    model is a _build_model spec, dist a _build_dist spec and constraint
    a mapping {R, r} (test R theta = r).  model, dist, theta0, nobs and
    reps are required, and a DataFormatError names each one left out;
    another key left out takes Scenario's default, and a seed left out
    or null is derived from the master seed.  Any other key, of the
    scenario, its dist or its constraint mapping, is a DataFormatError
    naming it.
    """
    scenarios = []
    for i, raw in enumerate(config["scenarios"]):
        try:
            if not isinstance(raw, dict):
                raise ValueError(f"expected a mapping, got {raw!r}")
            _check_keys(raw, _SCENARIO_KEYS)
            missing = [key for key in _REQUIRED_KEYS if key not in raw]
            if missing:
                raise ValueError(f"missing required key(s) {', '.join(map(repr, missing))}")
            fields = {key: convert(raw[key]) for key, convert in _SCENARIO_KEYS.items() if key in raw}
            if fields.get("seed") is None:
                child = np.random.SeedSequence(master_seed, spawn_key=(1000 + i,))
                fields["seed"] = int(child.generate_state(1, np.uint64)[0])
            scenarios.append(Scenario(**fields))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"{path}: scenario {i}: {exc}") from None
    if not scenarios:
        raise DataFormatError(f"{path}: no scenarios defined")
    return scenarios


# top-level mc config keys: default, what a value must be, and the test of it
_TOP_LEVEL = {
    "seed": (None, "a nonnegative integer", lambda v: v is None or isinstance(v, int) and v >= 0),
    "workers": (1, "a positive integer", lambda v: isinstance(v, int) and v >= 1),
    "max_failure_fraction": (
        0.2, "a number in [0, 1]", lambda v: isinstance(v, (int, float)) and 0.0 <= v <= 1.0
    ),
}


def _top_level(config: dict, path, key: str):
    """config[key] or its default; DataFormatError naming the key unless it is valid."""
    default, expected, valid = _TOP_LEVEL[key]
    value = config.get(key, default)
    if isinstance(value, bool) or not valid(value):
        raise DataFormatError(f"{path}: {key} must be {expected}, got {value!r}")
    return value


def _cmd_mc(args) -> int:
    with open(args.config) as fh:
        config = yaml.safe_load(fh)
    if not isinstance(config, dict) or not isinstance(config.get("scenarios"), list):
        raise DataFormatError(f"{args.config}: expected a mapping with a 'scenarios' list")
    _check_keys(config, ("scenarios", *_TOP_LEVEL), f"{args.config}: ")
    seed, workers, max_fail = (_top_level(config, args.config, key) for key in _TOP_LEVEL)
    seed = _resolve_seed(args.seed if args.seed is not None else seed)
    scenarios = _load_scenarios(config, args.config, seed)
    workers = args.workers if args.workers is not None else workers
    summaries, failed = [], []
    for i, sc in enumerate(scenarios):
        t0 = time.perf_counter()
        try:
            summary = run_scenario(sc, workers=workers, max_failure_fraction=max_fail)
        except ExcessiveFailures as exc:
            failed.append({"index": i, "label": sc.label, "error": str(exc)})
            print(f"scenario {sc.label or i}: {exc}", file=sys.stderr)
            continue
        print(
            f"scenario {sc.label or i}: {summary.reps_used}/{summary.reps} "
            f"replications in {time.perf_counter() - t0:.1f}s",
            file=sys.stderr,
        )
        summaries.append(summary.as_dict())
    doc = {
        "schema": "lqmle.mc/1",
        "manifest": _manifest(args, input_path=args.config, seed=seed),
        "summaries": summaries,
        "failed": failed,
    }
    dump_json(doc, args.out)
    if failed:
        print(f"{len(failed)}/{len(scenarios)} scenarios failed", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# -- test --------------------------------------------------------------------


def _parse_restrictions(texts, dim: int):
    """(R, r) from --restrict entries 'c1,...,cd=r' of finite numbers, else a usage error."""
    rows, rhs = [], []
    for text in texts:
        left, _, right = text.rpartition("=")
        try:
            row, (value,) = _floats(left), _floats(right)
        except (argparse.ArgumentTypeError, ValueError):
            raise _UsageError(
                f"restriction {text!r} must look like c1,...,cd=r with finite numbers"
            ) from None
        if len(row) != dim:
            raise _UsageError(f"restriction row has {len(row)} coefficients, model has {dim}")
        rows.append(row)
        rhs.append(value)
    return np.asarray(rows), np.asarray(rhs)


def _restriction_test(method: str, test, fitted, R, r) -> dict:
    """``test(fitted, R, r)`` as a report entry; one whose information
    matrix is singular keeps its place, with a null statistic and the error."""
    try:
        return test(fitted, R, r).as_dict()
    except SingularInformation as exc:
        return {
            "method": method,
            "statistic": None,
            "df": len(r),
            "p_value": None,
            "error": f"{type(exc).__name__}: {exc}",
        }


def _cmd_test(args) -> int:
    model = _flag_model(args)
    y = _read_data(args)
    opts = _fit_options(args, model)
    R, r = _check_restriction(*_parse_restrictions(args.restrict, model.dim), model.dim)
    _project_into_box(R, r, *model.default_bounds())
    result = fit(model, y, opts)
    cfit = fit_constrained(model, y, R, r, opts, theta_hat=result.theta)
    tests = [_restriction_test("wald", wald_test, result, R, r), _restriction_test("lm", lm_test, cfit, R, r)]
    doc = {
        "schema": "lqmle.test/1",
        "manifest": _manifest(args, input_path=args.data, seed=args.seed),
        "model": _model_block(model),
        "nobs": int(result.nobs),
        "restriction": {"R": R.tolist(), "r": r.tolist()},
        "tests": tests,
        "deviance": deviance(result, cfit),
        "loglik_unrestricted": float(result.loglik),
        "loglik_restricted": float(cfit.loglik),
    }
    dump_json(doc, args.out)
    failed = [t for t in tests if "error" in t]
    for t in failed:
        print(f"error: {t['method']} test: {t['error']}; report written anyway", file=sys.stderr)
    if failed:
        return EXIT_NUMERIC
    if not (result.converged and cfit.converged):
        print("a fit did not converge; report written anyway", file=sys.stderr)
        return EXIT_NOCONV
    return EXIT_OK


# -- calibrate -----------------------------------------------------------------


def _cmd_calibrate(args) -> int:
    doc = {
        "schema": "lqmle.calibrate/1",
        "manifest": _manifest(args, input_path=None, seed=None),
        "family": args.family,
    }
    spec = {"family": args.family, "nu": args.nu}
    if args.family == "stable":
        _from_flags(_check_shape_keys, spec)
        doc["index"] = kernel.calibrate_stable_index(tol=args.tol)
        value = kernel.stable_kernel_expectation(doc["index"])
    else:
        base = _from_flags(_build_dist, spec)
        doc["scale"] = kernel.calibrate_scale(base.family, shape=base.shape, tol=args.tol)
        value = kernel.kernel_expectation(replace(base, scale=doc["scale"]))
        doc["nu"] = args.nu
    doc.update(expectation=value, psi_error=abs(value - 1.0))
    dump_json(doc, args.out)
    return EXIT_OK


# -- diagnose -------------------------------------------------------------------


def _cmd_diagnose(args) -> int:
    model = _flag_model(args)
    y = _read_data(args)
    theta = _parse_point(args.theta, "--theta", model)
    _check_hill_k(args.hill_k, y, model)
    parts = evaluate(model, y, np.asarray(theta), order=0)
    # quacks enough like a fit for the diagnostics assembler
    shim = SimpleNamespace(
        residuals=parts.residuals, loglik=parts.loglik, theta=np.asarray(theta)
    )
    diag = residual_diagnostics(model, shim, hill_k=args.hill_k).as_dict()
    diag["hill_sweep"] = hill_sweep(parts.residuals)
    doc = {
        "schema": "lqmle.diagnose/1",
        "manifest": _manifest(args, input_path=args.data, seed=None),
        "model": _model_block(model),
        "theta": list(theta),
        "nobs": int(parts.nobs),
        "diagnostics": diag,
    }
    dump_json(doc, args.out)
    return EXIT_OK


# -- render ----------------------------------------------------------------------


def _cmd_render(args) -> int:
    try:
        with open(args.report) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{args.report}: not valid JSON ({exc})") from None
    try:
        text = render_document(doc)
    except (ValueError, KeyError, TypeError) as exc:
        raise DataFormatError(f"{args.report}: malformed report document ({exc})") from None
    print(text)
    return EXIT_OK


# -- driver ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lqmle",
        description="Logistic quasi-likelihood estimation for conditional location-scale models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="estimate a model from a series file")
    _add_data_args(p)
    _add_model_args(p)
    _add_fit_args(p)
    p.add_argument("--hill-k", type=_int_at_least(2), help="order statistics for the Hill index")
    p.add_argument("--residuals", default=None, help="also write standardized residuals here")
    p.add_argument("--out", default=None, help="report path (default stdout)")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("simulate", help="generate a series from a model")
    _add_model_args(p)
    _add_dist_args(p)
    p.add_argument("--theta", type=_floats, required=True, help="comma-separated parameter values")
    p.add_argument("--n", type=int, required=True, help="series length")
    p.add_argument("--burn", type=int, default=0)
    p.add_argument("--seed", type=_int_at_least(0), default=None)
    p.add_argument("--out", required=True, help="series file to write")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("mc", help="run simulation scenarios from a config file")
    p.add_argument("config", help="YAML (or JSON) scenario file")
    p.add_argument("--workers", type=_int_at_least(1), default=None)
    p.add_argument("--seed", type=_int_at_least(0), help="master seed for derived scenario seeds")
    p.add_argument("--out", default=None, help="report path (default stdout)")
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("test", help="Wald and multiplier tests of linear restrictions")
    _add_data_args(p)
    _add_model_args(p)
    _add_fit_args(p)
    p.add_argument(
        "--restrict",
        action="append",
        required=True,
        help="restriction row 'c1,...,cd=r'; repeat for several rows",
    )
    p.add_argument("--out", default=None, help="report path (default stdout)")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("calibrate", help="scale (or stable index) with unit kernel expectation")
    p.add_argument(
        "--family", required=True, choices=[f for f in _FAMILIES if f != "empirical"]
    )
    p.add_argument("--nu", type=float, default=None, help="degrees of freedom for family t")
    p.add_argument(
        "--tol", type=_positive_float, default=1e-6, help="absolute tolerance on the scale or stable index (default %(default)g)"
    )
    p.add_argument("--out", default=None, help="report path (default stdout)")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("diagnose", help="residual and tail diagnostics at given parameters")
    _add_data_args(p)
    _add_model_args(p)
    p.add_argument("--theta", type=_floats, required=True, help="comma-separated parameter values")
    p.add_argument("--hill-k", type=_int_at_least(2), help="order statistics for the Hill index")
    p.add_argument("--out", default=None, help="report path (default stdout)")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("render", help="print a text view of a report document")
    p.add_argument("report", help="report JSON produced by another subcommand")
    p.set_defaults(func=_cmd_render)

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    t0 = time.perf_counter()
    try:
        code = args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, OSError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (LqmleError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"elapsed: {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
