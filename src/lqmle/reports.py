"""Report documents: deterministic JSON and text rendering.

Documents contain no wall-clock information, so re-running the same
manifest (``cli._manifest``) reproduces the bytes exactly; timing goes
to stderr instead.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

__all__ = [
    "fields_dict",
    "sha256_file",
    "dump_json",
    "render_document",
]

def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def fields_dict(obj, skip=()) -> dict:
    """A dataclass's fields in order: tuples become lists, nested dataclasses dicts."""
    out = {}
    for f in fields(obj):
        if f.name not in skip:
            value = getattr(obj, f.name)
            value = fields_dict(value) if is_dataclass(value) else value
            out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def dump_json(doc: dict, path=None) -> str:
    """Serialize deterministically; write to path or stdout, return the text."""
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)
    return text


# -- text rendering ------------------------------------------------------


def _fmt(value, nd=4) -> str:
    if value is None:
        return "-"
    return f"{value:.{nd}f}"


def _render_estimates(rows) -> list[str]:
    width = max(len(r["name"]) for r in rows)
    lines = [f"{'param':<{width}}  {'Est.':>9} {'(ASD)':>9} {'p-value':>8}"]
    for r in rows:
        pv = r.get("p_value")
        pv_txt = "-" if pv is None else f"{max(pv, 0.001):.3f}"
        flag = " b" if r.get("boundary") else ""
        lines.append(
            f"{r['name']:<{width}}  {r['estimate']:>9.4f} "
            f"{'(' + _fmt(r.get('asd'), 3) + ')':>9} {pv_txt:>8}{flag}"
        )
    return lines


def _tail_lines(diag: dict) -> list[str]:
    """The Lyapunov and Hill lines of a diagnostics block, each where it has a value."""
    lines = []
    if diag.get("lyapunov") is not None:
        lines.append(f"lyapunov: {diag['lyapunov']:.4f} (se {diag['lyapunov_se']:.4f})")
    if diag.get("hill") is not None:
        lines.append(f"hill index: {diag['hill']:.4f} (k={diag['hill_k']})")
    return lines


def _render_fit(doc: dict) -> str:
    lines = [f"model: {doc['model']['name']}  nobs: {doc['nobs']}  criterion: {doc['criterion']}"]
    lines += _render_estimates(doc["estimates"])
    lines.append(f"loglik: {doc['loglik']:.3f}   aic: {doc['aic']:.3f}")
    conv = doc["convergence"]
    lines.append(
        f"converged: {conv['converged']}   iterations: {conv['iterations']}"
        f"   scale floor hits: {conv['clamp_count']}"
    )
    diag = doc.get("diagnostics") or {}
    lines += _tail_lines(diag)
    res = diag.get("residual_summary")
    if res:
        lines.append(
            f"residual kernel mean: {res['kernel_mean']:.4f} (se {res['kernel_mean_se']:.4f})"
        )
    if doc.get("residuals_path"):
        lines.append(f"residuals written to: {doc['residuals_path']}")
    return "\n".join(lines)


def _render_mc(doc: dict) -> str:
    blocks = []
    for s in doc["summaries"]:
        head = (
            f"scenario: {s['label'] or '(unnamed)'}  model: {s['model']}  "
            f"estimator: {s['estimator']}  dist: {s['dist']}  n: {s['nobs']}  "
            f"reps: {s['reps_used']}/{s['reps']}"
        )
        if s.get("alternative_scale", 1.0) != 1.0:
            head += f"  dgp scale: {s['alternative_scale']:g}"
        lines = [head]
        width = max(len(n) for n in s["param_names"])
        truth = s.get("dgp_theta", s["theta0"])
        lines.append(f"{'param':<{width}}  {'true':>8} {'mean':>9} {'bias':>9} {'SD':>8}")
        for name, t0, m, b, sd in zip(
            s["param_names"], truth, s["mean_estimate"], s["bias"], s["sd"]
        ):
            lines.append(f"{name:<{width}}  {t0:>8.4f} {m:>9.4f} {b:>9.4f} {sd:>8.4f}")
        if s.get("wald_reject_rate") is not None:
            lines.append(
                f"reject rate at {s['level']:.2f}: wald {s['wald_reject_rate']:.3f}"
                f"  lm {s['lm_reject_rate']:.3f}"
            )
        blocks.append("\n".join(lines))
    for f in doc.get("failed") or []:
        blocks.append(f"scenario {f['label'] or f['index']}: FAILED ({f['error']})")
    return "\n\n".join(blocks)


def _render_test(doc: dict) -> str:
    lines = [f"model: {doc['model']['name']}  nobs: {doc['nobs']}"]
    for t in doc["tests"]:
        if t.get("error"):
            lines.append(f"{t['method']:>5}: not computed ({t['error']})")
            continue
        df = f" df={t['df']}" if t.get("df") else ""
        lines.append(
            f"{t['method']:>5}: statistic {t['statistic']:.4f}{df}  p-value {t['p_value']:.4g}"
        )
    if doc.get("deviance") is not None:
        lines.append(f"deviance (descriptive, no p-value): {doc['deviance']:.4f}")
    return "\n".join(lines)


def _render_calibrate(doc: dict) -> str:
    key, label = ("index", "tail index") if "index" in doc else ("scale", "scale")
    nu = f" (nu {doc['nu']:g})" if doc.get("nu") is not None else ""
    return (
        f"family: {doc['family']}{nu}\ncalibrated {label}: {doc[key]:.6f}\n"
        f"kernel expectation at {key}: {doc['expectation']:.10f}\n"
        f"|psi - 1|: {doc['psi_error']:.2e}"
    )


def _render_simulate(doc: dict) -> str:
    opts = doc["manifest"]["options"]
    return (
        f"simulated {doc['nobs']} observations of {opts['model']} at "
        f"theta=({', '.join(format(v, 'g') for v in opts['theta'])})\n"
        f"innovations: {opts['dist']}  seed: {doc['manifest']['seed']}\n"
        f"output: {doc['output']}\nsha256: {doc['output_sha256']}"
    )


def _render_diagnose(doc: dict) -> str:
    lines = [f"model: {doc['model']['name']}  nobs: {doc['nobs']}"]
    lines.append("theta: " + ", ".join(f"{n}={v:.4f}" for n, v in zip(doc["model"]["param_names"], doc["theta"])))
    diag = doc["diagnostics"]
    res = diag["residual_summary"]
    lines.append(f"residual kernel mean: {res['kernel_mean']:.4f} (se {res['kernel_mean_se']:.4f})")
    q = res["quartiles"]
    lines.append(f"residual quartiles: {' '.join(f'{v:.3f}' for v in q)}")
    lines += _tail_lines(diag)
    sweep = diag.get("hill_sweep") or []
    if sweep:
        lines.append("hill sweep: " + "  ".join(
            f"k={e['k']}:{'-' if e['index'] is None else format(e['index'], '.3f')}" for e in sweep
        ))
    return "\n".join(lines)


_RENDERERS = {
    "lqmle.fit/1": _render_fit,
    "lqmle.simulate/1": _render_simulate,
    "lqmle.mc/1": _render_mc,
    "lqmle.test/1": _render_test,
    "lqmle.calibrate/1": _render_calibrate,
    "lqmle.diagnose/1": _render_diagnose,
}


def render_document(doc: dict) -> str:
    schema = doc.get("schema")
    try:
        renderer = _RENDERERS[schema]
    except KeyError:
        raise ValueError(f"cannot render schema {schema!r}") from None
    return renderer(doc)
