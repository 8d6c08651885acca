"""Spans around lqmle's module boundaries, installed from outside the package.

``Tracer.install`` replaces the public functions and model methods named
in ``_FUNCTIONS`` and ``_METHODS`` with wrappers that record a span
(name, start, end, parent, size).  A function is replaced under every
name that binds it in any lqmle module, so the copies that other modules
imported are traced too.  Spans stay in memory; ``write`` stores them
once the run is over.  Self time is a span's duration minus the time its
direct children cover.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict


def _order(args, kwargs, pos):
    return kwargs.get("order", args[pos] if len(args) > pos else 0)


# (module, attribute, span name from the call's arguments, size from the
# call's arguments and result)
_FUNCTIONS = [
    ("lqmle.estimation", "evaluate", lambda a, k: f"estimation.evaluate.o{_order(a, k, 3)}", None),
    ("lqmle.estimation", "fit", lambda a, k: f"estimation.fit.{a[0].name}", lambda a, k, r: r.n_starts),
    ("lqmle.estimation", "fit_constrained", lambda a, k: f"estimation.fit_constrained.{a[0].name}", None),
    ("lqmle.estimation", "sandwich_cov", lambda a, k: "estimation.sandwich_cov", None),
    ("lqmle.estimation", "kernel_moments", lambda a, k: "estimation.kernel_moments", None),
    ("lqmle.inference", "wald_test", lambda a, k: "inference.wald_test", None),
    ("lqmle.inference", "lm_test", lambda a, k: "inference.lm_test", None),
    ("lqmle.inference", "t_test", lambda a, k: "inference.t_test", None),
    ("lqmle.diagnostics", "residual_diagnostics", lambda a, k: "diagnostics.residual_diagnostics", None),
    ("lqmle.models.stationarity", "lyapunov_exponent", lambda a, k: "diagnostics.lyapunov_exponent", None),
    ("lqmle.dataio", "read_series", lambda a, k: "dataio.read_series", None),
    ("lqmle.reports", "dump_json", lambda a, k: "reports.dump_json", None),
    ("lqmle.cli", "main", lambda a, k: "cli.main", None),
    ("lqmle.models.base", "simulate", lambda a, k: "montecarlo.simulate", None),
    ("lqmle.distributions", "sample_symmetric_stable", lambda a, k: "distributions.sample.stable", lambda a, k, r: a[2]),
    ("lqmle.kernel", "kernel_expectation", lambda a, k: "kernel.kernel_expectation", None),
    ("lqmle.kernel", "stable_kernel_expectation", lambda a, k: "kernel.stable_kernel_expectation", None),
    ("lqmle.kernel", "calibrate_scale", lambda a, k: "kernel.calibrate_scale", None),
    ("lqmle.kernel", "calibrate_stable_index", lambda a, k: "kernel.calibrate_stable_index", None),
    ("lqmle.montecarlo", "run_scenario", lambda a, k: f"montecarlo.run_scenario.{a[0].label}", lambda a, k, r: a[0].reps),
    ("lqmle.montecarlo", "population_information", lambda a, k: f"montecarlo.population_information.{a[0].name}", None),
]

# (class path, method, span name, size)
_METHODS = [
    *[
        (f"lqmle.models.{mod}.{cls}", "filter", lambda a, k: f"models.filter.o{_order(a, k, 3)}.{a[0].name}", None)
        for mod, cls in (("dar", "Dar"), ("garch", "Garch"), ("arma_garch", "ArmaGarch"), ("expar", "Expar"))
    ],
    *[
        (f"lqmle.models.{mod}.{cls}", "path", lambda a, k: f"models.path.{a[0].name}", lambda a, k, r: len(a[2]))
        for mod, cls in (("dar", "Dar"), ("garch", "Garch"), ("arma_garch", "ArmaGarch"), ("expar", "Expar"))
    ],
    ("lqmle.distributions.InnovationDist", "sample", lambda a, k: f"distributions.sample.{a[0].family}", lambda a, k, r: a[2]),
]


def _resolve(dotted):
    module, _, attr = dotted.rpartition(".")
    return getattr(sys.modules[module], attr)


class Span:
    __slots__ = ("name", "start", "end", "parent", "size", "children")

    def __init__(self, name, start, parent):
        self.name, self.start, self.end = name, start, start
        self.parent, self.size, self.children = parent, None, []

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(c.duration for c in self.children)


class Tracer:
    """Records nested spans of traced calls; single-threaded use only."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, namer, sizer):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(namer(args, kwargs), clock(), parent)
            spans.append(span)
            if parent is not None:
                parent.children.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if sizer is not None:
                span.size = sizer(args, kwargs, result)
            return result

        return traced

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == "lqmle" or name.startswith("lqmle.")]
        for module, attr, namer, sizer in _FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(original, namer, sizer)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, name, wrapper)
        for cls_path, attr, namer, sizer in _METHODS:
            cls = _resolve(cls_path)
            self._replace(cls, attr, self._wrap(cls.__dict__[attr], namer, sizer))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        """Spans as JSON lines: name, start, end, parent index, size."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for s in self.spans:
                parent = index[id(s.parent)] if s.parent is not None else -1
                fh.write(json.dumps([s.name, s.start, s.end, parent, s.size]) + "\n")


# -- per-layer figures from the spans ------------------------------------


def _median(values):
    return statistics.median(values) if values else None


_FIT, _CFIT = "estimation.fit.", "estimation.fit_constrained."


def _ancestor(span, prefixes):
    p = span.parent
    while p is not None and not p.name.startswith(prefixes):
        p = p.parent
    return p


def _under(span, prefix):
    """True when the nearest enclosing fit of either kind is a ``prefix`` span."""
    fit = _ancestor(span, (_FIT, _CFIT))
    return fit is not None and fit.name.startswith(prefix)


def layer_metrics(spans) -> dict:
    """Per-layer figures; a figure whose layer the run never reached is absent."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    out = {}

    def put(key, value):
        if value is not None:
            out[key] = value

    models = ("dar", "garch", "arma_garch", "expar")
    fits = [s for s in spans if s.name.startswith(_FIT)]
    cfits = [s for s in spans if s.name.startswith(_CFIT)]
    for k in (0, 1, 2):
        for m in models:
            put(f"models.filter.o{k}_us.{m}", _median([1e6 * s.self_time for s in by_name[f"models.filter.o{k}.{m}"]]))
        if fits:
            inside = sum(1 for s in spans if s.name.startswith(f"models.filter.o{k}.") and _under(s, _FIT))
            out[f"models.filter.calls_per_fit.o{k}"] = inside / len(fits)
        put(f"estimation.evaluate.assembly_us.o{k}", _median([1e6 * s.self_time for s in by_name[f"estimation.evaluate.o{k}"]]))
    paths = [s for s in spans if s.name.startswith("models.path.")]
    if paths:
        out["models.path.ns_per_obs"] = 1e9 * sum(s.duration for s in paths) / sum(s.size for s in paths)

    for m in models:
        put(f"estimation.fit.ms.{m}", _median([1e3 * s.duration for s in by_name[f"estimation.fit.{m}"]]))
        put(f"estimation.fit_constrained.ms.{m}", _median([1e3 * s.duration for s in by_name[f"estimation.fit_constrained.{m}"]]))
    for key, group, prefix in (("estimation.fit", fits, _FIT), ("estimation.fit_constrained", cfits, _CFIT)):
        if group:
            out[f"{key}.ms"] = _median([1e3 * s.duration for s in group])
            calls = sum(1 for s in spans if s.name.startswith("estimation.evaluate.") and _under(s, prefix))
            out[f"{key}.evaluate_calls"] = calls / len(group)
    starts = [s.size for s in fits if s.size is not None]
    if starts:
        out["estimation.fit.starts"] = sum(starts) / len(starts)
    for name, key, scale in (
        ("estimation.sandwich_cov", "estimation.sandwich_cov.us", 1e6),
        ("inference.wald_test", "inference.wald_test.us", 1e6),
        ("inference.lm_test", "inference.lm_test.us", 1e6),
        ("inference.t_test", "inference.t_test.us", 1e6),
        ("diagnostics.residual_diagnostics", "diagnostics.residual_diagnostics.ms", 1e3),
        ("diagnostics.lyapunov_exponent", "diagnostics.lyapunov_exponent.ms", 1e3),
        ("dataio.read_series", "dataio.read_series.ms", 1e3),
        ("reports.dump_json", "reports.dump_json.ms", 1e3),
        ("montecarlo.simulate", "montecarlo.simulate.ms", 1e3),
        ("kernel.kernel_expectation", "kernel.kernel_expectation.ms", 1e3),
        ("kernel.stable_kernel_expectation", "kernel.stable_kernel_expectation.s", 1.0),
    ):
        put(key, _median([scale * s.duration for s in by_name[name]]))
    put("cli.fit.self_ms", _median([1e3 * s.self_time for s in by_name["cli.main"]]))

    # draws: the outermost sampling span of each nest, so a stable law's
    # inner Chambers-Mallows-Stuck call is not counted twice
    draws = defaultdict(lambda: [0.0, 0])
    for s in spans:
        if s.name.startswith("distributions.sample.") and _ancestor(s, ("distributions.sample.",)) is None:
            acc = draws[s.name.rsplit(".", 1)[1]]
            acc[0] += s.duration
            acc[1] += s.size
    for family, (secs, n) in draws.items():
        out[f"distributions.sample.ns_per_draw.{family}"] = 1e9 * secs / n
    if draws:
        out["distributions.sample.ns_per_draw"] = 1e9 * sum(v[0] for v in draws.values()) / sum(v[1] for v in draws.values())

    for outer, inner in (
        ("kernel.calibrate_scale", "kernel.kernel_expectation"),
        ("kernel.calibrate_stable_index", "kernel.stable_kernel_expectation"),
    ):
        if by_name[outer]:
            out[f"{inner}.calls"] = len(by_name[inner]) / len(by_name[outer])

    for s in spans:
        if s.name.startswith("montecarlo.run_scenario."):
            key = f"montecarlo.replicate.ms.{s.name.rsplit('.', 1)[1]}"
            out.setdefault(key, []).append(1e3 * s.duration / s.size)
    for key in [k for k in out if k.startswith("montecarlo.replicate.ms.")]:
        out[key] = _median(out[key])

    pops = [s for s in spans if s.name.startswith("montecarlo.population_information.")]
    if pops:
        for part, prefix in (("path", "models.path."), ("filter", "models.filter."), ("moments", "estimation.kernel_moments")):
            out[f"montecarlo.population_information.{part}_s"] = _median(
                [sum(c.duration for c in p.children if c.name.startswith(prefix)) for p in pops]
            )
    return out
