"""Quasi-likelihood evaluation and Newton optimization.

The logistic criterion for a conditional location-scale model is

    L(theta) = sum_t [ -log sigma_t + log f((y_t - g_t) / sigma_t) ],

with f the standard logistic density.  Score and Hessian are assembled
analytically from the filter's derivative blocks; the Gaussian
criterion (classical QMLE) shares the same plumbing with its own
per-observation weights.

Every fit maximizes the criterion inside the model's parameter box, a
fit under R theta = r also on that plane, by one working-set Newton
ascent on theta: steps run along the identity for the unrestricted fit
and along an orthonormal basis of the null space of R, from starts on
the plane, for a restricted one.  A step is a ridged Newton direction
tangent to the binding box faces, cut by a ratio test at the first face
it meets, with Armijo backtracking, so the criterion value never
decreases along accepted steps.

The criterion's consistency rests on its global maximum, so a fit runs
Newton from several starts and keeps the best optimum: the template of
the model's parameter table, its cheap data-driven ``start_values``
and, for a multistart fit, one point of each group of its
``start_candidates``, groups of points aimed at the kinds of basin the
model can have; the point with the highest criterion value in its group
runs, found by one order-0 evaluation each.  The model proposes these
points for a series the fit has accepted; the fit clips them into the
box.  A restricted fit starts next to its optimum: the unrestricted
estimate theta_hat projected into the box on the plane runs first,
ahead of the start values.  A model that sets ``interior_warm_start``
runs theta_hat projected into the box shrunk off its faces alone, and
the other starts only when that run dies, stops unconverged or ends on
a box face.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import null_space
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import (
    InfeasibleConstraint,
    NonFiniteObjective,
    NonstationaryRegionWarning,
    NotScaleOnly,
    RankDeficientConstraint,
    ShapeMismatch,
    SingularInformation,
)
from .kernel import logistic_logpdf
from .models.base import _STRAYS, FilterOutput, ModelSpec, _clamp_count
from .params import ParamVector, as_array

__all__ = [
    "CriterionParts",
    "FitOptions",
    "FitResult",
    "KernelMoments",
    "evaluate",
    "fit",
    "fit_constrained",
    "sandwich_cov",
    "scale_only_information",
    "scale_only_cov",
    "kernel_moments",
]


@dataclass
class CriterionParts:
    """Criterion value with optional analytic derivatives.

    ``score_rows`` holds per-observation score contributions (n, d),
    formed from the kept derivative blocks and weights each time it is
    read, since only a fit's optimum reads it; ``hess`` is the Hessian
    of the summed criterion.  ``info_hessian`` is the average
    per-observation negative Hessian and ``info_opg`` the average outer
    product of score rows; both are None unless the requested order
    covers them.  ``nobs`` counts the terms in the sum, len(y) minus
    the model's ``presample``, and ``residuals`` has that length;
    ``clamped`` counts the floored variances among those terms.
    """

    loglik: float
    nobs: int
    clamped: int = 0
    score: np.ndarray | None = None
    hess: np.ndarray | None = None
    residuals: np.ndarray | None = None
    # ((dmean, its weight), (dsigma2, its weight)); a None block has a None weight
    terms: tuple | None = field(default=None, repr=False)

    @property
    def score_rows(self) -> np.ndarray | None:
        if self.terms is None:
            return None
        rows = [block * weight[:, None] for block, weight in self.terms if block is not None]
        return sum(rows[1:], rows[0])

    @property
    def info_hessian(self) -> np.ndarray:
        return -self.hess / self.nobs

    @property
    def info_opg(self) -> np.ndarray:
        rows = self.score_rows
        return rows.T @ rows / self.nobs


def _logistic_weights(x: np.ndarray):
    t = np.tanh(0.5 * x)  # 2 F(x) - 1
    fx = 0.25 * (1.0 - t * t)
    u = x * t
    return t, fx, u


def _conditioned(model: ModelSpec, y: np.ndarray, out: FilterOutput):
    """y and ``out`` without their first ``model.presample`` rows.

    Those observations condition the criterion: they enter the filter as
    lags but add no term.  The curvature weighs the dropped rows by zero.
    """
    k = model.presample
    if k == 0:
        return y, out
    if y.size <= k:
        raise ShapeMismatch(
            f"{model.name} conditions on its first {k} observations; the series has {y.size}"
        )
    dg, ds2 = out.dmean, out.dsigma2
    kept = FilterOutput(
        out.mean[k:],
        out.sigma2[k:],
        out.sigma[k:],
        None if dg is None else dg[k:],
        None if ds2 is None else ds2[k:],
    )
    if out.curvature is not None:
        full, pad = out.curvature, np.zeros(k)

        def curvature(w_g, w_s):
            return full(*(None if w is None else np.concatenate((pad, w)) for w in (w_g, w_s)))

        kept.curvature = curvature
    return y[k:], kept


def evaluate(
    model: ModelSpec,
    y,
    theta,
    order: int = 0,
    criterion: str = "logistic",
) -> CriterionParts:
    """Evaluate the criterion at theta with derivatives up to ``order``.

    The sum runs over t >= ``model.presample``: the criterion is
    conditional on the first observations, so ``nobs`` is len(y) minus
    ``presample`` and the residuals have length ``nobs``.  A caller who
    knows the pre-sample values (the zeros before a ``simulate`` path
    with no burn-in) prepends them to y, and the sum then runs over
    every observed t.
    Order 1 adds the score (``score_rows`` is formed when read), order 2
    the Hessian of the summed criterion.  Both are sums over t of the
    filter's column-major derivative blocks times per-observation
    weights, and only the weights of the blocks the filter returns are
    computed.  The criterion's weights on d2 g_t and d2 sigma2_t are
    minus its score weights a and b, so the second-derivative term is
    subtracted as one ``curvature(a, b)`` and no (n, d, d) array is built.
    """
    th = as_array(theta)
    yv = np.asarray(y, dtype=float).ravel()
    yv, out = _conditioned(model, yv, model.filter(yv, th, order=order))
    sig2, sig = out.sigma2, out.sigma
    x = (yv - out.mean) / sig
    n = yv.size

    if criterion == "logistic":
        ll = float(np.sum(-0.5 * np.log(sig2) + logistic_logpdf(x)))
    elif criterion == "gaussian":
        ll = float(np.sum(-0.5 * np.log(sig2) - 0.5 * x * x))
    else:
        raise ValueError(f"unknown criterion {criterion!r}")
    if not np.isfinite(ll):
        ll = -np.inf
    parts = CriterionParts(loglik=ll, nobs=n, clamped=_clamp_count(sig2), residuals=x)
    if order == 0:
        return parts

    dg, ds2 = out.dmean, out.dsigma2
    logistic = criterion == "logistic"
    if logistic:
        t, fx, u = _logistic_weights(x)
    inv_s2 = 1.0 / sig2
    a = b = None  # weights on dmean and dsigma2
    if dg is not None:
        inv_s = 1.0 / sig
        a = (t if logistic else x) * inv_s
    if ds2 is not None:
        b = 0.5 * ((u - 1.0) if logistic else (x * x - 1.0)) * inv_s2
    parts.terms = ((dg, a), (ds2, b))
    parts.score = sum(weight @ block for block, weight in parts.terms if block is not None)
    if order == 1:
        return parts

    # per-observation negative Hessian summed over t as matrix products,
    # then negated once; the filter contracts its own second derivatives
    neg_hess = np.zeros((th.size, th.size))
    if dg is not None:
        c_gg = 2.0 * fx * inv_s2 if logistic else inv_s2
        neg_hess += (dg * c_gg[:, None]).T @ dg
    if ds2 is not None:
        if logistic:
            c_ss = (3.0 * u - 2.0 + 2.0 * x * x * fx) * (0.25 * inv_s2 * inv_s2)
        else:
            c_ss = (2.0 * x * x - 1.0) * (0.5 * inv_s2 * inv_s2)
        neg_hess += (ds2 * c_ss[:, None]).T @ ds2
        if dg is not None:
            c_sg = (t + 2.0 * x * fx) * (0.5 * inv_s2 * inv_s) if logistic else a * inv_s2
            cross = (ds2 * c_sg[:, None]).T @ dg
            neg_hess += cross + cross.T
    if out.curvature is not None:
        neg_hess -= out.curvature(a, b)
    parts.hess = -neg_hess
    return parts


# -- Newton ascent -----------------------------------------------------


_STEP_TOL = 1e-8  # Newton stops once every entry of the last or next step is this small
_SCORE_TOL = 1e-6  # and the projected score is below this times 1 + |loglik|
_TIE_TOL = 1e-9  # a later start wins only by more than this times 1 + |best loglik|
_BOX_SLACK = 1e-12  # this close to a face a point is on it; this far beyond, outside the box
_PLANE_TOL = 1e-11  # a point with |R theta - r| below this times 1 + max|r| lies on the plane
_INTERIOR_MARGIN = 0.01  # an interior warm start keeps this share of its scale off each face


@dataclass(frozen=True)
class FitOptions:
    """Optimizer controls; defaults suit series of a few hundred points.

    ``multistart`` adds the best-scoring candidate of each group of the
    model's start candidates to its start values in ``fit``; in
    ``fit_constrained`` it adds the start values to the first start, the
    projected unrestricted estimate, or for a model with
    ``interior_warm_start`` lets them follow as a fallback.  Off, the
    first start runs alone.  ``start`` replaces every start of either.
    ``seed`` is accepted but read by neither, since no start is drawn at
    random.
    """

    criterion: str = "logistic"
    max_iter: int = 500
    multistart: bool = True
    seed: int = 0
    start: tuple[float, ...] | None = None


@dataclass
class FitResult:
    """Point estimate, information pieces and diagnostics of one fit.

    ``nobs`` is the number of terms in the criterion, len(y) minus the
    model's ``presample``; ``residuals`` has that length.

    A fit under R theta = r carries the Lagrange multiplier estimate in
    ``multiplier`` and no covariance; an unrestricted fit carries the
    sandwich covariance (None when the information is singular) and
    ``multiplier`` None.
    """

    theta: ParamVector
    loglik: float
    score: np.ndarray
    info_hessian: np.ndarray
    info_opg: np.ndarray
    cov: np.ndarray | None
    se: np.ndarray | None
    residuals: np.ndarray
    nobs: int
    converged: bool
    iterations: int
    clamp_count: int
    boundary: tuple[bool, ...]
    trace: tuple[float, ...]
    criterion: str
    n_starts: int
    multiplier: np.ndarray | None = None


def _solve_ascent(hess: np.ndarray, score: np.ndarray) -> np.ndarray:
    """Newton direction for maximization, ridged until it is an ascent.

    The ridge runs 0, 1e-10 s, 1e-9 s, ... with s the largest diagonal
    entry.  Once the unridged matrix fails to factor, the ridges that
    leave its most negative eigenvalue clearly negative cannot factor
    either, and are passed over without a try.
    """
    a = -0.5 * (hess + hess.T)
    d = a.shape[0]
    scale = max(1.0, float(np.max(np.abs(np.diag(a)))))
    ridge = skip = 0.0
    eye = np.eye(d)
    for _ in range(40):
        if ridge >= skip:
            # LAPACK directly: these small solves run once per Newton step
            factor, info = dpotrf(a + ridge * eye, lower=1, clean=0)
            if info == 0:
                delta, _ = dpotrs(factor, score, lower=1)
                if score @ delta > 0.0:
                    return delta
            elif ridge == 0.0 and np.all(np.isfinite(a)):
                vals = np.linalg.eigvalsh(a)
                if vals[0] < -1e-6 * np.max(np.abs(vals)):
                    skip = -0.1 * vals[0]
        ridge = 1e-10 * scale if ridge == 0.0 else ridge * 10.0
    return score / scale


def _newton(model, y, basis, lo, hi, th0, opts: FitOptions):
    """Working-set Newton ascent inside the box from th0 along ``basis``.

    Returns (theta, parts, converged, iterations, trace), or None for a
    dead start.  The iterate is theta itself.  A step adds basis delta,
    with delta the Newton direction of the reduced system (basis' score,
    basis' H basis), so with basis spanning the null space of R every
    iterate keeps R theta where th0 has it.  Box faces are not handled
    by clipping, because a clipped trial would leave a restriction
    plane.  Binding faces instead join a working set and steps move
    tangent to them, with a ratio test so a blocking face is reached
    exactly rather than approached in collapsing half-steps.
    """

    lo_pin, hi_pin = lo + _BOX_SLACK, hi - _BOX_SLACK  # a point this close sits on the face
    lo_out, hi_out = lo - _BOX_SLACK, hi + _BOX_SLACK  # a point beyond these is outside the box

    def at(th, order):
        if np.any(th < lo_out) or np.any(th > hi_out):
            return None
        return evaluate(model, y, th, order=order, criterion=opts.criterion)

    # the same faces bind for many iterations: one SVD per working set
    tangents = {}

    def face_directions(mask):
        """Orthonormal directions, in basis coordinates, tangent to the faces flagged in mask."""
        key = mask.tobytes()
        if key not in tangents:
            tangents[key] = null_space(basis[mask, :]) if mask.any() else np.eye(basis.shape[1])
        return tangents[key]

    th = np.asarray(th0, dtype=float)
    parts = at(th, 2)
    if parts is None or not np.isfinite(parts.loglik):
        return None
    trace = [parts.loglik]
    last_step = np.inf
    converged = False
    iterations = 0
    for iterations in range(1, opts.max_iter + 1):
        level = _SCORE_TOL * (1.0 + abs(parts.loglik))
        working = ((th <= lo_pin) & (parts.score < 0.0)) | ((th >= hi_pin) & (parts.score > 0.0))
        s_red = basis.T @ parts.score
        h_red = basis.T @ parts.hess @ basis
        dirs = face_directions(working)
        sp = float(np.max(np.abs(dirs.T @ s_red), initial=0.0))
        if sp <= level and last_step <= _STEP_TOL:
            converged = True
            break
        # grow the working set until the Newton direction clears every
        # pinned face; each pass removes at least one free coordinate
        delta = None
        for _ in range(th.size + 1):
            if dirs.shape[1] == 0:
                delta = None
                break
            delta = dirs @ _solve_ascent(dirs.T @ h_red @ dirs, dirs.T @ s_red)
            dth = basis @ delta
            moving = ~working & (np.abs(dth) >= 1e-16)
            room = np.full(th.size, np.inf)
            room[moving] = (np.where(dth > 0.0, hi, lo) - th)[moving] / dth[moving]
            blocker = int(np.argmin(room))
            alpha_cap = min(1.0, room[blocker])
            if alpha_cap > 1e-14:
                break
            working[blocker] = True
            dirs = face_directions(working)
        if delta is None or not np.any(delta):
            converged = sp <= level
            break
        if sp <= level and float(np.max(np.abs(alpha_cap * delta))) <= _STEP_TOL:
            # a step this small cannot raise the criterion past rounding
            converged = True
            break
        # the full step is usually taken, so it is evaluated with the
        # derivatives the next iteration needs; backtracks only compare values
        accepted = False
        alpha = alpha_cap
        while alpha >= 1e-14:
            trial = th + alpha * dth
            cand = at(trial, 2 if alpha == alpha_cap else 0)
            if cand is not None and np.isfinite(cand.loglik):
                gain = float(s_red @ (alpha * delta))
                if cand.loglik >= trace[-1] + 1e-4 * max(gain, 0.0):
                    accepted = True
                    break
            alpha *= 0.5
        if not accepted:
            converged = sp <= level
            break
        last_step = float(np.max(np.abs(alpha * delta)))
        th = trial
        parts = cand if cand.hess is not None else at(th, 2)
        trace.append(parts.loglik)
    return th, parts, converged, iterations, trace


def _start_values(model: ModelSpec, y) -> list[np.ndarray]:
    """The template start, then the model's start values for the accepted series y."""
    return [model._template_values(), *model.start_values(y)]


def _build_starts(model: ModelSpec, y, opts: FitOptions) -> list[np.ndarray]:
    """The start values and, for a multistart fit, the best candidate
    of each group of the model's start candidates, clipped into the box.

    Each candidate of a group of several costs one order-0 evaluation
    under the fit's own criterion; of equal scores the earlier one wins.
    """
    starts = _start_values(model, y)
    lo, hi = model.default_bounds()
    for group in model.start_candidates(y) if opts.multistart else []:
        group = [np.clip(c, lo, hi) for c in group]
        if len(group) > 1:
            scores = [evaluate(model, y, c, criterion=opts.criterion).loglik for c in group]
            group = [group[int(np.argmax(scores))]]
        starts.extend(group)
    return starts


def _beats(loglik: float, best: float) -> bool:
    """True when a later start's loglik clears the best one beyond rounding.

    Starts that reach one optimum differ in the last bits of their
    loglik; the earliest of them is kept, so the reported start does
    not follow rounding.
    """
    return loglik > best + _TIE_TOL * (1.0 + abs(best))


def _fit(
    model: ModelSpec, y, opts: FitOptions, starts, R=None, r=None, fallback=None
) -> FitResult:
    """Best Newton run over ``starts(series)``, or ``opts.start`` alone,
    inside the box and, with a restriction, on R theta = r.

    Each start is clipped into the box, and one that lies off the plane
    is projected onto it once.  ``fallback(series)`` gives further
    starts, run only when every run of ``starts`` died, or the best one
    stopped unconverged or on a box face.  With a restriction the result
    carries the multiplier estimate; without one, the sandwich
    covariance.
    """
    if opts.start is not None and len(opts.start) != model.dim:
        raise ShapeMismatch(
            f"start has {len(opts.start)} values; {model.name} needs {model.dim}"
        )
    yv = model._check_series(y)
    if not np.all(np.isfinite(yv)):
        raise NonFiniteObjective("series contains non-finite values")
    if yv.size < 10 * model.dim:
        raise ValueError(
            f"need at least {10 * model.dim} observations for a {model.dim}-parameter fit"
        )
    lo, hi = model.default_bounds()
    basis = np.eye(model.dim) if R is None else null_space(R)
    best = None
    n_starts = 0

    def run(points):
        nonlocal best, n_starts
        for th0 in points:
            n_starts += 1
            th = np.clip(th0, lo, hi)
            if R is not None:
                th = _onto_plane(R, r, th)
            res = _newton(model, yv, basis, lo, hi, th, opts)
            if res is not None and (best is None or _beats(res[1].loglik, best[1].loglik)):
                best = res

    def settled():
        if best is None or not best[2]:
            return False
        return not any(model.wrap(np.clip(best[0], lo, hi)).boundary_active())

    # trial points that stray where the recursion diverges warn once per fit
    strays = []
    token = _STRAYS.set(strays)
    try:
        if opts.start is not None:
            run([np.asarray(opts.start, dtype=float)])
        else:
            run(starts(yv))
            if fallback is not None and not settled():
                run(fallback(yv))
    finally:
        _STRAYS.reset(token)
    if strays:
        msg = f"{len(strays)} trial points of this fit were nonstationary: {strays[0]}"
        warnings.warn(msg, NonstationaryRegionWarning, stacklevel=3)
    if best is None:
        raise NonFiniteObjective("criterion was non-finite at every starting point")
    th, parts, converged, iterations, trace = best
    theta = model.wrap(np.clip(th, lo, hi))
    a_hat, b_hat = parts.info_hessian, parts.info_opg
    cov = se = multiplier = None
    if R is None:
        try:
            cov = sandwich_cov(a_hat, b_hat, parts.nobs)
            se = np.sqrt(np.maximum(np.diag(cov), 0.0))
        except SingularInformation:
            pass
    else:
        multiplier = -np.linalg.solve(R @ R.T, R @ (parts.score / parts.nobs))
    return FitResult(
        theta=theta,
        loglik=parts.loglik,
        score=parts.score,
        info_hessian=a_hat,
        info_opg=b_hat,
        cov=cov,
        se=se,
        residuals=parts.residuals,
        nobs=parts.nobs,
        converged=converged,
        iterations=iterations,
        clamp_count=parts.clamped,
        boundary=theta.boundary_active(),
        trace=tuple(trace),
        criterion=opts.criterion,
        n_starts=n_starts,
        multiplier=multiplier,
    )


def fit(model: ModelSpec, y, options: FitOptions | None = None) -> FitResult:
    """Maximize the criterion over the model's box; best of several starts.

    Newton runs from the template start, each of
    ``model.start_values(y)`` and, unless ``options.multistart`` is off,
    from the best-scoring candidate of each group of
    ``model.start_candidates(y)``; ``options.start`` replaces them all.
    The fit draws no random numbers.
    """
    opts = options or FitOptions()
    return _fit(model, y, opts, lambda yv: _build_starts(model, yv, opts))


def _check_restriction(R, r, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """R as a full-row-rank (q, dim) matrix and r as a length-q vector, both finite."""
    R = np.atleast_2d(np.asarray(R, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    q, d = R.shape
    if d != dim or r.shape != (q,):
        raise RankDeficientConstraint(
            f"restriction shapes {R.shape}, {r.shape} do not match dim {dim}"
        )
    if not (np.all(np.isfinite(R)) and np.all(np.isfinite(r))):
        raise InfeasibleConstraint("restriction R theta = r has a non-finite entry")
    if np.linalg.matrix_rank(R) < q:
        raise RankDeficientConstraint("restriction matrix is not full row rank")
    return R, r


def _onto_plane(R, r, th) -> np.ndarray:
    """th itself when it lies on R theta = r, else its orthogonal projection onto it."""
    gap = R @ th - r
    if np.max(np.abs(gap)) <= _PLANE_TOL * (1.0 + np.max(np.abs(r))):
        return th
    return th - R.T @ np.linalg.solve(R @ R.T, gap)


def _project_into_box(R, r, lo, hi, start=None) -> np.ndarray:
    """Box point on R theta = r by alternating projection.

    Starts from ``start`` clipped to the box, or from the box midpoint;
    a start already in the box and on the plane is returned as it is.
    """
    th = np.clip(0.5 * (lo + hi) if start is None else start, lo, hi)
    for _ in range(500):
        on = _onto_plane(R, r, th)
        if on is th:
            return th
        th = np.clip(on, lo, hi)
    raise InfeasibleConstraint("no box point satisfies the linear restriction")


def _warm_start(model: ModelSpec, theta_hat, R, r, lo, hi, interior=False) -> np.ndarray:
    """theta_hat projected into the box on R theta = r.

    With ``interior`` the projection first runs inside the box shrunk by
    m = 0.01 min(hi - lo, max(|theta_hat|, 1e-3)) per coordinate, so the
    start sits off every face; when that fails it runs in the box itself.
    When every projection of theta_hat fails, the box midpoint is
    projected instead, and InfeasibleConstraint is raised if that fails
    too.
    """
    th = model._check_theta(theta_hat)
    if not np.all(np.isfinite(th)):
        raise NonFiniteObjective("theta_hat contains non-finite values")
    m = _INTERIOR_MARGIN * np.minimum(hi - lo, np.maximum(np.abs(th), 1e-3))
    for box_lo, box_hi in [(lo + m, hi - m), (lo, hi)] if interior else [(lo, hi)]:
        try:
            return _project_into_box(R, r, box_lo, box_hi, start=th)
        except InfeasibleConstraint:
            pass
    return _project_into_box(R, r, lo, hi)


def fit_constrained(
    model: ModelSpec,
    y,
    R,
    r,
    options: FitOptions | None = None,
    *,
    theta_hat,
) -> FitResult:
    """Maximize subject to R theta = r by Newton along the plane.

    Newton steps along an orthonormal basis of the null space of R from
    starts on the plane, so every iterate stays on it.  The first start
    is the unrestricted estimate ``theta_hat`` projected into the box on
    the restriction plane (alternating projection from theta_hat), which
    usually sits a few Newton steps from the restricted optimum; when
    that projection fails, it is the box midpoint projected the same
    way, and InfeasibleConstraint is raised when that fails too.  The
    template start and the model's start values follow, clipped into
    the box and projected onto the plane.  A model with
    ``interior_warm_start`` set instead projects theta_hat into the box
    shrunk off its faces and runs that start alone; the projection into
    the full box and the start values follow only when that run dies,
    stops unconverged or ends on a box face, and the best run of all
    is kept.  With ``multistart=False`` only the first start runs, and
    ``options.start`` replaces them all.  A theta_hat of the wrong
    length raises ShapeMismatch and a non-finite one NonFiniteObjective,
    before any Newton step.  The Lagrange multiplier estimate is
    recovered from the stationarity of L(theta)/n + lambda' (R theta - r)
    at the constrained optimum: lambda = -(R R')^{-1} R score(theta) / n.
    """
    opts = options or FitOptions()
    R, r = _check_restriction(R, r, model.dim)
    lo, hi = model.default_bounds()
    warm = _warm_start(model, theta_hat, R, r, lo, hi)
    if model.interior_warm_start:
        first = _warm_start(model, theta_hat, R, r, lo, hi, interior=True)
        later = [] if np.array_equal(first, warm) else [warm]
        starts, fallback = (lambda yv: [first]), (lambda yv: [*later, *_start_values(model, yv)])
    else:
        first = warm
        starts, fallback = (lambda yv: [warm, *_start_values(model, yv)]), None
    if not opts.multistart:
        starts, fallback = (lambda yv: [first]), None
    return _fit(model, y, opts, starts, R, r, fallback)


# -- covariance --------------------------------------------------------


def _positive_definite(mat: np.ndarray, what: str) -> np.ndarray:
    """The symmetric part of mat; SingularInformation unless it is positive definite."""
    sym = 0.5 * (mat + mat.T)
    vals = np.linalg.eigvalsh(sym)
    if vals[0] <= abs(vals[-1]) * 1e-12:
        kind = "not positive definite" if vals[0] < 0.0 else "numerically singular"
        raise SingularInformation(
            f"{what} is {kind} (eigenvalues {vals[0]:.3e} .. {vals[-1]:.3e})"
        )
    return sym


def sandwich_cov(info_hessian: np.ndarray, info_opg: np.ndarray, nobs: int) -> np.ndarray:
    """Asymptotic covariance A^{-1} B A^{-1} / n from the information pair."""
    a = _positive_definite(info_hessian, "information matrix")
    ainv_b = np.linalg.solve(a, info_opg)
    cov = np.linalg.solve(a, ainv_b.T).T / nobs
    return 0.5 * (cov + cov.T)


@dataclass(frozen=True)
class KernelMoments:
    """Residual moments of the logistic weight functions.

    m2 = E (k(eta) - 1)^2, mf = E eta^2 f(eta), ef = E f(eta),
    t2 = E (2 F(eta) - 1)^2, for k the even scale kernel.
    """

    m2: float
    mf: float
    ef: float
    t2: float

    @property
    def variance_ratio(self) -> float:
        """m2 / (1 + 2 mf)^2, the scalar in the pure-scale covariance."""
        return self.m2 / (1.0 + 2.0 * self.mf) ** 2


def _kernel_sums(x: np.ndarray) -> np.ndarray:
    """The sums over x whose means are the KernelMoments (m2, mf, ef, t2)."""
    t, fx, u = _logistic_weights(x)
    return np.array([np.sum((u - 1.0) ** 2), np.sum(x * x * fx), np.sum(fx), np.sum(t * t)])


def kernel_moments(eta) -> KernelMoments:
    x = np.asarray(eta, dtype=float).ravel()
    return KernelMoments(*(float(s) / x.size for s in _kernel_sums(x)))


def _scale_only_pieces(model: ModelSpec, y, theta):
    yv = model._check_series(y)
    yv, out = _conditioned(model, yv, model.filter(yv, theta, order=1))
    if out.dmean is not None:
        raise NotScaleOnly(f"model {model.name!r} has a conditional mean part")
    w = out.dsigma2 / out.sigma2[:, None]
    omega = w.T @ w / yv.size
    eta = (yv - out.mean) / out.sigma
    return omega, kernel_moments(eta), yv.size


def scale_only_information(model: ModelSpec, y, theta) -> tuple[np.ndarray, np.ndarray]:
    """Product-form information pair for pure-scale models.

    Factorizes each matrix into a residual moment times the Gram matrix
    Omega of dsigma2 / sigma^2: A = (1 + 2 mf) Omega / 4 and
    B = m2 Omega / 4.  Unlike the per-observation sums, this pair turns
    sandwich_cov into exactly 4 tau Omega^{-1} / n (see scale_only_cov);
    the two routes differ only by the sample covariance between the
    residual weights and the Gram terms, which vanishes in the limit.
    """
    omega, mom, _ = _scale_only_pieces(model, y, theta)
    a_hat = (1.0 + 2.0 * mom.mf) * omega / 4.0
    b_hat = mom.m2 * omega / 4.0
    return a_hat, b_hat


def scale_only_cov(model: ModelSpec, y, theta) -> np.ndarray:
    """Covariance for pure-scale models: 4 tau Omega^{-1} / n.

    Omega is the average outer product of dsigma2 / sigma^2 at theta
    and tau the residual-moment ratio m2 / (1 + 2 mf)^2.
    """
    omega, mom, n = _scale_only_pieces(model, y, theta)
    _positive_definite(omega, "scale information")
    return 4.0 * mom.variance_ratio * np.linalg.inv(omega) / n
