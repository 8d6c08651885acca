"""Quasi-likelihood evaluation and Newton optimization.

The logistic criterion for a conditional location-scale model is

    L(theta) = sum_t [ -log sigma_t + log f((y_t - g_t) / sigma_t) ],

with f the standard logistic density.  Score and Hessian are assembled
analytically from the filter's derivative blocks; the Gaussian
criterion (classical QMLE) shares the same plumbing with its own
per-observation weights.

Every fit maximizes the criterion over the plane {base + basis xi}
intersected with the model's parameter box.  The unrestricted fit takes
basis = I and base = 0; a fit under R theta = r takes an orthonormal
basis of the null space of R and a feasible base point.  Both run one
working-set Newton ascent: a ridged Newton direction tangent to the
binding box faces, a ratio test that stops the step at the first face
it meets, and Armijo backtracking, so the criterion value never
decreases along accepted steps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

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
from .models.base import _STRAYS, ModelSpec
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

    ``score_rows`` holds per-observation score contributions (n, d);
    ``hess`` is the Hessian of the summed criterion.  ``info_hessian``
    is the average per-observation negative Hessian and ``info_opg``
    the average outer product of score rows; both are None unless the
    requested order covers them.
    """

    loglik: float
    nobs: int
    clamped: int = 0
    score: np.ndarray | None = None
    score_rows: np.ndarray | None = None
    hess: np.ndarray | None = None
    residuals: np.ndarray | None = None

    @property
    def info_hessian(self) -> np.ndarray:
        return -self.hess / self.nobs

    @property
    def info_opg(self) -> np.ndarray:
        return self.score_rows.T @ self.score_rows / self.nobs


def _logistic_weights(x: np.ndarray):
    t = np.tanh(0.5 * x)  # 2 F(x) - 1
    fx = 0.25 * (1.0 - t * t)
    u = x * t
    return t, fx, u


def evaluate(
    model: ModelSpec,
    y,
    theta,
    order: int = 0,
    criterion: str = "logistic",
) -> CriterionParts:
    """Evaluate the criterion at theta with derivatives up to ``order``.

    Order 1 adds the score and its per-observation rows, order 2 the
    Hessian of the summed criterion.  The Hessian's second-derivative
    term comes from one call of the filter's ``curvature`` with the
    criterion's weights on d2 g_t and d2 sigma2_t, so no (n, d, d)
    array is built.
    """
    th = as_array(theta)
    yv = np.asarray(y, dtype=float).ravel()
    out = model.filter(yv, th, order=order)
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
    parts = CriterionParts(loglik=ll, nobs=n, clamped=out.clamped, residuals=x)
    if order == 0:
        return parts

    dg, ds2 = out.dmean, out.dsigma2
    if criterion == "logistic":
        t, fx, u = _logistic_weights(x)
        a = t / sig                      # weight on dmean
        b = (u - 1.0) / (2.0 * sig2)     # weight on dsigma2
    else:
        a = x / sig
        b = (x * x - 1.0) / (2.0 * sig2)
    rows = dg * a[:, None] + ds2 * b[:, None]
    parts.score_rows = rows
    parts.score = rows.sum(axis=0)
    if order == 1:
        return parts

    s4 = sig2 * sig2
    if criterion == "logistic":
        c_ss = (u - 1.0) / (2.0 * s4) + (u + 2.0 * x * x * fx) / (4.0 * s4)
        c_d2s = -(u - 1.0) / (2.0 * sig2)
        c_sg = (t + 2.0 * x * fx) / (2.0 * sig2 * sig)
        c_d2g = -t / sig
        c_gg = 2.0 * fx / sig2
    else:
        c_ss = (2.0 * x * x - 1.0) / (2.0 * s4)
        c_d2s = (1.0 - x * x) / (2.0 * sig2)
        c_sg = x / (sig2 * sig)
        c_d2g = -x / sig
        c_gg = 1.0 / sig2

    # per-observation negative Hessian summed over t as matrix products,
    # then negated once; the filter contracts its own second derivatives
    cross = (ds2 * c_sg[:, None]).T @ dg
    neg_hess = (ds2 * c_ss[:, None]).T @ ds2 + (dg * c_gg[:, None]).T @ dg
    neg_hess += cross + cross.T
    if out.curvature is not None:
        neg_hess += out.curvature(c_d2g, c_d2s)
    parts.hess = -neg_hess
    return parts


# -- Newton ascent -----------------------------------------------------


_STEP_TOL = 1e-8  # Newton stops once every entry of the last or next step is this small
_SCORE_TOL = 1e-6  # and the projected score is below this times 1 + |loglik|
_RANDOM_STARTS = 3  # uniform draws from the box that a multistart fit adds


@dataclass(frozen=True)
class FitOptions:
    """Optimizer controls; defaults suit series of a few hundred points."""

    criterion: str = "logistic"
    max_iter: int = 500
    multistart: bool = True
    seed: int = 0
    start: tuple[float, ...] | None = None


@dataclass
class FitResult:
    """Point estimate, information pieces and diagnostics of one fit.

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


def _newton(model, y, basis, base, lo, hi, xi0, opts: FitOptions):
    """Working-set Newton ascent over {base + basis xi} inside the box.

    Returns (xi, parts, converged, iterations, trace), or None for a
    dead start.  Box faces are not handled by clipping, because a
    clipped trial would leave a restriction plane.  Binding faces
    instead join a working set and steps move tangent to them, with a
    ratio test so a blocking face is reached exactly rather than
    approached in collapsing half-steps.
    """

    lo_pin, hi_pin = lo + 1e-12, hi - 1e-12  # a point this close sits on the face
    lo_out, hi_out = lo - 1e-12, hi + 1e-12  # a point beyond these is outside the box

    def at(xi, order):
        th = base + basis @ xi
        if np.any(th < lo_out) or np.any(th > hi_out):
            return None
        return evaluate(model, y, th, order=order, criterion=opts.criterion)

    # the same faces bind for many iterations: one SVD per working set
    tangents = {}

    def face_directions(mask):
        """Orthonormal xi-directions tangent to the box faces flagged in mask."""
        key = mask.tobytes()
        if key not in tangents:
            tangents[key] = null_space(basis[mask, :]) if mask.any() else np.eye(basis.shape[1])
        return tangents[key]

    xi = np.asarray(xi0, dtype=float)
    parts = at(xi, 2)
    if parts is None or not np.isfinite(parts.loglik):
        return None
    trace = [parts.loglik]
    last_step = np.inf
    converged = False
    iterations = 0
    for iterations in range(1, opts.max_iter + 1):
        th = base + basis @ xi
        level = _SCORE_TOL * (1.0 + abs(parts.loglik))
        working = ((th <= lo_pin) & (parts.score < 0.0)) | ((th >= hi_pin) & (parts.score > 0.0))
        s_xi = basis.T @ parts.score
        h_xi = basis.T @ parts.hess @ basis
        dirs = face_directions(working)
        sp = float(np.max(np.abs(dirs.T @ s_xi), initial=0.0))
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
            delta = dirs @ _solve_ascent(dirs.T @ h_xi @ dirs, dirs.T @ s_xi)
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
            trial = xi + alpha * delta
            cand = at(trial, 2 if alpha == alpha_cap else 0)
            if cand is not None and np.isfinite(cand.loglik):
                gain = float(s_xi @ (alpha * delta))
                if cand.loglik >= trace[-1] + 1e-4 * max(gain, 0.0):
                    accepted = True
                    break
            alpha *= 0.5
        if not accepted:
            converged = sp <= level
            break
        last_step = float(np.max(np.abs(alpha * delta)))
        xi = trial
        parts = cand if cand.hess is not None else at(xi, 2)
        trace.append(parts.loglik)
    return xi, parts, converged, iterations, trace


def _build_starts(model: ModelSpec, y, lo, hi, opts: FitOptions) -> list[np.ndarray]:
    if opts.start is not None:
        return [np.asarray(opts.start, dtype=float)]
    starts = list(model.start_values(y))
    if opts.multistart:
        starts.append(0.5 * (lo + hi))
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(opts.seed, spawn_key=(101,)))
        )
        for _ in range(_RANDOM_STARTS):
            starts.append(rng.uniform(lo, hi))
    return starts


def _fit(model: ModelSpec, y, opts: FitOptions, starts, basis, base, R=None) -> FitResult:
    """Best Newton run over ``starts(series)`` on {base + basis xi}.

    With a restriction matrix R the result carries the multiplier
    estimate; without one, the sandwich covariance.
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
    best = None
    # trial points that stray where the recursion diverges warn once per fit
    strays = []
    token = _STRAYS.set(strays)
    try:
        for n_starts, th0 in enumerate(starts(yv), 1):
            xi0 = basis.T @ (np.clip(th0, lo, hi) - base)
            res = _newton(model, yv, basis, base, lo, hi, xi0, opts)
            if res is not None and (best is None or res[1].loglik > best[1].loglik):
                best = res
    finally:
        _STRAYS.reset(token)
    if strays:
        msg = f"{len(strays)} trial points of this fit were nonstationary: {strays[0]}"
        warnings.warn(msg, NonstationaryRegionWarning, stacklevel=3)
    if best is None:
        raise NonFiniteObjective("criterion was non-finite at every starting point")
    xi, parts, converged, iterations, trace = best
    theta = model.wrap(np.clip(base + basis @ xi, lo, hi))
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
    """Maximize the criterion over the model's box; best of several starts."""
    opts = options or FitOptions()
    lo, hi = model.default_bounds()
    return _fit(
        model,
        y,
        opts,
        lambda yv: _build_starts(model, yv, lo, hi, opts),
        np.eye(model.dim),
        np.zeros(model.dim),
    )


def _check_restriction(R, r, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """R as a full-row-rank (q, dim) matrix and r as a length-q vector."""
    R = np.atleast_2d(np.asarray(R, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    q, d = R.shape
    if d != dim or r.shape != (q,):
        raise RankDeficientConstraint(
            f"restriction shapes {R.shape}, {r.shape} do not match dim {dim}"
        )
    if np.linalg.matrix_rank(R) < q:
        raise RankDeficientConstraint("restriction matrix is not full row rank")
    return R, r


# a Monte Carlo study refits under one restriction thousands of times
@lru_cache(maxsize=256)
def _feasible_point(*blobs: bytes) -> np.ndarray:
    """Read-only box point on R theta = r from the bytes of (R, r, lo, hi); cached."""
    R, r, lo, hi = (np.frombuffer(b) for b in blobs)
    return _project_into_box(R.reshape(r.size, lo.size), r, lo, hi)


def _project_into_box(R, r, lo, hi) -> np.ndarray:
    th = np.clip(0.5 * (lo + hi), lo, hi)
    gram = R @ R.T
    for _ in range(500):
        th = th - R.T @ np.linalg.solve(gram, R @ th - r)
        th = np.clip(th, lo, hi)
        if np.max(np.abs(R @ th - r)) <= 1e-11 * (1.0 + np.max(np.abs(r))):
            th.setflags(write=False)
            return th
    raise InfeasibleConstraint("no box point satisfies the linear restriction")


def fit_constrained(
    model: ModelSpec,
    y,
    R,
    r,
    options: FitOptions | None = None,
) -> FitResult:
    """Maximize subject to R theta = r by Newton in null-space coordinates.

    Starts from the box midpoint projected onto the restriction, then
    from the model's start values.  The Lagrange multiplier estimate is
    recovered from the stationarity of L(theta)/n + lambda' (R theta - r)
    at the constrained optimum: lambda = -(R R')^{-1} R score(theta) / n.
    """
    opts = options or FitOptions()
    R, r = _check_restriction(R, r, model.dim)
    lo, hi = model.default_bounds()
    base = _feasible_point(*(a.tobytes() for a in (R, r, lo, hi)))
    return _fit(
        model,
        y,
        opts,
        lambda yv: [base, *model.start_values(yv)],
        null_space(R),
        base,
        R,
    )


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
    if not model.scale_only:
        raise NotScaleOnly(f"model {model.name!r} has a conditional mean part")
    yv = model._check_series(y)
    out = model.filter(yv, theta, order=1)
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


def scale_only_cov(model: ModelSpec, y, theta, nobs: int | None = None) -> np.ndarray:
    """Covariance for pure-scale models: 4 tau Omega^{-1} / n.

    Omega is the average outer product of dsigma2 / sigma^2 at theta
    and tau the residual-moment ratio m2 / (1 + 2 mf)^2.
    """
    omega, mom, nraw = _scale_only_pieces(model, y, theta)
    n = nobs or nraw
    _positive_definite(omega, "scale information")
    return 4.0 * mom.variance_ratio * np.linalg.inv(omega) / n
