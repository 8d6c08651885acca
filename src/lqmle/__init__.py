"""Logistic quasi-likelihood estimation for conditional location-scale models.

The criterion replaces the Gaussian density in the usual quasi-likelihood
with the standard logistic one, which keeps the estimator consistent and
asymptotically normal while the innovations only need a finite first
moment.  The package provides the calibrated innovation laws, four model
filters with analytic derivatives, a damped Newton optimizer with
sandwich-covariance inference, Wald and multiplier tests, residual and
tail diagnostics, and a deterministic replication harness.
"""

from .dataio import read_series, write_series
from .diagnostics import (
    DiagnosticsReport,
    ResidualSummary,
    aic,
    default_tail_fraction,
    hill_estimator,
    hill_sweep,
    residual_diagnostics,
    summarize_residuals,
)
from .distributions import (
    InnovationDist,
    empirical,
    logistic,
    normal,
    sample_symmetric_stable,
    stable,
    student_t,
    uniform,
)
from .errors import (
    BracketFailure,
    DataFormatError,
    DegenerateTail,
    ExcessiveFailures,
    InfeasibleConstraint,
    InvertibilityError,
    LqmleError,
    NonFiniteObjective,
    NonIntegrableError,
    NonstationaryRegionWarning,
    NotScaleOnly,
    QuadratureFailure,
    RankDeficientConstraint,
    ShapeMismatch,
    SingularInformation,
)
from .estimation import (
    CriterionParts,
    FitOptions,
    FitResult,
    KernelMoments,
    evaluate,
    fit,
    fit_constrained,
    kernel_moments,
    sandwich_cov,
    scale_only_cov,
    scale_only_information,
)
from .inference import TestResult, chisq_sf, deviance, lm_test, normal_sf, t_test, wald_test
from .kernel import (
    calibrate_scale,
    calibrate_stable_index,
    kernel_expectation,
    logistic_cdf,
    logistic_logpdf,
    logistic_pdf,
    scale_kernel,
    stable_kernel_expectation,
)
from .models import (
    MODEL_REGISTRY,
    ArmaGarch,
    Dar,
    Expar,
    Garch,
    ModelSpec,
    make_model,
    simulate,
)
from .models.stationarity import lyapunov_exponent
from .montecarlo import (
    McSummary,
    Scenario,
    normality_sample,
    population_information,
    run_scenario,
)
from .params import ParamVector

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # innovation laws and calibration
    "InnovationDist",
    "logistic",
    "normal",
    "uniform",
    "student_t",
    "stable",
    "empirical",
    "sample_symmetric_stable",
    "scale_kernel",
    "kernel_expectation",
    "stable_kernel_expectation",
    "calibrate_scale",
    "calibrate_stable_index",
    "logistic_pdf",
    "logistic_cdf",
    "logistic_logpdf",
    # models
    "ModelSpec",
    "Dar",
    "Garch",
    "ArmaGarch",
    "Expar",
    "MODEL_REGISTRY",
    "make_model",
    "simulate",
    "lyapunov_exponent",
    "ParamVector",
    # estimation and inference
    "evaluate",
    "fit",
    "fit_constrained",
    "FitOptions",
    "FitResult",
    "CriterionParts",
    "KernelMoments",
    "kernel_moments",
    "sandwich_cov",
    "scale_only_cov",
    "scale_only_information",
    "TestResult",
    "wald_test",
    "lm_test",
    "t_test",
    "deviance",
    "chisq_sf",
    "normal_sf",
    # diagnostics
    "aic",
    "hill_estimator",
    "hill_sweep",
    "default_tail_fraction",
    "summarize_residuals",
    "ResidualSummary",
    "residual_diagnostics",
    "DiagnosticsReport",
    # replication harness
    "Scenario",
    "McSummary",
    "run_scenario",
    "normality_sample",
    "population_information",
    # data handling
    "read_series",
    "write_series",
    # errors
    "LqmleError",
    "BracketFailure",
    "QuadratureFailure",
    "NonIntegrableError",
    "ShapeMismatch",
    "DataFormatError",
    "InvertibilityError",
    "NonFiniteObjective",
    "SingularInformation",
    "RankDeficientConstraint",
    "InfeasibleConstraint",
    "NotScaleOnly",
    "DegenerateTail",
    "ExcessiveFailures",
    "NonstationaryRegionWarning",
]
