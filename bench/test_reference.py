"""Checks of the benchmark's reference code against values worked out by hand.

Run with ``python3 -m pytest bench/test_reference.py``.  Each model is
evaluated on the 3-observation series y = (1, 2, -1); the expected
conditional moments below follow from the zero-start recursions by hand.
"""

import math

import pytest

import reference as ref

Y = (1.0, 2.0, -1.0)

# (g_0, g_1, g_2), (s2_0, s2_1, s2_2) at THETA0 on Y.
HAND_MOMENTS = {
    # g = 1 + 0.5 y_{t-1}; s2 = 0.3 + 0.5 y_{t-1}^2
    "dar": ((1.0, 1.5, 2.0), (0.3, 0.8, 2.3)),
    # s2 = 1 + 0.15 y_{t-1}^2 + 0.4 s2_{t-1}
    "garch": ((0.0, 0.0, 0.0), (1.0, 1.55, 2.22)),
    # e = (1, 1.5, -1.9); g = 0.3 y_{t-1} + 0.2 e_{t-1};
    # s2 = 0.2 + 0.1 e_{t-1}^2 + 0.3 s2_{t-1}
    "arma_garch": ((0.0, 0.5, 0.9), (0.2, 0.36, 0.533)),
    # g = (0.3 + 0.7 exp(-1.5 y_{t-1}^2)) y_{t-1}
    "expar": ((0.0, 0.3 + 0.7 * math.exp(-1.5), 2.0 * (0.3 + 0.7 * math.exp(-6.0))), (1.0, 1.0, 1.0)),
}


def _hand_criterion(g, s2, first=0):
    # log density of the standard logistic written as log(e^-x / (1 + e^-x)^2)
    total = 0.0
    for t in range(first, 3):
        x = (Y[t] - g[t]) / math.sqrt(s2[t])
        total += -0.5 * math.log(s2[t]) + math.log(math.exp(-x) / (1.0 + math.exp(-x)) ** 2)
    return total


@pytest.mark.parametrize("model", ref.MODELS)
def test_moments_match_hand_values(model):
    g, s2 = ref.moments(model, Y, ref.THETA0[model])
    want_g, want_s2 = HAND_MOMENTS[model]
    assert g == pytest.approx(want_g, abs=1e-14)
    assert s2 == pytest.approx(want_s2, abs=1e-14)


@pytest.mark.parametrize("model", ref.MODELS)
def test_criterion_matches_hand_values(model):
    g, s2 = HAND_MOMENTS[model]
    theta = ref.THETA0[model]
    assert ref.criterion(model, Y, theta) == pytest.approx(_hand_criterion(g, s2), abs=1e-12)
    # only the last two terms when the first observation is conditioned on
    assert ref.criterion(model, Y, theta, nobs=2) == pytest.approx(
        _hand_criterion(g, s2, first=1), abs=1e-12
    )


@pytest.mark.parametrize("model", ref.MODELS)
def test_path_inverts_the_filter(model):
    # the series the path builds from eta has standardized residuals eta
    eta = (0.7, -1.2, 0.4)
    y = ref.path(model, ref.THETA0[model], eta)
    g, s2 = ref.moments(model, y, ref.THETA0[model])
    resid = [(y[t] - g[t]) / math.sqrt(s2[t]) for t in range(3)]
    assert resid == pytest.approx(eta, abs=1e-12)


def test_dar_path_by_hand():
    y0 = 1.0 + math.sqrt(0.3) * 0.7
    y1 = 1.0 + 0.5 * y0 - math.sqrt(0.3 + 0.5 * y0 * y0) * 1.2
    y = ref.path("dar", ref.THETA0["dar"], (0.7, -1.2))
    assert list(y) == pytest.approx([y0, y1], abs=1e-14)


@pytest.mark.parametrize(
    "family, scale",
    [("normal", 1.7488010), ("uniform", 2.8494132), ("t3", 1.2454147), ("t2", 0.9585596)],
)
def test_kernel_mean_is_one_at_published_scales(family, scale):
    # the scales are rounded to 7 decimals, and dE/dc is below 1 for each law
    assert abs(ref.kernel_mean(family, scale) - 1.0) < 1e-6


def test_kernel_mean_small_scale_limit():
    # x tanh(x/2) ~ x^2 / 2 near zero, so E[k(cX)] ~ c^2 E[X^2] / 2 = c^2 / 2 for N(0, 1)
    c = 1e-3
    assert ref.kernel_mean("normal", c) == pytest.approx(c * c / 2.0, rel=1e-5)
