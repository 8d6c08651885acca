"""Conditional location-scale model zoo."""

from .arma_garch import ArmaGarch
from .base import SCALE_FLOOR, FilterOutput, ModelSpec, lagged, simulate
from .dar import Dar
from .expar import Expar
from .garch import Garch
from .stationarity import lyapunov_exponent

__all__ = [
    "SCALE_FLOOR",
    "FilterOutput",
    "ModelSpec",
    "lagged",
    "simulate",
    "Dar",
    "Garch",
    "ArmaGarch",
    "Expar",
    "lyapunov_exponent",
    "MODEL_REGISTRY",
    "make_model",
]

MODEL_REGISTRY = {cls.name: cls for cls in (Dar, Garch, ArmaGarch, Expar)}


def make_model(name: str, **kwargs) -> ModelSpec:
    """Construct a model from its registry name and order arguments."""
    try:
        cls = MODEL_REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown model {name!r}; choose from {sorted(MODEL_REGISTRY)}") from None
    return cls(**kwargs)
