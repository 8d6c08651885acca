"""Parameter blocks with names and box bounds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ParamVector", "as_array"]

_FACE_TOL = 1e-8  # a component this close to a face, relative to max(1, |bound|), is on it


@dataclass(frozen=True)
class ParamVector:
    """An ordered, named parameter point together with its box bounds.

    Stored as tuples so instances are immutable and hashable; use
    ``array`` for numeric work.  Construction validates that the box is
    well formed and that the point lies inside it (up to a small slack
    for points produced by clipping).
    """

    values: tuple[float, ...]
    names: tuple[str, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self) -> None:
        n = len(self.values)
        if not (len(self.names) == len(self.lower) == len(self.upper) == n):
            raise ValueError("values, names and bounds must have equal length")
        lo, hi, v = (np.asarray(t, dtype=float) for t in (self.lower, self.upper, self.values))
        if np.any(lo > hi):
            raise ValueError("lower bound exceeds upper bound")
        if np.any(np.isnan(v)):
            raise ValueError("parameter values must not be NaN")
        slack = 1e-9 * np.maximum(1.0, np.abs(v))
        if np.any(v < lo - slack) or np.any(v > hi + slack):
            bad = [self.names[i] for i in np.nonzero((v < lo - slack) | (v > hi + slack))[0]]
            raise ValueError(f"parameters outside box bounds: {bad}")

    @property
    def dim(self) -> int:
        return len(self.values)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def boundary_active(self) -> tuple[bool, ...]:
        """Which components sit within ``_FACE_TOL`` (relative) of a box face."""
        v, lo, hi = self.array, np.asarray(self.lower), np.asarray(self.upper)
        near_lo = v - lo <= _FACE_TOL * np.maximum(1.0, np.abs(lo))
        near_hi = hi - v <= _FACE_TOL * np.maximum(1.0, np.abs(hi))
        return tuple(bool(b) for b in near_lo | near_hi)

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.names, self.values))


def as_array(theta) -> np.ndarray:
    """Accept a ParamVector or any array-like and return a 1-d float array."""
    if isinstance(theta, ParamVector):
        return theta.array
    return np.asarray(theta, dtype=float).ravel()
