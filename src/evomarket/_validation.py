"""Input validation helpers used by the public entry points."""

from __future__ import annotations

import numpy as np


def as_float_array(values, name: str) -> np.ndarray:
    """Coerce to a 1-d float array, rejecting non-finite entries."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def check_positive(value: float, name: str) -> float:
    value = float(value)
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_nonnegative(value: float, name: str) -> float:
    value = float(value)
    if not value >= 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def check_unit_interval(value: float, name: str) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value

