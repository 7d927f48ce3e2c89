"""The run's thresholds: every tolerance a stage checks against, with its default.

A configuration's ``tolerances`` block overrides these fields by name, and
each stage function takes the one :class:`ToleranceConfig` of its run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real


def is_count(value, low: int) -> bool:
    """True for an integer of at least ``low``; a bool or a float is not one."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def real(value, name: str) -> float:
    """``value`` as a float if it is a finite real number; a bool or a string is not one."""
    if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be finite and real, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ToleranceConfig:
    zero_threshold: float = 1e-6
    zero_band: float = 0.75
    grad_tol_scale: float = 1e-8
    residual_tol_scale: float = 1e-6
    bounds_tol: float = 1e-8
    zero_trace_tol: float = 0.0
    eig_tol: float = 1e-8
    eig_max_iter: int = 500
    max_minimize_iterations: int = 100000
    seed_min_exponent: int = 30

    def __post_init__(self):
        positive = ("zero_threshold", "zero_band", "grad_tol_scale",
                    "residual_tol_scale", "eig_tol")
        nonnegative = ("bounds_tol", "zero_trace_tol")
        for name in positive + nonnegative:
            object.__setattr__(self, name, real(getattr(self, name), f"tolerance {name}"))
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"tolerance {name} must be positive")
        for name in nonnegative:
            if getattr(self, name) < 0:
                raise ValueError(f"tolerance {name} must be nonnegative")
        if self.zero_threshold >= 1:
            raise ValueError("tolerance zero_threshold must be below 1")
        for name, low in (("eig_max_iter", 1), ("max_minimize_iterations", 1),
                          ("seed_min_exponent", 0)):
            if not is_count(getattr(self, name), low):
                raise ValueError(f"tolerance {name} must be an integer >= {low}")
