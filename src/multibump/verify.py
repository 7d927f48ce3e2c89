"""Discrete weak-solution verification of candidate fields.

A candidate field is a discrete weak solution when the stationarity defect

    r_i = (K u)_i - f(u_i) h^N

vanishes at every interior node outside the zero set; nodal indicator
functions at those nodes are the discrete counterpart of test functions
supported away from the degeneracy.  The residual is measured in max-norm,
and the qualitative conclusions (nonnegativity, the upper bound s*, zero
trace on the zero set and the Dirichlet ring) are enforced as verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import apply_operator
from .composition import w11_seminorm
from .energy import NonlinearitySpec
from .grid import Grid
from .weights import WeightField, ZeroSet, detect_zero_set


def _reaction(nonlinearity, values: np.ndarray) -> np.ndarray:
    if isinstance(nonlinearity, NonlinearitySpec):
        return nonlinearity.f(values)
    return np.asarray(nonlinearity(values), dtype=float)


def weak_residual(values: np.ndarray, field: WeightField, nonlinearity,
                  grid: Grid, zero: ZeroSet | None = None) -> float:
    """Max-norm stationarity defect over interior nodes off the zero set.

    ``nonlinearity`` is a :class:`NonlinearitySpec` or any callable s -> f(s)
    (e.g. a manufactured linear reaction).  The field supplies its own
    values at pinned nodes, so extended and composed candidates verify
    directly.
    """
    if zero is None:
        zero = detect_zero_set(field, grid)
    operator = apply_operator(values, field.conductances, grid)
    residual = operator - _reaction(nonlinearity, values) * grid.cell_volume
    where = grid.interior_mask & ~zero.mask
    return float(np.max(np.abs(residual[where])))


@dataclass(frozen=True)
class VerifyTolerances:
    """Verdict thresholds; the residual tolerance scales like one nodal load."""

    residual_tol: float
    bounds_tol: float = 1e-8
    zero_trace_tol: float = 0.0

    @classmethod
    def from_problem(cls, gamma: float, s_star: float, grid: Grid,
                     residual_scale: float = 1e-6, bounds_tol: float = 1e-8,
                     zero_trace_tol: float = 0.0) -> "VerifyTolerances":
        return cls(residual_tol=residual_scale * gamma * s_star * grid.cell_volume,
                   bounds_tol=bounds_tol, zero_trace_tol=zero_trace_tol)


@dataclass(frozen=True)
class VerificationReport:
    """Residual, bounds, zero-trace and gradient-mass checks of one field."""

    residual_norm: float
    min_value: float
    max_value: float
    zero_trace_max: float
    w11_seminorm: float
    verdicts: dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())


def check_conclusions(values: np.ndarray, field: WeightField,
                      nonlinearity, grid: Grid, zero: ZeroSet,
                      s_star: float, tolerances: VerifyTolerances) -> VerificationReport:
    """Populate the full verification report for one candidate field."""
    res = weak_residual(values, field, nonlinearity, grid, zero=zero)
    pinned = zero.mask | grid.boundary_mask
    zero_trace = float(np.max(np.abs(values[pinned]))) if pinned.any() else 0.0
    vmin = float(np.min(values))
    vmax = float(np.max(values))
    verdicts = {
        "residual": res <= tolerances.residual_tol,
        "nonnegative": vmin >= -tolerances.bounds_tol,
        "upper_bound": vmax <= s_star + tolerances.bounds_tol,
        "zero_trace": zero_trace <= tolerances.zero_trace_tol,
    }
    return VerificationReport(residual_norm=res, min_value=vmin, max_value=vmax,
                              zero_trace_max=zero_trace,
                              w11_seminorm=w11_seminorm(values, grid),
                              verdicts=verdicts)
