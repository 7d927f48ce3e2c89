"""Discrete weak-solution verification of candidate fields.

A candidate field is a discrete weak solution when the stationarity defect

    r_i = (K_w u)_i - f(u_i) h^N

vanishes at every interior node outside the zero set; nodal indicator
functions at those nodes are the discrete counterpart of test functions
supported away from the degeneracy.  The residual is measured in max-norm,
and the qualitative conclusions (nonnegativity, the upper bound s*, zero
trace on the zero set and the Dirichlet ring) are enforced as verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .assembly import lattice_product
from .composition import w11_seminorm
from .energy import NonlinearitySpec
from .grid import Grid
from .tolerances import ToleranceConfig
from .weights import WeightField


def weak_residual(values: np.ndarray, field: WeightField, f: Callable,
                  grid: Grid, zero: np.ndarray) -> float:
    """Max-norm stationarity defect over interior nodes off the zero set, formed there only.

    K_w u is :func:`~multibump.assembly.lattice_product`; ``f`` is any callable
    s -> f(s) returning an array, such as :meth:`NonlinearitySpec.f` or a
    manufactured linear reaction.  The field supplies its own values at
    pinned nodes, so extended and composed candidates verify directly.
    """
    where = grid.interior_mask & ~zero
    u = np.reshape(values, grid.shape)[where]
    residual = lattice_product(grid, field.conductances, values)[where] - f(u) * grid.cell_volume
    return float(np.max(np.abs(residual)))


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
                      nonlinearity: NonlinearitySpec, grid: Grid, zero: np.ndarray,
                      tol: ToleranceConfig = ToleranceConfig()) -> VerificationReport:
    """Populate the full verification report for one candidate field."""
    return conclusions(values, weak_residual(values, field, nonlinearity.f, grid, zero),
                       nonlinearity, grid, zero, tol)


def conclusions(values: np.ndarray, residual: float, nonlinearity: NonlinearitySpec, grid: Grid,
                zero: np.ndarray, tol: ToleranceConfig = ToleranceConfig()) -> VerificationReport:
    """The verification report of a field whose weak residual is ``residual``.

    The residual passes up to ``residual_tol_scale * gamma * s* * h^N``,
    one nodal load's worth; the bounds up to ``bounds_tol`` outside
    [0, s*]; the trace on the zero set and the Dirichlet ring up to
    ``zero_trace_tol``.
    """
    s_star = nonlinearity.s_star
    residual_tol = tol.residual_tol_scale * nonlinearity.gamma * s_star * grid.cell_volume
    pinned = zero | grid.boundary_mask
    zero_trace = float(np.max(np.abs(values[pinned]))) if pinned.any() else 0.0
    vmin = float(np.min(values))
    vmax = float(np.max(values))
    verdicts = {
        "residual": residual <= residual_tol,
        "nonnegative": vmin >= -tol.bounds_tol,
        "upper_bound": vmax <= s_star + tol.bounds_tol,
        "zero_trace": zero_trace <= tol.zero_trace_tol,
    }
    return VerificationReport(residual_norm=residual, min_value=vmin, max_value=vmax,
                              zero_trace_max=zero_trace,
                              w11_seminorm=w11_seminorm(values, grid),
                              verdicts=verdicts)
