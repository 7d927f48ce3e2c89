"""Independent oracles the test suite checks the solver against.

These deliberately avoid the code paths under test: the eigenvalue oracle
is a dense symmetric eigensolve, the bump oracle solves the semilinear
problem by damped fixed-point iteration with direct sparse factorizations,
the primitive of the logistic default is its closed form, and the reference
writers format every lattice node one at a time.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import splu

from multibump.assembly import build_stiffness, cut_unit_conductances
from multibump.energy import DiscreteEnergy
from multibump.grid import Grid
from multibump.topology import Component


def dense_lambda1(component: Component, grid: Grid) -> float:
    """Smallest Dirichlet eigenvalue by dense symmetric eigensolve."""
    unknown = np.zeros(grid.shape, dtype=bool)
    unknown.ravel()[component.nodes] = True
    K, _ = build_stiffness(grid, cut_unit_conductances(grid), unknown,
                           scale=1.0 / grid.h ** 2)
    return float(np.linalg.eigvalsh(K.toarray())[0])


def damped_fixed_point(energy: DiscreteEnergy, seed: np.ndarray,
                       damping: float = 0.5, tol: float = 1e-12,
                       max_iter: int = 200000) -> np.ndarray:
    """Solve K u = f*(u) h^N by damped Picard iteration with LU solves."""
    lu = splu(energy.K.tocsc())
    hN = energy.cell_volume
    u = seed.copy()
    for _ in range(max_iter):
        nxt = (1.0 - damping) * u + damping * lu.solve(energy.trunc.f_star(u) * hN)
        if float(np.max(np.abs(nxt - u))) < tol:
            return nxt
        u = nxt
    raise RuntimeError("fixed-point oracle did not converge")


def logistic_primitive(s, gamma: float, s_star: float, beta_star: float) -> np.ndarray:
    """Closed-form F* of the truncated logistic default gamma*|s|*(1 - s/s*)."""
    s = np.asarray(s, dtype=float)
    g, ss, bb = gamma, s_star, beta_star
    top = g * ss ** 2 / 6.0
    f_mb = g * bb * (1.0 + bb / ss)
    F_mb = g * (-bb ** 2 / 2.0 - bb ** 3 / (3.0 * ss))
    pos = g * (s ** 2 / 2.0 - s ** 3 / (3.0 * ss))
    neg = g * (-(s ** 2) / 2.0 + s ** 3 / (3.0 * ss))
    mid = np.where(s >= 0.0, pos, neg)
    return np.where(s >= ss, top, np.where(s <= -bb, F_mb + f_mb * (s + bb), mid))


def reference_solution_csv(path, values: np.ndarray, grid: Grid) -> None:
    """Per-node CSV writer: one ``repr`` per coordinate and value."""
    header = ",".join([f"x{d + 1}" for d in range(grid.ndim)] + ["u"])
    points = grid.points().reshape(-1, grid.ndim)
    flat = values.ravel()
    with open(path, "w") as handle:
        handle.write(header + "\n")
        for row, value in zip(points, flat):
            handle.write(",".join(repr(float(c)) for c in row)
                         + f",{float(value)!r}\n")


def reference_solution_vtk(path, values: np.ndarray, grid: Grid) -> None:
    """Per-node legacy-ASCII VTK writer, values in Fortran order."""
    dims = list(grid.shape) + [1] * (3 - grid.ndim)
    origin = list(grid.domain.lo) + [0.0] * (3 - grid.ndim)
    with open(path, "w") as handle:
        handle.write("# vtk DataFile Version 3.0\n")
        handle.write("multibump solution field\n")
        handle.write("ASCII\nDATASET STRUCTURED_POINTS\n")
        handle.write(f"DIMENSIONS {dims[0]} {dims[1]} {dims[2]}\n")
        handle.write(f"ORIGIN {origin[0]!r} {origin[1]!r} {origin[2]!r}\n")
        handle.write(f"SPACING {grid.h!r} {grid.h!r} {grid.h!r}\n")
        handle.write(f"POINT_DATA {values.size}\n")
        handle.write("SCALARS u double 1\nLOOKUP_TABLE default\n")
        for value in values.ravel(order="F"):
            handle.write(f"{float(value)!r}\n")
