"""Independent oracles the test suite checks the solver against.

These deliberately avoid the code paths under test: the reference
operator is assembled one stencil edge at a time, the eigenvalue oracles
are a dense symmetric eigensolve of it and shift-invert Lanczos (a sparse LU
solve per step), the bump oracle solves the semilinear problem by damped fixed-point iteration with direct sparse factorizations,
the primitive of the logistic default is its closed form, box and ball
domains are their closed-form distances in numpy, a radial or product weight is its
product of radial profiles, each piece evaluated on its own interval, and the reference
writers format every lattice node one at a time.  The cut fractions have two references: every
crossing bisected alone, and one vectorized bisection per axis.  The remaining helpers are
checks only the tests need: the Cauchy-Schwarz gradient-mass bound, the
n-bump histograms and the nodal residual field.
"""

from __future__ import annotations

from math import comb

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigsh, splu

from multibump.assembly import boundary_cut_fractions
from multibump.composition import MultiBumpSolution
from multibump.energy import DiscreteEnergy, NonlinearitySpec
from multibump.grid import Grid
from multibump.topology import Component
from multibump.weights import WeightField


def reference_operator(conductances: list[np.ndarray], grid: Grid,
                       scale: float) -> sparse.csr_matrix:
    """The edge operator over the whole lattice, assembled one edge at a time.

    Each stencil edge (i, j) with conductance c adds c*scale to entries
    (i, i) and (j, j) and subtracts it from (i, j) and (j, i).
    """
    node = np.arange(grid.interior_mask.size).reshape(grid.shape)
    entries: dict[tuple[int, int], float] = {}
    for axis, conductance in enumerate(conductances):
        for lo in np.ndindex(conductance.shape):
            hi = tuple(k + (d == axis) for d, k in enumerate(lo))
            i, j = int(node[lo]), int(node[hi])
            w = float(conductance[lo]) * scale
            for key, value in (((i, i), w), ((j, j), w), ((i, j), -w), ((j, i), -w)):
                entries[key] = entries.get(key, 0.0) + value
    rows, cols = zip(*entries)
    return sparse.csr_matrix((list(entries.values()), (rows, cols)),
                             shape=(node.size, node.size))


def mean_conductances(values: np.ndarray) -> list[np.ndarray]:
    """The arithmetic mean of each stencil edge's end values, one array per axis."""
    return [0.5 * (np.delete(values, -1, axis) + np.delete(values, 0, axis))
            for axis in range(values.ndim)]


def weighted_reference_operator(field: WeightField, grid: Grid) -> sparse.csr_matrix:
    """:func:`reference_operator` of the weight's arithmetic-mean conductances."""
    return reference_operator(mean_conductances(field.values), grid,
                              grid.h ** (grid.ndim - 2))


def laplacian_reference_operator(grid: Grid) -> sparse.csr_matrix:
    """:func:`reference_operator` of the cut-corrected unit conductances, over h^2."""
    return reference_operator([1.0 / theta for theta in boundary_cut_fractions(grid)],
                              grid, 1.0 / grid.h ** 2)


def bisected_cut_fractions(grid: Grid) -> list[np.ndarray]:
    """Cut fraction of each edge, every crossing bisected one at a time.

    Fifty halvings of [0, 1] on the membership function from the inside
    endpoint, the outside endpoint's position included even when it lies
    on the boundary; edges that do not cross carry 1.
    """
    phi = grid.domain.membership_function()
    points, member = grid.points(), grid.interior_mask
    fractions = []
    for axis in range(grid.ndim):
        theta = np.ones(tuple(n - (d == axis) for d, n in enumerate(grid.shape)))
        for lo in np.ndindex(theta.shape):
            hi = tuple(k + (d == axis) for d, k in enumerate(lo))
            if member[lo] == member[hi]:
                continue
            a, b = (points[lo], points[hi]) if member[lo] else (points[hi], points[lo])
            t_in, t_out = 0.0, 1.0
            for _ in range(50):
                mid = 0.5 * (t_in + t_out)
                if phi((a + mid * (b - a))[None])[0] < 0.0:
                    t_in = mid
                else:
                    t_out = mid
            theta[lo] = max(0.5 * (t_in + t_out), 1e-8)
        fractions.append(theta)
    return fractions


def per_axis_cut_fractions(grid: Grid) -> list[np.ndarray]:
    """Cut fraction of each edge, one vectorized bisection per axis.

    The crossings of each axis are bisected fifty times on the membership
    function from their inside ends; an outside end on the boundary
    (phi == 0) gives 1 exactly, as do edges that do not cross.
    """
    phi = grid.domain.membership_function()
    points, member = grid.points(), grid.interior_mask
    fractions = []
    for axis in range(grid.ndim):
        lo = tuple(slice(None, -1) if d == axis else slice(None) for d in range(grid.ndim))
        hi = tuple(slice(1, None) if d == axis else slice(None) for d in range(grid.ndim))
        theta = np.ones(member[lo].shape)
        cross = member[lo] ^ member[hi]
        inside_lo = member[lo][cross][:, None]
        a = np.where(inside_lo, points[lo][cross], points[hi][cross])
        b = np.where(inside_lo, points[hi][cross], points[lo][cross])
        cut = phi(b) != 0.0
        a, b = a[cut], b[cut]
        t_in, t_out = np.zeros(len(a)), np.ones(len(a))
        for _ in range(50):
            mid = 0.5 * (t_in + t_out)
            inside = phi(a + mid[:, None] * (b - a)) < 0.0
            t_in, t_out = np.where(inside, mid, t_in), np.where(inside, t_out, mid)
        theta.flat[np.flatnonzero(cross)[cut]] = np.maximum(0.5 * (t_in + t_out), 1e-8)
        fractions.append(theta)
    return fractions


def box_phi(lo, hi):
    """Max-norm distance to the box [lo, hi], negative inside, on points (..., N)."""
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    return lambda points: np.maximum(np.max(lo - points, axis=-1),
                                     np.max(points - hi, axis=-1))


def ball_phi(center, radius: float):
    """Euclidean distance to the sphere about ``center``, negative inside."""
    center = np.asarray(center, float)
    return lambda points: np.linalg.norm(points - center, axis=-1) - radius


def radial_profile_product(scale: float, profiles, points: np.ndarray) -> np.ndarray:
    """``scale * prod_k p_k(|x - c_k|)`` at ``points`` (..., N), the closed form of a
    radial or product weight, evaluated piece by piece on its own interval.

    ``profiles`` holds ``(c_k, pieces_k)``; the pieces ``(r_max, p)`` cover
    [0, r_1], (r_1, r_2], ... with ``p`` a numpy function of r, and r is
    clamped to the last ``r_max``.  ``|x - c|`` is ``np.linalg.norm``.
    """
    out = np.full(points.shape[:-1], scale)
    for center, pieces in profiles:
        r = np.minimum(np.linalg.norm(points - np.asarray(center), axis=-1), pieces[-1][0])
        profile, r_lo = np.empty_like(r), -np.inf
        for r_hi, p in pieces:
            inside = (r > r_lo) & (r <= r_hi)
            profile[inside] = p(r[inside])
            r_lo = r_hi
        out = out * profile
    return out


def dense_lambda1(component: Component, grid: Grid) -> float:
    """Smallest Dirichlet eigenvalue by dense symmetric eigensolve."""
    nodes = component.nodes
    K = laplacian_reference_operator(grid)[nodes][:, nodes]
    return float(np.linalg.eigvalsh(K.toarray())[0])


def shift_invert_lambda1(K) -> float:
    """Smallest eigenvalue of the sparse SPD ``K`` by shift-invert Lanczos about 0."""
    return float(eigsh(K.tocsc(), k=1, sigma=0.0, which="LM", tol=1e-14)[0][0])


def damped_fixed_point(energy: DiscreteEnergy, seed: np.ndarray,
                       damping: float = 0.5, tol: float = 1e-12,
                       max_iter: int = 200000) -> np.ndarray:
    """Solve K u = f*(u) h^N by damped Picard iteration with LU solves."""
    lu = splu(energy.K.tocsc())
    hN = energy.cell_volume
    u = seed.copy()
    for _ in range(max_iter):
        nxt = (1.0 - damping) * u + damping * lu.solve(energy.trunc.F_and_f_star(u)[1] * hN)
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


def holder_bound_report(values: np.ndarray, field: WeightField, grid: Grid) -> dict:
    """Cauchy-Schwarz control of the gradient mass by the weighted energy.

    Over the edges where the extended bump varies,

        sum |du| h^(N-1)  <=  sqrt(sum h^N / c_e) * sqrt(sum c_e du^2 h^(N-2)),

    the discrete form of bounding the W^(1,1) seminorm through the
    reciprocal weight mass and the weighted Dirichlet energy.
    """
    hN = grid.cell_volume
    w11 = 0.0
    reciprocal_mass = 0.0
    energy_quad = 0.0
    for axis in range(grid.ndim):
        du = np.diff(values, axis=axis)
        active = du != 0.0
        if not active.any():
            continue
        c = mean_conductances(field.values)[axis][active]
        d = np.abs(du[active])
        w11 += float(np.sum(d)) * grid.h ** (grid.ndim - 1)
        reciprocal_mass += float(np.sum(hN / c))
        energy_quad += float(np.sum(c * d ** 2)) * grid.h ** (grid.ndim - 2)
    bound = float(np.sqrt(reciprocal_mass * energy_quad))
    return {
        "w11_seminorm": w11,
        "reciprocal_mass": reciprocal_mass,
        "weighted_energy": energy_quad,
        "bound": bound,
        "satisfied": w11 <= bound * (1.0 + 1e-12),
    }


def bump_histogram(solutions: list[MultiBumpSolution]) -> dict[int, int]:
    hist: dict[int, int] = {}
    for sol in solutions:
        hist[sol.n_bumps] = hist.get(sol.n_bumps, 0) + 1
    return dict(sorted(hist.items()))


def expected_histogram(chi: int) -> dict[int, int]:
    return {n: comb(chi, n) for n in range(1, chi + 1)}


def residual_field(values: np.ndarray, field: WeightField,
                   nonlinearity: NonlinearitySpec, grid: Grid) -> np.ndarray:
    """Nodal stationarity defect on the full lattice."""
    operator = weighted_reference_operator(field, grid) @ values.ravel()
    return operator.reshape(grid.shape) - nonlinearity.f(values) * grid.cell_volume
