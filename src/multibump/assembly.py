"""Edge-based assembly of the discrete weighted diffusion operator.

All operators in the package live on the 2N-point stencil.  An edge between
lattice neighbors i, j with conductance c_e contributes
``c_e * (u_i - u_j)^2 * h^(N-2)`` to the quadratic energy, so the operator
acting on unknowns is ``(K u)_i = sum_j c_e (u_i - u_j) h^(N-2)`` with u = 0
substituted at pinned (non-unknown) endpoints.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .grid import Grid


def _axis_slices(ndim: int, axis: int):
    left = [slice(None)] * ndim
    right = [slice(None)] * ndim
    left[axis] = slice(None, -1)
    right[axis] = slice(1, None)
    return tuple(left), tuple(right)


def edge_conductances(values: np.ndarray) -> list[np.ndarray]:
    """Arithmetic-mean conductance per stencil edge, one array per axis.

    The arithmetic mean keeps an edge conductive when only one endpoint
    value vanishes, so the operator decouples exactly across the pinned
    zero set and nowhere else.
    """
    conds = []
    for axis in range(values.ndim):
        lo, hi = _axis_slices(values.ndim, axis)
        conds.append(0.5 * (values[lo] + values[hi]))
    return conds


def unit_conductances(grid: Grid) -> list[np.ndarray]:
    return edge_conductances(np.ones(grid.shape))


def build_stiffness(grid: Grid, conductances: list[np.ndarray],
                    unknown_mask: np.ndarray, scale: float | None = None):
    """Assemble the operator restricted to ``unknown_mask`` nodes.

    Edges with exactly one unknown endpoint contribute only to the diagonal
    (the other endpoint is pinned to 0).  Returns ``(K, index)`` where K is
    CSR over the unknowns in C scan order and ``index`` maps lattice nodes
    to unknown ranks (-1 elsewhere).

    ``scale`` defaults to ``h^(N-2)``, the energy normalization.
    """
    if scale is None:
        scale = grid.h ** (grid.ndim - 2)
    index = np.full(grid.shape, -1, dtype=np.int64)
    flat = np.flatnonzero(unknown_mask.ravel())
    index.ravel()[flat] = np.arange(flat.size)
    p = flat.size

    rows, cols, vals = [], [], []
    diag = np.zeros(p)
    for axis in range(grid.ndim):
        lo, hi = _axis_slices(grid.ndim, axis)
        c = conductances[axis] * scale
        ia = index[lo].ravel()
        ib = index[hi].ravel()
        ce = c.ravel()
        both = (ia >= 0) & (ib >= 0)
        only_a = (ia >= 0) & (ib < 0)
        only_b = (ia < 0) & (ib >= 0)
        np.add.at(diag, ia[both], ce[both])
        np.add.at(diag, ib[both], ce[both])
        rows.append(ia[both])
        cols.append(ib[both])
        vals.append(-ce[both])
        rows.append(ib[both])
        cols.append(ia[both])
        vals.append(-ce[both])
        np.add.at(diag, ia[only_a], ce[only_a])
        np.add.at(diag, ib[only_b], ce[only_b])

    rows.append(np.arange(p))
    cols.append(np.arange(p))
    vals.append(diag)
    K = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(p, p)).tocsr()
    return K, index


def boundary_cut_fractions(grid: Grid,
                           unknown_mask: np.ndarray | None = None) -> list[np.ndarray]:
    """Fractional edge lengths theta for edges crossing the domain boundary.

    For an edge with one endpoint inside the domain and one outside, theta
    in (0, 1] locates the boundary crossing at distance theta*h from the
    inside endpoint (bisection on the membership function).  Edges that do
    not cross carry theta = 1.  Lattice-aligned boundaries give theta = 1
    exactly, so cut corrections vanish on boxes.

    ``unknown_mask`` (default: every interior node) limits the bisection to
    crossing edges whose inside endpoint it marks; the others keep theta = 1.
    An edge enters :func:`build_stiffness` only through an unknown endpoint,
    so the stiffness over those unknowns is unchanged.
    """
    phi = grid.domain.membership_function()
    pts = grid.points()
    member = grid.interior_mask
    owned = member if unknown_mask is None else unknown_mask
    fractions = []
    for axis in range(grid.ndim):
        lo, hi = _axis_slices(grid.ndim, axis)
        theta = np.ones(member[lo].shape)
        cross = (member[lo] ^ member[hi]) & (owned[lo] | owned[hi])
        if cross.any():
            pl = pts[lo][cross]
            ph = pts[hi][cross]
            inside_lo = member[lo][cross]
            a = np.where(inside_lo[:, None], pl, ph)
            b = np.where(inside_lo[:, None], ph, pl)
            tlo = np.zeros(len(a))
            thi = np.ones(len(a))
            for _ in range(50):
                mid = 0.5 * (tlo + thi)
                inside = phi(a + mid[:, None] * (b - a)) < 0.0
                tlo = np.where(inside, mid, tlo)
                thi = np.where(inside, thi, mid)
            theta[cross] = np.maximum(0.5 * (tlo + thi), 1e-8)
        fractions.append(theta)
    return fractions


def cut_unit_conductances(grid: Grid,
                          unknown_mask: np.ndarray | None = None) -> list[np.ndarray]:
    """Unit conductances with 1/theta scaling on boundary-crossing edges.

    Realizes the zero condition at the true boundary crossing instead of at
    the pinned lattice node; used by the unweighted eigenproblem.  Only the
    edges of ``unknown_mask`` are cut (see :func:`boundary_cut_fractions`).
    """
    conds = unit_conductances(grid)
    for c, theta in zip(conds, boundary_cut_fractions(grid, unknown_mask)):
        c /= theta
    return conds


def apply_operator(values: np.ndarray, conductances: list[np.ndarray],
                   grid: Grid, scale: float | None = None) -> np.ndarray:
    """Apply the edge operator to a full lattice field (no pinning).

    Used for residual evaluation of candidate fields: the field supplies
    its own values at pinned nodes.
    """
    if scale is None:
        scale = grid.h ** (grid.ndim - 2)
    out = np.zeros_like(values, dtype=float)
    for axis in range(grid.ndim):
        lo, hi = _axis_slices(grid.ndim, axis)
        flux = conductances[axis] * (values[lo] - values[hi]) * scale
        out[lo] += flux
        out[hi] -= flux
    return out
