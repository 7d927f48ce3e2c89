"""The discrete weighted diffusion operator, assembled once per conductance field.

All operators in the package live on the 2N-point stencil.  An edge between
lattice neighbors i, j with conductance c_e contributes
``c_e * (u_i - u_j)^2 * h^(N-2)`` to the quadratic energy.  One sparse
matrix L over the whole lattice, ``(L u)_i = sum_j c_e (u_i - u_j) h^(N-2)``,
serves every use of it:

* the stiffness matrix over a set of unknowns is the restriction
  ``L[nodes][:, nodes]``, which substitutes u = 0 at every other node;
* the residual of a lattice field is the product ``L @ u``, in which the
  field supplies its own values at pinned nodes.
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


def lattice_operator(grid: Grid, conductances: list[np.ndarray],
                     scale: float | None = None) -> sparse.csr_matrix:
    """The edge operator over the whole lattice, CSR in C scan order.

    Holds only the edges with at least one interior endpoint, the only
    edges a restriction to interior nodes or a residual read at one ever
    touches, and drops those of zero conductance, which add nothing.  Rows
    list their columns in ascending order; the index arrays are int32.  ``scale`` defaults to ``h^(N-2)``, the energy normalization.
    """
    if scale is None:
        scale = grid.h ** (grid.ndim - 2)
    ndim, n, size = grid.ndim, grid.n, grid.interior_mask.size
    interior = grid.interior_mask
    # Column k of a node's row in ``band`` holds its coupling to the node at
    # offsets[k]: -axis 0, ..., -axis N-1, itself, +axis N-1, ..., +axis 0.
    offsets = np.array([-n ** (ndim - 1 - k) for k in range(ndim)] + [0]
                       + [n ** k for k in range(ndim)], dtype=np.int32)
    band = np.zeros(grid.shape + (offsets.size,))
    for axis, conductance in enumerate(conductances):
        lo, hi = _axis_slices(ndim, axis)
        c = np.where(interior[lo] | interior[hi], conductance * scale, 0.0)
        band[lo + (ndim,)] += c
        band[hi + (ndim,)] += c
        band[lo + (2 * ndim - axis,)] = -c
        band[hi + (axis,)] = -c
    band = band.reshape(size, -1)
    present = band != 0.0
    columns = np.arange(size, dtype=np.int32)[:, None] + offsets
    indptr = np.concatenate([[0], np.cumsum(present.sum(axis=1))]).astype(np.int32)
    return sparse.csr_matrix((band[present], columns[present], indptr),
                             shape=(size, size))


def boundary_cut_fractions(grid: Grid) -> list[np.ndarray]:
    """Fractional edge lengths theta for edges crossing the domain boundary.

    For an edge with one endpoint inside the domain and one outside, theta
    in (0, 1] locates the boundary crossing at distance theta*h from the
    inside endpoint.  An outside endpoint on the boundary (phi == 0) gives
    theta = 1 exactly; the other crossings of all axes are bisected together
    on the membership function.  Edges that do not cross carry theta = 1.
    Every crossing of a box ends on its boundary, so a box has no cut
    correction at all.
    """
    phi = grid.domain.membership_function()
    pts, member = grid.points(), grid.interior_mask
    crossings, inner, outer = [], [], []
    for axis in range(grid.ndim):
        lo, hi = _axis_slices(grid.ndim, axis)
        cross = member[lo] ^ member[hi]
        inside_lo = member[lo][cross][:, None]
        inner.append(np.where(inside_lo, pts[lo][cross], pts[hi][cross]))
        outer.append(np.where(inside_lo, pts[hi][cross], pts[lo][cross]))
        crossings.append(cross)
    a, b = np.concatenate(inner), np.concatenate(outer)
    theta = np.ones(len(a))
    cut = phi(b) != 0.0
    if cut.any():
        a, ab = a[cut], b[cut] - a[cut]
        tlo, thi = np.zeros(len(a)), np.ones(len(a))
        for _ in range(50):
            mid = 0.5 * (tlo + thi)
            inside = phi(a + mid[:, None] * ab) < 0.0
            tlo = np.where(inside, mid, tlo)
            thi = np.where(inside, thi, mid)
        theta[cut] = np.maximum(0.5 * (tlo + thi), 1e-8)
    fractions = [np.ones(cross.shape) for cross in crossings]
    for fraction, cross, part in zip(fractions, crossings, np.split(
            theta, np.cumsum([len(x) for x in inner])[:-1])):
        fraction[cross] = part
    return fractions
