"""The stencil operators: one builder for every list of nodes and conductance field.

All operators in the package live on the 2N-point stencil.  An edge between
lattice neighbors i, j with conductance c_e contributes
``c_e * (u_i - u_j)^2 * h^(N-2)`` to the quadratic energy.  A run keeps each
conductance field as a :func:`conductance_table`, its diagonal summed once, from
which :func:`stencil_matrices` builds a component's K0 and K_w, which substitute
u = 0 at every other node; :func:`lattice_product` multiplies a field, pinned
values included, by the stencil over the whole lattice, with no matrix.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid


def _axis_slices(ndim: int, axis: int):
    lo, hi = [slice(None)] * ndim, [slice(None)] * ndim
    lo[axis], hi[axis] = slice(None, -1), slice(1, None)
    return tuple(lo), tuple(hi)


def conductance_table(grid: Grid, conductances, scale: float) -> np.ndarray:
    """Entry [k, i], k < N: ``conductances[k] * scale`` on the edge from flat node i up axis k.

    It is 0 past the far face, where no such edge is, and on the edges with
    no interior endpoint, which no operator holds.  Row N is the stencil's
    diagonal: for k = 0 ... N-1, node i's edge up axis k, then its edge down.
    """
    table, interior = np.zeros((grid.ndim + 1,) + grid.shape), grid.interior_mask
    for axis, conductance in enumerate(conductances):
        lo, hi = _axis_slices(grid.ndim, axis)
        table[axis][lo] = np.where(interior[lo] | interior[hi], conductance * scale, 0.0)
        table[-1] += table[axis]
        table[-1][hi] += table[axis][lo]
    return table.reshape(grid.ndim + 1, -1)


def edge_conductances(grid: Grid, values: np.ndarray) -> np.ndarray:
    """The weight's :func:`conductance_table`: arithmetic means of ``values``, by h^(N-2).

    The arithmetic mean keeps an edge conductive when only one endpoint
    value vanishes, so the operator decouples exactly across the pinned
    zero set and nowhere else.
    """
    means = (0.5 * (values[lo] + values[hi])  # one axis at a time
             for lo, hi in (_axis_slices(grid.ndim, axis) for axis in range(grid.ndim)))
    return conductance_table(grid, means, grid.h ** (grid.ndim - 2))


def dirichlet_conductances(grid: Grid) -> np.ndarray:
    """The Laplacian's :func:`conductance_table`: unit conductances over h^2.

    An edge crossing the domain boundary at theta*h from its inside end has
    conductance 1/theta, so the zero condition sits on the true boundary
    rather than on the pinned lattice ring.
    """
    conductances = [1.0 / theta for theta in boundary_cut_fractions(grid)]
    return conductance_table(grid, conductances, 1.0 / grid.h ** 2)


def stencil_matrices(grid: Grid, nodes: np.ndarray, *tables) -> list:
    """The CSR stencil matrix of each :func:`conductance_table` over ``nodes``, on one pattern.

    Row and column k belong to ``nodes[k]``; an edge to a node off the list is
    in the table's diagonal only.  Entries 0 in every table are left out.  The
    matrices share one int32 ``indptr`` and ``indices``, ascending in each
    row when ``nodes`` ascend.
    """
    from scipy import sparse  # here, not at module top: verify and report build no matrix
    ndim, local = grid.ndim, np.full(grid.interior_mask.size, -1, dtype=np.int32)
    local[nodes] = np.arange(nodes.size, dtype=np.int32)
    # A row's slots, in column order: -axis 0, ..., -axis N-1, itself, +axis N-1, ..., +axis 0.
    values = np.zeros((len(tables), nodes.size, 2 * ndim + 1))
    values[:, :, ndim] = [table[-1][nodes] for table in tables]
    columns = np.tile(local[nodes][:, None], 2 * ndim + 1)
    for axis, stride in enumerate(grid.n ** np.arange(ndim - 1, -1, -1)):
        # Past a face every table is 0: at a far-face node, and where a near one's index wraps.
        ahead, behind = (np.mod(nodes + step, local.size) for step in (stride, -stride))
        columns[:, axis], columns[:, 2 * ndim - axis] = local[behind], local[ahead]
        for band, table in zip(values, tables):
            band[:, axis], band[:, 2 * ndim - axis] = -table[axis][behind], -table[axis][nodes]
    present = (values != 0.0).any(axis=0) & (columns >= 0)
    indptr = np.concatenate([[0], np.cumsum(present.sum(axis=1))]).astype(np.int32)
    indices = columns[present]
    return [sparse.csr_matrix((band[present], indices, indptr), shape=(nodes.size,) * 2)
            for band in values]


def lattice_product(grid: Grid, table: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``table``'s stencil over the lattice times ``values``, by slices: each row sums its
    terms in :func:`stencil_matrices`' slot order, the diagonal the table's last row, so a
    row with no edge of conductance 0 equals the CSR product bit for bit, up to zero signs."""
    u, rows = np.reshape(values, grid.shape), np.reshape(table, (grid.ndim + 1,) + grid.shape)
    product = np.zeros(grid.shape)
    edges = list(zip(rows, (_axis_slices(grid.ndim, axis) for axis in range(grid.ndim))))
    with np.errstate(invalid="ignore", over="ignore"):  # silent as CSR: 0 conductance * inf
        for edge, (lo, hi) in edges:
            product[hi] -= edge[lo] * u[lo]
        product += rows[-1] * u
        for edge, (lo, hi) in edges[::-1]:
            product[lo] -= edge[lo] * u[hi]
    return product


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
            tlo, thi = np.where(inside, mid, tlo), np.where(inside, thi, mid)
        theta[cut] = np.maximum(0.5 * (tlo + thi), 1e-8)
    fractions = [np.ones(cross.shape) for cross in crossings]
    for fraction, cross, part in zip(fractions, crossings, np.split(
            theta, np.cumsum([len(x) for x in inner])[:-1])):
        fraction[cross] = part
    return fractions
