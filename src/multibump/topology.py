"""Connected-component decomposition of the domain minus the zero set.

Removing the zero set of the weight splits the domain into chi components;
the solution count of the full problem is 2^chi - 1.  Components are the
connectivity classes of interior non-zero-set nodes under face adjacency,
which is exactly the coupling graph of the stencil operator, so the
stiffness matrix block-decouples across them.

Each component is classified by the number i of connected manifolds making
up its boundary (its shell of zero-set and Dirichlet nodes), giving the
counts j_i of components with i boundary manifolds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import HypothesisViolationError
from .grid import Grid
from .weights import ZeroSet


@dataclass(frozen=True)
class Component:
    """One connected component: its nodes and boundary shell.

    ``id`` is the pair (i, l): i boundary manifolds, l-th such component in
    scan order.  ``nodes`` and ``shell`` are flat lattice indices in C scan
    order.
    """

    id: tuple[int, int]
    nodes: np.ndarray
    shell: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.shell.setflags(write=False)

    @property
    def node_count(self) -> int:
        return int(self.nodes.size)


@dataclass(frozen=True)
class Decomposition:
    components: list[Component]
    chi: int
    j_counts: dict[int, int]


def _count_boundary_manifolds(shell_mask: np.ndarray, grid: Grid) -> int:
    # Thin shells step diagonally along curved manifolds; a radius-1
    # dilation bridges those gaps before counting face-connected pieces.
    grown = ndimage.binary_dilation(shell_mask, structure=np.ones((3,) * grid.ndim, bool))
    _, count = ndimage.label(grown, structure=grid.stencil_structure())
    return int(count)


def decompose_components(grid: Grid, zero: ZeroSet) -> Decomposition:
    """Flood-fill decomposition of interior-minus-zero-set nodes.

    Raises a hypothesis (a1) violation when the zero set touches the domain
    boundary or when nothing remains.
    Component ids are deterministic: labels are assigned in C scan order and
    numbered within each boundary-manifold class.
    """
    if zero.touches_domain_boundary:
        raise HypothesisViolationError(
            "a1", "the zero set of the weight reaches the domain boundary")
    free = grid.interior_mask & ~zero.mask
    if not free.any():
        raise HypothesisViolationError("a1", "all interior nodes lie in the zero set")

    labels, chi = ndimage.label(free, structure=grid.stencil_structure())
    raw = []
    for lab in range(1, chi + 1):
        mask = labels == lab
        shell = ndimage.binary_dilation(mask, structure=grid.stencil_structure()) & ~mask
        # Shell nodes are zero-set or Dirichlet nodes by construction: a
        # free interior neighbor would belong to the same component.
        count = _count_boundary_manifolds(shell, grid)
        raw.append((count, np.flatnonzero(mask.ravel()), np.flatnonzero(shell.ravel())))

    j_counts: dict[int, int] = {}
    components = []
    for count, nodes, shell in raw:
        j_counts[count] = j_counts.get(count, 0) + 1
        components.append(Component(id=(count, j_counts[count]), nodes=nodes,
                                    shell=shell))
    components.sort(key=lambda c: c.id)
    return Decomposition(components=components, chi=chi, j_counts=dict(sorted(j_counts.items())))
