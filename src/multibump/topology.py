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

from .grid import Grid, dilate


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


def face_labels(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """Face-connected pieces of ``mask``, numbered from 1 in C scan order of
    their first node as ``scipy.ndimage.label`` numbers them, and their count."""
    # The graph's vertices are the runs of nodes along the last axis; a layer
    # of False past each far face ends every run with its row.
    lattice = tuple(slice(n) for n in mask.shape)
    padded = np.zeros([n + 1 for n in mask.shape], dtype=bool)
    padded[lattice] = mask
    flat = padded.ravel()
    start, end = flat.copy(), flat.copy()
    start[1:] &= ~flat[:-1]
    end[:-1] &= ~flat[1:]
    begin = np.flatnonzero(start)
    # Runs one step apart along another axis overlap where one of them starts.
    edges = []
    for step in padded.strides[:-1]:
        i = np.flatnonzero(flat[:-step] & flat[step:] & (start[:-step] | start[step:]))
        a, b = (np.searchsorted(begin, j, "right") - 1 for j in (i, i + step))
        edges += [(a, b), (b, a)]
    src, dst = (np.concatenate(ends) for ends in zip(*edges))
    order, runs = np.argsort(src), begin.size
    from scipy.sparse import csgraph, csr_array  # here, not at module top: verify needs no scipy
    graph = csr_array((np.ones(src.size), dst[order],
                       np.searchsorted(src[order], np.arange(runs + 1))), shape=(runs, runs))
    # The graph is symmetric, so its strong components are the pieces, found
    # and numbered in the order of their first run.
    count, piece = csgraph.connected_components(graph, connection="strong")
    labels = np.zeros(flat.size, dtype=np.int32)
    labels[flat] = np.repeat(piece + 1, np.flatnonzero(end) - begin + 1)
    return labels.reshape(padded.shape)[lattice], count


def decompose_components(grid: Grid, zero: np.ndarray) -> Decomposition:
    """Flood-fill decomposition of the interior nodes off the zero-set mask ``zero``.

    Component ids are deterministic: labels are assigned in C scan order and
    numbered within each boundary-manifold class.
    """
    free = grid.interior_mask & ~zero

    labels, chi = face_labels(free)
    j_counts: dict[int, int] = {}
    components = []
    for lab in range(1, chi + 1):
        mask = labels == lab
        shell = dilate(mask) & ~mask
        # Shell nodes are zero-set or Dirichlet nodes by construction: a
        # free interior neighbor would belong to the same component.  Thin
        # shells step diagonally along curved manifolds; a radius-1 dilation
        # bridges those gaps before counting face-connected pieces.
        count = face_labels(dilate(shell, box=True))[1]
        j_counts[count] = j_counts.get(count, 0) + 1
        nodes, shell = np.flatnonzero(mask.ravel()), np.flatnonzero(shell.ravel())
        components.append(Component(id=(count, j_counts[count]), nodes=nodes, shell=shell))
    components.sort(key=lambda c: c.id)
    return Decomposition(components=components, chi=chi, j_counts=dict(sorted(j_counts.items())))
