"""Connected-component decomposition of the domain minus the zero set.

Removing the zero set of the weight splits the domain into chi components;
the solution count of the full problem is 2^chi - 1.  Components are the
connectivity classes of interior non-zero-set nodes under face adjacency,
which is exactly the coupling graph of the stencil operator, so the
stiffness matrix block-decouples across them.

Each component is classified by the number i of connected manifolds making
up its boundary: the box-connected pieces of pinned (zero-set or off-interior)
nodes that its shell meets.  j_i counts the components with i such manifolds.
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
    regions: int  # 1 + the pinned pieces two or more components meet; chi unless cut up


def face_labels(mask: np.ndarray, box: bool = False) -> tuple[np.ndarray, int]:
    """Face-connected pieces of ``mask`` (with ``box``, joined across the 3^N box),
    numbered from 1 in C scan order of their first node as ``scipy.ndimage.label``
    numbers them, and their count."""
    # The graph's vertices are the runs of nodes along the last axis; a layer
    # of False before and past each face ends every run with its row, and
    # holds every step off the lattice.
    lattice = tuple(slice(1, n + 1) for n in mask.shape)
    padded = np.zeros([n + 2 for n in mask.shape], dtype=bool)
    padded[lattice] = mask
    flat = padded.ravel()
    start, end = flat.copy(), flat.copy()
    start[1:] &= ~flat[:-1]
    end[:-1] &= ~flat[1:]
    begin = np.flatnonzero(start)
    # Runs in two rows overlap where one of them starts.  In a box, runs in
    # neighbouring rows touch one node back from the first one's start, or
    # straight across or one node back from the second one's start.
    rows = padded.strides[:-1]
    steps = [sign * row for row in rows for sign in (1, -1)]
    if box:
        rows = [r for d in np.ndindex((3,) * len(rows)) if (r := np.dot(np.subtract(d, 1), rows))]
        steps = [r - 1 for r in rows] + [r for r in rows if r < 0]
    src = [np.flatnonzero(flat[begin + step]) for step in steps]
    dst = [np.searchsorted(begin, begin[a] + step, "right") - 1 for a, step in zip(src, steps)]
    src, dst = np.concatenate(src), np.concatenate(dst)
    order, runs = np.argsort(src, kind="stable"), begin.size  # merges the sorted steps
    from scipy.sparse import csgraph, csr_array  # here, not at module top: verify needs no scipy
    graph = csr_array((np.ones(src.size), dst[order],
                       np.searchsorted(src[order], np.arange(runs + 1))), shape=(runs, runs))
    # Edges point one way, some of them twice, so the pieces are the weak
    # components, found and numbered in the order of their first run.
    count, piece = csgraph.connected_components(graph, connection="weak")
    labels = np.zeros(flat.size, dtype=np.int32)
    labels[flat] = np.repeat(piece + 1, np.flatnonzero(end) - begin + 1)
    return labels.reshape(padded.shape)[lattice], count


def decompose_components(grid: Grid, zero: np.ndarray) -> Decomposition:
    """Flood-fill decomposition of the interior nodes off the zero-set mask ``zero``.

    A component's i counts the box-connected pieces of the pinned nodes
    ``~free`` that its shell meets: a thin band's diagonal steps stay one
    manifold, and a face-connected component keeps the manifolds on its two
    sides apart.
    """
    free = grid.interior_mask & ~zero
    labels, chi = face_labels(free)
    pinned, pieces = face_labels(~free, box=True)
    meets = np.zeros(pieces + 1, int)  # components meeting each piece
    j_counts: dict[int, int] = {}
    components = []
    for lab in range(1, chi + 1):
        mask = labels == lab
        shell = dilate(mask) & ~mask
        met = np.unique(pinned[shell])
        meets[met] += 1
        count = met.size
        j_counts[count] = j_counts.get(count, 0) + 1
        nodes, shell = np.flatnonzero(mask.ravel()), np.flatnonzero(shell.ravel())
        components.append(Component(id=(count, j_counts[count]), nodes=nodes, shell=shell))
    components.sort(key=lambda c: c.id)
    return Decomposition(components=components, chi=chi, j_counts=dict(sorted(j_counts.items())),
                         regions=1 + int(np.count_nonzero(meets >= 2)))
