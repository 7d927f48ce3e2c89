"""Zero-extension of bumps and enumeration of multi-bump solutions.

A converged bump on one component extends by zero to the whole lattice and
remains a discrete solution, because the stencil decouples across the
pinned zero set.  Any nonempty subset of components therefore sums to a
solution with one bump per member, giving 2^chi - 1 distinct solutions
whose n-bump counts follow the binomial coefficients.

Solutions are stored sparsely (per-component nodal slices keyed by the
subset); dense lattice fields are materialized only on export.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .energy import BumpSolution
from .errors import EnumerationSizeError
from .grid import Grid

ComponentId = tuple[int, int]


def w11_seminorm(values: np.ndarray, grid: Grid) -> float:
    """Discrete unweighted gradient mass sum_edges |u_i - u_j| h^(N-1)."""
    total = 0.0
    for axis in range(grid.ndim):
        total += float(np.sum(np.abs(np.diff(values, axis=axis))))
    return total * grid.h ** (grid.ndim - 1)


@dataclass(frozen=True)
class MultiBumpSolution:
    """Sum of zero-extended bumps over a nonempty component subset."""

    subset: tuple[ComponentId, ...]
    bumps: dict[ComponentId, BumpSolution]
    energy: float

    @property
    def n_bumps(self) -> int:
        return len(self.subset)

    def field(self, grid: Grid) -> np.ndarray:
        """Materialize the dense nodal field (zero off the subset)."""
        values = np.zeros(grid.shape)
        flat = values.ravel()
        for comp_id in self.subset:
            bump = self.bumps[comp_id]
            flat[bump.nodes] = bump.values
        return values

    def label(self) -> str:
        return "+".join(f"({i},{l})" for i, l in self.subset)


def enumerate_all(bumps: dict[ComponentId, BumpSolution],
                  max_chi: int) -> list[MultiBumpSolution]:
    """All 2^chi - 1 solutions, ordered by (n_bumps, lexicographic subset).

    Refuses chi > max_chi; the n-bump counts equal the binomial
    coefficients by construction.
    """
    chi = len(bumps)
    if chi > max_chi:
        raise EnumerationSizeError(
            f"chi = {chi} would enumerate 2^{chi} - 1 solutions; "
            f"the guard max_chi (--max-chi) is {max_chi}")
    ids = sorted(bumps)
    return [MultiBumpSolution(subset=subset, bumps={c: bumps[c] for c in subset},
                              energy=float(sum(bumps[c].energy for c in subset)))
            for n in range(1, chi + 1) for subset in combinations(ids, n)]

