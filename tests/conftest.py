import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from multibump import pipeline
from multibump.assembly import dirichlet_conductances, edge_conductances, stencil_matrices
from multibump.energy import BumpSolution, NonlinearitySpec, truncate_nonlinearity
from multibump.grid import DomainSpec, Grid, build_grid
from multibump.topology import Component, decompose_components
from multibump.weights import WeightField, WeightSpec, detect_zero_set, evaluate_weight


@pytest.fixture(autouse=True)
def fresh_setup_memo():
    """Start every test without a remembered pipeline setup.

    Otherwise whether a test rebuilds the grid, weight and zero set would
    depend on which test ran before it.
    """
    pipeline._lattice_setup.cache_clear()


def unit_box(ndim: int = 2) -> DomainSpec:
    return DomainSpec.box((0.0,) * ndim, (1.0,) * ndim)


def interior_count(grid: Grid) -> int:
    return int(np.count_nonzero(grid.interior_mask))


def component_operators(grid: Grid, comp: Component, field: WeightField | None = None):
    """The component's K0, and its K_w given a weight field, built as a run builds them."""
    tables = [dirichlet_conductances(grid)]
    tables += [] if field is None else [edge_conductances(grid, field.values)]
    return stencil_matrices(grid, comp.nodes, *tables)


def lattice_operator(grid: Grid, table: np.ndarray):
    """The CSR stencil matrix of a conductance table over the whole lattice."""
    (operator,) = stencil_matrices(grid, np.arange(grid.interior_mask.size), table)
    return operator


def extend_bump(bump: BumpSolution, grid: Grid) -> np.ndarray:
    """Extend a component bump by zero to the full lattice."""
    field = np.zeros(grid.shape)
    field.ravel()[bump.nodes] = bump.values
    return field


def cbrt_ring_weight() -> WeightSpec:
    """Radial weight on the ball of radius 2 vanishing on the circle r = 1.

    Cube-root zero on the interior circle, square-root zero on the outer
    boundary: an admissible weight splitting the ball into two components
    (disk and annulus).
    """
    return WeightSpec.radial(
        center=(0.0, 0.0),
        pieces=((1.0, "cbrt(1 - r**2)"), (2.0, "sqrt((1 - r)*(r - 2))")),
        zero_radii=(1.0,))


def ring_config(resolution: int = 129, gamma: float = 10.0, out: str = "out",
                scale: float = 1.0) -> dict:
    """Ball of radius 2 with the cube-root ring weight (chi = 2)."""
    return {
        "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 2.0},
        "weight": {
            "kind": "radial-piecewise",
            "center": [0.0, 0.0],
            "pieces": [
                {"r_max": 1.0, "expr": "cbrt(1 - r**2)"},
                {"r_max": 2.0, "expr": "sqrt((1 - r)*(r - 2))"},
            ],
            "zero_radii": [1.0],
            "scale": scale,
        },
        "nonlinearity": {"kind": "logistic-default", "gamma": gamma, "s_star": 1.0},
        "resolution": resolution,
        "output_dir": out,
    }


def nested_rings_config(resolution: int = 65, out: str = "out") -> dict:
    """Three nested ring zeros in the ball of radius 2 (chi = 4)."""
    return {
        "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 2.0},
        "weight": {
            "kind": "product-of-powers",
            "factors": [
                {"center": [0.0, 0.0], "radius": 0.5, "power": 0.6},
                {"center": [0.0, 0.0], "radius": 1.0, "power": 0.6},
                {"center": [0.0, 0.0], "radius": 1.5, "power": 0.6},
            ],
            "scale": 0.5,
        },
        "nonlinearity": {"kind": "logistic-default", "gamma": 30.0, "s_star": 1.0},
        "resolution": resolution,
        "output_dir": out,
    }


def quadratic_zero_config(resolution: int = 129, out: str = "out") -> dict:
    """Weight |x - x0|^2: inadmissible (fails the integrability side of (a2))."""
    return {
        "domain": {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
        "weight": {
            "kind": "product-of-powers",
            "factors": [{"center": [0.5, 0.5], "radius": 0.0, "power": 2.0}],
        },
        "nonlinearity": {"kind": "logistic-default", "gamma": 10.0, "s_star": 1.0},
        "resolution": resolution,
        "output_dir": out,
    }


@pytest.fixture(scope="session")
def square33():
    """Unit square at n=33 with constant weight: grid, field, zero, component."""
    grid = build_grid(unit_box(2), 33)
    field = evaluate_weight(WeightSpec.constant(1.0), grid)
    zero = detect_zero_set(field, grid)
    decomposition = decompose_components(grid, zero)
    return grid, field, zero, decomposition.components[0]


@pytest.fixture(scope="session")
def ring65():
    """Ring weight on the ball of radius 2 at n=65: grid, field, zero, dec."""
    grid = build_grid(DomainSpec.ball((0.0, 0.0), 2.0), 65)
    field = evaluate_weight(cbrt_ring_weight(), grid)
    zero = detect_zero_set(field, grid)
    decomposition = decompose_components(grid, zero)
    return grid, field, zero, decomposition


@pytest.fixture(scope="session")
def logistic30():
    return truncate_nonlinearity(NonlinearitySpec.logistic(30.0, 1.0))


@pytest.fixture(scope="session")
def logistic10():
    return truncate_nonlinearity(NonlinearitySpec.logistic(10.0, 1.0))
