"""The lattice operator against a reference assembled one edge at a time."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from conftest import nested_rings_config
from oracles import (bisected_cut_fractions, laplacian_reference_operator,
                     per_axis_cut_fractions, weighted_reference_operator)

from multibump import pipeline
from multibump.assembly import _axis_slices, boundary_cut_fractions, edge_conductances
from multibump.grid import DomainSpec, build_grid
from multibump.spectral import dirichlet_laplacian
from multibump.topology import decompose_components
from multibump.weights import detect_zero_set, evaluate_weight

SHELL3D = Path(__file__).resolve().parents[1] / "bench" / "configs" / "shell3d.json"


@pytest.fixture(scope="module", params=["nested-rings-17", "shell3d-9"])
def lattice(request):
    """Grid, weight field and components of a curved 2D and a 3D problem."""
    if request.param == "nested-rings-17":
        config = pipeline.parse_config(nested_rings_config(17))
    else:
        config = dataclasses.replace(pipeline.load_config(SHELL3D), resolution=9)
    grid = build_grid(config.domain, config.resolution)
    field = evaluate_weight(config.weight, grid)
    zero = detect_zero_set(field, grid, config.tolerances)
    return grid, field, decompose_components(grid, zero).components


def operators(kind, grid, field):
    """(operator under test, reference, conductances, scale) of one kind."""
    if kind == "weighted":
        return (field.operator, weighted_reference_operator(field, grid),
                edge_conductances(field.values), grid.h ** (grid.ndim - 2))
    return (dirichlet_laplacian(grid), laplacian_reference_operator(grid),
            [1.0 / theta for theta in boundary_cut_fractions(grid)], 1.0 / grid.h ** 2)


@pytest.mark.parametrize("kind", ["weighted", "laplacian"])
def test_restriction_to_each_component_matches_the_reference(lattice, kind):
    grid, field, components = lattice
    operator, reference, _, _ = operators(kind, grid, field)
    assert operator.indices.dtype == operator.indptr.dtype == np.int32
    assert len(components) > 1
    for comp in components:
        K = operator[comp.nodes][:, comp.nodes].toarray()
        expected = reference[comp.nodes][:, comp.nodes].toarray()
        assert np.max(np.abs(K - expected)) <= 1e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("kind", ["weighted", "laplacian"])
def test_product_equals_the_flux_form_at_interior_nodes(lattice, kind):
    grid, field, _ = lattice
    operator, _, conductances, scale = operators(kind, grid, field)
    # Nonzero everywhere, pinned and exterior nodes included.
    u = np.random.default_rng(5).uniform(-1.0, 1.0, grid.shape)
    flux_form = np.zeros(grid.shape)
    for axis, conductance in enumerate(conductances):
        lo, hi = _axis_slices(grid.ndim, axis)
        flux = conductance * (u[lo] - u[hi]) * scale
        flux_form[lo] += flux
        flux_form[hi] -= flux
    product = (operator @ u.ravel()).reshape(grid.shape)
    size = (abs(operator) @ np.abs(u.ravel())).reshape(grid.shape)
    interior = grid.interior_mask
    assert np.all(np.abs(product - flux_form)[interior] <= 1e-14 * size[interior])


@pytest.mark.parametrize("domain", [
    DomainSpec.box((0.0, 0.0), (1.0, 1.0)),
    DomainSpec.box((0.25, -0.5), (1.75, 1.0)),
    DomainSpec.box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
], ids=["unit-square", "shifted-square", "unit-cube"])
def test_box_cut_fractions_are_exactly_one_without_bisection(domain, monkeypatch):
    grid = build_grid(domain, 17)
    membership, calls = DomainSpec.membership_function, []

    def counted(spec):
        phi = membership(spec)
        return lambda points: calls.append(points.shape[:-1]) or phi(points)

    monkeypatch.setattr(DomainSpec, "membership_function", counted)
    fractions = boundary_cut_fractions(grid)
    assert all(np.all(theta == 1.0) for theta in fractions)
    # One look at the outside ends of every axis's crossings together, and no bisection.
    assert len(calls) == 1


def test_disk_cut_fractions_are_the_bisected_ones_off_the_circle():
    grid = build_grid(DomainSpec.ball((0.0, 0.0), 2.0), 129)
    member = grid.interior_mask
    on_circle = np.linalg.norm(grid.points(), axis=-1) == 2.0
    assert np.count_nonzero(on_circle) == 4
    for axis, (theta, bisected) in enumerate(zip(boundary_cut_fractions(grid),
                                                 bisected_cut_fractions(grid))):
        lo, hi = _axis_slices(2, axis)
        to_circle = (member[lo] ^ member[hi]) & (on_circle[lo] | on_circle[hi])
        assert np.count_nonzero(to_circle) == 2
        assert np.all(theta[to_circle] == 1.0) and np.all(bisected[to_circle] < 1.0)
        assert np.array_equal(theta[~to_circle], bisected[~to_circle])


@pytest.mark.parametrize("domain, n", [
    (DomainSpec.ball((0.0, 0.0), 2.0), 129),
    (None, 17),
    (DomainSpec.implicit("maximum(sqrt(x**2 + y**2) - 2, 0.3 - sqrt((x + 1.2)**2 + y**2))",
                         (-2.0, -2.0), (2.0, 2.0)), 65),
    (DomainSpec.box((0.25, -0.5), (1.75, 1.0)), 17),
], ids=["disk-129", "shell3d-17", "custom-implicit-65", "box-17"])
def test_one_bisection_of_all_axes_equals_one_per_axis(domain, n):
    domain = domain or pipeline.load_config(SHELL3D).domain
    grid = build_grid(domain, n)
    fractions, reference = boundary_cut_fractions(grid), per_axis_cut_fractions(grid)
    assert len(fractions) == len(reference) == grid.ndim
    for theta, expected in zip(fractions, reference):
        assert theta.shape == expected.shape
        assert np.array_equal(theta, expected)  # bit for bit
    cut = sum(np.count_nonzero(theta < 1.0) for theta in fractions)
    assert (cut == 0) == (domain.kind == "box")
