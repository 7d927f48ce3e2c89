"""The stencil builder against a reference assembled one edge at a time."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import lattice_operator, nested_rings_config
from oracles import (bisected_cut_fractions, laplacian_reference_operator, mean_conductances,
                     per_axis_cut_fractions, weighted_reference_operator)

from multibump import pipeline
from multibump.assembly import (_axis_slices, boundary_cut_fractions, dirichlet_conductances,
                                edge_conductances, lattice_product, stencil_matrices)
from multibump.grid import DomainSpec, build_grid
from multibump.topology import decompose_components
from multibump.weights import WeightSpec, detect_zero_set, evaluate_weight

SHELL3D = Path(__file__).resolve().parents[1] / "bench" / "configs" / "shell3d.json"
NESTED_RINGS = Path(__file__).resolve().parents[1] / "configs" / "nested_rings.json"


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


def assert_each_component_matches_the_reference(grid, field, components,
                                                kinds=("laplacian", "weighted")):
    """Each component's K0 ("laplacian") and K_w ("weighted"), as ``kinds`` name
    them, equal the references' restrictions; the two share one pattern.

    That pattern holds the entries nonzero in either reference.  At each interior node
    the table's last row holds, bit for bit, the sum of the reference's couplings: up
    then down axis 0, then axis 1, ...
    """
    references = (laplacian_reference_operator(grid).toarray(),
                  weighted_reference_operator(field, grid).toarray())
    tables = dirichlet_conductances(grid), edge_conductances(grid, field.values)
    node, interior = np.arange(grid.interior_mask.size).reshape(grid.shape), grid.interior_mask
    for kind, reference, table in zip(("laplacian", "weighted"), references, tables):
        if kind in kinds:
            diagonal = np.zeros(grid.shape)
            for axis in range(grid.ndim):
                for step in (1, -1):  # up, then down; where the roll wraps, no edge adds 0
                    diagonal -= reference[node, np.roll(node, -step, axis)]
            assert diagonal[interior].tobytes() == table[-1].reshape(grid.shape)[interior].tobytes()
    for comp in components:
        K0, K_w = stencil_matrices(grid, comp.nodes, *tables)
        expected = [reference[np.ix_(comp.nodes, comp.nodes)] for reference in references]
        for kind, K, reference in zip(("laplacian", "weighted"), (K0, K_w), expected):
            if kind in kinds:
                assert np.max(np.abs(K.toarray() - reference)) \
                    <= 1e-14 * np.max(np.abs(reference))
        stored = np.zeros(K0.shape, dtype=bool)
        stored[np.repeat(np.arange(K0.shape[0]), np.diff(K0.indptr)), K0.indices] = True
        assert np.array_equal(stored, (expected[0] != 0.0) | (expected[1] != 0.0))
        for array in ("indptr", "indices"):
            shared = getattr(K0, array)
            assert shared.dtype == np.int32 and np.shares_memory(shared, getattr(K_w, array))
        assert K0.has_sorted_indices


@pytest.mark.parametrize("kind", ["weighted", "laplacian"])
def test_restriction_to_each_component_matches_the_reference(lattice, kind):
    grid, field, components = lattice
    assert len(components) > 1
    assert_each_component_matches_the_reference(grid, field, components, kinds=(kind,))


# Rings are centred at the origin, within 0.5 of a ball's centre or a box's low
# corner per axis, so a ring may lie inside, cross the boundary or miss the domain.
problems = st.one_of(
    st.tuples(st.just(2), st.sampled_from([9, 13, 17])),
    st.tuples(st.just(3), st.just(9)),
).flatmap(lambda shape: st.tuples(
    st.just(shape[1]),
    st.one_of(
        st.builds(lambda centre, radius: DomainSpec.ball(centre, radius),
                  st.tuples(*[st.floats(-0.5, 0.5)] * shape[0]), st.floats(1.0, 2.0)),
        st.builds(lambda lo, side: DomainSpec.box(lo, [x + side for x in lo]),
                  st.tuples(*[st.floats(-0.5, 0.5)] * shape[0]), st.floats(1.0, 3.0))),
    st.one_of(
        st.builds(WeightSpec.constant, st.floats(0.1, 10.0)),
        st.builds(lambda rings: WeightSpec.power_product(
            [((0.0,) * shape[0], radius, power) for radius, power in rings]),
            st.lists(st.tuples(st.floats(0.2, 1.0), st.floats(0.3, 0.8)),
                     min_size=1, max_size=3)))))


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(problems)
def test_generated_problems_match_the_reference_on_every_component(problem):
    n, domain, weight = problem
    grid = build_grid(domain, n)
    field = evaluate_weight(weight, grid)
    components = decompose_components(grid, detect_zero_set(field, grid)).components
    assert_each_component_matches_the_reference(grid, field, components)


@pytest.mark.parametrize("kind", ["weighted", "laplacian"])
def test_product_equals_the_flux_form_at_interior_nodes(lattice, kind):
    grid, field, _ = lattice
    if kind == "weighted":  # the table that verification reads
        operator = lattice_operator(grid, field.conductances)
        conductances, scale = mean_conductances(field.values), grid.h ** (grid.ndim - 2)
    else:
        operator = lattice_operator(grid, dirichlet_conductances(grid))
        conductances = [1.0 / theta for theta in boundary_cut_fractions(grid)]
        scale = 1.0 / grid.h ** 2
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


def test_lattice_operator_holds_only_nonzero_edges_with_an_interior_endpoint(lattice):
    grid, field, _ = lattice
    operator = lattice_operator(grid, field.conductances)
    rows = np.repeat(np.arange(operator.shape[0]), np.diff(operator.indptr))
    interior = grid.interior_mask.ravel()
    couplings = rows != operator.indices
    assert np.all(interior[rows[couplings]] | interior[operator.indices[couplings]])
    assert np.all(operator.data != 0.0)
    # A node that is neither interior nor next to one has an empty row.
    active = (grid.interior_mask | grid.boundary_mask).ravel()
    assert np.all(np.diff(operator.indptr)[~active] == 0)


def assert_product_equals_the_csr_product(grid, field, zero, u):
    """On each interior row off ``zero``, the lattice product of the weight's and of the
    Laplacian's table holds the bytes of the CSR product of its matrix, up to zero signs."""
    rows = grid.interior_mask & ~zero
    for table in (field.conductances, dirichlet_conductances(grid)):
        csr = (lattice_operator(grid, table) @ u.ravel()).reshape(grid.shape)
        assert np.abs(lattice_product(grid, table, u))[rows].tobytes() \
            == np.abs(csr)[rows].tobytes()


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(problems, st.integers(0, 2 ** 32 - 1))
def test_generated_products_equal_the_csr_product_bit_for_bit(problem, seed):
    n, domain, weight = problem
    grid = build_grid(domain, n)
    field = evaluate_weight(weight, grid)
    zero = detect_zero_set(field, grid)
    # Random values; about half the pinned and exterior nodes hold NaN, inf or -inf.
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, grid.shape)
    off = ~grid.interior_mask | zero
    special = rng.choice([np.nan, np.inf, -np.inf], off.sum())
    u[off] = np.where(rng.random(off.sum()) < 0.5, special, u[off])
    assert_product_equals_the_csr_product(grid, field, zero, u)


@pytest.fixture(scope="module")
def nested_rings_fields():
    """Setup and the 15 composed fields of the shipped nested rings' solve at n=33."""
    config = dataclasses.replace(pipeline.load_config(NESTED_RINGS), resolution=33)
    report = pipeline.run_pipeline(config, write=False)
    grid, field, zero = pipeline._setup(config)
    return grid, field, zero, [record.solution.field(grid) for record in report.solutions]


@pytest.mark.parametrize("rank", range(1, 16))
def test_composed_products_equal_the_csr_product_bit_for_bit(nested_rings_fields, rank):
    grid, field, zero, fields = nested_rings_fields
    assert len(fields) == 15
    assert_product_equals_the_csr_product(grid, field, zero, fields[rank - 1])


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
