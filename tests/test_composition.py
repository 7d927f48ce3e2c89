import numpy as np
import pytest

from conftest import component_operators, extend_bump
from oracles import bump_histogram, expected_histogram, holder_bound_report

from multibump.composition import enumerate_all, w11_seminorm
from multibump.energy import BumpSolution, assemble_energy, minimize_energy
from multibump.errors import EnumerationSizeError
from multibump.grid import DomainSpec, build_grid
from multibump.spectral import dirichlet_lambda1
from multibump.topology import decompose_components
from multibump.weights import WeightSpec, detect_zero_set, evaluate_weight


@pytest.fixture(scope="module")
def ring_bumps(ring65, logistic10):
    grid, field, zero, dec = ring65
    bumps = {}
    for comp in dec.components:
        K0, K_w = component_operators(grid, comp, field)
        eigen = dirichlet_lambda1(comp, grid, K0)
        energy = assemble_energy(comp, K_w, logistic10, grid)
        bumps[comp.id] = minimize_energy(energy, eigen)
    return grid, field, zero, dec, bumps


def synthetic_bumps(dec):
    """Unit-amplitude placeholder bumps for counting-only tests."""
    bumps = {}
    for comp in dec.components:
        bumps[comp.id] = BumpSolution(
            component_id=comp.id, nodes=comp.nodes,
            values=np.ones(comp.node_count),
            energy=-1.0, grad_norm=0.0, min_value=1.0, max_value=1.0,
            iterations=0, linear_iterations=0, seed_scale=1.0)
    return bumps


class TestExtension:
    def test_restriction_recovers_bump(self, ring_bumps):
        grid, _, _, dec, bumps = ring_bumps
        comp = dec.components[0]
        extended = extend_bump(bumps[comp.id], grid)
        assert np.array_equal(extended.ravel()[comp.nodes], bumps[comp.id].values)

    def test_zero_on_zero_set_and_elsewhere(self, ring_bumps):
        grid, _, zero, dec, bumps = ring_bumps
        comp = dec.components[0]
        extended = extend_bump(bumps[comp.id], grid)
        assert np.all(extended[zero] == 0.0)
        assert np.all(extended[grid.boundary_mask] == 0.0)
        other = dec.components[1]
        assert np.all(extended.ravel()[other.nodes] == 0.0)

    def test_gradient_mass_finite_and_controlled(self, ring_bumps):
        grid, field, _, dec, bumps = ring_bumps
        for comp in dec.components:
            extended = extend_bump(bumps[comp.id], grid)
            assert np.isfinite(w11_seminorm(extended, grid))
            report = holder_bound_report(extended, field, grid)
            assert report["satisfied"]
            assert report["w11_seminorm"] <= report["bound"] * (1.0 + 1e-12)


class TestComposition:
    def test_supports_disjoint(self, ring_bumps):
        grid, _, _, dec, bumps = ring_bumps
        fields = [extend_bump(bumps[c.id], grid) for c in dec.components]
        assert np.all(fields[0] * fields[1] == 0.0)

    def test_nodal_additivity_exact(self, ring_bumps):
        grid, _, _, dec, bumps = ring_bumps
        composed = enumerate_all(bumps, max_chi=20)[-1]
        assert composed.subset == tuple(c.id for c in dec.components)
        total = sum(extend_bump(bumps[c.id], grid) for c in dec.components)
        assert np.array_equal(composed.field(grid), total)

    def test_energy_is_sum(self, ring_bumps):
        *_, bumps = ring_bumps
        composed = enumerate_all(bumps, max_chi=20)[-1]
        assert composed.energy == pytest.approx(
            sum(b.energy for b in bumps.values()), rel=1e-15)

    def test_bounds_inherited(self, ring_bumps):
        grid, *_, bumps = ring_bumps
        values = enumerate_all(bumps, max_chi=20)[-1].field(grid)
        assert values.min() >= 0.0 - 1e-8
        assert values.max() <= 1.0 + 1e-8


class TestEnumeration:
    def test_chi_two_gives_three(self, ring_bumps):
        *_, bumps = ring_bumps
        solutions = enumerate_all(bumps, max_chi=20)
        assert len(solutions) == 3
        assert bump_histogram(solutions) == {1: 2, 2: 1}

    def test_chi_four_binomial_histogram(self):
        grid = build_grid(DomainSpec.ball((0.0, 0.0), 2.0), 65)
        spec = WeightSpec.power_product(
            [((0.0, 0.0), r, 0.6) for r in (0.5, 1.0, 1.5)], scale=0.5)
        field = evaluate_weight(spec, grid)
        dec = decompose_components(grid, detect_zero_set(field, grid))
        assert dec.chi == 4
        bumps = synthetic_bumps(dec)
        solutions = enumerate_all(bumps, max_chi=20)
        assert len(solutions) == 15
        assert bump_histogram(solutions) == {1: 4, 2: 6, 3: 4, 4: 1}
        assert expected_histogram(4) == {1: 4, 2: 6, 3: 4, 4: 1}
        two_bump = [s for s in solutions if s.n_bumps == 2]
        assert len(two_bump) == 6

    def test_chi_five_gives_thirty_one(self):
        grid = build_grid(DomainSpec.ball((0.0, 0.0), 2.0), 65)
        spec = WeightSpec.power_product(
            [((0.0, 0.0), r, 0.6) for r in (0.4, 0.8, 1.2, 1.6)], scale=0.5)
        field = evaluate_weight(spec, grid)
        dec = decompose_components(grid, detect_zero_set(field, grid))
        assert dec.chi == 5
        bumps = synthetic_bumps(dec)
        assert len(enumerate_all(bumps, max_chi=20)) == 31

    def test_ordering_by_size_then_subset(self, ring_bumps):
        *_, bumps = ring_bumps
        solutions = enumerate_all(bumps, max_chi=20)
        keys = [(s.n_bumps, s.subset) for s in solutions]
        assert keys == sorted(keys)

    def test_guard_refuses_large_chi(self):
        grid = build_grid(DomainSpec.ball((0.0, 0.0), 2.0), 65)
        spec = WeightSpec.power_product(
            [((0.0, 0.0), r, 0.6) for r in (0.5, 1.0, 1.5)], scale=0.5)
        field = evaluate_weight(spec, grid)
        dec = decompose_components(grid, detect_zero_set(field, grid))
        bumps = synthetic_bumps(dec)
        with pytest.raises(EnumerationSizeError):
            enumerate_all(bumps, max_chi=3)
        assert len(enumerate_all(bumps, max_chi=4)) == 15
