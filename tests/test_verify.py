import numpy as np
import pytest

from conftest import component_operators, extend_bump, unit_box
from oracles import residual_field

from multibump.energy import assemble_energy, minimize_energy
from multibump.grid import build_grid
from multibump.spectral import dirichlet_lambda1
from multibump.verify import check_conclusions, weak_residual
from multibump.weights import WeightSpec, detect_zero_set, evaluate_weight


def manufactured_residual(n: int) -> float:
    """Residual of the exact eigen-profile with its linear reaction.

    With a = 1 on the unit square, u = sin(pi x) sin(pi y) solves
    -div(a grad u) = f(u) for f(s) = 2 pi^2 s, so the discrete residual is
    pure truncation error of the stencil.
    """
    grid = build_grid(unit_box(2), n)
    field = evaluate_weight(WeightSpec.constant(1.0), grid)
    points = grid.points()
    u = np.sin(np.pi * points[..., 0]) * np.sin(np.pi * points[..., 1])
    u[~(grid.interior_mask | grid.boundary_mask)] = 0.0
    return weak_residual(u, field, lambda s: 2.0 * np.pi ** 2 * s, grid,
                         detect_zero_set(field, grid))


def test_zero_field_zero_residual(square33, logistic30):
    grid, field, zero, _ = square33
    values = np.zeros(grid.shape)
    assert weak_residual(values, field, logistic30.base.f, grid, zero) == 0.0


def test_manufactured_residual_drops_by_three_when_halving():
    coarse = manufactured_residual(33)
    fine = manufactured_residual(65)
    assert coarse / fine >= 3.0


def test_composed_residual_equals_max_of_parts(ring65, logistic10):
    grid, field, zero, dec = ring65
    extensions = []
    for comp in dec.components:
        K0, K_w = component_operators(grid, comp, field)
        eig = dirichlet_lambda1(comp, grid, K0)
        energy = assemble_energy(comp, K_w, logistic10, grid)
        bump = minimize_energy(energy, eig)
        extensions.append(extend_bump(bump, grid))
    f = logistic10.base.f
    parts = [weak_residual(ext, field, f, grid, zero) for ext in extensions]
    total = weak_residual(sum(extensions), field, f, grid, zero)
    assert total == pytest.approx(max(parts), rel=1e-12)


def test_residual_additive_for_disjoint_supports(ring65, logistic10):
    grid, field, zero, dec = ring65
    rng = np.random.default_rng(11)
    fields = []
    for comp in dec.components:
        values = np.zeros(grid.shape)
        values.ravel()[comp.nodes] = rng.uniform(0.0, 1.0, comp.node_count)
        fields.append(values)
    f = logistic10.base
    combined = residual_field(fields[0] + fields[1], field, f, grid)
    separate = residual_field(fields[0], field, f, grid) \
        + residual_field(fields[1], field, f, grid)
    inside = grid.interior_mask & ~zero
    assert np.allclose(combined[inside], separate[inside], atol=1e-12)


class TestConclusions:
    def run_checks(self, square33, logistic30, values):
        grid, field, zero, _ = square33
        return check_conclusions(values, field, logistic30.base, grid, zero)

    def test_converged_bump_passes_everything(self, square33, logistic30):
        grid, field, zero, comp = square33
        K0, K_w = component_operators(grid, comp, field)
        eig = dirichlet_lambda1(comp, grid, K0)
        energy = assemble_energy(comp, K_w, logistic30, grid)
        bump = minimize_energy(energy, eig)
        values = extend_bump(bump, grid)
        report = self.run_checks(square33, logistic30, values)
        assert report.passed
        assert report.zero_trace_max == 0.0
        assert report.max_value <= 1.0 + 1e-8

    def test_bounds_violation_detected(self, square33, logistic30):
        grid, field, zero, comp = square33
        values = np.zeros(grid.shape)
        values.ravel()[comp.nodes] = 2.0  # constant 2 s*
        report = self.run_checks(square33, logistic30, values)
        assert not report.verdicts["upper_bound"]
        assert not report.verdicts["residual"]
        assert not report.passed

    def test_nonzero_trace_detected(self, square33, logistic30):
        grid, field, zero, comp = square33
        values = np.full(grid.shape, 0.1)
        report = self.run_checks(square33, logistic30, values)
        assert report.zero_trace_max == pytest.approx(0.1)
        assert not report.verdicts["zero_trace"]
