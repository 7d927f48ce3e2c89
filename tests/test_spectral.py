import dataclasses
from pathlib import Path

import numpy as np
import pytest

from conftest import nested_rings_config, unit_box
from oracles import dense_lambda1

from multibump import pipeline, spectral
from multibump.assembly import boundary_cut_fractions
from multibump.grid import DomainSpec, build_grid
from multibump.spectral import (MULTIPLE_TOL, check_hypothesis_f2,
                                dirichlet_lambda1, dirichlet_laplacian, multiple_of)
from multibump.topology import decompose_components
from multibump.weights import WeightSpec, detect_zero_set, evaluate_weight

LAMBDA1_SQUARE = 2.0 * np.pi ** 2
LAMBDA1_DISK = 5.783185962946785  # square of the first zero of J0


def single_component(domain, n, weight=None):
    grid = build_grid(domain, n)
    field = evaluate_weight(weight or WeightSpec.constant(1.0), grid)
    zero = detect_zero_set(field, grid)
    return grid, field, decompose_components(grid, zero).components[0]


def discrete_square_lambda1(h: float) -> float:
    return (4.0 / h ** 2) * 2.0 * np.sin(np.pi * h / 2.0) ** 2


def test_unit_square_converges_to_two_pi_squared():
    grid, _, comp = single_component(unit_box(2), 129)
    eig = dirichlet_lambda1(comp, grid, dirichlet_laplacian(grid))
    assert eig.lambda1 == pytest.approx(LAMBDA1_SQUARE, rel=5e-3)


def test_unit_disk_converges_to_bessel_value():
    grid, _, comp = single_component(DomainSpec.ball((0.0, 0.0), 1.0), 129)
    eig = dirichlet_lambda1(comp, grid, dirichlet_laplacian(grid))
    assert eig.lambda1 == pytest.approx(LAMBDA1_DISK, rel=1e-2)


def test_square_closed_form_matches_dense_oracle():
    grid, _, comp = single_component(unit_box(2), 9)
    formula = discrete_square_lambda1(grid.h)
    assert dense_lambda1(comp, grid) == pytest.approx(formula, rel=1e-10)
    eig = dirichlet_lambda1(comp, grid, dirichlet_laplacian(grid))
    assert eig.lambda1 == pytest.approx(formula, rel=1e-6)


def true_residual(eig, comp, grid) -> float:
    """|K e1 - lambda e1| / (lambda |e1|) on the restricted Laplacian K."""
    K = dirichlet_laplacian(grid)[comp.nodes][:, comp.nodes]
    e1 = eig.e1
    return float(np.linalg.norm(K @ e1 - eig.lambda1 * e1)
                 / (eig.lambda1 * np.linalg.norm(e1)))


@pytest.mark.parametrize("ndim, n", [(2, 33), (3, 9)], ids=["square33", "cube9"])
def test_rayleigh_residual_is_the_true_residual(ndim, n):
    grid, _, comp = single_component(unit_box(ndim), n)
    eig = dirichlet_lambda1(comp, grid, dirichlet_laplacian(grid))
    assert eig.rayleigh_residual == pytest.approx(true_residual(eig, comp, grid), rel=1e-10)
    assert eig.rayleigh_residual > 1e-10  # the stopped iteration's, not round-off


def test_eigenfunction_strictly_positive_max_one():
    grid, _, comp = single_component(DomainSpec.ball((0.0, 0.0), 1.0), 33)
    eig = dirichlet_lambda1(comp, grid, dirichlet_laplacian(grid))
    assert np.max(eig.e1) == pytest.approx(1.0)
    assert np.min(eig.e1) > 0.0


def test_lambda1_monotone_under_domain_inclusion():
    big, _, comp_big = single_component(unit_box(2), 65)
    small, _, comp_small = single_component(
        DomainSpec.box((0.2, 0.2), (0.8, 0.8)), 65)
    lam_big = dirichlet_lambda1(comp_big, big, dirichlet_laplacian(big)).lambda1
    lam_small = dirichlet_lambda1(comp_small, small,
                                  dirichlet_laplacian(small)).lambda1
    assert lam_small > lam_big


def test_h_squared_error_model_on_square():
    errors = []
    for n in (17, 33):
        grid, _, comp = single_component(unit_box(2), n)
        eig = dirichlet_lambda1(comp, grid, dirichlet_laplacian(grid))
        assert eig.lambda1 == pytest.approx(discrete_square_lambda1(grid.h), rel=1e-6)
        errors.append(abs(eig.lambda1 - LAMBDA1_SQUARE))
    # Halving h divides the discretization error by about four.
    assert errors[1] < errors[0] / 3.0


def test_unit_cube_closed_form_on_cg_branch():
    grid, _, comp = single_component(unit_box(3), 9)
    formula = 3.0 * (4.0 / grid.h ** 2) * np.sin(np.pi * grid.h / 2.0) ** 2
    eig = dirichlet_lambda1(comp, grid, dirichlet_laplacian(grid))
    assert eig.lambda1 == pytest.approx(formula, rel=1e-6)


# Nested rings @65 (chi = 4) before 2D components were factorized: each
# inverse-iteration step then ran a Jacobi-CG solve to 1e-12.
NESTED65_CG = {(1, 1): (25.05107384558559, 7), (2, 1): (42.73050725766946, 52),
               (2, 2): (46.34573011001019, 34), (2, 3): (46.76094800642964, 15)}


@pytest.fixture(scope="module")
def nested65():
    grid = build_grid(DomainSpec.ball((0.0, 0.0), 2.0), 65)
    rings = [((0.0, 0.0), radius, 0.6) for radius in (0.5, 1.0, 1.5)]
    field = evaluate_weight(WeightSpec.power_product(rings, scale=0.5), grid)
    components = decompose_components(grid, detect_zero_set(field, grid)).components
    laplacian = dirichlet_laplacian(grid)
    return grid, {comp.id: (comp, dirichlet_lambda1(comp, grid, laplacian))
                  for comp in components}


def test_factorized_branch_matches_cg_iterations_and_lambda1(nested65):
    _, eigs = nested65
    assert set(eigs) == set(NESTED65_CG)
    for comp_id, (lam, iterations) in NESTED65_CG.items():
        assert eigs[comp_id][1].iterations == iterations
        assert eigs[comp_id][1].lambda1 == pytest.approx(lam, rel=1e-12)


def test_factorized_branch_reports_the_true_residual(nested65):
    grid, eigs = nested65
    for comp, eig in eigs.values():
        assert eig.rayleigh_residual == pytest.approx(true_residual(eig, comp, grid),
                                                      rel=1e-10)
        assert eig.rayleigh_residual > 1e-10


def test_inexact_cg_branch_bounds_the_dense_oracle_from_above():
    # Every cut fraction of the unit ball @11 is above 0.12, so the dense oracle
    # is exact to round-off (@13 one is 1e-8: K holds 1e10, and dense solvers
    # disagree by 3e-8).
    grid, _, comp = single_component(DomainSpec.ball((0.0, 0.0, 0.0), 1.0), 11)
    eig = dirichlet_lambda1(comp, grid, dirichlet_laplacian(grid))
    dense = dense_lambda1(comp, grid)
    assert eig.lambda1 >= dense * (1.0 - 1e-12)  # a Rayleigh quotient
    assert eig.lambda1 == pytest.approx(dense, rel=1e-9)


SHELL3D = Path(__file__).resolve().parents[1] / "bench" / "configs" / "shell3d.json"
# The shell @17 when every inner CG solve ran to relative residual 1e-12.
SHELL17_EXACT = {(1, 1): (12.068525522664642, 15), (1, 2): (12.06008515505912, 9)}


def test_inexact_cg_branch_takes_the_exact_solves_outer_steps():
    config = dataclasses.replace(pipeline.load_config(SHELL3D), resolution=17)
    grid = build_grid(config.domain, config.resolution)
    zero = detect_zero_set(evaluate_weight(config.weight, grid), grid)
    laplacian = dirichlet_laplacian(grid)
    eigs = {comp.id: dirichlet_lambda1(comp, grid, laplacian)
            for comp in decompose_components(grid, zero).components}
    assert set(eigs) == set(SHELL17_EXACT)
    for comp_id, (lam, iterations) in SHELL17_EXACT.items():
        assert eigs[comp_id].iterations == iterations
        assert eigs[comp_id].lambda1 == pytest.approx(lam, rel=1e-9)


def test_one_check_on_nested_rings_bisects_the_boundary_crossings_once(monkeypatch):
    calls = []

    def counted(grid):
        calls.append(grid.n)
        return boundary_cut_fractions(grid)

    monkeypatch.setattr(spectral, "boundary_cut_fractions", counted)
    report = pipeline.check_hypotheses(pipeline.parse_config(nested_rings_config(65)))
    assert (report.status, report.chi) == ("ok", 4)
    assert calls == [65]


def restricted(domain, n, weight):
    """Grid, component, and its weighted stiffness and Dirichlet Laplacian."""
    grid, field, comp = single_component(domain, n, weight)
    nodes = comp.nodes
    return (grid, comp, field.operator[nodes][:, nodes],
            dirichlet_laplacian(grid)[nodes][:, nodes])


class TestSharedFactor:
    @pytest.mark.parametrize("domain, n, a", [
        (unit_box(2), 50, 0.3), (unit_box(2), 65, 1.0), (unit_box(2), 129, 2.5),
        (DomainSpec.box((0.25, -0.5), (1.75, 1.0)), 65, 0.3),
        (DomainSpec.box((-1 / 64, 3 / 64), (1 - 1 / 64, 1 + 3 / 64)), 65, 1.0),
    ], ids=["n50-a0.3", "n65-a1", "n129-a2.5", "shifted-a0.3", "shifted-a1"])
    def test_constant_weight_on_a_box_shares_the_factor(self, domain, n, a):
        grid, comp, S, K = restricted(domain, n, WeightSpec.constant(a))
        c = multiple_of(S, K)
        assert c == pytest.approx(a * grid.h ** 2, rel=1e-15)
        assert np.array_equal(S.data, c * K.data)  # exact, well inside the bound
        eig = dirichlet_lambda1(comp, grid, dirichlet_laplacian(grid), stiffness=S)
        b = np.random.default_rng(1).uniform(-1.0, 1.0, S.shape[0])
        assert np.linalg.norm(S @ eig.factor(b) - b) <= 1e-12 * np.linalg.norm(b)
        assert dirichlet_lambda1(comp, grid, dirichlet_laplacian(grid)).factor is None

    @pytest.mark.parametrize("domain, weight", [
        (DomainSpec.ball((0.0, 0.0), 1.0), WeightSpec.constant(1.0)),
        (unit_box(2), WeightSpec.expression("1 + 0.5*x*y")),
    ], ids=["disk-constant", "square-varying"])
    def test_other_stiffness_gets_no_factor(self, domain, weight):
        grid, comp, S, K = restricted(domain, 33, weight)
        assert multiple_of(S, K) is None
        assert dirichlet_lambda1(comp, grid, dirichlet_laplacian(grid),
                                 stiffness=S).factor is None

    def test_three_dimensions_get_no_factor(self):
        grid, comp, S, K = restricted(unit_box(3), 9, WeightSpec.constant(1.0))
        assert multiple_of(S, K) is not None
        assert dirichlet_lambda1(comp, grid, dirichlet_laplacian(grid),
                                 stiffness=S).factor is None

    def test_entries_within_the_bound_of_a_multiple_match(self):
        _, _, _, K = restricted(unit_box(2), 17, WeightSpec.constant(1.0))
        S = 2.5 * K
        assert multiple_of(S, K) == 2.5
        top = np.max(np.abs(S.data))
        for offset, expected in ((0.5, 2.5), (2.0, None)):
            perturbed = S.copy()
            perturbed.data[7] += offset * MULTIPLE_TOL * top
            assert multiple_of(perturbed, K) == expected
        dropped = S.copy()
        dropped.data[1] = 0.0
        dropped.eliminate_zeros()
        assert multiple_of(dropped, K) is None


class TestF2:
    def test_gamma30_passes_on_unit_square(self, square33):
        grid, field, _, comp = square33
        eig = dirichlet_lambda1(comp, grid, dirichlet_laplacian(grid))
        entry = check_hypothesis_f2(comp, field, 30.0, eig)
        # gamma / lambda1 about 1.52 versus a_M = 1.
        assert entry.a_max == pytest.approx(1.0)
        assert entry.gamma / entry.lambda1 == pytest.approx(1.52, rel=2e-2)
        assert entry.passed

    def test_gamma10_fails_on_unit_square(self, square33):
        grid, field, _, comp = square33
        eig = dirichlet_lambda1(comp, grid, dirichlet_laplacian(grid))
        entry = check_hypothesis_f2(comp, field, 10.0, eig)
        assert entry.gamma / entry.lambda1 == pytest.approx(0.507, rel=2e-2)
        assert not entry.passed

    def test_small_weight_always_passes(self, square33):
        grid, _, _, comp = square33
        eig = dirichlet_lambda1(comp, grid, dirichlet_laplacian(grid))
        tiny = evaluate_weight(WeightSpec.constant(1e-3), grid)
        entry = check_hypothesis_f2(comp, tiny, 10.0, eig)
        assert entry.passed

    def test_nonpositive_gamma_rejected(self, square33):
        grid, field, _, comp = square33
        eig = dirichlet_lambda1(comp, grid, dirichlet_laplacian(grid))
        with pytest.raises(ValueError):
            check_hypothesis_f2(comp, field, 0.0, eig)
