import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from conftest import component_operators, nested_rings_config, ring_config, unit_box
from oracles import (dense_lambda1, laplacian_reference_operator, shift_invert_lambda1,
                     weighted_reference_operator)

from multibump import energy as energy_module
from multibump import assembly, pipeline, spectral
from multibump.assembly import boundary_cut_fractions
from multibump.energy import (NonlinearitySpec, assemble_energy, minimize_energy,
                              truncate_nonlinearity)
from multibump.errors import NumericalFailureError
from multibump.grid import DomainSpec, build_grid
from multibump.spectral import check_hypothesis_f2, dirichlet_lambda1
from multibump.topology import Component, decompose_components
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
    eig = dirichlet_lambda1(comp, grid, component_operators(grid, comp)[0])
    assert eig.lambda1 == pytest.approx(LAMBDA1_SQUARE, rel=5e-3)


def test_unit_disk_converges_to_bessel_value():
    grid, _, comp = single_component(DomainSpec.ball((0.0, 0.0), 1.0), 129)
    eig = dirichlet_lambda1(comp, grid, component_operators(grid, comp)[0])
    assert eig.lambda1 == pytest.approx(LAMBDA1_DISK, rel=1e-2)


def test_square_closed_form_matches_dense_oracle():
    grid, _, comp = single_component(unit_box(2), 9)
    formula = discrete_square_lambda1(grid.h)
    assert dense_lambda1(comp, grid) == pytest.approx(formula, rel=1e-10)
    eig = dirichlet_lambda1(comp, grid, component_operators(grid, comp)[0])
    assert eig.lambda1 == pytest.approx(formula, rel=1e-6)


def true_residual(eig, comp, grid) -> float:
    """|K e1 - lambda e1| / (lambda |e1|) on the restricted Laplacian K."""
    K = laplacian_reference_operator(grid)[comp.nodes][:, comp.nodes]
    e1 = eig.e1
    return float(np.linalg.norm(K @ e1 - eig.lambda1 * e1)
                 / (eig.lambda1 * np.linalg.norm(e1)))


@pytest.mark.parametrize("ndim, n", [(2, 33), (3, 9)], ids=["square33", "cube9"])
def test_rayleigh_residual_is_the_true_residual(ndim, n):
    grid, _, comp = single_component(unit_box(ndim), n)
    eig = dirichlet_lambda1(comp, grid, component_operators(grid, comp)[0])
    assert eig.rayleigh_residual == pytest.approx(true_residual(eig, comp, grid), rel=1e-10)
    assert eig.rayleigh_residual > 1e-10  # the stopped iteration's, not round-off


def test_eigenfunction_strictly_positive_max_one():
    grid, _, comp = single_component(DomainSpec.ball((0.0, 0.0), 1.0), 33)
    eig = dirichlet_lambda1(comp, grid, component_operators(grid, comp)[0])
    assert np.max(eig.e1) == pytest.approx(1.0)
    assert np.min(eig.e1) > 0.0


@pytest.mark.parametrize("n", [3, 5, 8])
def test_an_eigenfunction_that_changes_sign_is_refused(n):
    # Positive couplings are no Laplacian: tridiag(1, 2, 1) is SPD, and its lowest
    # eigenvector sin(j n pi / (n + 1)) alternates in sign.
    K = sparse.diags([np.ones(n - 1), 2.0 * np.ones(n), np.ones(n - 1)], [-1, 0, 1])
    comp = Component(id=(2, 3), nodes=np.arange(n), shell=np.array([], dtype=np.int64))
    with pytest.raises(NumericalFailureError, match=re.escape(
            "first eigenfunction not strictly positive on component (2, 3)")):
        dirichlet_lambda1(comp, build_grid(unit_box(2), 5), K)


@pytest.mark.parametrize("ndim, n", [(2, 3), (2, 4), (3, 3), (3, 4)],
                         ids=["square3", "square4", "cube3", "cube4"])
def test_a_start_that_is_an_eigenvector_stops_after_one_step(ndim, n):
    # One interior node, or a symmetric 2^N block whose constant start is the
    # eigenvector: w (and then p) is zero or round-off and drops out of the step.
    grid, _, comp = single_component(unit_box(ndim), n)
    eig = dirichlet_lambda1(comp, grid, component_operators(grid, comp)[0])
    assert eig.iterations == 1
    assert eig.lambda1 == pytest.approx(dense_lambda1(comp, grid), rel=1e-14)
    assert eig.e1 == pytest.approx(np.ones(comp.node_count), rel=1e-14)


def test_lambda1_monotone_under_domain_inclusion():
    big, _, comp_big = single_component(unit_box(2), 65)
    small, _, comp_small = single_component(
        DomainSpec.box((0.2, 0.2), (0.8, 0.8)), 65)
    lam_big = dirichlet_lambda1(comp_big, big, component_operators(big, comp_big)[0]).lambda1
    lam_small = dirichlet_lambda1(comp_small, small,
                                  component_operators(small, comp_small)[0]).lambda1
    assert lam_small > lam_big


def test_h_squared_error_model_on_square():
    errors = []
    for n in (17, 33):
        grid, _, comp = single_component(unit_box(2), n)
        eig = dirichlet_lambda1(comp, grid, component_operators(grid, comp)[0])
        assert eig.lambda1 == pytest.approx(discrete_square_lambda1(grid.h), rel=1e-6)
        errors.append(abs(eig.lambda1 - LAMBDA1_SQUARE))
    # Halving h divides the discretization error by about four.
    assert errors[1] < errors[0] / 3.0


def test_unit_cube_closed_form_on_cg_branch():
    grid, _, comp = single_component(unit_box(3), 9)
    formula = 3.0 * (4.0 / grid.h ** 2) * np.sin(np.pi * grid.h / 2.0) ** 2
    eig = dirichlet_lambda1(comp, grid, component_operators(grid, comp)[0])
    assert eig.lambda1 == pytest.approx(formula, rel=1e-6)


# Nested rings @65 (chi = 4): Rayleigh-Ritz steps and lambda_1.
NESTED65 = {(1, 1): (25.051073843371675, 4), (2, 1): (42.73050500503633, 9),
            (2, 2): (46.34572952085233, 7), (2, 3): (46.76094783232944, 6)}


@pytest.fixture(scope="module")
def nested65():
    grid = build_grid(DomainSpec.ball((0.0, 0.0), 2.0), 65)
    rings = [((0.0, 0.0), radius, 0.6) for radius in (0.5, 1.0, 1.5)]
    field = evaluate_weight(WeightSpec.power_product(rings, scale=0.5), grid)
    components = decompose_components(grid, detect_zero_set(field, grid)).components
    return grid, {comp.id: (comp, dirichlet_lambda1(comp, grid,
                                                    component_operators(grid, comp)[0]))
                  for comp in components}


def test_factorized_branch_steps_and_lambda1(nested65):
    grid, eigs = nested65
    laplacian = laplacian_reference_operator(grid)
    assert set(eigs) == set(NESTED65)
    for comp_id, (lam, iterations) in NESTED65.items():
        comp, eig = eigs[comp_id]
        assert eig.iterations == iterations
        assert eig.lambda1 == pytest.approx(lam, rel=1e-12)
        oracle = shift_invert_lambda1(laplacian[comp.nodes][:, comp.nodes])
        assert eig.lambda1 == pytest.approx(oracle, rel=1e-10)


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
    eig = dirichlet_lambda1(comp, grid, component_operators(grid, comp)[0])
    dense = dense_lambda1(comp, grid)
    assert eig.lambda1 >= dense * (1.0 - 1e-12)  # a Rayleigh quotient
    assert eig.lambda1 == pytest.approx(dense, rel=1e-9)


BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"
SHELL3D = BENCH_CONFIGS / "shell3d.json"
# The shell @17: Jacobi-preconditioned Rayleigh-Ritz steps and lambda_1.
SHELL17 = {(2, 1): (12.068525463856162, 19), (1, 1): (12.060085154096416, 12)}


def test_jacobi_branch_steps_and_lambda1_on_the_shell():
    config = dataclasses.replace(pipeline.load_config(SHELL3D), resolution=17)
    grid = build_grid(config.domain, config.resolution)
    zero = detect_zero_set(evaluate_weight(config.weight, grid), grid)
    components = {comp.id: comp for comp in decompose_components(grid, zero).components}
    assert set(components) == set(SHELL17)
    for comp_id, (lam, iterations) in SHELL17.items():
        comp = components[comp_id]
        eig = dirichlet_lambda1(comp, grid, component_operators(grid, comp)[0])
        assert eig.iterations == iterations
        assert eig.lambda1 == pytest.approx(lam, rel=1e-12)
        dense = dense_lambda1(comp, grid)
        assert eig.lambda1 >= dense * (1.0 - 1e-12)
        assert eig.lambda1 == pytest.approx(dense, rel=1e-9)


@pytest.mark.parametrize("workload", ["nested-output", "square-descent"])
def test_every_lambda1_matches_shift_invert_eigsh(workload):
    # Nested rings @129 and the square @65; on the annuli lambda_2/lambda_1 is
    # only 1.008 and 1.014, where a stop on successive lambda quits early.
    config = pipeline.load_config(BENCH_CONFIGS / f"{workload}.json")
    grid = build_grid(config.domain, config.resolution)
    zero = detect_zero_set(evaluate_weight(config.weight, grid), grid)
    laplacian = laplacian_reference_operator(grid)
    for comp in decompose_components(grid, zero).components:
        K0 = component_operators(grid, comp)[0]
        lam = dirichlet_lambda1(comp, grid, K0, config.tolerances).lambda1
        oracle = shift_invert_lambda1(laplacian[comp.nodes][:, comp.nodes])
        assert lam >= oracle * (1.0 - 1e-13)  # a Rayleigh quotient
        assert lam == pytest.approx(oracle, rel=1e-10)


@pytest.mark.parametrize("eig_tol", [1e-1, 1e-3, 1e-8])
@pytest.mark.parametrize("n", [33, 65, 129])
@pytest.mark.parametrize("make_config", [ring_config, nested_rings_config],
                         ids=["ring", "nested_rings"])
def test_check_keeps_a_strictly_positive_e1_at_any_eig_tol(make_config, n, eig_tol,
                                                          monkeypatch):
    # Unlike K^-1 x, a Ritz combination is not positive by construction.
    minima = []

    def recorded(*args, **kwargs):
        eig = dirichlet_lambda1(*args, **kwargs)
        minima.append(float(np.min(eig.e1)))
        return eig

    monkeypatch.setattr(pipeline, "dirichlet_lambda1", recorded)
    config = make_config(n)
    config["tolerances"] = {"eig_tol": eig_tol}
    report = pipeline.check_hypotheses(pipeline.parse_config(config))
    assert report.status == "ok"
    assert len(minima) == report.chi and min(minima) > 0.0


def test_one_check_on_nested_rings_bisects_the_boundary_crossings_once(monkeypatch):
    calls = []

    def counted(grid):
        calls.append(grid.n)
        return boundary_cut_fractions(grid)

    monkeypatch.setattr(assembly, "boundary_cut_fractions", counted)
    report = pipeline.check_hypotheses(pipeline.parse_config(nested_rings_config(65)))
    assert (report.status, report.chi) == ("ok", 4)
    assert calls == [65]


def restricted(domain, n, weight):
    """Grid, weight, component, and its reference weighted stiffness and Dirichlet Laplacian."""
    grid, field, comp = single_component(domain, n, weight)
    nodes = comp.nodes
    return (grid, field, comp, weighted_reference_operator(field, grid)[nodes][:, nodes],
            laplacian_reference_operator(grid)[nodes][:, nodes])


def newton_preconditioners(monkeypatch, grid, field, comp):
    """The component's bump, each Newton step's preconditioner, and its Jacobi one."""
    used, made = [], []

    def recorded_jacobi(K):
        made.append(spectral.jacobi(K))
        return made[-1]

    def recorded(K, shift, g, eta, precondition):
        used.append(precondition)
        return spectral.pcg(K, shift, g, eta, precondition)

    monkeypatch.setattr(energy_module, "jacobi", recorded_jacobi)
    monkeypatch.setattr(energy_module, "pcg", recorded)
    trunc = truncate_nonlinearity(NonlinearitySpec.logistic(60.0))
    K0, K_w = component_operators(grid, comp, field)
    bump = minimize_energy(assemble_energy(comp, K_w, trunc, grid),
                           dirichlet_lambda1(comp, grid, K0))
    (jacobi,) = made  # one inverse diagonal per component
    return bump, used, jacobi


class TestSharedFactor:
    @pytest.mark.parametrize("domain, n, a", [
        (unit_box(2), 50, 0.3), (unit_box(2), 65, 1.0), (unit_box(2), 129, 2.5),
        (DomainSpec.box((0.25, -0.5), (1.75, 1.0)), 65, 0.3),
        (DomainSpec.box((-1 / 64, 3 / 64), (1 - 1 / 64, 1 + 3 / 64)), 65, 1.0),
    ], ids=["n50-a0.3", "n65-a1", "n129-a2.5", "shifted-a0.3", "shifted-a1"])
    def test_constant_weight_on_a_box_shares_the_factor(self, monkeypatch, domain, n, a):
        grid, field, comp, S, K = restricted(domain, n, WeightSpec.constant(a))
        c = S.data[0] / K.data[0]
        assert c == pytest.approx(a * grid.h ** 2, rel=1e-15)
        assert np.array_equal(S.indices, K.indices)
        assert np.array_equal(S.data, c * K.data)  # S = c K exactly
        eig = dirichlet_lambda1(comp, grid, component_operators(grid, comp)[0])
        assert np.array_equal(eig.diagonal, K.diagonal())
        b = np.random.default_rng(1).uniform(-1.0, 1.0, S.shape[0])
        assert np.linalg.norm(K @ eig.factor(b) - b) <= 1e-12 * np.linalg.norm(b)
        # Newton scales the factor to S and uses it from the first step on.
        bump, used, jacobi = newton_preconditioners(monkeypatch, grid, field, comp)
        assert bump.factored_from == 1 and all(p is not jacobi for p in used)
        assert np.linalg.norm(S @ used[0](b) - b) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("domain, weight", [
        (DomainSpec.ball((0.0, 0.0), 1.0), WeightSpec.constant(1.0)),
        (unit_box(2), WeightSpec.expression("1 + 0.5*x*y")),
    ], ids=["disk-constant", "square-varying"])
    def test_other_stiffness_starts_on_jacobi(self, monkeypatch, domain, weight):
        # Cut edges give the disk's Laplacian 1/theta couplings that its stiffness lacks.
        grid, field, comp = single_component(domain, 33, weight)
        bump, used, jacobi = newton_preconditioners(monkeypatch, grid, field, comp)
        assert used[0] is jacobi and bump.factored_from != 1
        # Jacobi up to the recorded step, the factor from it on.
        first = bump.factored_from or len(used) + 1
        assert all((p is jacobi) == (step < first) for step, p in enumerate(used, start=1))

    def test_three_dimensions_get_no_factor(self):
        grid, _, comp = single_component(unit_box(3), 9)
        eig = dirichlet_lambda1(comp, grid, component_operators(grid, comp)[0])
        assert eig.factor is None and eig.diagonal is None


class TestFactorize:
    @pytest.mark.parametrize("workload, count, band", [
        ("square-descent", 1, True), ("nested-output", 4, True), ("ring257", 2, False)])
    def test_narrow_bands_take_the_band_cholesky(self, monkeypatch, workload, count, band):
        # The square @65 and the nested rings @129 (the bench's 2D workloads), and `ring` @257.
        config = (pipeline.parse_config(ring_config(257)) if workload == "ring257"
                  else pipeline.load_config(BENCH_CONFIGS / f"{workload}.json"))
        grid, _, zero = pipeline._setup(config)
        components = decompose_components(grid, zero).components
        assert len(components) == count
        splu, superlu = spectral.splu, []

        def counted(*args, **kwargs):
            superlu.append(args[0].shape)
            return splu(*args, **kwargs)

        monkeypatch.setattr(spectral, "splu", counted)
        factors = []
        for comp in components:
            K = component_operators(grid, comp)[0]
            factors.append((K, spectral.factorize(K, comp.id)))
            assert superlu == ([] if band else [K.shape])
            superlu.clear()
        monkeypatch.setattr(spectral, "BAND_BUDGET", 0)
        rng = np.random.default_rng(5)
        for K, solve in factors if band else []:  # the band solve against SuperLU's
            b = rng.uniform(-1.0, 1.0, K.shape[0])
            x, lu = solve(b), spectral.factorize(K, (1, 1))(b)
            assert np.linalg.norm(K @ x - b) <= 1e-12 * np.linalg.norm(b)
            assert np.linalg.norm(x - lu) <= 1e-12 * np.linalg.norm(lu)


class TestF2:
    def test_gamma30_passes_on_unit_square(self, square33):
        grid, field, _, comp = square33
        eig = dirichlet_lambda1(comp, grid, component_operators(grid, comp)[0])
        entry = check_hypothesis_f2(comp, field, 30.0, eig)
        # gamma / lambda1 about 1.52 versus a_M = 1.
        assert entry.a_max == pytest.approx(1.0)
        assert entry.gamma / entry.lambda1 == pytest.approx(1.52, rel=2e-2)
        assert entry.passed

    def test_gamma10_fails_on_unit_square(self, square33):
        grid, field, _, comp = square33
        eig = dirichlet_lambda1(comp, grid, component_operators(grid, comp)[0])
        entry = check_hypothesis_f2(comp, field, 10.0, eig)
        assert entry.gamma / entry.lambda1 == pytest.approx(0.507, rel=2e-2)
        assert not entry.passed

    def test_small_weight_always_passes(self, square33):
        grid, _, _, comp = square33
        eig = dirichlet_lambda1(comp, grid, component_operators(grid, comp)[0])
        tiny = evaluate_weight(WeightSpec.constant(1e-3), grid)
        entry = check_hypothesis_f2(comp, tiny, 10.0, eig)
        assert entry.passed
