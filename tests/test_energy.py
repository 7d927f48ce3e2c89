import numpy as np
import pytest

from conftest import nested_rings_config
from oracles import damped_fixed_point

from multibump.energy import (NonlinearitySpec, SolverOptions, _newton_direction,
                              assemble_energy, minimize_energy, primitive_F,
                              truncate_nonlinearity, validate_nonlinearity)
from multibump.errors import (HypothesisViolationError,
                              InvalidNonlinearityError)
from multibump.grid import DomainSpec, build_grid
from multibump.pipeline import parse_config
from multibump.spectral import dirichlet_lambda1
from multibump.topology import decompose_components
from multibump.weights import WeightSpec, detect_zero_set, evaluate_weight

GAMMA, S_STAR = 30.0, 1.0
BETA = S_STAR / 2.0


class TestTruncation:
    def test_zero_above_s_star(self, logistic30):
        assert logistic30.f_star(S_STAR + 1.0) == 0.0
        assert logistic30.f_star(S_STAR) == 0.0

    def test_zero_at_origin(self, logistic30):
        assert logistic30.f_star(0.0) == 0.0

    def test_frozen_below_minus_beta(self, logistic30):
        expected = GAMMA * BETA * (1.0 + BETA / S_STAR)
        assert logistic30.f_star(-BETA - 5.0) == pytest.approx(expected)
        assert logistic30.f_star(-BETA - 0.1) == pytest.approx(expected)

    def test_matches_f_in_middle_branch(self, logistic30):
        s = np.linspace(-BETA + 1e-9, S_STAR - 1e-9, 101)
        assert np.allclose(logistic30.f_star(s), logistic30.base.f(s))

    def test_bounded(self, logistic30):
        s = np.linspace(-100.0, 100.0, 10001)
        assert np.max(np.abs(logistic30.f_star(s))) < np.inf


class TestPrimitive:
    def test_zero_at_zero(self, logistic30):
        assert primitive_F(logistic30, 0.0) == 0.0

    def test_value_at_s_star(self, logistic30):
        assert primitive_F(logistic30, S_STAR) == pytest.approx(GAMMA * S_STAR ** 2 / 6.0)

    def test_constant_beyond_s_star(self, logistic30):
        top = primitive_F(logistic30, S_STAR)
        assert primitive_F(logistic30, S_STAR + 2.7) == pytest.approx(top)

    def test_nondecreasing_on_bump_range(self, logistic30):
        s = np.linspace(0.0, S_STAR, 500)
        F = logistic30.F_star(s)
        assert np.all(np.diff(F) >= -1e-15)

    def test_simpson_table_matches_closed_form(self):
        custom = NonlinearitySpec.custom("30*abs(s)*(1 - s)", gamma=30.0,
                                         s_star=1.0, beta_star=0.5)
        trunc_custom = truncate_nonlinearity(custom)
        trunc_exact = truncate_nonlinearity(NonlinearitySpec.logistic(30.0, 1.0))
        s = np.linspace(-2.0, 2.0, 401)
        assert np.allclose(trunc_custom.F_star(s), trunc_exact.F_star(s), atol=1e-8)


class TestValidation:
    def test_negative_dip_rejected(self):
        bad = NonlinearitySpec.custom("30*s*(1 - s)", gamma=30.0, s_star=1.0,
                                      beta_star=0.5)  # negative for s < 0
        with pytest.raises(InvalidNonlinearityError):
            validate_nonlinearity(bad)

    def test_wrong_slope_rejected(self):
        bad = NonlinearitySpec.custom("30*abs(s)*(1 - s)", gamma=10.0,
                                      s_star=1.0, beta_star=0.5)
        with pytest.raises(InvalidNonlinearityError):
            validate_nonlinearity(bad)

    def test_nonvanishing_upper_zero_rejected(self):
        bad = NonlinearitySpec.custom("30*abs(s)", gamma=30.0, s_star=1.0,
                                      beta_star=0.5)
        with pytest.raises(InvalidNonlinearityError):
            validate_nonlinearity(bad)

    def test_nonpositive_parameters_rejected(self):
        with pytest.raises(InvalidNonlinearityError):
            validate_nonlinearity(NonlinearitySpec.logistic(-1.0, 1.0))

    @pytest.mark.parametrize("expr", [
        "30*s*(1-s) + 0*log(s)",        # NaN on [-beta*, 0]
        "30*abs(s)*(1-s) + 0*sqrt(s)",  # NaN on [-beta*, 0) only
        # NaN at s = 0.5 only: a knot of the primitive's table, not a sample
        "30*abs(s)*(1-s) + 0*log(abs(s - 0.5))",
    ])
    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_nan_valued_f_rejected(self, expr):
        # NaN fails every comparison: without a finiteness test such an f
        # passes the sign checks and stalls the line search.
        bad = NonlinearitySpec.custom(expr, gamma=30.0, s_star=1.0, beta_star=0.5)
        with pytest.raises(InvalidNonlinearityError, match="finite"):
            truncate_nonlinearity(bad)


@pytest.fixture(scope="module")
def square_problem(square33, logistic30):
    grid, field, zero, comp = square33
    eigen = dirichlet_lambda1(comp, grid)
    energy = assemble_energy(comp, field, logistic30, grid)
    return grid, comp, eigen, energy


class TestEnergyAssembly:
    def test_value_and_gradient_vanish_at_zero(self, square_problem):
        _, _, _, energy = square_problem
        u = np.zeros(energy.size)
        assert energy.value(u) == 0.0
        assert np.all(energy.gradient(u) == 0.0)

    def test_seed_direction_has_negative_energy(self, square_problem):
        _, _, eigen, energy = square_problem
        assert energy.value(0.01 * eigen.e1) < 0.0

    def test_coercivity_at_large_amplitude(self, square_problem):
        _, _, eigen, energy = square_problem
        assert energy.value(1000.0 * S_STAR * eigen.e1) > 0.0

    def test_gradient_matches_finite_differences(self, square_problem):
        grid, _, _, energy = square_problem
        rng = np.random.default_rng(7)
        step = 1e-6 * S_STAR
        for _ in range(10):
            u = rng.uniform(-BETA, S_STAR + 1.0, size=energy.size)
            grad = energy.gradient(u)
            probe = rng.integers(0, energy.size, size=64)
            fd = np.empty(probe.size)
            for k, i in enumerate(probe):
                up, um = u.copy(), u.copy()
                up[i] += step
                um[i] -= step
                fd[k] = (energy.value(up) - energy.value(um)) / (2.0 * step)
            scale = np.max(np.abs(grad))
            assert np.max(np.abs(grad[probe] - fd)) <= 1e-5 * scale


class TestMinimization:
    def test_bump_on_unit_square(self, square_problem):
        _, _, eigen, energy = square_problem
        bump = minimize_energy(energy, eigen)
        tol = SolverOptions().grad_tolerance(GAMMA, energy.cell_volume)
        assert bump.energy < 0.0
        assert bump.grad_norm <= tol <= 1e-8
        assert 0.0 < bump.max_value <= S_STAR + 1e-8
        assert bump.min_value >= -1e-8

    def test_matches_damped_fixed_point_oracle(self, square_problem):
        _, _, eigen, energy = square_problem
        bump = minimize_energy(energy, eigen)
        oracle = damped_fixed_point(energy, bump.seed_scale * eigen.e1)
        assert np.max(np.abs(bump.values - oracle)) < 1e-4

    def test_zero_guess_is_stationary_but_never_returned(self, square_problem):
        _, _, eigen, energy = square_problem
        # 0 is a critical point with J(0) = 0; seeding skips it because the
        # seed must have strictly negative energy.
        assert np.all(energy.gradient(np.zeros(energy.size)) == 0.0)
        bump = minimize_energy(energy, eigen)
        assert bump.energy < 0.0
        assert bump.seed_scale > 0.0

    def test_refuses_when_f2_fails(self, square33, logistic10):
        grid, field, zero, comp = square33
        eigen = dirichlet_lambda1(comp, grid)
        energy = assemble_energy(comp, field, logistic10, grid)
        with pytest.raises(HypothesisViolationError) as err:
            minimize_energy(energy, eigen)
        assert err.value.hypothesis == "f2"

    def test_truncation_depth_is_inert(self, square33):
        grid, field, zero, comp = square33
        eigen = dirichlet_lambda1(comp, grid)
        bumps = []
        for beta in (S_STAR / 2.0, S_STAR / 4.0):
            trunc = truncate_nonlinearity(
                NonlinearitySpec.logistic(GAMMA, S_STAR, beta))
            energy = assemble_energy(comp, field, trunc, grid)
            bumps.append(minimize_energy(energy, eigen))
        assert np.max(np.abs(bumps[0].values - bumps[1].values)) < 1e-10

    def test_joint_scaling_multiplies_energy(self, square33, logistic30):
        grid, field, zero, comp = square33
        from multibump.weights import WeightSpec, evaluate_weight
        doubled_field = evaluate_weight(WeightSpec.constant(2.0), grid)
        doubled_trunc = truncate_nonlinearity(NonlinearitySpec.logistic(2.0 * GAMMA, S_STAR))
        base = assemble_energy(comp, field, logistic30, grid)
        scaled = assemble_energy(comp, doubled_field, doubled_trunc, grid)
        rng = np.random.default_rng(3)
        for _ in range(5):
            u = rng.uniform(-BETA, S_STAR, size=base.size)
            assert scaled.value(u) == pytest.approx(2.0 * base.value(u), rel=1e-12)

    def test_outer_iterations_do_not_grow_with_resolution(self, logistic30):
        counts = []
        for n in (33, 65, 129):
            grid = build_grid(DomainSpec.unit_box(2), n)
            field = evaluate_weight(WeightSpec.constant(1.0), grid)
            comp = decompose_components(grid, detect_zero_set(field, grid)).components[0]
            energy = assemble_energy(comp, field, logistic30, grid)
            counts.append(minimize_energy(energy, dirichlet_lambda1(comp, grid)).iterations)
        assert max(counts) <= 8
        assert max(counts) - min(counts) <= 1

    def test_matches_oracle_on_degenerate_weights(self, ring65, logistic10):
        grid, field, _, dec = ring65
        cases = [(grid, field, comp, logistic10) for comp in dec.components]
        config = parse_config(nested_rings_config(33))
        tol = config.tolerances
        grid = build_grid(config.domain, config.resolution)
        field = evaluate_weight(config.weight, grid)
        zero = detect_zero_set(field, grid, eps_zero=tol.zero_threshold, band=tol.zero_band)
        nested = {c.id: c for c in decompose_components(grid, zero).components}
        # The oracle itself does not converge on the other nested components.
        cases.append((grid, field, nested[(1, 1)],
                      truncate_nonlinearity(config.nonlinearity)))
        for grid, field, comp, trunc in cases:
            eigen = dirichlet_lambda1(comp, grid)
            energy = assemble_energy(comp, field, trunc, grid)
            bump = minimize_energy(energy, eigen)
            oracle = damped_fixed_point(energy, bump.seed_scale * eigen.e1)
            assert np.max(np.abs(bump.values - oracle)) < 1e-4


class TestNewtonDirection:
    def test_descent_direction_when_hessian_is_indefinite(self, square_problem):
        _, _, eigen, energy = square_problem
        shift = np.full(energy.size, 2.0 * GAMMA * energy.cell_volume)
        e1 = eigen.e1
        assert e1 @ (energy.K @ e1) - e1 @ (shift * e1) < 0.0
        g = energy.gradient(1e-3 * e1)
        d, steps = _newton_direction(energy.K, shift, g, 0.5)
        assert steps >= 1
        assert g @ d > 0.0

    def test_solves_positive_definite_system_to_forcing_tolerance(self, square_problem):
        _, _, eigen, energy = square_problem
        shift = np.zeros(energy.size)
        g = energy.gradient(0.5 * eigen.e1)
        d, _ = _newton_direction(energy.K, shift, g, 1e-6)
        assert np.linalg.norm(energy.K @ d - g) <= 1e-6 * np.linalg.norm(g)
        assert g @ d > 0.0
