import re

import numpy as np
import pytest

from conftest import component_operators, nested_rings_config, unit_box
from oracles import damped_fixed_point, logistic_primitive

from multibump import energy as energy_module
from multibump import spectral
from multibump.energy import (NonlinearitySpec, TruncatedNonlinearity, assemble_energy,
                              minimize_energy, truncate_nonlinearity)
from multibump.errors import HypothesisViolationError, NumericalFailureError
from multibump.grid import build_grid
from multibump.pipeline import parse_config
from multibump.spectral import dirichlet_lambda1, factorize, jacobi, pcg
from multibump.tolerances import ToleranceConfig
from multibump.topology import decompose_components
from multibump.weights import WeightSpec, detect_zero_set, evaluate_weight

GAMMA, S_STAR = 30.0, 1.0
BETA = S_STAR / 2.0


def square_energy(n, trunc, ndim=2, weight=WeightSpec.constant(1.0)):
    """Unit box at resolution n, constant weight by default: its energy and eigenpair."""
    grid = build_grid(unit_box(ndim), n)
    field = evaluate_weight(weight, grid)
    comp = decompose_components(grid, detect_zero_set(field, grid)).components[0]
    K0, K_w = component_operators(grid, comp, field)
    return assemble_energy(comp, K_w, trunc, grid), dirichlet_lambda1(comp, grid, K0)


@pytest.fixture(scope="module")
def square_refinement(logistic30):
    """The square's bump at 33/65/129 with each Newton step's inner count, by weight.

    Each inner count is recorded with whether the step used the LU factor,
    that is, a preconditioner other than the component's one Jacobi.
    """
    solves = {}
    with pytest.MonkeyPatch.context() as patch:
        steps, made = [], []

        def recorded_jacobi(K):
            made.append(jacobi(K))
            return made[-1]

        def recorded(K, shift, g, eta, precondition):
            d, count = pcg(K, shift, g, eta, precondition)
            steps.append((precondition is not made[-1], count))
            return d, count

        patch.setattr(energy_module, "jacobi", recorded_jacobi)
        patch.setattr(energy_module, "pcg", recorded)
        for weight in ("1", "1 + 0.5*x*y"):
            for n in (33, 65, 129):
                steps = []
                bump = minimize_energy(*square_energy(n, logistic30,
                                                      weight=WeightSpec.expression(weight)))
                solves.setdefault(weight, []).append((bump, steps))
    return solves


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_f_is_evaluated_on_the_clipped_argument(self):
        # An f defined only up to a little past s* must not be evaluated beyond s*.
        trunc = truncate_nonlinearity(NonlinearitySpec.custom(
            "30*abs(s)*(1-s) + 0*sqrt(1.2 - s)", gamma=30.0, s_star=1.0, beta_star=0.5))
        assert trunc.f_star(np.array([0.5, 1.5])).tolist() == [7.5, 0.0]


class TestPrimitive:
    def test_zero_at_zero(self, logistic30):
        assert logistic30.F_and_f_star(0.0)[0] == 0.0

    def test_value_at_s_star(self, logistic30):
        assert logistic30.F_and_f_star(S_STAR)[0] == pytest.approx(GAMMA * S_STAR ** 2 / 6.0)

    def test_constant_beyond_s_star(self, logistic30):
        top = logistic30.F_and_f_star(S_STAR)[0]
        assert logistic30.F_and_f_star(S_STAR + 2.7)[0] == pytest.approx(top)

    def test_nondecreasing_on_bump_range(self, logistic30):
        s = np.linspace(0.0, S_STAR, 500)
        F = logistic30.F_and_f_star(s)[0]
        assert np.all(np.diff(F) >= -1e-15)

    def test_simpson_table_matches_closed_form(self):
        custom = NonlinearitySpec.custom("30*abs(s)*(1 - s)", gamma=30.0,
                                         s_star=1.0, beta_star=0.5)
        logistic = NonlinearitySpec.logistic(30.0, 1.0)
        s = np.linspace(-2.0, 2.0, 400)  # mostly between the table's knots
        exact = logistic_primitive(s, 30.0, 1.0, 0.5)
        for spec in (custom, logistic):
            np.testing.assert_allclose(truncate_nonlinearity(spec).F_and_f_star(s)[0], exact,
                                       rtol=1e-12, atol=0.0)


class TestValidation:
    def test_negative_dip_rejected(self):
        bad = NonlinearitySpec.custom("30*s*(1 - s)", gamma=30.0, s_star=1.0,
                                      beta_star=0.5)  # negative for s < 0
        with pytest.raises(HypothesisViolationError):
            truncate_nonlinearity(bad)

    def test_wrong_slope_rejected(self):
        bad = NonlinearitySpec.custom("30*abs(s)*(1 - s)", gamma=10.0,
                                      s_star=1.0, beta_star=0.5)
        with pytest.raises(HypothesisViolationError):
            truncate_nonlinearity(bad)

    def test_nonvanishing_upper_zero_rejected(self):
        bad = NonlinearitySpec.custom("30*abs(s)", gamma=30.0, s_star=1.0,
                                      beta_star=0.5)
        with pytest.raises(HypothesisViolationError):
            truncate_nonlinearity(bad)

    @pytest.mark.parametrize("expr, message", [
        ("30*abs(s)*(1 - s) + 1", "f(0) must vanish"),
        ("30*s*(1 - s)*(s - 0.5)", "f must be strictly positive on (0, s*)"),
    ], ids=["f-at-zero", "dip-inside"])
    def test_shape_violation_names_its_rule(self, expr, message):
        bad = NonlinearitySpec.custom(expr, gamma=30.0, s_star=1.0, beta_star=0.5)
        with pytest.raises(HypothesisViolationError, match=re.escape(message)):
            truncate_nonlinearity(bad)

    def test_nonpositive_parameters_rejected(self):
        for gamma in (-1.0, 0.0):
            with pytest.raises(HypothesisViolationError) as err:
                truncate_nonlinearity(NonlinearitySpec.logistic(gamma, 1.0))
            assert err.value.hypothesis == "f1"

    @pytest.mark.parametrize("expr", [
        "30*s*(1-s) + 0*log(s)",        # NaN on [-beta*, 0]
        "30*abs(s)*(1-s) + 0*sqrt(s)",  # NaN on [-beta*, 0) only
        # NaN at s = 0.5 only: a knot of the primitive's table, not a sample
        "30*abs(s)*(1-s) + 0*log(abs(s - 0.5))",
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # f is evaluated with warnings off
    def test_nan_valued_f_rejected(self, expr):
        # NaN fails every comparison: without a finiteness test such an f
        # passes the sign checks and stalls the line search.
        bad = NonlinearitySpec.custom(expr, gamma=30.0, s_star=1.0, beta_star=0.5)
        with pytest.raises(HypothesisViolationError, match="finite"):
            truncate_nonlinearity(bad)

    def test_f_is_evaluated_once(self, monkeypatch):
        """One sample of f decides every (f1) rule and fills the F* table."""
        calls = []
        f = NonlinearitySpec.f

        def counted(spec, s):
            calls.append(s)
            return f(spec, s)

        monkeypatch.setattr(NonlinearitySpec, "f", counted)
        truncate_nonlinearity(NonlinearitySpec.logistic(GAMMA, S_STAR))
        assert len(calls) == 1
        # The slope is the last sampled rule.
        with pytest.raises(HypothesisViolationError, match="slope"):
            truncate_nonlinearity(NonlinearitySpec.custom("30*abs(s)*(1 - s)", 10.0, 1.0, 0.5))
        assert len(calls) == 2


@pytest.fixture(scope="module")
def square_problem(square33, logistic30):
    grid, field, zero, comp = square33
    K0, K_w = component_operators(grid, comp, field)
    eigen = dirichlet_lambda1(comp, grid, K0)
    energy = assemble_energy(comp, K_w, logistic30, grid)
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

    def test_gradient_matches_finite_differences(self, square33, square_problem):
        """For the logistic default and for a non-polynomial custom f."""
        grid, field, _, comp = square33
        custom = truncate_nonlinearity(NonlinearitySpec.custom(
            "30*abs(sin(s))*(1 - s)", GAMMA, S_STAR, BETA))
        K_w = component_operators(grid, comp, field)[1]
        for energy in (square_problem[3], assemble_energy(comp, K_w, custom, grid)):
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
        tol = ToleranceConfig().grad_tol_scale * GAMMA * energy.cell_volume
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
        # The caller gates on (f2); called anyway, the seed search fails: with a
        # constant weight and F*(t) <= gamma t^2/2, J(s e1) >= s^2 (lambda_1 - gamma)
        # |e1|^2 h^N / 2 >= 0 for every s, as gamma 10 < lambda_1 here.
        grid, field, zero, comp = square33
        K0, K_w = component_operators(grid, comp, field)
        eigen = dirichlet_lambda1(comp, grid, K0)
        energy = assemble_energy(comp, K_w, logistic10, grid)
        with pytest.raises(NumericalFailureError, match="no negative-energy seed"):
            minimize_energy(energy, eigen)

    def test_truncation_depth_is_inert(self, square33):
        grid, field, zero, comp = square33
        K0, K_w = component_operators(grid, comp, field)
        eigen = dirichlet_lambda1(comp, grid, K0)
        bumps = []
        for beta in (S_STAR / 2.0, S_STAR / 4.0):
            trunc = truncate_nonlinearity(
                NonlinearitySpec.logistic(GAMMA, S_STAR, beta))
            energy = assemble_energy(comp, K_w, trunc, grid)
            bumps.append(minimize_energy(energy, eigen))
        assert np.max(np.abs(bumps[0].values - bumps[1].values)) < 1e-10

    def test_joint_scaling_multiplies_energy(self, square33, logistic30):
        grid, field, zero, comp = square33
        from multibump.weights import WeightSpec, evaluate_weight
        doubled_field = evaluate_weight(WeightSpec.constant(2.0), grid)
        doubled_trunc = truncate_nonlinearity(NonlinearitySpec.logistic(2.0 * GAMMA, S_STAR))
        base, scaled = (assemble_energy(comp, component_operators(grid, comp, f)[1], t, grid)
                        for f, t in ((field, logistic30), (doubled_field, doubled_trunc)))
        rng = np.random.default_rng(3)
        for _ in range(5):
            u = rng.uniform(-BETA, S_STAR, size=base.size)
            assert scaled.value(u) == pytest.approx(2.0 * base.value(u), rel=1e-12)

    def test_outer_iterations_do_not_grow_with_resolution(self, square_refinement):
        for solves in square_refinement.values():
            counts = [bump.iterations for bump, _ in solves]
            assert max(counts) <= 8
            assert max(counts) - min(counts) <= 1

    def test_inner_counts_after_the_switch_do_not_grow_with_resolution(
            self, square_refinement):
        # The constant weight's stiffness is a multiple of the spectral K: factored
        # from step 1.  The varying one switches after one Jacobi step of 25-118.
        for weight, first in (("1", 1), ("1 + 0.5*x*y", 2)):
            factored = []
            for bump, steps in square_refinement[weight]:
                assert bump.factored_from == first
                used = [i for i, (lu, _) in enumerate(steps, start=1) if lu]
                # The switch holds for every later step, from the recorded one.
                assert used == list(range(first, len(steps) + 1))
                jacobi = [count for lu, count in steps if not lu]
                assert jacobi == [] or jacobi[-1] >= 0.5 * np.sqrt(bump.nodes.size)
                factored.append([count for lu, count in steps if lu])
            assert max(map(max, factored)) <= 5

    def test_three_dimensions_never_factor(self, logistic30, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("factorized a 3D component")

        monkeypatch.setattr(spectral, "splu", refuse)
        monkeypatch.setattr(energy_module, "FACTOR_SWITCH", 0.0)
        assert minimize_energy(*square_energy(9, logistic30, ndim=3)).factored_from is None
        with pytest.raises(AssertionError, match="factorized"):
            minimize_energy(*square_energy(9, logistic30))

    def test_matches_oracle_on_degenerate_weights(self, ring65, logistic10):
        grid, field, _, dec = ring65
        cases = [(grid, field, comp, logistic10) for comp in dec.components]
        config = parse_config(nested_rings_config(33))
        grid = build_grid(config.domain, config.resolution)
        field = evaluate_weight(config.weight, grid)
        zero = detect_zero_set(field, grid, config.tolerances)
        nested = {c.id: c for c in decompose_components(grid, zero).components}
        # The oracle itself does not converge on the other nested components.
        cases.append((grid, field, nested[(1, 1)],
                      truncate_nonlinearity(config.nonlinearity)))
        for grid, field, comp, trunc in cases:
            K0, K_w = component_operators(grid, comp, field)
            eigen = dirichlet_lambda1(comp, grid, K0)
            energy = assemble_energy(comp, K_w, trunc, grid)
            bump = minimize_energy(energy, eigen)
            oracle = damped_fixed_point(energy, bump.seed_scale * eigen.e1)
            assert np.max(np.abs(bump.values - oracle)) < 1e-4


def nested_rings_problems(n):
    """(energy, eigenpair) of each nested-rings component at resolution n."""
    config = parse_config(nested_rings_config(n))
    grid = build_grid(config.domain, config.resolution)
    field = evaluate_weight(config.weight, grid)
    zero = detect_zero_set(field, grid, config.tolerances)
    trunc = truncate_nonlinearity(config.nonlinearity)
    return [(assemble_energy(comp, K_w, trunc, grid), dirichlet_lambda1(comp, grid, K0))
            for comp in decompose_components(grid, zero).components
            for K0, K_w in [component_operators(grid, comp, field)]]


class TestNonlinearityWork:
    @pytest.mark.parametrize("case", ["square-33", "nested-rings-33"])
    def test_each_point_evaluates_f_once(self, case, logistic30, monkeypatch):
        problems = ([square_energy(33, logistic30)] if case == "square-33"
                    else nested_rings_problems(33))
        f, calls, points = NonlinearitySpec.f, [], []
        both = TruncatedNonlinearity.F_and_f_star
        monkeypatch.setattr(NonlinearitySpec, "f", lambda spec, s: calls.append(1) or f(spec, s))
        monkeypatch.setattr(TruncatedNonlinearity, "F_and_f_star",
                            lambda trunc, s: points.append(s.copy()) or both(trunc, s))
        for energy, eigen in problems:
            calls.clear()
            points.clear()
            bump = minimize_energy(energy, eigen)
            # The seed halvings, then at least one line-search trial per Newton step.
            seeds = round(np.log2(energy.trunc.base.s_star / bump.seed_scale)) + 1
            assert len(points) - seeds >= bump.iterations >= 3
            # F* and f* at each point by one pass (f at the Simpson midpoint and at the
            # point), and the difference quotient f*' (two f* calls) once per step.
            assert len(calls) == 2 * len(points) + 2 * bump.iterations
            assert len({p.tobytes() for p in points}) == len(points)  # no point twice
            # J carried through the steps is the energy's value at the minimizer.
            assert bump.energy == pytest.approx(energy.value(bump.values), rel=1e-12)


class TestNewtonDirection:
    def test_descent_direction_when_hessian_is_indefinite(self, square_problem):
        _, _, eigen, energy = square_problem
        shift = np.full(energy.size, 2.0 * GAMMA * energy.cell_volume)
        e1 = eigen.e1
        assert e1 @ (energy.K @ e1) - e1 @ (shift * e1) < 0.0
        g = energy.gradient(1e-3 * e1)
        d, steps = pcg(energy.K, shift, g, 0.5, jacobi(energy.K))
        assert steps >= 1
        assert g @ d > 0.0

    def test_factor_of_k_preconditions_exactly(self, square_problem):
        _, _, eigen, energy = square_problem
        solve = factorize(energy.K, energy.component.id)
        g = energy.gradient(0.5 * eigen.e1)
        d, steps = pcg(energy.K, np.zeros(energy.size), g, 1e-12, solve)
        assert steps == 1
        assert np.linalg.norm(energy.K @ d - g) <= 1e-12 * np.linalg.norm(g)
        shift = np.full(energy.size, 2.0 * GAMMA * energy.cell_volume)
        g = energy.gradient(1e-3 * eigen.e1)
        d, _ = pcg(energy.K, shift, g, 0.5, solve)
        assert g @ d > 0.0

    def test_solves_positive_definite_system_to_forcing_tolerance(self, square_problem):
        _, _, eigen, energy = square_problem
        shift = np.zeros(energy.size)
        g = energy.gradient(0.5 * eigen.e1)
        d, _ = pcg(energy.K, shift, g, 1e-6, jacobi(energy.K))
        assert np.linalg.norm(energy.K @ d - g) <= 1e-6 * np.linalg.norm(g)
        assert g @ d > 0.0
