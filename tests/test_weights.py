import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multibump.errors import InvalidWeightError
from multibump.grid import DomainSpec, build_grid
from multibump.weights import (WeightSpec, assess_admissibility,
                               cbrt_ring_weight, detect_zero_set,
                               estimate_a2_constant, estimate_lt_norm,
                               evaluate_weight)

B2 = DomainSpec.ball((0.0, 0.0), 2.0)
UNIT = DomainSpec.unit_box(2)
QUADRATIC = WeightSpec.power_product([((0.5, 0.5), 0.0, 2.0)])


def assess(spec, domain, n):
    """Admissibility of ``spec`` with its fine level built at ``n`` nodes per axis."""
    grid = build_grid(domain, n)
    field = evaluate_weight(spec, grid)
    return assess_admissibility(grid, field, detect_zero_set(field, grid))


def radial_value(spec, r):
    return float(spec.evaluate(np.array([[r, 0.0]]))[0])


class TestEvaluation:
    def test_ring_profile_printed_values(self):
        spec = cbrt_ring_weight()
        assert radial_value(spec, 0.0) == pytest.approx(1.0)
        assert radial_value(spec, 1.0) == pytest.approx(0.0, abs=1e-12)
        # sqrt((1-r)(r-2)) at r = 1.5
        assert radial_value(spec, 1.5) == pytest.approx(0.5)

    def test_constant_weight_every_node(self):
        grid = build_grid(UNIT, 17)
        field = evaluate_weight(WeightSpec.constant(3.25), grid)
        active = grid.interior_mask | grid.boundary_mask
        assert np.all(field.values[active] == 3.25)
        assert field.a_max == 3.25

    def test_negative_weight_rejected(self):
        grid = build_grid(UNIT, 17)
        with pytest.raises(InvalidWeightError):
            evaluate_weight(WeightSpec.expression("x - 0.5"), grid)

    def test_identically_zero_rejected(self):
        grid = build_grid(UNIT, 17)
        with pytest.raises(InvalidWeightError):
            evaluate_weight(WeightSpec.constant(0.0), grid)

    def test_conductance_is_arithmetic_mean(self):
        grid = build_grid(UNIT, 9)
        field = evaluate_weight(WeightSpec.expression("1.0 + x"), grid)
        v = field.values
        expected = 0.5 * (v[:-1, :] + v[1:, :])
        assert np.allclose(field.conductances[0], expected)


class TestA2:
    def test_constant_weight_estimate_is_one(self):
        grid = build_grid(UNIT, 33)
        field = evaluate_weight(WeightSpec.constant(2.0), grid)
        assert estimate_a2_constant(field, grid) == pytest.approx(1.0, abs=1e-9)

    def test_ring_weight_stable_across_refinement(self):
        report = assess(cbrt_ring_weight(), B2, 129)
        assert np.isfinite(report.a2_estimate)
        assert not report.a2_divergent
        # Stable within 10% between the two levels.
        assert 1.0 / 1.1 <= report.a2_growth <= 1.1

    def test_quadratic_zero_divergence_flagged(self):
        report = assess(QUADRATIC, UNIT, 129)
        assert report.a2_divergent
        assert report.a2_growth > 1.10
        assert report.verdict in ("violates-a2", "violates-lt")

    def test_estimate_at_least_one_for_degenerate_weight(self, ring65):
        grid, field, zero, _ = ring65
        assert estimate_a2_constant(field, grid, zero=zero) >= 1.0

    @settings(max_examples=8, deadline=None)
    @given(st.floats(min_value=-3.0, max_value=3.0))
    def test_scale_invariance(self, log_lam):
        lam = float(np.exp(log_lam))
        grid = build_grid(B2, 33)
        base = evaluate_weight(cbrt_ring_weight(), grid)
        scaled = evaluate_weight(
            WeightSpec.radial((0.0, 0.0),
                              ((1.0, "cbrt(1 - r**2)"), (2.0, "sqrt((1 - r)*(r - 2))")),
                              zero_radii=(1.0,), scale=lam), grid)
        a2_base = estimate_a2_constant(base, grid)
        a2_scaled = estimate_a2_constant(scaled, grid)
        assert a2_scaled == pytest.approx(a2_base, rel=1e-9)


class TestLt:
    def test_constant_weight_closed_form(self):
        grid = build_grid(UNIT, 33)
        c = 4.0
        field = evaluate_weight(WeightSpec.constant(c), grid)
        measure = grid.interior_count * grid.cell_volume
        for t in (1.0, 2.0, 3.5):
            assert estimate_lt_norm(field, grid, t) == pytest.approx(
                measure ** (1.0 / t) / c, rel=1e-12)

    def test_ring_weight_low_exponents_finite_and_stable(self):
        report = assess(cbrt_ring_weight(), B2, 129)
        rows = {row.t: row for row in report.lt_rows}
        assert rows[1.5].stable and np.isfinite(rows[1.5].norm_fine)
        assert rows[2.0].stable and np.isfinite(rows[2.0].norm_fine)
        assert np.isfinite(rows[3.0].norm_fine)
        assert report.best_t is not None and report.best_t > report.n_over_2

    def test_quadratic_zero_grows_at_n_half(self):
        report = assess(QUADRATIC, UNIT, 129)
        rows = {row.t: row for row in report.lt_rows}
        # t = N/2 = 1: the true integral diverges (logarithmically), which
        # shows as steady norm growth between the levels.
        assert rows[1.0].growing
        # Larger exponents diverge polynomially: factor 2 and beyond.
        assert max(row.growth for row in report.lt_rows) > 2.0
        assert report.best_t is None or report.best_t <= report.n_over_2 or report.a2_divergent

    def test_lt_scales_reciprocally(self, ring65):
        grid, field, zero, _ = ring65
        doubled = evaluate_weight(
            WeightSpec.radial((0.0, 0.0),
                              ((1.0, "cbrt(1 - r**2)"), (2.0, "sqrt((1 - r)*(r - 2))")),
                              zero_radii=(1.0,), scale=2.0), grid)
        zero2 = detect_zero_set(doubled, grid)
        for t in (1.0, 2.0):
            assert estimate_lt_norm(doubled, grid, t, zero=zero2) == pytest.approx(
                0.5 * estimate_lt_norm(field, grid, t, zero=zero), rel=1e-9)

    def test_t_below_one_rejected(self, ring65):
        grid, field, zero, _ = ring65
        with pytest.raises(ValueError):
            estimate_lt_norm(field, grid, 0.5, zero=zero)


class TestZeroSet:
    def test_constant_weight_empty_mask(self):
        grid = build_grid(UNIT, 17)
        field = evaluate_weight(WeightSpec.constant(1.0), grid)
        zero = detect_zero_set(field, grid)
        assert zero.count == 0
        assert not zero.touches_domain_boundary

    def test_ring_mask_hausdorff_close_to_circle(self, ring65):
        grid, field, zero, _ = ring65
        points = grid.points()[zero.mask]
        radii = np.linalg.norm(points, axis=-1)
        assert np.max(np.abs(radii - 1.0)) <= 2.0 * grid.h
        angles = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        circle = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        gaps = np.min(np.linalg.norm(circle[:, None, :] - points[None, :, :],
                                     axis=-1), axis=1)
        assert np.max(gaps) <= 2.0 * grid.h

    def test_segment_to_boundary_flagged(self):
        grid = build_grid(UNIT, 33)
        spec = WeightSpec.expression(
            "sqrt((x - 0.5)**2 + where(y < 0.5, (0.5 - y)**2, 0))")
        field = evaluate_weight(spec, grid)
        zero = detect_zero_set(field, grid)
        assert zero.touches_domain_boundary

    @settings(max_examples=8, deadline=None)
    @given(st.floats(min_value=1e-8, max_value=1e-2),
           st.floats(min_value=1.0, max_value=100.0))
    def test_mask_monotone_in_threshold(self, eps, factor):
        grid = build_grid(B2, 33)
        field = evaluate_weight(cbrt_ring_weight(), grid)
        small = detect_zero_set(field, grid, eps_zero=eps)
        large = detect_zero_set(field, grid, eps_zero=min(eps * factor, 0.5))
        assert not np.any(small.mask & ~large.mask)


class TestAdmissibilityVerdicts:
    def test_ring_admissible(self):
        report = assess(cbrt_ring_weight(), B2, 65)
        assert report.verdict == "admissible"

    def test_quadratic_rejected_under_a2_family(self):
        report = assess(QUADRATIC, UNIT, 129)
        assert report.verdict in ("violates-a2", "violates-lt")

    def test_boundary_touching_zero_set_rejected(self):
        spec = WeightSpec.expression(
            "sqrt((x - 0.5)**2 + where(y < 0.5, (0.5 - y)**2, 0))")
        report = assess(spec, UNIT, 65)
        assert report.verdict == "zero-set-touches-boundary"

    def test_nested_rings_admissible(self):
        spec = WeightSpec.power_product(
            [((0.0, 0.0), r, 0.6) for r in (0.5, 1.0, 1.5)], scale=0.5)
        report = assess(spec, B2, 65)
        assert report.verdict == "admissible"
        assert report.best_t > 1.0
