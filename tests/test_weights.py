import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from conftest import cbrt_ring_weight, interior_count, lattice_operator, unit_box
from oracles import fast_lens_by_enumeration, reference_a2_constant

from multibump import pipeline
from multibump.cli import main
from multibump.errors import InvalidWeightError
from multibump.grid import DomainSpec, Grid, build_grid
from multibump.tolerances import ToleranceConfig
from multibump.weights import (WeightSpec, _fast_len, assess_admissibility, detect_zero_set,
                               dyadic_radii, estimate_a2_constant, estimate_lt_norm,
                               evaluate_weight, resolvable_floor)

B2 = DomainSpec.ball((0.0, 0.0), 2.0)
UNIT = unit_box(2)
QUADRATIC = WeightSpec.power_product([((0.5, 0.5), 0.0, 2.0)])
RING_JSON = Path(__file__).resolve().parents[1] / "configs" / "ring.json"


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

    @pytest.mark.parametrize("second", [1.0, 2.0], ids=["decreasing", "repeated"])
    def test_pieces_must_increase_in_r_max(self, second):
        # Otherwise the later piece is never evaluated: these pieces gave a = 1.
        with pytest.raises(ValueError, match="r_max must increase"):
            WeightSpec.radial((0.0, 0.0), ((2.0, "1 + 0*r"), (second, "5 + 0*r")), ())

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
        expected = 0.5 * (v[:-1, 1:-1] + v[1:, 1:-1])
        # Every axis-0 edge off the side columns has an interior endpoint; h^(N-2) is 1.
        assert np.allclose(field.conductances.reshape((2,) + v.shape)[0, :-1, 1:-1], expected)
        node = np.arange(v.size).reshape(v.shape)
        coupling = -lattice_operator(grid, field.conductances)[node[:-1, 1:-1].ravel(),
                                                               node[1:, 1:-1].ravel()]
        assert np.allclose(np.asarray(coupling).reshape(expected.shape), expected)


class TestA2:
    def test_fft_length_is_the_least_five_smooth_one(self):
        assert [_fast_len(n) for n in range(1, 5001)] == fast_lens_by_enumeration(5000)

    def test_constant_weight_estimate_is_one(self):
        grid = build_grid(UNIT, 33)
        field = evaluate_weight(WeightSpec.constant(2.0), grid)
        zero = detect_zero_set(field, grid)
        assert estimate_a2_constant(resolvable_floor(field, grid, zero), grid) \
            == pytest.approx(1.0, abs=1e-9)

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

    @pytest.mark.parametrize("domain, spec, n", [
        (B2, cbrt_ring_weight(), 17),
        (UNIT, WeightSpec.expression("1 + 4*x*y"), 17),
        (DomainSpec.ball((0.0, 0.0, 0.0), 1.0),
         WeightSpec.power_product([((0.0, 0.0, 0.0), 0.5, 0.5)]), 9),
        # Nodes 8 of the first and last x-rows touch the circle yet are
        # interior by round-off: balls leave the lattice through them.
        (DomainSpec.ball((2.8378101321881832, -1.4582022338196399), 0.40349108778507203),
         WeightSpec.expression("1 + 40*(x - 2.8)**2"), 17),
    ], ids=["ring", "box", "shell3d", "tangent"])
    def test_matches_ball_by_ball_reference(self, domain, spec, n):
        # The dyadic radii are exact multiples of h, so balls whose edge
        # lands exactly on the first non-interior node are among those checked.
        grid = build_grid(domain, n)
        field = evaluate_weight(spec, grid)
        zero = detect_zero_set(field, grid)
        radii = dyadic_radii(grid)
        assert estimate_a2_constant(resolvable_floor(field, grid, zero), grid, radii) \
            == pytest.approx(reference_a2_constant(field, grid, zero, radii), rel=1e-12)

    def test_ball_leaving_the_lattice_is_not_contained(self):
        # Every node interior, the faces too: only the nodes past the lattice
        # keep the balls at its faces out of the estimate.
        grid = Grid(domain=UNIT, n=17, h=1.0 / 16, interior_mask=np.ones((17, 17), bool),
                    boundary_mask=np.zeros((17, 17), bool))
        field = evaluate_weight(WeightSpec.expression("1 + 40*x + y"), grid)
        zero = detect_zero_set(field, grid)
        radii = dyadic_radii(grid)
        assert estimate_a2_constant(resolvable_floor(field, grid, zero), grid, radii) \
            == pytest.approx(reference_a2_constant(field, grid, zero, radii), rel=1e-12)

    def test_estimate_at_least_one_for_degenerate_weight(self, ring65):
        grid, field, zero, _ = ring65
        assert estimate_a2_constant(resolvable_floor(field, grid, zero), grid) >= 1.0

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
        a2_base = estimate_a2_constant(
            resolvable_floor(base, grid, detect_zero_set(base, grid)), grid)
        a2_scaled = estimate_a2_constant(
            resolvable_floor(scaled, grid, detect_zero_set(scaled, grid)), grid)
        assert a2_scaled == pytest.approx(a2_base, rel=1e-9)


@pytest.mark.parametrize("domain, expr", [
    (B2, "1 + x**2 + 0.5*y"),
    (DomainSpec.ball((0.0, 0.0, 0.0), 2.0), "3 + x**2 + 0.5*y*z"),
], ids=["2d", "3d"])
@pytest.mark.parametrize("density", [0.1, 0.5, 0.9])
def test_resolvable_floor_matches_minimum_filter(domain, expr, density):
    grid = build_grid(domain, 33 if domain.dimension == 2 else 17)
    field = evaluate_weight(WeightSpec.expression(expr), grid)
    mask = grid.interior_mask & (np.random.default_rng(7).random(grid.shape) < density)
    guarded = np.where(grid.interior_mask & ~mask, field.values, np.inf)
    local_min = ndimage.minimum_filter(guarded, size=5, mode="constant", cval=np.inf)
    # A threshold this high lifts the nodes whose whole box is masked above their values.
    tol = ToleranceConfig(zero_threshold=0.5)
    floor = np.where(np.isfinite(local_min), local_min, tol.zero_threshold * field.a_max)
    assert np.array_equal(resolvable_floor(field, grid, mask, tol),
                          np.where(mask, np.maximum(field.values, floor), field.values))


class TestLt:
    def test_constant_weight_closed_form(self):
        grid = build_grid(UNIT, 33)
        c = 4.0
        field = evaluate_weight(WeightSpec.constant(c), grid)
        zero = detect_zero_set(field, grid)
        measure = interior_count(grid) * grid.cell_volume
        for t in (1.0, 2.0, 3.5):
            assert estimate_lt_norm(resolvable_floor(field, grid, zero), grid, t) == pytest.approx(
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
            assert estimate_lt_norm(resolvable_floor(doubled, grid, zero2), grid, t) \
                == pytest.approx(0.5 * estimate_lt_norm(resolvable_floor(field, grid, zero),
                                                        grid, t), rel=1e-9)

    def test_t_below_one_rejected(self):
        # The scanned exponents come from the run's tolerances.
        with pytest.raises(ValueError, match="t_scan must be >= 1"):
            ToleranceConfig(t_scan=(1.0, 0.5))


def test_weight_field_arrays_are_read_only(square33):
    _, field, _, _ = square33
    with pytest.raises(ValueError):
        field.conductances[0, 0] = 2.0
    with pytest.raises(ValueError):
        field.values[0] = 2.0
    # The setup memo shares the zero-set mask between a solve and its re-verification.
    zero = pipeline._setup(pipeline.parse_config(dict(json.loads(RING_JSON.read_text()),
                                                      resolution=17)))[2]
    assert zero.dtype == bool and zero.any()
    with pytest.raises(ValueError):
        zero[np.nonzero(zero)] = False


class TestZeroSet:
    def test_constant_weight_empty_mask(self):
        grid = build_grid(UNIT, 17)
        field = evaluate_weight(WeightSpec.constant(1.0), grid)
        zero = detect_zero_set(field, grid)
        assert not zero.any()
        assert not assess_admissibility(grid, field, zero).touches_domain_boundary

    def test_ring_mask_hausdorff_close_to_circle(self, ring65):
        grid, field, zero, _ = ring65
        points = grid.points()[zero]
        radii = np.linalg.norm(points, axis=-1)
        assert np.max(np.abs(radii - 1.0)) <= 2.0 * grid.h
        angles = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        circle = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        gaps = np.min(np.linalg.norm(circle[:, None, :] - points[None, :, :],
                                     axis=-1), axis=1)
        assert np.max(gaps) <= 2.0 * grid.h

    @pytest.mark.parametrize("n", [65, 129])
    @pytest.mark.parametrize("undeclared", ["zero-expr"])
    def test_ring_found_without_its_declared_radius(self, undeclared, n):
        # A zero_expr stands in for ``zero_radii`` and gives the stored ring's mask.
        stored = json.loads(RING_JSON.read_text())
        weight = {"kind": "custom-expression",
                  "expr": "abs(sqrt(x**2 + y**2) - 1)**0.5",
                  "zero_expr": "abs(sqrt(x**2 + y**2) - 1)"}
        masks = [pipeline._setup(pipeline.parse_config(dict(data, resolution=n)))[2]
                 for data in (stored, dict(stored, weight=weight))]
        assert np.count_nonzero(masks[0]) > 0
        assert np.array_equal(masks[0], masks[1])

    def test_ring_between_samples_splits_the_disk_like_its_declared_radius(self):
        pieces = [{"r_max": 0.7, "expr": "cbrt(0.7 - r)"},
                  {"r_max": 2.0, "expr": "sqrt((r - 0.7)*(2 - r))"}]
        weight = {"kind": "radial-piecewise", "center": [0.0, 0.0], "pieces": pieces,
                  "zero_radii": [0.7]}
        stored = dict(json.loads(RING_JSON.read_text()), resolution=65)
        report = pipeline.check_hypotheses(pipeline.parse_config(dict(stored, weight=weight)))
        # Two components, and gamma 10 fails (f2) on the disk: exit 2.
        assert (report.status, report.chi, report.admissibility.zero_count) == \
            ("hypothesis-violation", 2, 88)

    def test_zero_at_the_outer_end_is_no_interior_sphere(self):
        # (2 - r)**3 vanishes on the boundary circle: the boundary's zero, not a sphere inside.
        weight = {"kind": "radial-piecewise", "center": [0.0, 0.0],
                  "pieces": [{"r_max": 2.0, "expr": "(2 - r)**3"}], "zero_radii": []}
        stored = dict(json.loads(RING_JSON.read_text()), resolution=65)
        report = pipeline.check_hypotheses(pipeline.parse_config(dict(stored, weight=weight)))
        assert (report.admissibility.verdict, report.admissibility.zero_count) == \
            ("zero-set-touches-boundary", 56)

    @pytest.mark.parametrize("expr", ["abs(r - 0.7)**(1/3)", "(r - 0.7)**2 + 1e-4"],
                             ids=["cube-root", "positive-minimum"])
    def test_near_root_that_is_no_root_is_refused(self, expr):
        # Whatever |p| reaches at 0.7 (about 5e-6 of the largest for the cube root),
        # only zero_radii says if it is a zero: its spheres are kept as given.
        for declared in ((0.7,), ()):
            spec = WeightSpec.radial((0.0, 0.0), [(2.0, expr)], zero_radii=declared)
            assert [r for _, r in spec.spheres] == list(declared)

    def test_cube_root_ring_is_a_config_error_until_declared(self, tmp_path, capsys):
        weight = {"kind": "radial-piecewise", "center": [0.0, 0.0],
                  "pieces": [{"r_max": 2.0, "expr": "abs(r - 0.7)**(1/3)"}]}
        stored = dict(json.loads(RING_JSON.read_text()), resolution=65,
                      output_dir=str(tmp_path / "out"))
        statuses, errors = [], []
        for w in (weight, dict(weight, zero_radii=[0.7])):
            path = tmp_path / "config.json"
            path.write_text(json.dumps(dict(stored, weight=w)))
            statuses.append(main(["check", "--config", str(path)]))
            errors.append(capsys.readouterr().err)
        # Declared, the ring splits the disk and gamma 10 fails (f2) on it.
        assert statuses == [1, 2]
        assert errors[0].startswith("error: invalid weight: ") and "zero_radii" in errors[0]

    def test_segment_to_boundary_flagged(self):
        grid = build_grid(UNIT, 33)
        spec = WeightSpec.expression(
            "sqrt((x - 0.5)**2 + where(y < 0.5, (0.5 - y)**2, 0))")
        field = evaluate_weight(spec, grid)
        assert assess_admissibility(grid, field, detect_zero_set(field, grid)) \
            .touches_domain_boundary

    @settings(max_examples=8, deadline=None)
    @given(st.floats(min_value=1e-8, max_value=1e-2),
           st.floats(min_value=1.0, max_value=100.0))
    def test_mask_monotone_in_threshold(self, eps, factor):
        grid = build_grid(B2, 33)
        field = evaluate_weight(cbrt_ring_weight(), grid)
        small = detect_zero_set(field, grid, ToleranceConfig(zero_threshold=eps))
        large = detect_zero_set(field, grid,
                                ToleranceConfig(zero_threshold=min(eps * factor, 0.5)))
        assert not np.any(small & ~large)


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
