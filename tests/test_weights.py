import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from conftest import cbrt_ring_weight, interior_count, lattice_operator, unit_box
from oracles import radial_profile_product
from multibump import pipeline, weights
from multibump.cli import main
from multibump.errors import ConfigError, InvalidWeightError
from multibump.grid import DomainSpec, Grid, build_grid
from multibump.tolerances import ToleranceConfig
from multibump.topology import face_labels
from multibump.weights import (READ_DISTANCES, WeightSpec, assess_admissibility,
                               detect_zero_set, evaluate_weight, read_at_zero_set,
                               read_exponent)

B2 = DomainSpec.ball((0.0, 0.0), 2.0)
UNIT = unit_box(2)
QUADRATIC = WeightSpec.power_product([((0.5, 0.5), 0.0, 2.0)])
ROOT = Path(__file__).resolve().parents[1]
RING_JSON = ROOT / "configs" / "ring.json"


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

    def test_expression_weight_is_scale_times_its_text_alone(self):
        # Wrapped in scale * (...), a trailing comment stays a comment, and a text that
        # parses only inside the parentheses stays refused.
        points = np.array([[0.25, 0.5], [1.0, 2.0]])
        spec = WeightSpec.expression("1 + x  # tilted", scale=2.0)
        assert np.array_equal(spec.evaluate(points), 2.0 * (1 + points[:, 0]))
        with pytest.raises(ValueError, match=r"^cannot parse expression 'x\) \+ \(y'"):
            WeightSpec.expression("x) + (y")

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
        edges = field.conductances[:-1].reshape((2,) + v.shape)
        assert np.allclose(edges[0, :-1, 1:-1], expected)
        # Row N sums each node's edges, up then down axis 0, then axis 1; past a face it adds 0.
        down = [np.roll(edge, 1, axis) for axis, edge in enumerate(edges)]
        assert np.array_equal(field.conductances[-1].reshape(v.shape),
                              edges[0] + down[0] + edges[1] + down[1])
        node = np.arange(v.size).reshape(v.shape)
        coupling = -lattice_operator(grid, field.conductances)[node[:-1, 1:-1].ravel(),
                                                               node[1:, 1:-1].ravel()]
        assert np.allclose(np.asarray(coupling).reshape(expected.shape), expected)


def reading(report, manifold):
    [found] = [r for r in report.readings if r.manifold == manifold]
    return found


RING_SPHERE = "sphere [0.0, 0.0] r=1.0"

# Pieces of a generated radial weight: the formula in r, and the same piece in numpy.
PIECES = [("abs(r - {a!r})**{b!r}", lambda a, b: lambda r: np.abs(r - a) ** b),
          ("cbrt({a!r} - r**2) * {b!r}", lambda a, b: lambda r: np.cbrt(a - r ** 2) * b)]


@st.composite
def profile_weights(draw):
    """A radial or product weight in 2-4D: its spec, scale, oracle profiles and rings."""
    ndim, scale = draw(st.integers(2, 4)), draw(st.floats(0.01, 100.0))
    points = st.tuples(*[st.floats(-1.0, 1.0)] * ndim)
    if draw(st.booleans()):
        factors = draw(st.lists(st.tuples(points, st.floats(0.0, 1.5), st.floats(0.1, 3.0)),
                                min_size=1, max_size=3))
        profiles = [(c, [(np.inf, PIECES[0][1](rho, power))]) for c, rho, power in factors]
        return (WeightSpec.power_product(factors, scale), scale, profiles,
                [(c, rho) for c, rho, _ in factors])
    center, pieces = draw(points), []
    for r_max in np.cumsum(draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=3))):
        (text, piece), a, b = (draw(st.sampled_from(PIECES)), draw(st.floats(0.05, 1.0)),
                               draw(st.floats(0.1, 3.0)))
        pieces.append((float(r_max), text.format(a=a, b=b), piece(a, b)))
    return (WeightSpec.radial(center, [(r, text) for r, text, _ in pieces], (), scale), scale,
            [(center, [(r, piece) for r, _, piece in pieces])],
            [(center, r) for r, _, _ in pieces])


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(profile_weights(), st.integers(0, 2 ** 32 - 1))
def test_radial_and_product_formulas_are_their_closed_form_bit_for_bit(weight, seed):
    """At lattice nodes, and 1e-4 ... 1e-8 off each ring and each piece's end on both sides."""
    spec, scale, profiles, rings = weight
    ndim = len(rings[0][0])
    axis = np.linspace(-2.0, 2.0, 9)
    nodes = np.stack(np.meshgrid(*[axis] * ndim, indexing="ij"), axis=-1).reshape(-1, ndim)
    directions = np.random.default_rng(seed).normal(size=(8, ndim))
    directions /= np.linalg.norm(directions, axis=-1, keepdims=True)
    t = np.concatenate([READ_DISTANCES, -READ_DISTANCES])[:, None, None]
    points = np.concatenate([nodes] + [(np.asarray(c) + (rho + t) * directions).reshape(-1, ndim)
                                       for c, rho in rings])
    assert spec.evaluate(points).tobytes() \
        == radial_profile_product(scale, profiles, points).tobytes()


class TestA2:
    def test_ring_weight_stable_across_refinement(self):
        # The larger exponent of the ring's two sides is the annulus's square root.
        for n in (65, 129, 257):
            report = assess(cbrt_ring_weight(), B2, n)
            assert reading(report, RING_SPHERE).exponent == pytest.approx(0.5, abs=1e-3)
            assert reading(report, "boundary").exponent == pytest.approx(0.5, abs=1e-3)
            assert report.verdict == "admissible"

    def test_quadratic_zero_divergence_flagged(self):
        # A point zero has codimension N = 2, and |x - x0|^2 reads exponent 2: not A2.
        point = reading(assess(QUADRATIC, UNIT, 129), "point [0.5, 0.5]")
        assert point.codimension == 2
        assert point.exponent == pytest.approx(2.0, abs=1e-6)
        assert assess(QUADRATIC, UNIT, 129).verdict == "violates-a2"

    def test_constant_weight_estimate_is_one(self):
        # A constant is an A2 weight with constant one: every slope of log a is 0, and
        # the report prints 0, not -0.
        report = assess(WeightSpec.constant(2.0), UNIT, 33)
        assert [(r.manifold, r.exponent) for r in report.readings] == [("boundary", 0.0)]
        assert str(report.readings[0].exponent) == "0.0"
        assert report.verdict == "admissible"

    @settings(max_examples=8, deadline=None)
    @given(st.floats(min_value=-3.0, max_value=3.0))
    def test_scale_invariance(self, log_lam):
        lam = float(np.exp(log_lam))
        scaled = WeightSpec.radial((0.0, 0.0),
                                   ((1.0, "cbrt(1 - r**2)"), (2.0, "sqrt((1 - r)*(r - 2))")),
                                   zero_radii=(1.0,), scale=lam)
        base, other = (assess(spec, B2, 33) for spec in (cbrt_ring_weight(), scaled))
        assert [r.exponent for r in other.readings] == pytest.approx(
            [r.exponent for r in base.readings], abs=1e-9)


class TestLt:
    def test_ring_weight_low_exponents_finite_and_stable(self, ring65):
        # Cube root inside r = 1, square root outside: both below 2k/N = 1, so 1/a
        # is in L^t for some t > N/2 on each side.
        grid, field, zero, _ = ring65
        base = grid.points()[zero]
        radial = lambda x: np.linalg.norm(x, axis=-1) - 1.0  # noqa: E731
        for sides, exponent in (((-1.0,), 1 / 3), ((1.0,), 0.5)):
            assert read_at_zero_set(field.spec, radial, base, sides) == pytest.approx(
                exponent, abs=1e-4)
        assert reading(assess(cbrt_ring_weight(), B2, 65), RING_SPHERE).bound == 1.0

    def test_quadratic_zero_grows_at_n_half(self):
        # |x - x0|^-2 is not integrable in 2D, so no t >= N/2 = 1 gives 1/a in L^t:
        # the exponent 2 is not below its bound 2k/N = 2.
        point = reading(assess(QUADRATIC, UNIT, 129), "point [0.5, 0.5]")
        assert point.bound == 2.0
        assert point.exponent >= point.bound

    def test_constant_weight_closed_form(self):
        # 1/c is in every L^t: the reader gives exactly 0 for any constant c, along
        # the lattice axes from any base node.
        base = build_grid(UNIT, 9).points().reshape(-1, 2)[::7]
        for axis in np.eye(2):
            for c in (0.25, 1.0, 4.0):
                assert read_exponent(WeightSpec.constant(c), base,
                                     np.broadcast_to(axis, base.shape)) == 0.0

    def test_lt_scales_reciprocally(self, ring65):
        # ||1/(2a)||_t = ||1/a||_t / 2: whether it is finite, so each side's exponent,
        # does not change with the scale.
        grid, field, zero, _ = ring65
        doubled = WeightSpec.radial((0.0, 0.0),
                                    ((1.0, "cbrt(1 - r**2)"), (2.0, "sqrt((1 - r)*(r - 2))")),
                                    zero_radii=(1.0,), scale=2.0)
        base = grid.points()[zero]
        radial = lambda x: np.linalg.norm(x, axis=-1) - 1.0  # noqa: E731
        for sides in ((-1.0,), (1.0,)):
            assert read_at_zero_set(doubled, radial, base, sides) == pytest.approx(
                read_at_zero_set(field.spec, radial, base, sides), abs=1e-9)

    def test_t_below_one_rejected(self):
        # No exponents are scanned any more: t_scan is no tolerance, and a config
        # that still sets one is refused by name.
        with pytest.raises(TypeError, match="t_scan"):
            ToleranceConfig(t_scan=(1.0, 0.5))
        data = dict(json.loads(RING_JSON.read_text()), tolerances={"t_scan": [1.0, 0.5]})
        with pytest.raises(ConfigError, match="^invalid tolerances: .*'t_scan'"):
            pipeline.parse_config(data)


class TestExponentReader:
    def test_unsigned_distance_skips_the_nodes_on_its_zero_set(self, ring65):
        # abs(r - 1) has no central-difference gradient at the nodes with r = 1.
        grid, field, zero, _ = ring65
        base = grid.points()[zero]
        unsigned = lambda x: np.abs(np.linalg.norm(x, axis=-1) - 1.0)  # noqa: E731
        assert np.any(unsigned(base) == 0.0)
        assert read_at_zero_set(field.spec, unsigned, base) == pytest.approx(0.5, abs=1e-4)

    def test_slopes_that_disagree_are_unresolved(self):
        # a = t^0.5 (1 - log t) along the x axis: the slope creeps from 0.41 to 0.45.
        spec = WeightSpec.expression("where(abs(x) > 0, sqrt(abs(x)) * (1 - log(abs(x))), 0)")
        axis = np.array([[1.0, 0.0]])
        assert read_exponent(spec, np.zeros((1, 2)), axis) is None
        assert read_exponent(WeightSpec.expression("sqrt(abs(x))"), np.zeros((1, 2)),
                             axis) == pytest.approx(0.5, abs=1e-12)

    def test_newton_steps_land_a_formula_that_is_no_distance(self):
        # phi = r^2 - 4 is no distance: one step from a Dirichlet node stops h^2/4
        # outside the disk, where sqrt((1 - r)(r - 2)) is not defined.
        disk = DomainSpec.implicit("x**2 + y**2 - 4", (-2.5, -2.5), (2.5, 2.5))
        report = assess(cbrt_ring_weight(), disk, 65)
        assert reading(report, "boundary").exponent == pytest.approx(0.5, abs=1e-4)
        assert report.verdict == "admissible"

    def test_zero_or_negative_value_is_unresolved(self):
        flat = WeightSpec.expression("maximum(x, 0)")
        assert read_exponent(flat, np.zeros((1, 2)), np.array([[-1.0, 0.0]])) is None


@pytest.mark.parametrize("n", [65, 129, 257, 513])
@pytest.mark.parametrize("power, admissible", [
    (0.3, True), (0.6, True), (0.7, True), (0.8, True), (0.85, True), (0.9, True),
    (1.05, False), (1.5, False)])
def test_ring_power_sweep_is_admissible_below_one(power, admissible, n):
    """On the radius-2 disk, ||x| - 1|^p is admissible exactly for p < 2k/N = 1."""
    report = assess(WeightSpec.power_product([((0.0, 0.0), 1.0, power)]), B2, n)
    assert reading(report, RING_SPHERE).exponent == pytest.approx(power, abs=1e-3)
    assert report.verdict == ("admissible" if admissible else "violates-a2")


@pytest.mark.parametrize("power, verdict", [(0.3, "admissible"), (0.8, "violates-lt")])
def test_shell_power_in_3d_needs_p_below_two_thirds(power, verdict):
    # A2 holds for p < 1, but 1/a is in some L^t with t > 3/2 only for p < 2/3.
    ball = DomainSpec.ball((0.0, 0.0, 0.0), 2.0)
    report = assess(WeightSpec.power_product([((0.0, 0.0, 0.0), 1.0, power)]), ball, 33)
    assert reading(report, "sphere [0.0, 0.0, 0.0] r=1.0").bound == pytest.approx(2 / 3)
    assert report.verdict == verdict


@pytest.mark.parametrize("n", [17, 25, 33, 49, 65, 97, 129, 257])
def test_inner_ring_of_a_smaller_ball_is_admissible_at_every_resolution(n):
    # ||x| - 0.5|^0.6 on the radius-1.5 ball, an A2 weight (0.6 < 2k/N = 1): one
    # verdict at every resolution, coarse ones included.
    report = assess(WeightSpec.power_product([((0.0, 0.0), 0.5, 0.6)]),
                    DomainSpec.ball((0.0, 0.0), 1.5), n)
    assert report.verdict == "admissible"


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

    @pytest.mark.parametrize("n, zero_count", [(33, 72), (65, 144)])
    @pytest.mark.parametrize("zero_expr", ["sqrt(x**2 + y**2) - 1", "1 - sqrt(x**2 + y**2)"])
    def test_signed_zero_expr_marks_the_band_of_its_absolute_value(self, zero_expr, n,
                                                                    zero_count):
        # Read as written, the first marked the whole disk and lost it as a component,
        # and the second marked the annulus out to the Dirichlet ring (a1).
        weight = {"kind": "custom-expression", "expr": "abs(sqrt(x**2 + y**2) - 1)**0.5"}
        stored = dict(json.loads(RING_JSON.read_text()), resolution=n)
        configs = [pipeline.parse_config(dict(stored, weight=dict(weight, zero_expr=z)))
                   for z in (zero_expr, f"abs({zero_expr})")]
        masks = [pipeline._setup(config)[2] for config in configs]
        assert np.array_equal(masks[0], masks[1])
        report = pipeline.check_hypotheses(configs[0])
        # Two components, and gamma 10 fails (f2) on the annulus: exit 2.
        assert (report.status, report.chi, report.admissibility.zero_count) == \
            ("hypothesis-violation", 2, zero_count)
        assert [entry.component_id for entry in report.f2_entries] == [(1, 1), (2, 1)]

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
        assert report.violated_hypothesis is None

    def test_quadratic_rejected_under_a2_family(self):
        report = assess(QUADRATIC, UNIT, 129)
        assert report.verdict in ("violates-a2", "violates-lt")

    def test_boundary_touching_zero_set_rejected(self):
        spec = WeightSpec.expression(
            "sqrt((x - 0.5)**2 + where(y < 0.5, (0.5 - y)**2, 0))")
        report = assess(spec, UNIT, 65)
        assert report.verdict == "zero-set-touches-boundary"

    @pytest.mark.parametrize("power", [3.0, 5.0])
    def test_steep_declared_ring_violates_a2_not_a1(self, power):
        # Below the zero threshold well past the band: those nodes chain to the ring.
        spec = WeightSpec.power_product([((0.0, 0.0), 1.0, power)])
        grid = build_grid(B2, 513)
        zero = detect_zero_set(evaluate_weight(spec, grid), grid)
        assert np.any(zero & (np.abs(np.linalg.norm(grid.points(), axis=-1) - 1.0)
                              > 0.75 * grid.h))
        for n in (65, 513):
            report = assess(spec, B2, n)
            assert report.verdict == "violates-a2"
            assert reading(report, RING_SPHERE).exponent == pytest.approx(power, abs=1e-3)

    @pytest.mark.parametrize("ndim, centre, verdict", [
        (2, 0.95, "admissible"), (3, 0.85, "admissible"),
        (2, 1.1, "undeclared-zero-set"), (3, 0.95, "undeclared-zero-set")])
    def test_threshold_zeros_join_a_band_across_node_corners(self, monkeypatch, ndim,
                                                             centre, verdict):
        # A ring (2D) or shell (3D) of radius 1, declared by zero_expr, times a factor
        # that vanishes exactly at the diagonal nodes x = y (= z) with |x - centre| <= 0.15.
        # From 0.95 (2D) or 0.85 (3D) they start at the corner of a band node; from
        # 1.1 or 0.95 they start one diagonal node further out, an isolated patch.
        names = "xyz"[:ndim]
        radius = "sqrt(" + " + ".join(f"{v}**2" for v in names) + ")"
        diagonal = " + ".join(f"({a} - {b})**2" for a, b in zip(names, names[1:]))
        chain = f"sqrt({diagonal} + maximum(abs(x - {centre}) - 0.15, 0)**2)"
        spec = WeightSpec.expression(f"abs({radius} - 1)**0.3 * {chain}", f"{radius} - 1")
        grid = build_grid(DomainSpec.ball((0.0,) * ndim, 2.0), 33)
        field = evaluate_weight(spec, grid)
        zero = detect_zero_set(field, grid)
        off_band = int(np.sum(spec.zero_distance(grid.points()[zero]) > 0.75 * grid.h))
        # No zero-set node off the band has a face neighbour in the zero set.
        assert off_band >= 2 and face_labels(zero)[1] == 1 + off_band
        labellings = []

        def spy(*args, **kw):
            labellings.append(kw)
            return face_labels(*args, **kw)

        monkeypatch.setattr(weights, "face_labels", spy)
        report = assess_admissibility(grid, field, zero)
        assert report.verdict == verdict
        assert labellings == [{"box": True}]
        assert [r.exponent for r in report.readings] == pytest.approx([0.3, 0.0], abs=1e-3)

    @pytest.mark.parametrize("path", sorted(ROOT.glob("configs/*.json"))
                             + sorted(ROOT.glob("bench/configs/*.json")),
                             ids=lambda path: str(path.relative_to(ROOT)))
    def test_a_zero_set_inside_its_bands_is_not_labelled(self, monkeypatch, path):
        def refuse(*args, **kw):
            raise AssertionError("the zero set was labelled")

        monkeypatch.setattr(weights, "face_labels", refuse)
        data = json.loads(path.read_text())
        for n in (data["resolution"], 33, 65):
            grid, field, zero = pipeline._setup(pipeline.parse_config(dict(data, resolution=n)))
            assert assess_admissibility(grid, field, zero).admissible

    @pytest.mark.parametrize("spec, exponent", [
        (WeightSpec.power_product([((0.0, 0.0), 0.97, 0.0)]), 0.0),
        (WeightSpec.power_product([((0.0, 0.0), 0.97, -0.5)]), -0.5),
        (WeightSpec.power_product([((0.0, 0.0), 0.0, 0.0)]), 0.0),
        (WeightSpec.expression("1.0 + 0*x", "sqrt(x**2 + y**2) - 0.97"), 0.0),
    ], ids=["power-0", "power-minus-half", "point-power-0", "constant-with-zero-expr"])
    def test_declared_zero_where_a_does_not_vanish_violates_a1(self, spec, exponent):
        # a is the scale there, or blows up: the declared manifold is no zero of a.
        report = assess(spec, B2, 65)
        assert report.verdict == "declared-zero-does-not-vanish"
        assert report.violated_hypothesis == "a1"
        assert report.readings[0].exponent == pytest.approx(exponent, abs=1e-6)

    def test_weakly_vanishing_declared_zero_is_admissible(self):
        report = assess(WeightSpec.power_product([((0.0, 0.0), 0.97, 0.05)]), B2, 65)
        assert report.verdict == "admissible"
        assert report.readings[0].exponent == pytest.approx(0.05, abs=1e-3)

    def test_nested_rings_admissible(self):
        spec = WeightSpec.power_product(
            [((0.0, 0.0), r, 0.6) for r in (0.5, 1.0, 1.5)], scale=0.5)
        report = assess(spec, B2, 65)
        assert report.verdict == "admissible"
        assert [r.exponent for r in report.readings[:3]] == pytest.approx([0.6] * 3, abs=1e-3)
        assert reading(report, "boundary").exponent == pytest.approx(0.0, abs=1e-6)
