import numpy as np
import pytest
from scipy import ndimage

from conftest import interior_count, unit_box
from oracles import ball_phi, box_phi

from multibump.assembly import boundary_cut_fractions
from multibump.errors import ConfigError, ResolutionTooCoarseError
from multibump.grid import DomainSpec, build_grid, dilate


def test_unit_box_n5_counts():
    grid = build_grid(unit_box(2), 5)
    assert grid.interior_mask.size == grid.boundary_mask.size == 25
    assert interior_count(grid) == 9


def test_unit_box_boundary_nodes_pinned_not_interior():
    grid = build_grid(unit_box(2), 5)
    # Lattice nodes on the box faces sit exactly on the boundary.
    assert grid.boundary_mask[0, 2] and not grid.interior_mask[0, 2]
    assert grid.boundary_mask[2, 0] and not grid.interior_mask[2, 0]
    assert grid.interior_mask[2, 2] and not grid.boundary_mask[2, 2]


def test_ball_interior_count_matches_area():
    grid = build_grid(DomainSpec.ball((0.0, 0.0), 2.0), 65)
    estimate = np.pi * 2.0 ** 2 / grid.h ** 2
    assert abs(interior_count(grid) - estimate) <= 0.02 * estimate


def test_degenerate_resolution_raises():
    with pytest.raises(ResolutionTooCoarseError):
        build_grid(unit_box(2), 2)


def test_custom_domain_overflowing_its_box_raises():
    # Every node of [-1, 1]^2 lies inside the radius-2 disk: no Dirichlet ring.
    domain = DomainSpec.implicit("x**2 + y**2 - 4", (-1.0, -1.0), (1.0, 1.0))
    with pytest.raises(ConfigError, match="^invalid domain: "):
        build_grid(domain, 33)


def test_ball_with_a_tangent_node_inside_by_round_off_builds():
    # Node 8 of the first and last x-rows touches the circle, yet phi < 0 there.
    domain = DomainSpec.ball((2.8378101321881832, -1.4582022338196399), 0.40349108778507203)
    grid = build_grid(domain, 17)
    phi = domain.membership_function()
    assert phi(grid.points()[0, 8]) < 0.0 and phi(grid.points()[16, 8]) < 0.0


@pytest.mark.parametrize("shape", [(23, 31), (9, 11, 13)], ids=["2d", "3d"])
@pytest.mark.parametrize("density", [0.05, 0.3, 0.7])
def test_dilate_matches_binary_dilation(shape, density):
    mask = np.random.default_rng(len(shape)).random(shape) < density
    face = ndimage.generate_binary_structure(len(shape), 1)
    assert np.array_equal(dilate(mask), ndimage.binary_dilation(mask, face))


def test_classification_deterministic():
    domain = DomainSpec.ball((0.25, -0.5), 1.5)
    a = build_grid(domain, 41)
    b = build_grid(domain, 41)
    assert np.array_equal(a.interior_mask, b.interior_mask)
    assert np.array_equal(a.boundary_mask, b.boundary_mask)
    assert a.h == b.h


def test_refinement_fraction_converges_to_volume_ratio():
    domain = DomainSpec.ball((0.0, 0.0), 2.0)
    limit = np.pi / 4.0
    fractions = [interior_count(build_grid(domain, n)) / n ** 2 for n in (65, 129)]
    assert fractions[0] < fractions[1] < limit
    assert abs(fractions[1] - limit) < abs(fractions[0] - limit)


def test_interior_nodes_fully_surrounded():
    grid = build_grid(DomainSpec.ball((0.0, 0.0), 1.0), 33)
    interior, pinned = grid.interior_mask, grid.interior_mask | grid.boundary_mask
    for axis in (0, 1):
        for shift in (1, -1):
            neighbor = np.roll(pinned, shift, axis=axis)
            # Rolling wraps around, but no interior node touches the lattice
            # edge for this domain, so wrapped entries never meet interior.
            assert not np.any(interior & ~neighbor)


def test_spacing_definition():
    grid = build_grid(DomainSpec.box((0.0, 0.0), (3.0, 3.0)), 7)
    assert grid.h == pytest.approx(0.5)
    assert grid.axes[0][0] == 0.0
    assert grid.axes[1][-1] == pytest.approx(3.0)


@pytest.mark.parametrize("shift", [(0.4, -0.5), (0.82, -0.85),
                                   (0.7837985890347726, 0.30331272607892745)])
def test_shifted_box_keeps_far_faces_on_the_boundary(shift):
    # A different non-dyadic shift per axis gives axis widths that differ
    # in the last bit; each axis must still end exactly on its far face.
    lo = shift
    hi = tuple(s + 1.0 for s in shift)
    grid = build_grid(DomainSpec.box(lo, hi), 65)
    assert interior_count(grid) == 63 ** 2
    assert [axis[-1] for axis in grid.axes] == list(hi)


def test_non_cubic_bounding_box_rejected():
    with pytest.raises(ValueError):
        build_grid(DomainSpec.box((0.0, 0.0), (2.0, 1.0)), 9)


def test_dimension_below_two_rejected():
    with pytest.raises(ValueError):
        DomainSpec.box((0.0,), (1.0,))


def test_box_without_axes_rejected_by_its_dimension():
    with pytest.raises(ValueError, match="^dimension must be >= 2, got 0$"):
        DomainSpec.box((), ())


def test_ball_3d_classification():
    grid = build_grid(DomainSpec.ball((0.0, 0.0, 0.0), 1.0), 17)
    estimate = 4.0 / 3.0 * np.pi / grid.h ** 3
    assert abs(interior_count(grid) - estimate) <= 0.15 * estimate
    assert grid.cell_volume == pytest.approx(grid.h ** 3)


def test_custom_implicit_annulus():
    domain = DomainSpec.implicit(
        "maximum(sqrt(x**2 + y**2) - 1.0, 0.4 - sqrt(x**2 + y**2))",
        (-1.0, -1.0), (1.0, 1.0))
    grid = build_grid(domain, 65)
    area = np.pi * (1.0 ** 2 - 0.4 ** 2)
    assert abs(interior_count(grid) - area / grid.h ** 2) <= 0.03 * area / grid.h ** 2


def closed_form_cases():
    """Boxes and balls with their closed-form phi, at a resolution each."""
    rng = np.random.default_rng(11)
    cases = {}
    for ndim, n in ((2, 33), (3, 17)):
        for k in range(3):
            lo = rng.uniform(-2.0, 2.0, ndim)
            hi = lo + rng.uniform(0.3, 3.0)
            cases[f"box{ndim}d-{k}"] = (DomainSpec.box(lo, hi), box_phi(lo, hi), n)
            center, radius = rng.uniform(-2.0, 2.0, ndim), rng.uniform(0.2, 2.0)
            cases[f"ball{ndim}d-{k}"] = (DomainSpec.ball(center, radius),
                                         ball_phi(center, radius), n)
            # Shifted by multiples of 1/64, as the benchmark shifts its square.
            shift = rng.integers(-32, 32, ndim) / 64
            cases[f"shifted{ndim}d-{k}"] = (DomainSpec.box(shift, shift + 1.0),
                                            box_phi(shift, shift + 1.0), n)
        lo = (0.0,) * (ndim - 1) + (-0.0,)
        cases[f"negzero{ndim}d"] = (DomainSpec.box(lo, (1.0,) * ndim),
                                    box_phi(lo, (1.0,) * ndim), n)
    center, radius = (2.8378101321881832, -1.4582022338196399), 0.40349108778507203
    cases["tangent"] = (DomainSpec.ball(center, radius), ball_phi(center, radius), 17)
    return cases


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", list(closed_form_cases()))
def test_formula_domains_match_their_closed_forms(case, monkeypatch):
    domain, phi, n = closed_form_cases()[case]
    grid = build_grid(domain, n)
    assert same_bits(domain.membership_function()(grid.points()), phi(grid.points()))
    formula = boundary_cut_fractions(grid)
    monkeypatch.setattr(DomainSpec, "membership_function", lambda self: phi)
    assert all(map(same_bits, formula, boundary_cut_fractions(grid)))


def test_grid_masks_are_read_only():
    grid = build_grid(DomainSpec.ball((0.0, 0.0), 1.0), 17)
    for mask in (grid.interior_mask, grid.boundary_mask):
        with pytest.raises(ValueError):
            mask[8, 8] = not mask[8, 8]
