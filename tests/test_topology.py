import numpy as np
import pytest
from scipy import ndimage

from multibump.grid import DomainSpec, build_grid
from multibump.topology import decompose_components, face_labels
from multibump.weights import WeightSpec, detect_zero_set, evaluate_weight


def test_ring_weight_disk_plus_annulus(ring65):
    grid, field, zero, dec = ring65
    assert dec.chi == 2
    assert dec.j_counts == {1: 1, 2: 1}
    disk, annulus = dec.components
    assert (disk.id, annulus.id) == ((1, 1), (2, 1))
    # The disk component is the region inside the zero circle.
    disk_r = np.linalg.norm(grid.points().reshape(-1, 2)[disk.nodes], axis=-1)
    assert np.max(disk_r) < 1.0
    ann_r = np.linalg.norm(grid.points().reshape(-1, 2)[annulus.nodes], axis=-1)
    assert np.min(ann_r) > 1.0


def test_domain_with_hole_and_three_curves():
    # One hole plus two small circles enclosed by a third: chi = 4 with
    # two 1-manifold components and two 3-manifold components.
    domain = DomainSpec.implicit(
        "maximum(sqrt(x**2 + y**2) - 2, 0.3 - sqrt((x + 1.2)**2 + y**2))",
        (-2.0, -2.0), (2.0, 2.0))
    weight = WeightSpec.power_product([
        ((0.7, 0.45), 0.25, 0.6),
        ((0.7, -0.45), 0.25, 0.6),
        ((0.7, 0.0), 1.0, 0.6),
    ])
    grid = build_grid(domain, 65)
    field = evaluate_weight(weight, grid)
    zero = detect_zero_set(field, grid)
    dec = decompose_components(grid, zero)
    assert dec.chi == 4
    assert dec.j_counts == {1: 2, 3: 2}


def test_constant_weight_single_component(square33):
    grid, field, zero, component = square33
    assert component.id == (1, 1)
    assert component.node_count == 31 * 31


def test_components_partition_free_nodes(ring65):
    grid, field, zero, dec = ring65
    free = grid.interior_mask & ~zero
    seen = np.zeros(grid.interior_mask.size, dtype=int)
    for comp in dec.components:
        seen[comp.nodes] += 1
    assert np.all(seen[free.ravel()] == 1)
    assert np.all(seen[~free.ravel()] == 0)


def test_shell_contains_no_component_nodes(ring65):
    grid, field, zero, dec = ring65
    pinned = zero.ravel() | grid.boundary_mask.ravel()
    for comp in dec.components:
        assert comp.shell.size > 0
        assert np.all(pinned[comp.shell])


def test_decomposition_deterministic(ring65):
    grid, field, zero, _ = ring65
    a = decompose_components(grid, zero)
    b = decompose_components(grid, zero)
    assert [c.id for c in a.components] == [c.id for c in b.components]
    for ca, cb in zip(a.components, b.components):
        assert np.array_equal(ca.nodes, cb.nodes)


def test_four_nested_rings_give_chi_five():
    grid = build_grid(DomainSpec.ball((0.0, 0.0), 2.0), 65)
    spec = WeightSpec.power_product(
        [((0.0, 0.0), r, 0.6) for r in (0.4, 0.8, 1.2, 1.6)], scale=0.5)
    field = evaluate_weight(spec, grid)
    zero = detect_zero_set(field, grid)
    dec = decompose_components(grid, zero)
    assert dec.chi == 5
    assert sum(dec.j_counts.values()) == 5


@pytest.mark.parametrize("shape", [(23, 31), (9, 11, 13)], ids=["2d", "3d"])
@pytest.mark.parametrize("density", [0.05, 0.3, 0.6])
def test_face_labels_match_ndimage_label(shape, density):
    # Same pieces, same count and the same numbering (C scan order of the
    # first node), so component ids do not depend on the labelling code.
    mask = np.random.default_rng(len(shape)).random(shape) < density
    labels, count = face_labels(mask)
    face = ndimage.generate_binary_structure(len(shape), 1)
    expected, expected_count = ndimage.label(mask, face)
    assert count == expected_count
    assert np.array_equal(labels, expected)
