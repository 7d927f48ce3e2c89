import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

from conftest import nested_rings_zero_expr_config
from multibump import pipeline, topology
from multibump.grid import DomainSpec, build_grid
from multibump.topology import decompose_components, face_labels
from multibump.weights import WeightSpec, detect_zero_set, evaluate_weight

ROOT = Path(__file__).resolve().parents[1]


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


@pytest.mark.parametrize("shape", [(23, 31), (9, 11, 13), (5, 6, 7, 8)], ids=["2d", "3d", "4d"])
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


@pytest.mark.parametrize("shape", [(23, 31), (9, 11, 13), (5, 6, 7, 8)], ids=["2d", "3d", "4d"])
@pytest.mark.parametrize("density", [0.02, 0.05, 0.1])
def test_box_labels_match_ndimage_label(shape, density):
    # Nodes that share only an edge or a corner join: the 3^N structure.
    mask = np.random.default_rng(len(shape)).random(shape) < density
    labels, count = face_labels(mask, box=True)
    expected, expected_count = ndimage.label(mask, np.ones((3,) * len(shape)))
    assert count == expected_count > 1
    assert np.array_equal(labels, expected)


def test_box_labels_join_a_diagonal_chain():
    # One node per anti-diagonal, as a band 1 h wide runs at 45 degrees.
    chain = np.fliplr(np.eye(7, dtype=bool))
    assert face_labels(chain)[1] == 7
    labels, count = face_labels(chain, box=True)
    assert count == 1 and np.array_equal(labels, chain.astype(np.int32))


def seven_rings() -> dict:
    """The nested rings with seven zero circles, r = 0.25 k (chi = 8)."""
    data = json.loads((ROOT / "configs" / "nested_rings.json").read_text())
    data["weight"]["factors"] = [{"center": [0.0, 0.0], "radius": 0.25 * k, "power": 0.6}
                                 for k in range(1, 8)]
    data["weight"]["scale"] = 0.05
    data["nonlinearity"]["gamma"] = 60.0
    return data


@pytest.mark.parametrize("config, resolution, zero_band, j_counts", [
    ("configs/nested_rings.json", 25, 0.75, {1: 1, 2: 3}),
    ("configs/nested_rings.json", 33, 0.75, {1: 1, 2: 3}),
    ("configs/nested_rings.json", 65, 0.75, {1: 1, 2: 3}),
    ("configs/ring.json", 17, 0.75, {1: 1, 2: 1}),
    ("configs/ring.json", 33, 0.75, {1: 1, 2: 1}),
    ("bench/configs/shell3d.json", 17, 0.75, {1: 1, 2: 1}),
    ("bench/configs/shell3d.json", 25, 0.75, {1: 1, 2: 1}),
    ("seven rings", 49, 0.75, {1: 1, 2: 7}),
    ("seven rings", 65, 0.75, {1: 1, 2: 7}),
    # A band 1 h wide steps diagonally off the axes: its nodes touch at corners only.
    ("configs/nested_rings.json", 33, 0.5, {1: 1, 2: 3}),
    ("configs/nested_rings.json", 65, 0.5, {1: 1, 2: 3}),
    ("configs/ring.json", 33, 0.5, {1: 1, 2: 1}),
    ("configs/ring.json", 65, 0.5, {1: 1, 2: 1}),
    ("bench/configs/shell3d.json", 25, 0.5, {1: 1, 2: 1}),
])
def test_coarse_lattices_count_the_papers_boundary_manifolds(monkeypatch, config, resolution,
                                                             zero_band, j_counts):
    # Each annulus or shell is bounded by two manifolds however thin it or its
    # bands are on the lattice: two manifolds a node apart are not merged into
    # one, and one manifold is not split where its band steps diagonally.
    if config == "seven rings":
        config = pipeline.parse_config(seven_rings())
    else:
        config = pipeline.load_config(ROOT / config)
    config = dataclasses.replace(config, resolution=resolution, tolerances=dataclasses.replace(
        config.tolerances, zero_band=zero_band))
    grid = build_grid(config.domain, config.resolution)
    zero = detect_zero_set(evaluate_weight(config.weight, grid), grid, config.tolerances)
    labels, calls = topology.face_labels, []

    def counted(mask, **box):
        calls.append(mask)
        return labels(mask, **box)

    monkeypatch.setattr(topology, "face_labels", counted)
    dec = decompose_components(grid, zero)
    assert dec.j_counts == j_counts
    assert dec.regions == dec.chi
    assert len(calls) == 2  # the free nodes and the pinned ones, not one per component


@pytest.mark.parametrize("resolution, chi, regions", [
    (17, 29, 2), (21, 14, 2), (25, 4, 4), (33, 4, 4), (65, 4, 4)])
def test_regions_count_the_pinned_pieces_components_share(resolution, chi, regions):
    # Coarse bands cut the annuli into fragments that each meet one ring, or merge
    # with the boundary: the fragments share fewer pieces than chi - 1.
    config = pipeline.parse_config(nested_rings_zero_expr_config(resolution))
    grid, _, zero = pipeline._setup(config)
    dec = decompose_components(grid, zero)
    assert (dec.chi, dec.regions) == (chi, regions)
