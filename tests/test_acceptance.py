"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (component_operators, nested_rings_config, quadratic_zero_config,
                      ring_config,
                      unit_box)
from oracles import damped_fixed_point, dense_lambda1

from multibump.energy import (NonlinearitySpec, assemble_energy,
                              minimize_energy, truncate_nonlinearity)
from multibump.grid import DomainSpec, build_grid
from multibump.pipeline import parse_config, run_pipeline
from multibump.spectral import dirichlet_lambda1
from multibump.topology import decompose_components
from multibump.verify import weak_residual
from multibump.weights import WeightSpec, detect_zero_set, evaluate_weight

RESULTS = []


def record(criterion: str, passed: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    RESULTS.append(line)
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def ring_solve(tmp_path_factory):
    """Criterion-1 configuration solved once; reused by the determinism check."""
    out = tmp_path_factory.mktemp("ring") / "run1"
    config = parse_config(ring_config(129, gamma=10.0, out=str(out)))
    start = time.perf_counter()
    report = run_pipeline(config)
    elapsed = time.perf_counter() - start
    return config, report, elapsed, out


def test_criterion_1_multiplicity(ring_solve):
    """chi = 2 ring configuration yields exactly 3 verified solutions."""
    _, report, elapsed, _ = ring_solve
    ok = (report.status == "ok"
          and report.chi == 2
          and len(report.solutions) == 3
          and report.expected_solutions == 3
          and all(r.verification.passed for r in report.solutions)
          and all(r.solution.energy < 0.0 for r in report.solutions)
          and all(r.verification.zero_trace_max == 0.0 for r in report.solutions)
          and all(r.verification.min_value >= -1e-8 for r in report.solutions)
          and all(r.verification.max_value <= 1.0 + 1e-8 for r in report.solutions)
          and elapsed < 60.0)
    record("1 multiplicity", ok,
           f"chi={report.chi}, solutions={len(report.solutions)}, {elapsed:.1f}s")


def test_criterion_2_binomial_histogram(tmp_path):
    """Three nested rings: chi = 4, 15 solutions, counts (4, 6, 4, 1)."""
    config = parse_config(nested_rings_config(65, out=str(tmp_path / "out")))
    start = time.perf_counter()
    report = run_pipeline(config)
    elapsed = time.perf_counter() - start
    hist = {}
    for rec in report.solutions:
        hist[rec.solution.n_bumps] = hist.get(rec.solution.n_bumps, 0) + 1
    ok = (report.status == "ok"
          and report.chi == 4
          and len(report.solutions) == 15
          and hist == {1: 4, 2: 6, 3: 4, 4: 1}
          and all(r.verification.passed for r in report.solutions)
          and all(b.energy < 0.0 for b in report.bumps)
          and elapsed < 120.0)
    record("2 binomial histogram", ok,
           f"chi={report.chi}, histogram={hist}, {elapsed:.1f}s")


def test_criterion_3_eigenvalue_accuracy():
    """Square and disk eigenvalues; exact discrete value via dense oracle."""
    def lam(domain, n):
        grid = build_grid(domain, n)
        field = evaluate_weight(WeightSpec.constant(1.0), grid)
        comp = decompose_components(grid, detect_zero_set(field, grid)).components[0]
        eig = dirichlet_lambda1(comp, grid, component_operators(grid, comp)[0])
        return grid, comp, eig.lambda1

    _, _, lam_square = lam(unit_box(2), 129)
    err_square = abs(lam_square - 2.0 * np.pi ** 2) / (2.0 * np.pi ** 2)

    _, _, lam_disk = lam(DomainSpec.ball((0.0, 0.0), 1.0), 129)
    err_disk = abs(lam_disk - 5.7832) / 5.7832

    grid9, comp9, lam9 = lam(unit_box(2), 9)
    formula = (4.0 / grid9.h ** 2) * 2.0 * np.sin(np.pi * grid9.h / 2.0) ** 2
    dense = dense_lambda1(comp9, grid9)
    err_dense = abs(dense - formula) / formula

    ok = err_square < 5e-3 and err_disk < 1e-2 and err_dense < 1e-10 \
        and abs(lam9 - formula) / formula < 1e-6
    record("3 eigenvalue accuracy", ok,
           f"square {err_square:.2e}, disk {err_disk:.2e}, dense {err_dense:.2e}")


@pytest.mark.parametrize("spec", [
    NonlinearitySpec.logistic(30.0, 1.0),
    NonlinearitySpec.custom("30*abs(s)*(1-s)", 30.0, 1.0, 0.5)],
    ids=["logistic-default", "custom"])
def test_criterion_4_gradient_consistency(spec):
    """Assembled gradient vs central differences on 10 rough and 10 smooth
    random fields.

    On rough fields the stiffness term dominates the gradient.  Smooth ones,
    random combinations of the nine lowest sine modes spanning [-2, 2], keep
    the reaction term f*(u) h^N comparable to it, so a primitive F* whose
    derivative is not f* shows.
    """
    grid = build_grid(unit_box(2), 33)
    field = evaluate_weight(WeightSpec.constant(1.0), grid)
    comp = decompose_components(grid, detect_zero_set(field, grid)).components[0]
    trunc = truncate_nonlinearity(spec)
    energy = assemble_energy(comp, component_operators(grid, comp, field)[1], trunc, grid)
    assert energy.size >= 500
    x, y = grid.points().reshape(-1, 2)[comp.nodes].T
    modes = np.array([np.sin(m * np.pi * x) * np.sin(n * np.pi * y)
                      for m in (1, 2, 3) for n in (1, 2, 3)])
    rng = np.random.default_rng(42)
    step = 1e-6
    start = time.perf_counter()
    worst = 0.0
    for smooth in (False, True):
        for _ in range(10):
            if smooth:
                v = rng.uniform(-1.0, 1.0, size=len(modes)) @ modes
                u = 2.0 * v / np.max(np.abs(v))
            else:
                u = rng.uniform(-0.5, 2.0, size=energy.size)
            grad = energy.gradient(u)
            scale = np.max(np.abs(grad))
            probe = rng.integers(0, energy.size, size=50)
            for i in probe:
                up, um = u.copy(), u.copy()
                up[i] += step
                um[i] -= step
                fd = (energy.value(up) - energy.value(um)) / (2.0 * step)
                worst = max(worst, abs(grad[i] - fd) / scale)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and elapsed < 5.0
    record(f"4 gradient consistency ({spec.kind})", ok,
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_minimizer_oracle_equivalence(square33, logistic30):
    """Descent minimizer matches the damped fixed-point oracle to 1e-4."""
    grid, field, zero, comp = square33
    K0, K_w = component_operators(grid, comp, field)
    eigen = dirichlet_lambda1(comp, grid, K0)
    energy = assemble_energy(comp, K_w, logistic30, grid)
    bump = minimize_energy(energy, eigen)
    oracle = damped_fixed_point(energy, bump.seed_scale * eigen.e1)
    diff = float(np.max(np.abs(bump.values - oracle)))
    ok = diff < 1e-4
    record("5 minimizer oracle equivalence", ok, f"max diff {diff:.2e}")


def test_criterion_6_hypothesis_gates(tmp_path):
    """(i) f2 refusal, (ii) a2 divergence abort, (iii) a1 abort."""
    square = {  # gamma/lambda_1 is about 0.51 < max a = 1
        "domain": {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
        "weight": {"kind": "constant", "value": 1.0},
        "nonlinearity": {"kind": "logistic-default", "gamma": 10.0, "s_star": 1.0},
        "resolution": 33,
        "output_dir": str(tmp_path / "square"),
    }
    f2_report = run_pipeline(parse_config(square))
    f2_ok = (f2_report.violated_hypothesis == "f2" and f2_report.bumps == []
             and not list((tmp_path / "square").glob("*.csv")))

    quad_report = run_pipeline(
        parse_config(quadratic_zero_config(129, out=str(tmp_path / "quad"))))
    adm = quad_report.admissibility
    growth = max(row.growth for row in adm.lt_rows)
    a2_ok = (quad_report.violated_hypothesis == "a2"
             and adm.a2_divergent
             and growth > 2.0)

    seg = {
        "domain": {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
        "weight": {"kind": "custom-expression",
                   "expr": "sqrt((x - 0.5)**2 + where(y < 0.5, (0.5 - y)**2, 0))"},
        "nonlinearity": {"kind": "logistic-default", "gamma": 30.0, "s_star": 1.0},
        "resolution": 33,
        "output_dir": str(tmp_path / "seg"),
    }
    seg_report = run_pipeline(parse_config(seg))
    a1_ok = seg_report.violated_hypothesis == "a1"

    ok = f2_ok and a2_ok and a1_ok
    record("6 hypothesis gates", ok,
           f"f2={f2_ok}, a2={a2_ok} (lt growth {growth:.2f}), a1={a1_ok}")


def test_criterion_7_scaling_invariance(tmp_path):
    """(a, f) -> (2a, 2f): identical fields, doubled energies."""
    base = parse_config(ring_config(65, gamma=10.0, out=str(tmp_path / "b"), scale=1.0))
    doubled = parse_config(ring_config(65, gamma=20.0, out=str(tmp_path / "d"), scale=2.0))
    rep1 = run_pipeline(base, write=False)
    rep2 = run_pipeline(doubled, write=False)
    grid = build_grid(base.domain, base.resolution)
    field_diff = 0.0
    energy_err = 0.0
    for rec1, rec2 in zip(rep1.solutions, rep2.solutions):
        f1 = rec1.solution.field(grid)
        f2 = rec2.solution.field(grid)
        field_diff = max(field_diff, float(np.max(np.abs(f1 - f2))))
        energy_err = max(energy_err, abs(rec2.solution.energy
                                         - 2.0 * rec1.solution.energy)
                         / abs(2.0 * rec1.solution.energy))
    ok = (rep1.status == rep2.status == "ok"
          and len(rep1.solutions) == len(rep2.solutions) == 3
          and field_diff <= 1e-8
          and energy_err <= 1e-10)
    record("7 scaling invariance", ok,
           f"field diff {field_diff:.1e}, energy rel err {energy_err:.1e}")


def test_criterion_8_manufactured_convergence():
    """Stencil residual on the manufactured problem drops >= 3x per halving."""
    def residual(n):
        grid = build_grid(unit_box(2), n)
        field = evaluate_weight(WeightSpec.constant(1.0), grid)
        pts = grid.points()
        u = np.sin(np.pi * pts[..., 0]) * np.sin(np.pi * pts[..., 1])
        return weak_residual(u, field, lambda s: 2.0 * np.pi ** 2 * s, grid,
                             detect_zero_set(field, grid))

    coarse, fine = residual(33), residual(65)
    ratio = coarse / fine
    ok = ratio >= 3.0
    record("8 manufactured convergence", ok, f"residual ratio {ratio:.1f}")


def test_criterion_9_determinism(ring_solve):
    """Two consecutive solves of one config: byte-identical reports and CSVs."""
    config, _, _, out = ring_solve
    first = {p.name: p.read_bytes() for p in Path(out).iterdir()}
    run_pipeline(config)
    second = {p.name: p.read_bytes() for p in Path(out).iterdir()}
    identical = set(first) == set(second) \
        and all(first[name] == second[name] for name in first)
    record("9 determinism", identical, f"{len(first)} files compared byte-wise")


def teardown_module(module):
    print()
    print("=" * 60)
    for line in RESULTS:
        print(line)
    print("=" * 60)
