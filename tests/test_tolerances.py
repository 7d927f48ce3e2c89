"""Every field of ToleranceConfig reaches the stage that checks it, and every loop cap its loop.

Each field is set to a non-default value, and a run (or, where a small run
cannot show it, the stage function) must behave differently than at the
default.  A field added to ToleranceConfig without a case here fails.  The
loop caps are module constants, lowered the same way by ``monkeypatch``.
"""

import dataclasses

import numpy as np
import pytest

from conftest import ring_config, unit_box

from multibump import pipeline, spectral
from multibump import energy as energy_module
from multibump.energy import NonlinearitySpec
from multibump.grid import build_grid
from multibump.pipeline import (check_hypotheses, parse_config, run_pipeline,
                                verify_solution_file)
from multibump.tolerances import ToleranceConfig
from multibump.verify import check_conclusions
from multibump.weights import WeightSpec, detect_zero_set, evaluate_weight


def ring(tol: ToleranceConfig, out: str = "out"):
    """The ring (chi 2) at 33 nodes per axis, run at ``tol``."""
    return dataclasses.replace(parse_config(ring_config(33, out=out)), tolerances=tol)


def check(tol):
    return check_hypotheses(ring(tol))


def solve(tol):
    return run_pipeline(ring(tol), write=False)


def verdict(tol):
    return check(tol).admissibility.verdict


def seeded_square_status(tol):
    """A solve whose seed needs two halvings: gamma 25 on the unit square."""
    config = parse_config({
        "domain": {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
        "weight": {"kind": "constant", "value": 1.0},
        "nonlinearity": {"kind": "logistic-default", "gamma": 25.0},
        "resolution": 17})
    return run_pipeline(dataclasses.replace(config, tolerances=tol), write=False).status


def conclusion(name: str, values_at):
    """The ``name`` verdict of check_conclusions on a field built by ``values_at``."""
    def observe(tol):
        grid = build_grid(unit_box(2), 17)
        field = evaluate_weight(WeightSpec.constant(1.0), grid)
        values = values_at(grid)
        return check_conclusions(values, field, NonlinearitySpec.logistic(30.0), grid,
                                 detect_zero_set(field, grid, tol), tol).verdicts[name]
    return observe


def one_node(mask_of, value):
    def values_at(grid):
        values = np.zeros(grid.shape)
        values[tuple(np.argwhere(mask_of(grid))[0])] = value
        return values
    return values_at


# field: (non-default value, what the run or stage shows, shown at that value
# or None when it only has to differ from the default)
CASES = {
    "zero_threshold": (0.5, verdict, "zero-set-touches-boundary"),
    "zero_band": (2.0, lambda tol: check(tol).admissibility.zero_count, None),
    "grad_tol_scale": (1e-2, lambda tol: [b.iterations for b in solve(tol).bumps], None),
    "residual_tol_scale": (1e-30, lambda tol: solve(tol).all_verified, False),
    "bounds_tol": (1e-9, conclusion("nonnegative", one_node(
        lambda grid: grid.interior_mask, -5e-9)), False),
    "zero_trace_tol": (1e-9, conclusion("zero_trace", one_node(
        lambda grid: grid.boundary_mask, 1e-12)), True),
    "eig_tol": (1e-1, lambda tol: [e.lambda1 for e in check(tol).f2_entries], None),
}

# (module, constant): (lowered value, what the run shows, shown at that value)
CAPS = {
    (spectral, "EIG_MAX_ITER"): (1, lambda tol: check(tol).status, "numerical-failure"),
    (energy_module, "MAX_MINIMIZE_ITERATIONS"): (
        1, lambda tol: solve(tol).status, "numerical-failure"),
    (energy_module, "SEED_MIN_EXPONENT"): (1, seeded_square_status, "numerical-failure"),
}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ToleranceConfig)])
def test_every_tolerance_is_wired(name):
    value, observe, expected = CASES[name]
    at_default = observe(ToleranceConfig())
    at_value = observe(ToleranceConfig(**{name: value}))
    assert at_value != at_default
    if expected is not None:
        assert at_value == expected


@pytest.mark.parametrize("module, name", list(CAPS), ids=[name for _, name in CAPS])
def test_every_loop_cap_is_wired(monkeypatch, module, name):
    value, observe, expected = CAPS[module, name]
    at_default = observe(ToleranceConfig())
    monkeypatch.setattr(module, name, value)
    at_value = observe(ToleranceConfig())
    assert at_value != at_default
    assert at_value == expected


def test_file_verification_uses_the_configured_tolerances(tmp_path):
    # The band moves the zero set; the residual scale fails every file.
    config = ring(ToleranceConfig(zero_band=1.5, residual_tol_scale=1e-30),
                  out=str(tmp_path))
    report = run_pipeline(config)
    assert not any(record.verification.passed for record in report.solutions)
    default = dataclasses.replace(config, tolerances=ToleranceConfig())
    for record in report.solutions:
        pipeline._lattice_setup.cache_clear()
        path = tmp_path / record.filename
        assert verify_solution_file(config, path) == record.verification
        assert verify_solution_file(default, path) != record.verification
