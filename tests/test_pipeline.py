import argparse
import dataclasses
import inspect
import json
import logging
import os
import re
import subprocess
import sys
import threading
import warnings
import weakref
from collections import Counter
from math import comb, hypot
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (component_operators, nested_rings_config, quadratic_zero_config,
                      ring_config)
from oracles import reference_solution_csv, reference_solution_vtk

import multibump
from multibump import pipeline, spectral, verify, weights
from multibump.cli import _apply_overrides, main
from multibump.energy import (NonlinearitySpec, assemble_energy, minimize_energy,
                              truncate_nonlinearity)
from multibump.errors import ConfigError, NumericalFailureError, SolverError
from multibump.expressions import compile_expression, evaluate_expression
from multibump.grid import DomainSpec, build_grid
from multibump.pipeline import (RunReport, check_hypotheses, load_config,
                                parse_config, read_solution_csv, render_report,
                                run_pipeline, verify_solution_file, write_outputs,
                                write_solution_csv, write_solution_vtk)
from multibump.spectral import dirichlet_lambda1
from multibump.tolerances import ToleranceConfig
from multibump.topology import decompose_components
from multibump.verify import check_conclusions
from multibump.weights import WeightSpec, detect_zero_set


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2))
    return path


def unit_square(resolution=17, gamma=30.0, out="out", **changes):
    """Constant weight on the unit square; ``changes`` replace top-level keys."""
    data = {
        "domain": {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
        "weight": {"kind": "constant", "value": 1.0},
        "nonlinearity": {"kind": "logistic-default", "gamma": gamma, "s_star": 1.0},
        "resolution": resolution,
        "output_dir": out,
    }
    data.update(changes)
    return data


def tiny_disk():
    """Disk of radius 0.01 about the origin in the box [-1, 1]^2.

    A grid has an interior node only if one of its nodes is the origin.
    """
    return {"kind": "custom-implicit", "expression": "x**2 + y**2 - 0.0001",
            "lo": [-1.0, -1.0], "hi": [1.0, 1.0]}


RING_DISTANCE = "abs(sqrt(x**2 + y**2) - 1)"
# A config per failing admissibility verdict (zero_threshold: the ring's zero set
# swallows the disk and meets the Dirichlet ring).
FAILING_ADMISSIBILITY = {
    "zero_threshold": dict(ring_config(33), tolerances={"zero_threshold": 0.5}),
    "crossing-spheres": dict(ring_config(33), weight={
        "kind": "product-of-powers", "factors": [
            {"center": [0.0, 0.0], "radius": 1.0, "power": 0.5},
            {"center": [0.5, 0.0], "radius": 1.0, "power": 0.5}]}),
    # Four nodes lie on the circle, and no manifold is declared there.
    "undeclared-zero": dict(ring_config(33), weight={
        "kind": "custom-expression", "expr": f"{RING_DISTANCE}**0.5"}),
    # d^0.5 (1 - log d): the slope of log a creeps from 0.41 to 0.45 over the decades read.
    "log-factor": dict(ring_config(33), weight={
        "kind": "custom-expression", "zero_expr": RING_DISTANCE,
        "expr": f"where({RING_DISTANCE} > 0, sqrt({RING_DISTANCE}) * (1 - log({RING_DISTANCE})), 0)"}),
    "quadratic-point": quadratic_zero_config(33),
    # 3D: A2 holds (0.8 < 1), but 1/a is in L^t only for t < 1.25 < N/2.
    "shell-power-0.8": dict(ring_config(33), domain={"kind": "ball", "center": [0.0] * 3,
                                                     "radius": 2.0}, weight={
        "kind": "product-of-powers",
        "factors": [{"center": [0.0] * 3, "radius": 1.0, "power": 0.8}]}),
}

# Keys that went with the two-level (a2) estimator: a config that sets one is refused by name.
REMOVED_TOLERANCES = ("a2_growth_tol", "lt_stable_tol", "lt_growing_tol", "t_scan")

# A value other than the default for every tolerance, in field order.
ALL_TOLERANCES = {
    "zero_threshold": 1e-5, "zero_band": 0.5, "grad_tol_scale": 1e-9,
    "residual_tol_scale": 1e-7, "bounds_tol": 1e-9, "zero_trace_tol": 1e-12,
    "eig_tol": 1e-9, "eig_max_iter": 400, "max_minimize_iterations": 5000,
    "seed_min_exponent": 20}

# Each section kind of the config schema with every key its constructor
# takes, optional ones included, and the spec a positional call builds.
FULL_SECTIONS = {
    ("domain", "box"): ({"lo": [0.0, 0.0], "hi": [1.0, 1.0]},
                        DomainSpec.box((0.0, 0.0), (1.0, 1.0))),
    ("domain", "ball"): ({"center": [0.5, 0.5], "radius": 0.5},
                         DomainSpec.ball((0.5, 0.5), 0.5)),
    ("domain", "custom-implicit"): (
        {"expression": "x**2 + y**2 - 1", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
        DomainSpec.implicit("x**2 + y**2 - 1", (-1.0, -1.0), (1.0, 1.0))),
    ("weight", "constant"): ({"value": 2.0}, WeightSpec.constant(2.0)),
    ("weight", "radial-piecewise"): (
        {"center": [0.5, 0.5], "pieces": [{"r_max": 0.25, "expr": "0.25 - r"},
                                          {"r_max": 0.75, "expr": "r - 0.25"}],
         "zero_radii": [0.25], "scale": 2.0},
        WeightSpec.radial((0.5, 0.5), [(0.25, "0.25 - r"), (0.75, "r - 0.25")],
                          (0.25,), 2.0)),
    ("weight", "product-of-powers"): (
        {"factors": [{"center": [0.5, 0.5], "radius": 0.25, "power": 0.5}], "scale": 2.0},
        WeightSpec.power_product([((0.5, 0.5), 0.25, 0.5)], 2.0)),
    ("weight", "custom-expression"): (
        {"expr": "abs(x - 0.5)", "zero_expr": "abs(x - 0.5)", "scale": 2.0},
        WeightSpec.expression("abs(x - 0.5)", "abs(x - 0.5)", 2.0)),
    ("nonlinearity", "logistic-default"): (
        {"gamma": 30.0, "s_star": 2.0, "beta_star": 0.5},
        NonlinearitySpec.logistic(30.0, 2.0, 0.5)),
    ("nonlinearity", "custom"): (
        {"expr": "30*abs(s)*(1 - s)", "gamma": 30.0, "s_star": 1.0, "beta_star": 0.5},
        NonlinearitySpec.custom("30*abs(s)*(1 - s)", 30.0, 1.0, 0.5)),
    ("tolerances", None): (ALL_TOLERANCES, ToleranceConfig(*ALL_TOLERANCES.values())),
    ("enumeration", None): ({"max_chi": 5}, pipeline.EnumerationConfig(5)),
}


def section_keys(section, kind):
    """Parameter names of the constructor ``pipeline`` builds a section kind with."""
    table = pipeline._SECTIONS[section]
    return set(inspect.signature(table if kind is None else table[kind]).parameters)


class TestConfigSchema:
    def test_every_section_kind_is_covered(self):
        kinds = {(section, kind) for section, table in pipeline._SECTIONS.items()
                 for kind in (table if isinstance(table, dict) else [None])}
        assert set(FULL_SECTIONS) == kinds

    @pytest.mark.parametrize("section, kind", list(FULL_SECTIONS),
                             ids=[kind or section for section, kind in FULL_SECTIONS])
    def test_section_keys_are_constructor_arguments(self, section, kind):
        node, direct = FULL_SECTIONS[section, kind]
        assert set(node) == section_keys(section, kind)
        for key, item in pipeline._ITEMS.items():
            assert all(set(entry) == set(item._fields) for entry in node.get(key, []))
        if kind is not None:
            node = dict(node, kind=kind)
        assert getattr(parse_config(unit_square(**{section: node})), section) == direct


class TestConfigParsing:
    def test_unknown_top_level_key(self):
        data = ring_config(65)
        data["resolutionn"] = 9
        with pytest.raises(ConfigError, match="resolutionn"):
            parse_config(data)

    def test_unknown_nested_key(self):
        data = ring_config(65)
        data["weight"]["typo"] = 1
        with pytest.raises(ConfigError, match="typo"):
            parse_config(data)

    def test_unknown_tolerance_key(self):
        data = ring_config(65)
        data["tolerances"] = {"grad_tol": 1e-8}
        with pytest.raises(ConfigError, match="grad_tol"):
            parse_config(data)

    def test_missing_required_key(self):
        data = ring_config(65)
        del data["nonlinearity"]
        with pytest.raises(ConfigError, match="nonlinearity"):
            parse_config(data)

    @pytest.mark.parametrize("ndim", [2, 3, 4])
    def test_vtk_export_needs_two_or_three_dimensions(self, ndim):
        # Legacy VTK structured points hold three axes; a 4D field would not fit.
        data = unit_square(domain={"kind": "box", "lo": [0.0] * ndim, "hi": [1.0] * ndim},
                           export_vtk=True)
        if ndim == 4:
            with pytest.raises(ConfigError, match="^invalid export_vtk: .*4D"):
                parse_config(data)
        else:
            assert parse_config(data).export_vtk

    def test_resolution_floor(self):
        data = ring_config(65)
        data["resolution"] = 7
        with pytest.raises(ConfigError, match="resolution"):
            parse_config(data)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", [
        "zero_threshold", "zero_band", "grad_tol_scale", "residual_tol_scale",
        "bounds_tol", "zero_trace_tol", "eig_tol", *REMOVED_TOLERANCES])
    def test_non_finite_tolerance_rejected(self, name, value):
        tolerance = [1.0, value] if name == "t_scan" else value
        message = repr(name) if name in REMOVED_TOLERANCES else f"{name} must be finite"
        with pytest.raises(ConfigError, match=f"^invalid tolerances: .*{message}"):
            parse_config(unit_square(tolerances={name: tolerance}))

    @pytest.mark.parametrize("name, value", [
        ("eig_max_iter", 2.5), ("eig_max_iter", 0), ("eig_max_iter", True),
        ("max_minimize_iterations", 0), ("max_minimize_iterations", 100.0),
        ("seed_min_exponent", -5), ("seed_min_exponent", 1.5),
        ("zero_threshold", 1.0), ("zero_threshold", 1.5), ("t_scan", [0.5])])
    def test_out_of_range_tolerance_exits_one(self, tmp_path, capsys, name, value):
        path = write_config(tmp_path, unit_square(out=str(tmp_path / "out"),
                                                  tolerances={name: value}))
        assert main(["solve", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid tolerances: ")
        assert (repr(name) if name in REMOVED_TOLERANCES else f"tolerance {name} must be") in err

    @pytest.mark.parametrize("name", REMOVED_TOLERANCES)
    def test_removed_admissibility_tolerance_exits_one(self, tmp_path, capsys, name):
        # (a2) is decided from exponents read at the zero manifolds: these keys went with
        # the two-level estimator, and a config that still sets one is refused by name.
        out = tmp_path / "out"
        path = write_config(tmp_path, unit_square(out=str(out), tolerances={name: 1.1}))
        assert main(["check", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid tolerances: ") and repr(name) in err
        assert not out.exists()

    def test_nan_tolerance_in_file_exits_one(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, unit_square(
            out=str(out), tolerances={"grad_tol_scale": float("nan")}))
        assert "NaN" in path.read_text()
        assert main(["solve", "--config", str(path)]) == 1
        assert "grad_tol_scale must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("changes", [
        {"weight": {"kind": "custom-expression", "expr": "where((lambda: ().__class__"
                    ".__base__.__subclasses__())() is None, 0.0, 1.0) + 0*x"}},
        {"weight": {"kind": "custom-expression", "expr": "1 + 0*[c.real for c in (x,)][0]"}},
        {"domain": dict(tiny_disk(), expression="(lambda: x.real)()**2 + y**2 - 1")},
        {"domain": dict(tiny_disk(), expression="[c.real for c in (x,)][0]**2 + y**2 - 1")},
        {"nonlinearity": {"kind": "custom", "expr": "30*(lambda: s.real)()*(1 - s)",
                          "gamma": 30.0, "s_star": 1.0, "beta_star": 0.5}},
        {"nonlinearity": {"kind": "custom", "expr": "30*[c.real for c in (s,)][0]*(1 - s)",
                          "gamma": 30.0, "s_star": 1.0, "beta_star": 0.5}},
    ], ids=["weight-lambda", "weight-comprehension", "domain-lambda",
            "domain-comprehension", "nonlinearity-lambda", "nonlinearity-comprehension"])
    def test_nested_scopes_are_refused(self, changes):
        # Their names are not the expression's own, so the allow-list never sees them.
        # (From Python 3.12 a list comprehension is inlined: its `real` is refused by name.)
        [(section, _)] = changes.items()
        with pytest.raises(ConfigError, match=rf"^invalid {section}: .* not allowed in expr"):
            parse_config(unit_square(**changes))

    def test_warning_inside_an_expression_is_attributed_to_multibump(self):
        # So the filter error::RuntimeWarning:multibump fails a run that raises one.
        with warnings.catch_warnings():
            warnings.filterwarnings("error", category=RuntimeWarning, module="multibump")
            with pytest.raises(RuntimeWarning, match="invalid value encountered in sqrt"):
                evaluate_expression("sqrt(x)", np.array([[-1.0, 0.0]]))
        with pytest.raises(ValueError, match="'__name__' is not allowed"):
            compile_expression("__name__", ("x",))

    def test_allow_large_is_an_unknown_key(self):
        # max_chi is the only enumeration guard.
        with pytest.raises(ConfigError, match="allow_large"):
            parse_config(dict(ring_config(65), enumeration={"allow_large": True}))

    def test_roundtrip_via_file(self, tmp_path):
        path = write_config(tmp_path, ring_config(65))
        config = load_config(path)
        assert config.resolution == 65
        assert config.domain.kind == "ball"
        assert config.nonlinearity.gamma == 10.0


def test_import_loads_no_unused_scipy_subpackage():
    # Each costs import time in every fresh process (scipy.signal imports
    # scipy.stats, scipy.fft imports scipy.special); numpy does the lattice
    # work, and scipy.sparse loads only where a matrix or graph is built.
    unused = ("ndimage", "fft", "special", "signal", "stats")
    code = ("import sys, multibump.cli; print(sorted(m for m in sys.modules "
            f"if m.split('.')[:2] in {[['scipy', name] for name in unused]}))")
    env = dict(os.environ, PYTHONPATH=str(Path(multibump.__file__).parents[1]))
    loaded = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                            capture_output=True, text=True, timeout=120)
    assert loaded.stdout == "[]\n"


def test_linalg_loads_only_at_decomposition(tmp_path):
    # scipy.sparse (about 0.2 s) is imported where a component's matrices or
    # the decomposition's graph are built, and csgraph and splu bring
    # scipy.linalg; a process that never decomposes a lattice, as verify and
    # report, must load no scipy module at all.
    config = write_config(tmp_path, unit_square(out=str(tmp_path / "out")))
    run_pipeline(load_config(config))
    env = dict(os.environ, PYTHONPATH=str(Path(multibump.__file__).parents[1]))

    def loaded_after(statements):
        code = (f"import sys\n{statements}\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        return subprocess.run([sys.executable, "-c", code], check=True, env=env,
                              capture_output=True, text=True, timeout=120).stdout

    assert loaded_after("import multibump.cli") == "[]\n"
    csv = tmp_path / "out" / "solution_001.csv"
    assert loaded_after(
        "from multibump.pipeline import load_config, verify_solution_file\n"
        f"assert verify_solution_file(load_config({str(config)!r}), {str(csv)!r}).passed"
    ) == "[]\n"
    report = tmp_path / "out" / "report.json"
    printed = loaded_after(
        f"import multibump.cli\nmultibump.cli.main(['report', {str(report)!r}])")
    assert printed.startswith("multibump run report\n") and printed.endswith("\n[]\n")
    # A 2D check factors each component, so the guards above are not vacuous.
    assert "'scipy.sparse.linalg'" in loaded_after(
        "from multibump.pipeline import check_hypotheses, load_config\n"
        f"check_hypotheses(load_config({str(config)!r}))")


class TestPipelineRuns:
    def test_constant_weight_single_solution(self, tmp_path):
        data = {
            "domain": {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
            "weight": {"kind": "constant", "value": 1.0},
            "nonlinearity": {"kind": "logistic-default", "gamma": 30.0, "s_star": 1.0},
            "resolution": 33,
            "output_dir": str(tmp_path / "out"),
        }
        report = run_pipeline(parse_config(data))
        assert report.status == "ok"
        assert report.chi == 1
        assert len(report.solutions) == 1
        assert report.passed

    def test_saturated_bump_verifies(self, tmp_path):
        # gamma far above a_M lambda1 (about 20) pins most nodes near s*,
        # on the kink of f*, where a small gradient alone let u pass s*.
        report = run_pipeline(parse_config(unit_square(65, 5000.0, str(tmp_path / "out"))))
        assert report.bumps[0].max_value > 1.0 - 1e-3
        assert report.passed

    def test_quadratic_weight_aborts_naming_a2(self, tmp_path):
        config = parse_config(quadratic_zero_config(129, out=str(tmp_path / "out")))
        report = run_pipeline(config)
        assert report.status == "hypothesis-violation"
        assert report.violated_hypothesis == "a2"
        assert not report.solutions
        # Partial report still written.
        text = (tmp_path / "out" / "report.txt").read_text()
        assert "violated-hypothesis: (a2)" in text

    def test_boundary_touching_zero_set_aborts_naming_a1(self, tmp_path):
        data = {
            "domain": {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
            "weight": {
                "kind": "custom-expression",
                "expr": "sqrt((x - 0.5)**2 + where(y < 0.5, (0.5 - y)**2, 0))",
            },
            "nonlinearity": {"kind": "logistic-default", "gamma": 30.0, "s_star": 1.0},
            "resolution": 33,
            "output_dir": str(tmp_path / "out"),
        }
        report = run_pipeline(parse_config(data))
        assert report.status == "hypothesis-violation"
        assert report.violated_hypothesis == "a1"

    @pytest.mark.parametrize("case, verdict, hypothesis", [
        ("zero_threshold", "zero-set-touches-boundary", "a1"),
        ("crossing-spheres", "zero-manifolds-cross", "a1"),
        ("undeclared-zero", "undeclared-zero-set", "a1"),
        ("log-factor", "exponent-unresolved", "a2"),
        ("quadratic-point", "violates-a2", "a2"),
        ("shell-power-0.8", "violates-lt", "a2"),
    ])
    def test_failing_verdict_names_its_hypothesis(self, case, verdict, hypothesis):
        """Each failing admissibility verdict stops the run with the hypothesis it violates."""
        report = check_hypotheses(parse_config(FAILING_ADMISSIBILITY[case]))
        assert report.admissibility.verdict == verdict
        assert report.admissibility.violated_hypothesis == hypothesis
        assert report.status == "hypothesis-violation"
        assert report.violated_hypothesis == hypothesis
        assert report.failure_message == f"admissibility verdict: {verdict}"

    def test_undeclared_expression_zero_reads_once_declared(self):
        # The weight of the undeclared case, with the distance to its zero circle.
        data = FAILING_ADMISSIBILITY["undeclared-zero"]
        data = dict(data, weight=dict(data["weight"], zero_expr=RING_DISTANCE))
        adm = check_hypotheses(parse_config(data)).admissibility
        assert adm.verdict == "admissible"
        assert [r.manifold for r in adm.readings] == ["zero_expr", "boundary"]
        assert adm.readings[0].exponent == pytest.approx(0.5, abs=1e-3)

    def test_low_gamma_aborts_naming_f2(self, tmp_path):
        data = {
            "domain": {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
            "weight": {"kind": "constant", "value": 1.0},
            "nonlinearity": {"kind": "logistic-default", "gamma": 10.0, "s_star": 1.0},
            "resolution": 33,
            "output_dir": str(tmp_path / "out"),
        }
        report = run_pipeline(parse_config(data))
        assert report.status == "hypothesis-violation"
        assert report.violated_hypothesis == "f2"
        assert report.f2_entries and not report.f2_entries[0].passed

    def test_mixed_f2_solve_stops_with_the_check_report(self, tmp_path, monkeypatch):
        # At gamma 15 the disk (1,1) keeps a margin of +0.178, the first annulus
        # (2,1) falls to -0.122, and (2,2) and (2,3) pass.
        minimized, minimize = [], pipeline.minimize_energy

        def counted(energy, eigen, tol):
            minimized.append(energy.component.id)
            return minimize(energy, eigen, tol)

        monkeypatch.setattr(pipeline, "minimize_energy", counted)
        data = nested_rings_config(65)
        data["nonlinearity"]["gamma"] = 15.0
        path = write_config(tmp_path, data)
        for command in ("check", "solve"):
            assert main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 2
        assert minimized == [(1, 1)]  # the one bump made before (2,1) fails
        report = json.loads((tmp_path / "solve" / "report.json").read_text())
        assert [(e["component"], round(e["margin"], 3), e["passed"]) for e in report["f2"]] == [
            ("(1,1)", 0.178, True), ("(2,1)", -0.122, False),
            ("(2,2)", 0.243, True), ("(2,3)", 0.24, True)]
        assert report["violated_hypothesis"] == "f2" and report["bumps"] == []
        for name in ("report.json", "report.txt"):
            assert (tmp_path / "solve" / name).read_bytes() == (
                tmp_path / "check" / name).read_bytes()

    def test_three_dimensional_cube_smoke(self, tmp_path):
        # lambda1 of the unit cube is about 29.6, so gamma = 60 leaves a
        # 2x spectral margin; exercises the h^(N-2) scalings in 3D.
        data = {
            "domain": {"kind": "box", "lo": [0.0, 0.0, 0.0], "hi": [1.0, 1.0, 1.0]},
            "weight": {"kind": "constant", "value": 1.0},
            "nonlinearity": {"kind": "logistic-default", "gamma": 60.0, "s_star": 1.0},
            "resolution": 9,
            "output_dir": str(tmp_path / "out"),
        }
        report = run_pipeline(parse_config(data))
        assert report.status == "ok"
        assert report.chi == 1
        assert len(report.solutions) == 1
        assert report.passed
        entry = report.f2_entries[0]
        assert entry.lambda1 == pytest.approx(3.0 * np.pi ** 2, rel=0.05)

    def test_nan_valued_f_aborts_naming_f1(self, tmp_path):
        data = unit_square(out=str(tmp_path / "out"), nonlinearity={
            "kind": "custom", "expr": "30*s*(1-s) + 0*log(s)",
            "gamma": 30.0, "s_star": 1.0, "beta_star": 0.5})
        report = run_pipeline(parse_config(data))
        assert report.status == "hypothesis-violation"
        assert report.violated_hypothesis == "f1"
        assert "finite" in report.failure_message

    def test_bad_shape_aborts_naming_f1(self, tmp_path):
        data = {
            "domain": {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
            "weight": {"kind": "constant", "value": 1.0},
            "nonlinearity": {"kind": "custom", "expr": "30*s*(1 - s)",
                             "gamma": 30.0, "s_star": 1.0, "beta_star": 0.5},
            "resolution": 33,
            "output_dir": str(tmp_path / "out"),
        }
        report = run_pipeline(parse_config(data))
        assert report.status == "hypothesis-violation"
        assert report.violated_hypothesis == "f1"

    def test_custom_spelling_of_logistic_solves_like_it(self):
        """J is exact for a custom f, so Newton-CG takes the logistic steps."""
        spellings = [{"kind": "logistic-default", "gamma": 30.0, "s_star": 1.0},
                     {"kind": "custom", "expr": "30*abs(s)*(1-s)", "gamma": 30.0,
                      "s_star": 1.0, "beta_star": 0.5}]
        reports = [run_pipeline(parse_config(unit_square(
            33, nonlinearity=spelling, tolerances={"max_minimize_iterations": 200})),
            write=False) for spelling in spellings]
        assert reports[1].status == "ok", reports[1].failure_message
        (logistic,), (custom,) = [report.bumps for report in reports]
        assert (custom.iterations, custom.linear_iterations) \
            == (logistic.iterations, logistic.linear_iterations)
        assert custom.energy == pytest.approx(logistic.energy, rel=1e-12, abs=0.0)


# A ball or a shifted box about the origin, ``clearance`` from it to the
# boundary, with a constant weight or one vanishing on one or two circles about
# the origin inside that clearance.  gamma is ``factor`` times the least or the
# greatest lambda_1(D) a_M(D) over the components D: (f2) holds on D iff gamma
# exceeds its own.
def f2_problem(domain, clearance):
    return st.tuples(
        st.sampled_from([17, 25]), st.just(domain),
        st.one_of(
            st.builds(lambda value: {"kind": "constant", "value": value},
                      st.floats(0.1, 10.0)),
            st.builds(lambda rings, scale: {
                "kind": "product-of-powers", "scale": scale,
                "factors": [{"center": [0.0, 0.0], "radius": fraction * clearance,
                             "power": power} for fraction, power in rings]},
                st.lists(st.tuples(st.floats(0.25, 0.85), st.floats(0.3, 0.8)),
                         min_size=1, max_size=2),
                st.floats(0.2, 2.0))),
        st.sampled_from([0.5, 0.9, 1.1, 2.0]), st.sampled_from([min, max]))


f2_problems = st.one_of(
    st.builds(lambda centre, radius: ({"kind": "ball", "center": list(centre),
                                       "radius": radius}, radius - hypot(*centre)),
              st.tuples(*[st.floats(-0.5, 0.5)] * 2), st.floats(1.0, 2.0)),
    st.builds(lambda lo, side: ({"kind": "box", "lo": list(lo), "hi": [x + side for x in lo]},
                                min(-max(lo), side + min(lo))),
              st.tuples(*[st.floats(-1.5, -0.5)] * 2), st.floats(2.0, 3.0)),
).flatmap(lambda shape: f2_problem(*shape))


@settings(derandomize=True, deadline=None, database=None, max_examples=30)
@given(f2_problems)
def test_solve_decides_f2_as_check_does(tmp_path_factory, problem):
    n, domain, weight, factor, threshold = problem
    data = {"domain": domain, "weight": weight, "resolution": n, "output_dir": "out",
            "nonlinearity": {"kind": "logistic-default", "gamma": 10.0, "s_star": 1.0}}
    entries = check_hypotheses(parse_config(data)).f2_entries
    if entries:  # else the run stops before (f2) at any gamma
        data["nonlinearity"]["gamma"] = factor * threshold(e.lambda1 * e.a_max for e in entries)
    tmp = tmp_path_factory.mktemp("f2-gate")
    path = write_config(tmp, data)
    codes = {command: main([command, "--config", str(path), "--out", str(tmp / command)])
             for command in ("check", "solve")}
    check, solve = (json.loads((tmp / command / "report.json").read_text())
                    for command in ("check", "solve"))
    for key in ("status", "violated_hypothesis", "f2"):
        assert solve[key] == check[key]
    files = sorted(file.name for file in (tmp / "solve").glob("solution_*.csv"))
    if codes["check"] != 0:
        assert codes["solve"] == codes["check"] and files == []
        for name in ("report.json", "report.txt"):
            assert (tmp / "solve" / name).read_bytes() == (tmp / "check" / name).read_bytes()
    else:
        chi = check["chi"]
        assert len(files) == 2 ** chi - 1 == len(solve["solutions"])
        assert files == sorted(record["file"] for record in solve["solutions"])
        assert Counter(record["n_bumps"] for record in solve["solutions"]) == {
            k: comb(chi, k) for k in range(1, chi + 1)}


def sparse_field(grid, seed):
    """Mostly exact zeros, like a zero-extended bump, plus a few values
    whose repr is unusual: -0.0, subnormals and exponent forms."""
    rng = np.random.default_rng(seed)
    values = np.where(rng.random(grid.shape) < 0.4,
                      rng.uniform(0.0, 1.0, grid.shape), 0.0)
    special = [-0.0, 5e-324, -5e-324, 2.5e-310, 1e-300, 1e-5, 1e16, -1e22,
               123456789.123, 1.0, 0.1]
    flat = values.reshape(-1)
    flat[rng.choice(flat.size, len(special), replace=False)] = special
    return values


class TestOutputs:
    @pytest.mark.parametrize("domain, n", [
        (DomainSpec.box((0.1, -0.3), (1.1, 0.7)), 17),
        (DomainSpec.ball((0.1, 0.2, -0.3), 0.7), 9),
    ], ids=["box2d-nondyadic", "ball3d"])
    @pytest.mark.parametrize("writer, reference", [
        (write_solution_csv, reference_solution_csv),
        (write_solution_vtk, reference_solution_vtk),
    ], ids=["csv", "vtk"])
    def test_writer_matches_per_node_reference(self, tmp_path, domain, n,
                                               writer, reference):
        grid = build_grid(domain, n)
        # Non-finite values, and the longest repr of a float (24 characters).
        limit = sparse_field(grid, 3)
        widest = -2.2250738585072014e-308
        assert len(repr(widest)) == 24
        limit.reshape(-1)[[0, 7, -8, -1]] = [np.nan, np.inf, -np.inf, widest]
        for seed, values in enumerate([np.zeros(grid.shape),
                                       sparse_field(grid, 1),
                                       sparse_field(grid, 2),
                                       limit]):
            writer(tmp_path / f"new{seed}", values, grid)
            reference(tmp_path / f"ref{seed}", values, grid)
            assert (tmp_path / f"new{seed}").read_bytes() \
                == (tmp_path / f"ref{seed}").read_bytes()

    @pytest.mark.parametrize("domain, n", [
        (DomainSpec.box((0.1, -0.3), (1.1, 0.7)), 17),
        (DomainSpec.ball((0.1, 0.2, -0.3), 0.7), 9),
    ], ids=["box2d", "ball3d"])
    def test_csv_spliced_from_earlier_rows_matches_the_reference(self, tmp_path, domain, n):
        """Files whose rows were formatted by earlier files, in any order."""
        grid = build_grid(domain, n)
        rng = np.random.default_rng(6)
        labels = rng.integers(0, 4, grid.shape)  # 0: the zero set, 1-3: three bumps
        bumps = [np.where(labels == k, rng.uniform(0.0, 1.0, grid.shape), 0.0)
                 for k in (1, 2, 3)]
        composed = sum(bumps)
        changed = composed.copy()
        changed.flat[np.flatnonzero(labels == 2)[:3]] += 0.125  # new values at valued nodes
        special = composed.copy()
        widest = -2.2250738585072014e-308
        assert len(repr(widest)) == 24
        special.flat[np.flatnonzero(labels)[[0, 4, -1]]] = [-0.0, np.nan, widest]
        special.flat[0] = widest  # the lattice's first row, at the start of its batch
        for stem, values in [("composed", composed), ("first", bumps[0]),
                             ("second", bumps[1]), ("third", bumps[2]),
                             ("changed", changed), ("zeros", np.zeros(grid.shape)),
                             ("special", special), ("composed-again", composed)]:
            write_both(tmp_path, stem, values, grid)

    def test_csv_roundtrip(self, tmp_path, square33):
        grid, *_ = square33
        rng = np.random.default_rng(5)
        values = rng.uniform(0.0, 1.0, grid.shape)
        path = tmp_path / "field.csv"
        write_solution_csv(path, values, grid)
        loaded = read_solution_csv(path, grid)
        assert np.array_equal(loaded, values)

    def test_csv_grid_mismatch_rejected(self, tmp_path, square33):
        grid, *_ = square33
        other = build_grid(grid.domain, 17)
        write_solution_csv(tmp_path / "other-grid.csv", np.zeros(other.shape), other)
        write_solution_csv(tmp_path / "field.csv", np.zeros(grid.shape), grid)
        lines = (tmp_path / "field.csv").read_text().splitlines()
        for name, row in [("non-numeric-cell", "0.0,0.0,abc"), ("short-row", "0.0,0.0"),
                          ("long-row", "0.0,0.0,0.0,0.0")]:
            damaged = lines[:5] + [row] + lines[6:]
            (tmp_path / f"{name}.csv").write_text("\n".join(damaged) + "\n")
        for name in ["other-grid", "non-numeric-cell", "short-row", "long-row"]:
            path = tmp_path / f"{name}.csv"
            with pytest.raises(ConfigError, match=re.escape(
                    f"{path}: expected 1089 rows x 3 columns")):
                read_solution_csv(path, grid)

    def test_solution_files_and_verify_roundtrip(self, tmp_path):
        out = tmp_path / "out"
        data = {
            "domain": {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
            "weight": {"kind": "constant", "value": 1.0},
            "nonlinearity": {"kind": "logistic-default", "gamma": 30.0, "s_star": 1.0},
            "resolution": 33,
            "output_dir": str(out),
        }
        config = parse_config(data)
        report = run_pipeline(config)
        assert (out / "report.txt").exists()
        assert (out / "report.json").exists()
        assert (out / "solution_001.csv").exists()
        verification = verify_solution_file(config, out / "solution_001.csv")
        assert verification.passed

    def test_vtk_export(self, tmp_path):
        out = tmp_path / "out"
        data = {
            "domain": {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
            "weight": {"kind": "constant", "value": 1.0},
            "nonlinearity": {"kind": "logistic-default", "gamma": 30.0, "s_star": 1.0},
            "resolution": 17,
            "output_dir": str(out),
            "export_vtk": True,
        }
        run_pipeline(parse_config(data))
        vtk = (out / "solution_001.vtk").read_text().splitlines()
        assert vtk[0].startswith("# vtk DataFile")
        assert any(line.startswith("DIMENSIONS 17 17 1") for line in vtk)


def write_both(tmp_path, stem, values, grid):
    """Write ``values`` with both writers and with both reference writers."""
    for writer, reference, suffix in [(write_solution_csv, reference_solution_csv, "csv"),
                                      (write_solution_vtk, reference_solution_vtk, "vtk")]:
        writer(tmp_path / f"{stem}.{suffix}", values, grid)
        reference(tmp_path / f"{stem}-ref.{suffix}", values, grid)
        assert (tmp_path / f"{stem}.{suffix}").read_bytes() \
            == (tmp_path / f"{stem}-ref.{suffix}").read_bytes()


class TestRunText:
    def test_fields_on_one_grid_and_another_match_the_reference(self, tmp_path):
        g1 = build_grid(DomainSpec.box((0.1, -0.3), (1.1, 0.7)), 17)
        g2 = build_grid(DomainSpec.ball((0.1, 0.2, -0.3), 0.7), 9)
        first = sparse_field(g1, 1)
        flat = first.reshape(-1).copy()
        positive, zero = np.flatnonzero(flat > 0), np.flatnonzero(flat.view(np.int64) == 0)
        flat[positive[0]] += 0.125           # a new value
        flat[positive[1]] = 0.0              # back to +0.0
        flat[positive[2]] = -0.0             # a node's line becomes "-0.0"
        flat[zero[0]] = 5e-324               # a node without a line gets one
        changed = flat.reshape(g1.shape)
        for stem, values, grid in [("first", first, g1), ("changed", changed, g1),
                                   ("other-grid", sparse_field(g2, 2), g2),
                                   ("changed-again", changed, g1), ("first-again", first, g1)]:
            write_both(tmp_path, stem, values, grid)

    def test_solves_in_one_process_write_the_reference_files(self, tmp_path):
        configs = {name: parse_config(dict(make(33, out=str(tmp_path / name)), export_vtk=True))
                   for name, make in [("nested", nested_rings_config), ("ring", ring_config),
                                      ("nested-again", nested_rings_config)]}
        reports = {name: run_pipeline(config) for name, config in configs.items()}
        grid = pipeline._setup(configs["nested"])[0]
        # The reports differ in the digest, which covers output_dir.
        files = sorted(p.name for p in (tmp_path / "nested").glob("solution_*"))
        assert len(files) == 2 * 15
        for name in files:
            assert (tmp_path / "nested" / name).read_bytes() \
                == (tmp_path / "nested-again" / name).read_bytes()
        for record in reports["nested"].solutions:
            reference_solution_csv(tmp_path / "reference.csv", record.solution.field(grid), grid)
            assert (tmp_path / "reference.csv").read_bytes() \
                == (tmp_path / "nested" / record.filename).read_bytes()

    def test_each_bump_value_is_formatted_once_per_run(self, tmp_path, monkeypatch):
        config = parse_config(dict(nested_rings_config(33, out=str(tmp_path)), export_vtk=True))
        grid = pipeline._setup(config)[0]
        coordinates = {c for axis in grid.axes for c in axis.tolist()}
        formatted = []

        def counted(obj):
            if isinstance(obj, float) and obj not in coordinates:
                formatted.append(obj)
            return repr(obj)

        monkeypatch.setattr(pipeline, "repr", counted, raising=False)
        report = run_pipeline(config)
        bumps = [r.solution.field(grid).view(np.int64) for r in report.solutions
                 if r.solution.n_bumps == 1]
        assert len(bumps) == 4 and len(report.solutions) == 15
        assert 0 < len(formatted) <= sum(np.unique(b[b != 0]).size for b in bumps)


@pytest.fixture
def loadtxt_calls(monkeypatch):
    """Paths ``np.loadtxt`` parses, and the unpatched function."""
    calls, loadtxt = [], np.loadtxt

    def counted(path, *args, **kwargs):
        calls.append(Path(path).name)
        return loadtxt(path, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    return calls, loadtxt


def parsed_values(loadtxt, path, grid):
    return loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, -1].reshape(grid.shape)


def edit_rows(text: str, edit) -> str:
    """``text`` with ``edit(fields)`` applied to the first row holding a nonzero ``u``."""
    rows = text.split("\n")
    row = next(k for k, line in enumerate(rows[1:], start=1) if not line.endswith(",0.0"))
    rows[row] = ",".join(edit(rows[row].split(",")))
    return "\n".join(rows)


# A solution file of the run, changed in ways that keep or change its values.
EDITS = {
    "value-2.0": lambda text: edit_rows(text, lambda f: f[:-1] + ["2.0"]),
    "value-2.00": lambda text: edit_rows(text, lambda f: f[:-1] + ["2.00"]),
    "coordinate-0.50": lambda text: text.replace("\n0.5,", "\n0.50,", 1),
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "no-final-newline": lambda text: text[:-1],
}


class TestReadBack:
    def solve(self, tmp_path, gamma=30.0):
        data = nested_rings_config(33, out=str(tmp_path / f"gamma-{gamma}"))
        data["nonlinearity"]["gamma"] = gamma
        config = parse_config(data)
        return config, run_pipeline(config), pipeline._setup(config)[0]

    def test_own_files_are_not_parsed(self, tmp_path, loadtxt_calls):
        calls, loadtxt = loadtxt_calls
        config, report, grid = self.solve(tmp_path)
        out = Path(config.output_dir)
        paths = [out / record.filename for record in report.solutions]
        assert len(paths) == 15
        for path in paths:
            assert np.array_equal(read_solution_csv(path, grid).view(np.int64),
                                  parsed_values(loadtxt, path, grid).view(np.int64))
            assert verify_solution_file(config, path).passed
        special = sparse_field(grid, 3)  # -0.0, subnormals, exponent forms
        write_solution_csv(out / "special.csv", special, grid)
        assert np.array_equal(read_solution_csv(out / "special.csv", grid).view(np.int64),
                              special.view(np.int64))
        assert calls == []

    @pytest.mark.parametrize("edit", list(EDITS))
    def test_other_files_are_parsed_once(self, tmp_path, loadtxt_calls, edit):
        calls, loadtxt = loadtxt_calls
        config, report, grid = self.solve(tmp_path)
        written = Path(config.output_dir) / report.solutions[-1].filename
        path = tmp_path / f"{edit}.csv"
        path.write_bytes(EDITS[edit](written.read_text()).encode())
        assert path.read_bytes() != written.read_bytes()
        assert np.array_equal(read_solution_csv(path, grid), parsed_values(loadtxt, path, grid))
        assert calls == [path.name]
        # Reading a changed file leaves the run's text as it was.
        for record in report.solutions:
            values = record.solution.field(grid)
            write_solution_csv(tmp_path / "again.csv", values, grid)
            reference_solution_csv(tmp_path / "reference.csv", values, grid)
            assert (tmp_path / "again.csv").read_bytes() \
                == (tmp_path / "reference.csv").read_bytes()

    def test_earlier_solve_on_the_same_grid_is_parsed(self, tmp_path, loadtxt_calls):
        calls, loadtxt = loadtxt_calls
        earlier, report, grid = self.solve(tmp_path)
        later, _, later_grid = self.solve(tmp_path, gamma=31.0)
        assert later_grid is grid
        path = Path(earlier.output_dir) / report.solutions[-1].filename
        assert np.array_equal(read_solution_csv(path, grid), parsed_values(loadtxt, path, grid))
        assert calls == [path.name]

    def test_row_merged_over_a_node_never_written_is_parsed(self, tmp_path, loadtxt_calls):
        calls, _ = loadtxt_calls
        grid = build_grid(DomainSpec.box((0.0, 0.0), (1.0, 1.0)), 9)
        values = np.full(grid.shape, 0.5)
        values[0, 0] = 0.0  # the first write on this grid, so node 0 has no line
        path = tmp_path / "merged.csv"
        write_solution_csv(path, values, grid)
        # Row 0 loses its value and newline; one more row keeps the count.
        text = path.read_text().replace(",0.0\n", ",", 1) + "0.5\n"
        path.write_text(text)
        with pytest.raises(ConfigError, match="expected 81 rows x 3 columns"):
            read_solution_csv(path, grid)
        assert calls == [path.name]

    def test_fresh_context_parses(self, tmp_path, loadtxt_calls):
        calls, loadtxt = loadtxt_calls
        config, report, grid = self.solve(tmp_path)
        path = Path(config.output_dir) / report.solutions[-1].filename
        read = {}
        thread = threading.Thread(target=lambda: read.update(values=read_solution_csv(path, grid)))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert np.array_equal(read["values"], parsed_values(loadtxt, path, grid))
        assert calls == [path.name]

    @pytest.mark.parametrize("before, after", [(0.5, 0.625), (0.5, -0.0), (-0.0, 0.5)],
                             ids=["new-value", "to-negative-zero", "from-negative-zero"])
    def test_changing_a_nonzero_node_forgets_earlier_files(self, tmp_path, loadtxt_calls,
                                                           before, after):
        calls, loadtxt = loadtxt_calls
        grid = build_grid(DomainSpec.box((0.1, -0.3), (1.1, 0.7)), 17)
        first = sparse_field(grid, 1)
        node = np.flatnonzero(first > 0)[0]
        first.flat[node] = before
        second = first.copy()
        second.flat[node] = after
        for name, values in [("first", first), ("second", second)]:
            write_solution_csv(tmp_path / f"{name}.csv", values, grid)
        assert np.array_equal(read_solution_csv(tmp_path / "first.csv", grid).view(np.int64),
                              parsed_values(loadtxt, tmp_path / "first.csv", grid)
                              .view(np.int64))
        assert np.array_equal(read_solution_csv(tmp_path / "second.csv", grid).view(np.int64),
                              second.view(np.int64))
        assert calls == ["first.csv"]

    def test_writing_zeros_or_new_nodes_keeps_earlier_files(self, tmp_path, loadtxt_calls):
        calls, _ = loadtxt_calls
        grid = build_grid(DomainSpec.box((0.1, -0.3), (1.1, 0.7)), 17)
        first = sparse_field(grid, 1)
        flat = first.reshape(-1).view(np.int64)
        held, free = np.flatnonzero(flat != 0), np.flatnonzero(flat == 0)
        later = first.copy().reshape(-1)
        later[held[::2]] = 0.0  # +0.0 where the first file holds a value
        later[free[:5]] = [0.25, -0.0, 5e-324, 1e16, 0.5]  # first values at other nodes
        later = later.reshape(grid.shape)
        for name, values in [("first", first), ("later", later)]:
            write_solution_csv(tmp_path / f"{name}.csv", values, grid)
        for name, values in [("first", first), ("later", later)]:
            assert np.array_equal(read_solution_csv(tmp_path / f"{name}.csv", grid)
                                  .view(np.int64), values.view(np.int64))
        assert calls == []

    def test_file_with_another_header_fails_verify(self, tmp_path, capsys):
        config, report, grid = self.solve(tmp_path)
        written = Path(config.output_dir) / "solution_015.csv"
        path = tmp_path / "header-abc.csv"
        path.write_text("a,b,c\n" + written.read_text().split("\n", 1)[1])
        config_path = write_config(tmp_path, nested_rings_config(33, out=config.output_dir))
        assert main(["verify", "--config", str(config_path), str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: expected header x1,x2,u\n"
        with pytest.raises(ConfigError, match="expected header x1,x2,u"):
            read_solution_csv(path, grid)

    def test_file_with_shifted_coordinates_fails_verify(self, tmp_path, capsys):
        config, report, grid = self.solve(tmp_path)
        header, *rows = (Path(config.output_dir) / "solution_015.csv").read_text().splitlines()
        shifted = [f"{float(x1) + grid.h / 2!r},{rest}"
                   for x1, rest in (row.split(",", 1) for row in rows)]
        path = tmp_path / "shifted.csv"
        path.write_text("\n".join([header] + shifted) + "\n")
        config_path = write_config(tmp_path, nested_rings_config(33, out=config.output_dir))
        assert main(["verify", "--config", str(config_path), str(path)]) == 1
        assert capsys.readouterr().err \
            == f"error: {path}: node coordinates do not match the grid\n"

    @pytest.mark.parametrize("corner, n", [(1000.0, 129), (10000.0, 65)])
    def test_far_box_file_shifted_by_one_node_fails(self, tmp_path, corner, n):
        """1e-5 of these coordinates exceeds h: only the absolute 1e-9 h applies."""
        grid = build_grid(DomainSpec.box((corner, corner), (corner + 1.0, corner + 1.0)), n)
        path = tmp_path / "field.csv"
        write_solution_csv(path, np.zeros(grid.shape), grid)
        header, *rows = path.read_text().splitlines()
        (tmp_path / "crlf.csv").write_text("\r\n".join([header] + rows) + "\r\n")
        assert np.array_equal(read_solution_csv(tmp_path / "crlf.csv", grid), np.zeros(grid.shape))
        shifted = [f"{float(x1) + grid.h!r},{rest}"
                   for x1, rest in (row.split(",", 1) for row in rows)]
        path.write_text("\n".join([header] + shifted) + "\n")
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}: node coordinates do not match the grid")):
            read_solution_csv(path, grid)


NESTED_RINGS_JSON = Path(__file__).resolve().parents[1] / "configs" / "nested_rings.json"
SINGLE_SQUARE_JSON = NESTED_RINGS_JSON.with_name("single_square.json")


@pytest.mark.parametrize("path, resolution, counts", [
    (NESTED_RINGS_JSON, 129, (4, 26, 37, 304)),
    (SINGLE_SQUARE_JSON, 65, (1, 5, 5, 11)),
], ids=["nested-rings-129", "square-65"])
def test_solver_step_counts_are_exact(monkeypatch, path, resolution, counts):
    """Components, Rayleigh-Ritz steps, Newton and CG steps, summed over the components.

    Exact, so a change that moves an iterate of either solver shows here.
    """
    eigens = []
    lambda1 = pipeline.dirichlet_lambda1

    def recorded(*args):
        eigens.append(lambda1(*args))
        return eigens[-1]

    monkeypatch.setattr(pipeline, "dirichlet_lambda1", recorded)
    config = dataclasses.replace(load_config(path), resolution=resolution)
    report = run_pipeline(config, write=False)
    assert report.status == "ok", report.failure_message
    assert (len(eigens), sum(e.iterations for e in eigens),
            sum(b.iterations for b in report.bumps),
            sum(b.linear_iterations for b in report.bumps)) == counts


class TestComposedVerification:
    """A run checks each bump and the full subset against K; the rest compose."""

    def run(self):
        config = dataclasses.replace(load_config(NESTED_RINGS_JSON), resolution=33)
        return config, run_pipeline(config, write=False)

    def test_every_report_equals_the_dense_check(self):
        config, report = self.run()
        grid, field, zero = pipeline._setup(config)
        assert len(report.solutions) == 15
        for record in report.solutions:
            dense = check_conclusions(record.solution.field(grid), field, config.nonlinearity,
                                      grid, zero, config.tolerances)
            assert np.float64(record.verification.residual_norm).tobytes() \
                == np.float64(dense.residual_norm).tobytes()
            assert record.verification == dense
        assert report.all_verified

    @staticmethod
    def couple(monkeypatch, entries):
        """Add ``entries`` ((row, column) -> value) to the product the run verifies with.

        ``K`` on a component is built from the component's own edges, so
        entries between components leave every bump as it was.
        """
        product = verify.lattice_product

        def coupled(grid, table, values):
            out, u = product(grid, table, values), np.ravel(values)
            for (row, column), value in entries.items():
                out.ravel()[row] += value * u[column]
            return out

        monkeypatch.setattr(verify, "lattice_product", coupled)

    def test_an_edge_between_two_components_fails_the_run(self, monkeypatch):
        _, clean = self.run()
        a, b = (bump.nodes[np.argmax(bump.values)] for bump in clean.bumps[:2])
        self.couple(monkeypatch, {(a, b): -1.0, (b, a): -1.0})
        _, report = self.run()
        assert [bump.values.tolist() for bump in report.bumps] \
            == [bump.values.tolist() for bump in clean.bumps]
        full = report.solutions[-1].verification
        assert not full.verdicts["residual"] and full.residual_norm > 0.1
        assert report.all_verified is False and not report.passed

    def test_couplings_each_within_tolerance_fail_only_the_full_subset(self, monkeypatch):
        """Each bump passes and a composed max passes; the dense full subset does not."""
        config, clean = self.run()
        tol = config.tolerances.residual_tol_scale * config.nonlinearity.gamma \
            * config.nonlinearity.s_star * pipeline._setup(config)[0].cell_volume
        first, second, third = clean.bumps[:3]
        row = second.nodes[np.argmax(second.values)]
        entries = {(row, bump.nodes[k]): -0.6 * tol / bump.values[k]
                   for bump in (first, third) for k in [np.argmax(bump.values)]}
        self.couple(monkeypatch, entries)
        _, report = self.run()
        failed = [record.solution.label() for record in report.solutions
                  if not record.verification.passed]
        assert failed == ["(1,1)+(1,2)+(1,3)+(1,4)"]
        assert report.solutions[-1].verification.residual_norm > tol
        assert report.all_verified is False

@pytest.fixture
def weight_evaluations(monkeypatch):
    """Resolution of every grid the pipeline's own setup evaluates the weight on."""
    resolutions = []
    evaluate = pipeline.evaluate_weight

    def counted(spec, grid):
        resolutions.append(grid.n)
        return evaluate(spec, grid)

    monkeypatch.setattr(pipeline, "evaluate_weight", counted)
    return resolutions


@pytest.fixture
def conductance_tables(monkeypatch):
    """Resolution of every grid the weight's conductance table is computed on."""
    resolutions, compute = [], weights.edge_conductances

    def counted(grid, values):
        resolutions.append(grid.n)
        return compute(grid, values)

    monkeypatch.setattr(weights, "edge_conductances", counted)
    return resolutions


# Boxes whose corner is -0.0, which compares equal to 0.0 but prints apart:
# in the VTK origin for ``lo``, in the last CSV coordinates for ``hi``.
SIGNED_ZERO_BOXES = {
    "lo": ({"kind": "box", "lo": [-0.0, -0.0], "hi": [1.0, 1.0]},
           "solution_001.vtk", "ORIGIN -0.0 -0.0 0.0\n"),
    "hi": ({"kind": "box", "lo": [-1.0, -1.0], "hi": [-0.0, -0.0]},
           "solution_001.csv", "\n-0.0,-0.0,0.0\n"),
}

# Solve each (config, output directory) pair of the arguments in turn.
FRESH_SOLVES = """
import sys
from multibump.cli import main
args = sys.argv[1:]
for config, out in zip(args[::2], args[1::2]):
    assert main(["solve", "--config", config, "--out", out]) == 0
"""


def as_floats(node):
    """``node`` with every integer (not bool) of the tree a float."""
    if isinstance(node, dict):
        return {key: as_floats(value) for key, value in node.items()}
    if isinstance(node, list):
        return [as_floats(value) for value in node]
    return float(node) if isinstance(node, int) and not isinstance(node, bool) else node


class TestSetupMemo:
    def test_solve_and_read_back_evaluate_the_weight_once(self, tmp_path, weight_evaluations,
                                                          conductance_tables):
        config = parse_config(nested_rings_config(33, out=str(tmp_path)))
        report = run_pipeline(config)
        assert len(report.solutions) == 15
        for record in report.solutions:
            assert verify_solution_file(config, tmp_path / record.filename).passed
        assert weight_evaluations == [33]
        # The weight's table, computed when the solve's first K_w is built, and kept.
        assert conductance_tables == [33]

    def test_check_builds_no_lattice_operator(self, conductance_tables):
        report = check_hypotheses(parse_config(nested_rings_config(65)))
        assert (report.status, report.chi) == ("ok", 4)
        assert conductance_tables == []

    @pytest.mark.parametrize("weight", [
        {"kind": "constant", "value": 1},
        {"kind": "radial-piecewise", "center": [0, 0], "pieces": [{"r_max": 2, "expr": "1"}],
         "zero_radii": [], "scale": 2},
        {"kind": "product-of-powers", "factors": [{"center": [0, 0], "radius": 1, "power": 1}],
         "scale": 2},
        {"kind": "custom-expression", "expr": "1 + x", "scale": 2},
    ], ids=lambda weight: weight["kind"])
    def test_integer_and_float_spellings_are_one_weight(self, tmp_path, weight,
                                                        weight_evaluations):
        spelled = {"int": weight, "float": as_floats(weight)}
        assert json.dumps(spelled["int"]) != json.dumps(spelled["float"])
        configs = {name: unit_square(weight=w, out=str(tmp_path / name))
                   for name, w in spelled.items()}
        assert parse_config(configs["int"]).weight == parse_config(configs["float"]).weight
        reports = {}
        for name, data in configs.items():
            main(["check", "--config", str(write_config(tmp_path, data, f"{name}.json"))])
            # Only the digest of the configuration text tells the reports apart.
            reports[name] = [line for line in (tmp_path / name / "report.txt").read_text()
                             .splitlines() if not line.startswith("config-digest")]
        assert reports["int"] == reports["float"]
        assert weight_evaluations == [17]

    @pytest.mark.parametrize("change", ["zero_band", "resolution", "signed-zero lo"])
    def test_configs_that_differ_get_their_own_setup(self, change, weight_evaluations):
        # A declared ring, so that the zero band shows in the mask.
        ring = {"kind": "radial-piecewise", "center": [0.5, 0.5],
                "pieces": [{"r_max": 0.75, "expr": "abs(r - 0.3)"}], "zero_radii": [0.3]}
        base = parse_config(unit_square(weight=ring))
        other = {
            "zero_band": lambda: parse_config(unit_square(weight=ring,
                                                          tolerances={"zero_band": 0.5})),
            "resolution": lambda: _apply_overrides(base, argparse.Namespace(resolution=33)),
            "signed-zero lo": lambda: parse_config(
                unit_square(weight=ring, domain=SIGNED_ZERO_BOXES["lo"][0])),
        }[change]()
        first, again, second = (pipeline._setup(c) for c in (base, base, other))
        assert again is first
        assert second is not first
        assert len(weight_evaluations) == 2
        assert repr(second[0].domain) == repr(other.domain)
        assert second[0].n == other.resolution
        grid, field, zero = second
        assert np.array_equal(zero, detect_zero_set(field, grid, other.tolerances))
        if change == "zero_band":
            assert not np.array_equal(zero, first[2])

    def test_signed_zero_boxes_write_what_a_fresh_process_writes(self, tmp_path):
        fresh_args = []
        for corner, (domain, _, _) in SIGNED_ZERO_BOXES.items():
            plain = json.loads(json.dumps(domain).replace("-0.0", "0.0"))
            run_pipeline(parse_config(unit_square(out=str(tmp_path / f"plain-{corner}"),
                                                  domain=plain, export_vtk=True)))
            data = unit_square(out=str(tmp_path / corner), domain=domain, export_vtk=True)
            run_pipeline(parse_config(data))
            fresh_args += [str(write_config(tmp_path, data, f"{corner}.json")),
                           str(tmp_path / f"fresh-{corner}")]
        # The two boxes differ in nonzero corners too, so the fresh process
        # cannot share a setup between them under any key.
        env = dict(os.environ, PYTHONPATH=str(Path(multibump.__file__).parents[1]))
        subprocess.run([sys.executable, "-c", FRESH_SOLVES, *fresh_args], check=True,
                       env=env, capture_output=True, timeout=120)
        for corner, (_, name, signed_line) in SIGNED_ZERO_BOXES.items():
            written = sorted(p.name for p in (tmp_path / corner).iterdir())
            assert written == sorted(p.name for p in (tmp_path / f"fresh-{corner}").iterdir())
            for file in written:
                assert (tmp_path / corner / file).read_bytes() \
                    == (tmp_path / f"fresh-{corner}" / file).read_bytes()
            assert signed_line in (tmp_path / corner / name).read_text()
            assert signed_line not in (tmp_path / f"plain-{corner}" / name).read_text()

    def test_invalid_weight_is_not_remembered(self, weight_evaluations):
        config = parse_config(unit_square(
            weight={"kind": "custom-expression", "expr": "x - 0.5"}))
        assert check_hypotheses(config).status == "invalid-weight"
        assert check_hypotheses(config).status == "invalid-weight"
        assert weight_evaluations == [17, 17]


class TestStageFailures:
    def test_invalid_weight_writes_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        data = {
            "domain": {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
            "weight": {"kind": "custom-expression", "expr": "x - 0.5"},
            "nonlinearity": {"kind": "logistic-default", "gamma": 30.0, "s_star": 1.0},
            "resolution": 17,
            "output_dir": str(out),
        }
        path = write_config(tmp_path, data)
        assert main(["solve", "--config", str(path)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "invalid-weight"
        assert "negative" in report["failure_message"]
        assert report["violated_hypothesis"] is None
        assert "status: invalid-weight" in (out / "report.txt").read_text()
        assert main(["check", "--config", str(path)]) == 1

    def test_zero_set_on_every_interior_node_stops_at_admissibility(self, tmp_path, capsys):
        # Such a zero set meets the Dirichlet ring, so (a1) fails before the
        # decomposition, which would find no component.
        out = tmp_path / "out"
        weight = {"kind": "custom-expression",
                  "expr": "where(x*(1 - x)*y*(1 - y) > 0, 1e-9, 1)"}
        path = write_config(tmp_path, unit_square(weight=weight, out=str(out)))
        assert main(["check", "--config", str(path)]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert "violated-hypothesis: (a1)" in lines
        assert "failure: admissibility verdict: zero-set-touches-boundary" in lines
        assert "zero-set-nodes: 225" in lines
        report = json.loads((out / "report.json").read_text())
        assert "zero_count" not in report and report["admissibility"]["zero_count"] == 225
        assert report["chi"] is None

    def test_eigensolver_failure_writes_report(self, tmp_path):
        out = tmp_path / "out"
        data = {
            "domain": {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
            "weight": {"kind": "constant", "value": 1.0},
            "nonlinearity": {"kind": "logistic-default", "gamma": 30.0, "s_star": 1.0},
            "resolution": 17,
            "output_dir": str(out),
            "tolerances": {"eig_max_iter": 1},
        }
        report = run_pipeline(parse_config(data))
        assert report.status == "numerical-failure"
        assert "did not converge" in report.failure_message
        assert not report.passed
        written = json.loads((out / "report.json").read_text())
        assert written["status"] == "numerical-failure"
        assert written["chi"] == 1

    def test_factorization_failure_writes_report(self, tmp_path, monkeypatch):
        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(spectral, "splu", singular)
        out = tmp_path / "out"
        path = write_config(tmp_path, unit_square(out=str(out)))
        assert main(["check", "--config", str(path)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "numerical-failure"
        assert report["violated_hypothesis"] is None
        assert report["failure_message"] == (
            "sparse LU failed on component (1, 1): Factor is exactly singular")

    def test_factorization_failure_in_solve_writes_report(self, tmp_path, monkeypatch):
        splu, calls = spectral.splu, []

        def second_call_fails(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("Factor is exactly singular")
            return splu(*args, **kwargs)

        monkeypatch.setattr(spectral, "splu", second_call_fails)
        out = tmp_path / "out"
        path = write_config(tmp_path, nested_rings_config(33, out=str(out)))
        assert main(["solve", "--config", str(path)]) == 1
        assert len(calls) == 2  # minimize builds no factor of its own
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "numerical-failure"
        assert [entry["passed"] for entry in report["f2"]] == [True]
        assert report["bumps"] == [] and report["solutions"] == []
        assert report["failure_message"] == (
            "sparse LU failed on component (1, 2): Factor is exactly singular")

    @pytest.mark.parametrize("domain, resolution", [
        (tiny_disk(), 8),  # h = 2/7: no node at the center
    ], ids=["fine"])
    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_too_coarse_grid_writes_report(self, tmp_path, capsys, command,
                                           domain, resolution):
        out = tmp_path / "out"
        path = write_config(tmp_path, unit_square(resolution, out=str(out),
                                                  domain=domain))
        assert main([command, "--config", str(path)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "resolution-too-coarse"
        assert report["violated_hypothesis"] is None
        assert f"no interior node at resolution n={resolution}" in report["failure_message"]
        assert capsys.readouterr().out == (out / "report.txt").read_text()

    def test_minimizer_failure_is_reported(self, tmp_path, monkeypatch):
        def fail(energy, eigen, options):
            raise NumericalFailureError("no negative-energy seed on component (1, 1)")

        monkeypatch.setattr(pipeline, "minimize_energy", fail)
        report = run_pipeline(parse_config(unit_square(out=str(tmp_path / "out"))))
        assert report.status == "numerical-failure"
        assert report.violated_hypothesis is None
        assert report.failure_message == "no negative-energy seed on component (1, 1)"

    def test_nonlinearity_bug_not_reported_as_f1(self, tmp_path, monkeypatch):
        def broken(spec):
            raise RuntimeError("bug in the truncation")

        monkeypatch.setattr(pipeline, "truncate_nonlinearity", broken)
        data = {
            "domain": {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
            "weight": {"kind": "constant", "value": 1.0},
            "nonlinearity": {"kind": "logistic-default", "gamma": 30.0, "s_star": 1.0},
            "resolution": 17,
            "output_dir": str(tmp_path / "out"),
        }
        with pytest.raises(RuntimeError, match="bug in the truncation"):
            run_pipeline(parse_config(data))


@pytest.fixture
def splu_calls(monkeypatch):
    """Shapes of the matrices the run hands ``spectral.splu``."""
    splu, calls = spectral.splu, []

    def counted(K, *args, **kwargs):
        calls.append(K.shape)
        return splu(K, *args, **kwargs)

    monkeypatch.setattr(spectral, "splu", counted)
    return calls


def direct_bumps(config):
    """Each component's bump from its own eigenpair and energy, outside the pipeline."""
    grid, field, zero = pipeline._setup(config)
    tol, trunc = config.tolerances, truncate_nonlinearity(config.nonlinearity)
    return [minimize_energy(assemble_energy(comp, K_w, trunc, grid),
                            dirichlet_lambda1(comp, grid, K0, tol), tol)
            for comp in decompose_components(grid, zero).components
            for K0, K_w in [component_operators(grid, comp, field)]]


class TestSharedFactor:
    def test_constant_weight_square_factorizes_once(self, splu_calls):
        # TestVerbose checks its minimize line, `LU factor from step 1`.
        config = parse_config(unit_square(65))
        [shared] = run_pipeline(config, write=False).bumps
        assert splu_calls == [(63 * 63, 63 * 63)]
        [direct] = direct_bumps(config)
        assert shared.factored_from == direct.factored_from == 1
        assert np.array_equal(shared.values, direct.values)
        assert shared.energy == direct.energy

    @pytest.mark.parametrize("changes, switch", [
        # Cut edges make the disk's stiffness differ from its Laplacian.
        ({"domain": {"kind": "ball", "center": [0.5, 0.5], "radius": 0.5}}, 4),
        ({"weight": {"kind": "custom-expression", "expr": "1 + 0.5*x*y"}}, 2),
    ], ids=["disk-constant", "square-varying"])
    def test_other_components_factorize_as_before(self, splu_calls, changes, switch):
        # They switch at the same step as before, to the spectral stage's factor.
        config = parse_config(unit_square(65, **changes))
        [bump] = run_pipeline(config, write=False).bumps
        assert len(splu_calls) == 1
        [direct] = direct_bumps(config)
        assert bump.factored_from == direct.factored_from == switch
        assert np.array_equal(bump.values, direct.values)
        assert bump.iterations == direct.iterations

    def test_nested_rings_switch_as_before(self, splu_calls):
        report = run_pipeline(parse_config(nested_rings_config(129)), write=False)
        assert len(splu_calls) == 4
        # Only the disk switches; the shift dominates K on the annuli.
        assert {b.component_id: b.factored_from for b in report.bumps} == {
            (1, 1): 9, (2, 1): None, (2, 2): None, (2, 3): None}

    def test_check_holds_one_factor_and_solve_drops_each_after_its_minimize(self, monkeypatch):
        splu, alive, held = spectral.splu, weakref.WeakSet(), []

        class Factor:  # a SuperLU object takes no weak reference
            def __init__(self, lu):
                self.lu = lu

            def solve(self, b):
                return self.lu.solve(b)

        def tracked(*args, **kwargs):
            held.append(len(alive))  # factors alive as the next one is built
            factor = Factor(splu(*args, **kwargs))
            alive.add(factor)
            return factor

        def counted(stage):
            def call(*args):
                held.append(len(alive))
                return stage(*args)
            return call

        monkeypatch.setattr(spectral, "splu", tracked)
        config = parse_config(nested_rings_config(129))
        assert check_hypotheses(config).status == "ok"
        assert held == [0] * 4 and len(alive) == 0
        held.clear()
        for name in ("minimize_energy", "enumerate_all"):
            monkeypatch.setattr(pipeline, name, counted(getattr(pipeline, name)))
        assert run_pipeline(config, write=False).status == "ok"
        # Each component's factor lives from its spectral stage to the end of its minimize.
        assert held == [0, 1] * 4 + [0] and len(alive) == 0

    def test_three_dimensions_never_factorize(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("factorized a 3D component")

        monkeypatch.setattr(spectral, "splu", refuse)
        cube = {"kind": "box", "lo": [0.0] * 3, "hi": [1.0] * 3}
        report = run_pipeline(parse_config(unit_square(9, gamma=60.0, domain=cube)), write=False)
        assert report.status == "ok"
        assert [b.factored_from for b in report.bumps] == [None]


# Weights whose zero spheres are undeclared or at a negative radius, and the
# key the error line names.
RADIUS_ERRORS = {
    "radial-no-zero-radii": ({"kind": "radial-piecewise", "center": [0.5, 0.5],
                              "pieces": [{"r_max": 1.0, "expr": "1 + r"}]}, "zero_radii"),
    "zero-radius-negative": ({"kind": "radial-piecewise", "center": [0.5, 0.5],
                              "pieces": [{"r_max": 1.0, "expr": "1 + r"}],
                              "zero_radii": [-0.25]}, "zero_radii"),
    "factor-radius-negative": ({"kind": "product-of-powers", "factors": [
        {"center": [0.5, 0.5], "radius": -0.25, "power": 0.5}]}, "radius"),
}


class TestCli:
    def test_solve_and_verify_exit_codes(self, tmp_path, capsys):
        data = {
            "domain": {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
            "weight": {"kind": "constant", "value": 1.0},
            "nonlinearity": {"kind": "logistic-default", "gamma": 30.0, "s_star": 1.0},
            "resolution": 33,
            "output_dir": str(tmp_path / "out"),
        }
        path = write_config(tmp_path, data)
        assert main(["solve", "--config", str(path)]) == 0
        captured = capsys.readouterr()
        assert "overall: pass" in captured.out
        code = main(["verify", "--config", str(path),
                     str(tmp_path / "out" / "solution_001.csv")])
        assert code == 0

    def test_check_subcommand_rejects_inadmissible(self, tmp_path, capsys):
        path = write_config(tmp_path, quadratic_zero_config(
            65, out=str(tmp_path / "out")))
        assert main(["check", "--config", str(path)]) == 2
        assert "violated-hypothesis: (a2)" in capsys.readouterr().out

    def test_resolution_override(self, tmp_path, capsys):
        data = ring_config(129, out=str(tmp_path / "out"))
        path = write_config(tmp_path, data)
        assert main(["check", "--config", str(path), "--resolution", "33"]) == 0
        assert "resolution: 33" in capsys.readouterr().out

    def test_report_subcommand(self, tmp_path, capsys):
        out = tmp_path / "out"
        data = {
            "domain": {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
            "weight": {"kind": "constant", "value": 1.0},
            "nonlinearity": {"kind": "logistic-default", "gamma": 30.0, "s_star": 1.0},
            "resolution": 17,
            "output_dir": str(out),
        }
        # resolution 17 is fine for a smoke run of the reporting path
        path = write_config(tmp_path, data)
        main(["solve", "--config", str(path)])
        capsys.readouterr()
        assert main(["report", str(out / "report.json")]) == 0
        assert capsys.readouterr().out == (out / "report.txt").read_text()

    @pytest.mark.parametrize("text", ['{"status": "ok"}', "{not json", "[1, 2]"],
                             ids=["mapping", "not-json", "list"])
    def test_report_of_a_file_that_is_no_report_is_an_error(self, tmp_path, capsys, text):
        path = tmp_path / "report.json"
        path.write_text(text)
        assert main(["report", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(rf"error: {re.escape(str(path))}: not a report: .*\n",
                            captured.err)

    def test_bad_config_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["solve", "--config", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("changes", [
        {"domain": {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0, 1.0]}},
        {"domain": {"kind": "box", "lo": [0.0], "hi": [1.0]}},
        {"domain": {"kind": "box", "lo": [0.0, 0.0], "hi": [2.0, 1.0]}},
        {"domain": {"kind": "box", "lo": ["a", 0.0], "hi": [1.0, 1.0]}},
        {"domain": dict(tiny_disk(), expression="x**2 + q**2 - 1")},
        {"domain": dict(tiny_disk(), expression="x**2 + y**")},
        {"resolution": "abc"},
        {"weight": {"kind": "constant", "value": "x"}},
        {"weight": {"kind": "custom-expression", "expr": "1 + z"}},
        {"weight": {"kind": "custom-expression", "expr": "1 +"}},
        {"weight": {"kind": "custom-expression", "expr": "1.0", "zero_expr": "open(x)"}},
        {"nonlinearity": {"kind": "custom", "expr": "s +", "gamma": 30.0,
                          "s_star": 1.0, "beta_star": 0.5}},
        {"enumeration": {"max_chi": "x"}},
        {"enumeration": {"max_chi": -1}},
        {"enumeration": {"max_chi": True}},
        {"enumeration": [1]},
        {"weight": {"kind": "product-of-powers",
                    "factors": [{"center": [0.5, 0.5, 0.5], "radius": 0.0, "power": 0.5}]}},
        {"domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
         "weight": {"kind": "radial-piecewise", "center": [0.0, 0.0, 0.0],
                    "pieces": [{"r_max": 1.0, "expr": "1 - r"}], "zero_radii": []}},
        {"domain": 5},
        {"weight": [1]},
        {"nonlinearity": 5},
        {"weight": {"kind": "radial-piecewise", "center": [0.5, 0.5], "pieces": ["x"]}},
        {"weight": {"kind": "product-of-powers", "factors": [[0.5, 0.5]]}},
        {"weight": {"kind": "radial-piecewise", "center": [0.5, 0.5], "pieces": [],
                    "zero_radii": []}},
        {"weight": {"kind": "product-of-powers", "factors": []}},
        {"weight": {"kind": "radial-piecewise", "center": [0.5, 0.5],
                    "pieces": [{"r_max": -1.0, "expr": "1 + r"}], "zero_radii": []}},
        {"weight": {"kind": "radial-piecewise", "center": [0.5, 0.5],
                    "pieces": [{"r_max": 2.0, "expr": "1 + 0*r"},
                               {"r_max": 1.0, "expr": "5 + 0*r"}], "zero_radii": []}},
        *({"weight": weight} for weight, _ in RADIUS_ERRORS.values()),
        {"resolution": 17.9},
        {"export_vtk": "no"},
        {"output_dir": None},
        {"output_dir": ""},
        {"nonlinearity": {"kind": "logistic-default", "gamma": True, "s_star": 1.0}},
        {"domain": {"kind": "ball", "center": [0.5, 0.5], "radius": True}},
        {"domain": {"kind": "box", "lo": [False, 0.0], "hi": [1.0, 1.0]}},
        {"weight": {"kind": "constant", "value": True}},
        {"tolerances": {"zero_threshold": True}},
        {"tolerances": {"t_scan": [1.0, True]}},
        {"weight": {"kind": "spline"}},
        {"tolerances": {"eig_tol": -1e-8}},
        {"tolerances": {"bounds_tol": -1.0}},
        {"domain": {"kind": "box", "lo": [1.0, 1.0], "hi": [1.0, 1.0]}},
        {"domain": {"kind": "custom-implicit", "expression": "x**2 + y**2 - 4",
                    "lo": [-1.0, -1.0], "hi": [1.0, 1.0]}},
        {"domain": {"kind": "box", "lo": [0.0] * 4, "hi": [1.0] * 4}, "export_vtk": True},
        {"weight": {"kind": "custom-expression", "expr": "where((lambda: ().__class__"
                    ".__base__.__subclasses__())() is None, 0.0, 1.0) + 0*x"}},
        {"nonlinearity": {"kind": "custom", "expr": "30*[c.real for c in (s,)][0]*(1 - s)",
                          "gamma": 30.0, "s_star": 1.0, "beta_star": 0.5}},
    ], ids=["hi-arity", "dimension-1", "not-a-hypercube", "lo-not-a-number",
            "domain-name", "domain-syntax", "resolution-not-a-number",
            "value-not-a-number", "weight-name", "weight-syntax", "zero-expr-name",
            "nonlinearity-syntax", "max-chi-string", "max-chi-negative",
            "max-chi-bool", "enumeration-list", "factor-centre-3d",
            "radial-centre-3d", "domain-number", "weight-list",
            "nonlinearity-number", "piece-string", "factor-list", "no-pieces",
            "no-factors", "r-max-negative", "r-max-decreasing", *RADIUS_ERRORS,
            "resolution-float",
            "export-vtk-string", "output-dir-null", "output-dir-empty", "gamma-bool",
            "radius-bool", "lo-bool", "value-bool", "zero-threshold-bool", "t-scan-bool",
            "weight-kind", "eig-tol-negative", "bounds-tol-negative", "box-empty",
            "domain-overflows-box", "export-vtk-4d", "weight-lambda",
            "nonlinearity-comprehension"])
    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_malformed_config_exits_one_with_an_error_line(self, tmp_path, capsys,
                                                           monkeypatch, command,
                                                           changes):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, unit_square(out=str(tmp_path / "out"), **changes))
        assert main([command, "--config", str(path)]) == 1
        assert re.fullmatch(r"error: invalid \w+: .*\n", capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("case", RADIUS_ERRORS)
    def test_undeclared_or_negative_radius_error_names_its_key(self, tmp_path, capsys, case):
        weight, key = RADIUS_ERRORS[case]
        path = write_config(tmp_path, unit_square(out=str(tmp_path / "out"), weight=weight))
        assert main(["check", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid weight: ") and err.count("\n") == 1
        assert key in err
        assert not (tmp_path / "out").exists()

    def test_config_root_must_be_a_mapping(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1]")
        assert main(["check", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "error: configuration root must be a mapping\n"

    def test_solve_writes_vtk_into_the_out_directory(self, tmp_path):
        path = write_config(tmp_path, unit_square(17, out=str(tmp_path / "ignored")))
        out = tmp_path / "D"
        assert main(["solve", "--config", str(path), "--out", str(out), "--vtk"]) == 0
        assert (out / "solution_001.vtk").is_file()
        assert not (tmp_path / "ignored").exists()

    def test_solve_vtk_of_a_4d_domain_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        domain = {"kind": "box", "lo": [0.0] * 4, "hi": [1.0] * 4}
        path = write_config(tmp_path, unit_square(9, 60.0, out=str(out), domain=domain))
        assert main(["solve", "--config", str(path), "--vtk"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: invalid export_vtk: ") and captured.out == ""
        assert not out.exists()

    def test_verify_of_a_missing_file_is_an_io_error(self, tmp_path, capsys):
        path = write_config(tmp_path, unit_square(17, out=str(tmp_path / "out")))
        missing = tmp_path / "missing.csv"
        assert main(["verify", "--config", str(path), str(missing)]) == 1
        assert capsys.readouterr().err.startswith("io error:")

    @pytest.mark.parametrize("override", [["--max-chi", "0"], ["--resolution", "7"]],
                             ids=["max-chi", "resolution"])
    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_out_of_range_override_exits_one(self, tmp_path, capsys, command, override):
        path = write_config(tmp_path, unit_square(out=str(tmp_path / "out")))
        assert main([command, "--config", str(path)] + override) == 1
        assert re.fullmatch(r"error: invalid \w+: .*\n", capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == [path]


BOUNDARY_ZERO = {"kind": "custom-expression",
                 "expr": "sqrt((x - 0.5)**2 + where(y < 0.5, (0.5 - y)**2, 0))"}
STOPS = {
    "ok": (unit_square(), "ok", None),
    "a1": (unit_square(33, weight=BOUNDARY_ZERO), "hypothesis-violation", "a1"),
    "a2": (quadratic_zero_config(65), "hypothesis-violation", "a2"),
    "f1": (unit_square(nonlinearity={"kind": "custom", "expr": "30*s*(1 - s)",
                                     "gamma": 30.0, "s_star": 1.0, "beta_star": 0.5}),
           "hypothesis-violation", "f1"),
    "f2": (unit_square(gamma=10.0), "hypothesis-violation", "f2"),
    "invalid-weight": (unit_square(weight={"kind": "custom-expression", "expr": "x - 0.5"}),
                       "invalid-weight", None),
    "non-finite-weight": (unit_square(weight={"kind": "custom-expression", "expr": "1/x"}),
                          "invalid-weight", None),
    "numerical-failure": (unit_square(tolerances={"eig_max_iter": 1}),
                          "numerical-failure", None),
    # (f2) holds by about 0.004, so only the seed s* is tried, and its J >= 0.
    "seed-failure": (unit_square(33, gamma=19.8, tolerances={"seed_min_exponent": 0}),
                     "numerical-failure", None),
    "enumeration-overflow": (dict(ring_config(33), enumeration={"max_chi": 1}),
                             "enumeration-overflow", None),
    "resolution-too-coarse": (unit_square(8, domain=tiny_disk()),
                              "resolution-too-coarse", None),
}


def test_each_status_is_declared_by_one_error_class():
    declared = {cls.__name__: cls.status for cls in SolverError.__subclasses__()}
    assert declared == {
        "ResolutionTooCoarseError": "resolution-too-coarse",
        "InvalidWeightError": "invalid-weight",
        "HypothesisViolationError": "hypothesis-violation",
        "NumericalFailureError": "numerical-failure",
        "EnumerationSizeError": "enumeration-overflow",
        "ConfigError": None}
    statuses = [status for status in declared.values() if status is not None]
    assert len(set(statuses)) == len(statuses)
    assert {status for _, status, _ in STOPS.values()} == set(statuses) | {"ok"}


class TestReportSerializer:
    @pytest.mark.parametrize("case", list(STOPS))
    def test_text_report_is_rendered_from_json(self, tmp_path, capsys, case):
        data, status, hypothesis = STOPS[case]
        out = tmp_path / "out"
        path = write_config(tmp_path, dict(data, output_dir=str(out)))
        main(["solve", "--config", str(path)])
        written = json.loads((out / "report.json").read_text())
        assert (written["status"], written["violated_hypothesis"]) == (status, hypothesis)
        text = (out / "report.txt").read_text()
        assert capsys.readouterr().out == text
        assert render_report(written) == text
        assert main(["report", str(out / "report.json")]) == 0
        assert capsys.readouterr().out == text

    def test_components_and_j_counts_sorted_by_number(self, tmp_path, capsys):
        labels = [f"(1,{l})" for l in range(1, 11)] + ["(2,1)", "(10,1)"]
        report = RunReport(config_digest="0" * 16, resolution=65, domain_kind="ball",
                           weight_reference="synthetic", gamma=30.0, s_star=1.0,
                           status="ok", chi=len(labels),
                           j_counts={1: 10, 2: 1, 10: 1},
                           component_sizes={label: 7 for label in labels})
        write_outputs(report, tmp_path)
        text = (tmp_path / "report.txt").read_text()
        assert "j-counts: j1=10, j2=1, j10=1\n" in text
        listed = [line.split()[1].rstrip(":") for line in text.splitlines()
                  if line.startswith("component ")]
        assert listed == labels
        assert render_report(json.loads((tmp_path / "report.json").read_text())) == text
        assert main(["report", str(tmp_path / "report.json")]) == 0
        assert capsys.readouterr().out == text


class TestVerbose:
    HYPOTHESES = ["setup", "admissibility", "decomposition", "nonlinearity", "spectral"]

    @pytest.mark.parametrize("command, stages", [
        ("check", HYPOTHESES),
        ("solve", HYPOTHESES + ["minimize", "enumerate", "verify"]),
    ])
    def test_one_line_per_stage(self, tmp_path, caplog, command, stages):
        caplog.set_level(logging.INFO, logger="multibump")
        path = write_config(tmp_path, unit_square(out=str(tmp_path / "out")))
        assert main(["--verbose", command, "--config", str(path)]) == 0
        logged = [r.getMessage().split(":")[0].removeprefix("stage ")
                  for r in caplog.records if r.getMessage().startswith("stage ")]
        assert logged == stages

    @pytest.mark.parametrize("command, per_component, tail", [
        ("check", ["spectral"], []),
        ("solve", ["spectral", "minimize"], ["enumerate", "verify"]),
    ])
    def test_one_pass_per_component(self, tmp_path, caplog, command, per_component, tail):
        caplog.set_level(logging.INFO, logger="multibump")
        path = write_config(tmp_path, nested_rings_config(33, out=str(tmp_path / "out")))
        assert main(["--verbose", command, "--config", str(path)]) == 0
        logged = [r.getMessage().split(":")[0].removeprefix("stage ")
                  for r in caplog.records if r.getMessage().startswith("stage ")]
        assert logged == self.HYPOTHESES[:-1] + per_component * 4 + tail

    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_one_spectral_line_per_component(self, tmp_path, caplog, command):
        caplog.set_level(logging.INFO, logger="multibump")
        path = write_config(tmp_path, nested_rings_config(33, out=str(tmp_path / "out")))
        assert main(["--verbose", command, "--config", str(path)]) == 0
        lines = [r.getMessage() for r in caplog.records if "lambda1" in r.getMessage()]
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(lines) == report["chi"] == 4
        for line, entry in zip(lines, report["f2"]):
            label = entry["component"].replace(",", ", ")
            match = re.fullmatch(r"component (\(\d+, \d+\)): lambda1 (\S+), \d+ "
                                 r"iterations, rayleigh residual \S+", line)
            assert match and match[1] == label, line
            assert float(match[2]) == pytest.approx(entry["lambda1"], rel=1e-5)

    @pytest.mark.parametrize("data, switches", [
        # The constant weight's stiffness is a multiple of the spectral K.
        (unit_square(65), ["LU factor from step 1"]),
        # Only the disk switches; the shift dominates K on the annuli.
        (nested_rings_config(65), ["LU factor from step 3"] + ["no LU factor"] * 3),
    ], ids=["square", "nested-rings"])
    def test_one_minimize_line_per_bump(self, tmp_path, caplog, data, switches):
        caplog.set_level(logging.INFO, logger="multibump")
        path = write_config(tmp_path, dict(data, output_dir=str(tmp_path / "out")))
        assert main(["--verbose", "solve", "--config", str(path)]) == 0
        lines = [r.getMessage() for r in caplog.records if "energy" in r.getMessage()]
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(lines) == len(report["bumps"]) == len(switches)
        for line, bump, switch in zip(lines, report["bumps"], switches):
            match = re.fullmatch(r"component \(\d+, \d+\): energy \S+, (\d+) iterations, "
                                 r"\d+ linear iterations, (.*)", line)
            assert match and int(match[1]) == bump["iterations"], line
            assert match[2] == switch
        assert "factor" not in (tmp_path / "out" / "report.json").read_text().lower()

    def test_stopping_stage_is_logged_last(self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="multibump")
        path = write_config(tmp_path, unit_square(gamma=10.0, out=str(tmp_path / "out")))
        assert main(["--verbose", "solve", "--config", str(path)]) == 2
        messages = [r.getMessage() for r in caplog.records]
        assert [m for m in messages if m.startswith("stage ")][-1].startswith("stage spectral:")
        assert messages[-1].startswith("pipeline hypothesis-violation in ")
