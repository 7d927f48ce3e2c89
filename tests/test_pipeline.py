import json

import numpy as np
import pytest

from conftest import quadratic_zero_config, ring_config
from oracles import reference_solution_csv, reference_solution_vtk

from multibump import pipeline
from multibump.cli import main
from multibump.errors import ConfigError
from multibump.grid import DomainSpec, build_grid
from multibump.pipeline import (load_config, parse_config, read_solution_csv,
                                run_pipeline, verify_solution_file,
                                write_solution_csv, write_solution_vtk)


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2))
    return path


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

    def test_resolution_floor(self):
        data = ring_config(65)
        data["resolution"] = 7
        with pytest.raises(ConfigError, match="resolution"):
            parse_config(data)

    def test_roundtrip_via_file(self, tmp_path):
        path = write_config(tmp_path, ring_config(65))
        config = load_config(path)
        assert config.resolution == 65
        assert config.domain.kind == "ball"
        assert config.nonlinearity.gamma == 10.0


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
        for seed, values in enumerate([np.zeros(grid.shape),
                                       sparse_field(grid, 1),
                                       sparse_field(grid, 2)]):
            writer(tmp_path / f"new{seed}", values, grid)
            reference(tmp_path / f"ref{seed}", values, grid)
            assert (tmp_path / f"new{seed}").read_bytes() \
                == (tmp_path / f"ref{seed}").read_bytes()

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
        values = np.zeros(other.shape)
        path = tmp_path / "field.csv"
        write_solution_csv(path, values, other)
        with pytest.raises(ConfigError):
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
        rendered = capsys.readouterr().out
        assert json.loads(rendered)["status"] == "ok"

    def test_bad_config_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["solve", "--config", str(path)]) == 1
        assert "error:" in capsys.readouterr().err
