"""Command-line interface.

Subcommands:

* ``check``  -- run the hypothesis stages only and write the report,
* ``solve``  -- run the full pipeline and write report + solution fields,
* ``verify`` -- re-verify an exported solution CSV against its config,
* ``report`` -- print the text report rendered from a stored report.json
  (the same bytes as the run's report.txt); a file that is not a report
  is an error.

Exit status is 0 only when every verdict of the run is true; a violated
hypothesis exits 2, any other stop 1.  ``--verbose`` logs one line per
stage with its wall time; ``spectral`` and ``minimize`` run per component.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys

from .errors import SolverError
from .pipeline import (RunConfig, RunReport, check_hypotheses, load_config,
                       render_report, report_to_dict, run_pipeline,
                       verify_solution_file, write_outputs)


def _apply_overrides(config: RunConfig, args) -> RunConfig:
    changes = {}
    if getattr(args, "resolution", None) is not None:
        changes["resolution"] = args.resolution
    if getattr(args, "out", None) is not None:
        changes["output_dir"] = args.out
    if getattr(args, "max_chi", None) is not None:
        changes["enumeration"] = dataclasses.replace(config.enumeration,
                                                     max_chi=args.max_chi)
    if getattr(args, "vtk", False):
        changes["export_vtk"] = True
    return dataclasses.replace(config, **changes) if changes else config


def _finish(report: RunReport) -> int:
    sys.stdout.write(render_report(report_to_dict(report)))
    if report.passed:
        return 0
    return 2 if report.violated_hypothesis else 1


def _cmd_check(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    report = check_hypotheses(config)
    write_outputs(report, config.output_dir)
    return _finish(report)


def _cmd_solve(args) -> int:
    return _finish(run_pipeline(_apply_overrides(load_config(args.config), args)))


def _cmd_verify(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    verification = verify_solution_file(config, args.field_file)
    for name, verdict in verification.verdicts.items():
        sys.stdout.write(f"{name}: {'pass' if verdict else 'fail'}\n")
    sys.stdout.write(f"residual-norm: {verification.residual_norm!r}\n")
    sys.stdout.write(f"bounds: [{verification.min_value!r}, {verification.max_value!r}]\n")
    sys.stdout.write(f"zero-trace-max: {verification.zero_trace_max!r}\n")
    sys.stdout.write(f"w11-seminorm: {verification.w11_seminorm!r}\n")
    sys.stdout.write(f"overall: {'pass' if verification.passed else 'fail'}\n")
    return 0 if verification.passed else 2


def _cmd_report(args) -> int:
    with open(args.report_json) as handle:
        try:
            text = render_report(json.load(handle))
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            raise SolverError(f"{args.report_json}: not a report: {exc!r}") from exc
    sys.stdout.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="multibump",
        description="Multi-bump solutions of degenerate semilinear elliptic problems")
    parser.add_argument("--verbose", action="store_true",
                        help="log one line per stage with its wall time")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the JSON run configuration")
    common.add_argument("--out", help="override the output directory")
    common.add_argument("--resolution", type=int, help="override nodes per axis")
    common.add_argument("--max-chi", type=int, dest="max_chi",
                        help="override the enumeration guard threshold")

    p_check = sub.add_parser("check", parents=[common],
                             help="run hypothesis checks only")
    p_check.set_defaults(func=_cmd_check)

    p_solve = sub.add_parser("solve", parents=[common], help="run the full pipeline")
    p_solve.add_argument("--vtk", action="store_true",
                         help="also export solutions as legacy VTK files")
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="re-verify an exported solution field")
    p_verify.add_argument("field_file", help="solution CSV produced by solve")
    p_verify.set_defaults(func=_cmd_verify)

    p_report = sub.add_parser("report",
                              help="print the text report rendered from a stored report.json")
    p_report.add_argument("report_json", help="path to report.json")
    p_report.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr)
    try:
        return args.func(args)
    except SolverError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
