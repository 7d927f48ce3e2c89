"""Benchmark worker: runs one workload's closed loop in its own process.

``run.py`` starts it as ``python3 bench/worker.py --workload NAME --config
PATH --scratch DIR --seconds S --trace 0|1 [--reference]`` and reads the JSON
object on the last line of its output.  One client runs one operation after
another: an untimed warm-up, then timed repeats while the next one is
expected to end within ``--seconds``.  Every operation, the warm-up too,
writes into a fresh directory under the scratch directory, passes the
correctness gate, and has that directory removed.  Calibration passes after
each operation measure the host's speed (see calibration.py).
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from multibump import pipeline  # noqa: E402

import tracer as tracing  # noqa: E402
from calibration import Calibration  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

REFERENCE_RTOL = 1e-6
# Share of the run spent on calibration passes, run after each operation.
CALIBRATION_SHARE = 0.05


@dataclass
class Outcome:
    report: pipeline.RunReport
    rechecked: list     # verification of each written file, re-read from disk
    wall_s: float
    verify_s: float


def _verify_files(config: pipeline.RunConfig, out_dir: Path,
                  report: pipeline.RunReport) -> list:
    """`multibump verify` on every solution file the report lists."""
    return [pipeline.verify_solution_file(config, out_dir / record.filename)
            for record in report.solutions]


def run_operation(config: pipeline.RunConfig, out_dir: Path) -> Outcome:
    """`multibump solve`, then `multibump verify` on every written file."""
    start = time.perf_counter()
    report = pipeline.run_pipeline(config, out_dir=out_dir)
    written = time.perf_counter()
    rechecked = _verify_files(config, out_dir, report)
    end = time.perf_counter()
    return Outcome(report, rechecked, end - start, end - written)


def _relative_gap(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def gate(workload: Workload, config: pipeline.RunConfig, outcome: Outcome,
         use_reference: bool) -> list[str]:
    """Problems with one operation's results, judged by the paper's conclusions."""
    report = outcome.report
    tol = config.tolerances
    s_star = config.nonlinearity.s_star
    chi = workload.chi
    problems = []
    if report.status != "ok" or not report.all_verified:
        problems.append(f"status {report.status}, all_verified {report.all_verified}: "
                        f"{report.failure_message}")
    if report.chi != chi:
        problems.append(f"chi is {report.chi}, expected {chi}")
    if len(report.solutions) != 2 ** chi - 1:
        problems.append(f"{len(report.solutions)} solutions, expected {2 ** chi - 1}")
    histogram = {}
    for record in report.solutions:
        n = record.solution.n_bumps
        histogram[n] = histogram.get(n, 0) + 1
    if histogram != {n: math.comb(chi, n) for n in range(1, chi + 1)}:
        problems.append(f"n-bump histogram {histogram} is not binomial")
    for bump in report.bumps:
        low, high = float(bump.values.min()), float(bump.values.max())
        if low < -tol.bounds_tol or high > s_star + tol.bounds_tol:
            problems.append(f"bump {bump.component_id} leaves [0, s*]: [{low}, {high}]")
    for record in report.solutions:
        if record.verification.zero_trace_max > tol.zero_trace_tol:
            problems.append(f"solution {record.solution.label()} has nonzero trace")
    for record, recheck in zip(report.solutions, outcome.rechecked):
        if not recheck.passed:
            failed = [name for name, ok in recheck.verdicts.items() if not ok]
            problems.append(f"re-verify of {record.filename} failed: {failed}")
    if use_reference:
        lambda1 = tuple(e.lambda1 for e in report.f2_entries)
        energies = tuple(b.energy for b in report.bumps)
        for label, got, want in (("lambda1", lambda1, workload.lambda1),
                                 ("energy", energies, workload.energies)):
            if len(got) != len(want) or any(
                    _relative_gap(g, w) > REFERENCE_RTOL for g, w in zip(got, want)):
                problems.append(f"{label} {got} differs from reference {want}")
    return problems


def _directory_mb(path: Path) -> float:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / 1e6


def measure(workload: Workload, config_path: Path, scratch: Path, seconds: float,
            trace: bool, use_reference: bool) -> dict:
    """Run the closed loop; return the counts and one sample per passing operation."""
    config = pipeline.load_config(config_path)
    tracer = tracing.Tracer() if trace else None
    counts = {"attempted": 0, "failed": 0}
    first_report: list[bytes] = []

    def attempt(traced: bool) -> dict | None:
        counts["attempted"] += 1
        out_dir = Path(tempfile.mkdtemp(dir=scratch))
        try:
            if traced:
                with tracer.operation():
                    outcome = run_operation(config, out_dir)
                sample = {"layers": tracer.metrics()}
            else:
                outcome = run_operation(config, out_dir)
                sample = {"verify_s": outcome.verify_s}
            sample["wall_s"] = outcome.wall_s
            sample["output_mb"] = _directory_mb(out_dir)
            problems = gate(workload, config, outcome, use_reference)
            report_bytes = (out_dir / "report.json").read_bytes()
            if not first_report:
                first_report.append(report_bytes)
            elif report_bytes != first_report[0]:
                problems.append("report.json differs from the first repeat")
        except Exception:  # a crashed operation is a failed one; keep measuring
            problems = [traceback.format_exc()]
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            counts["failed"] += 1
            for problem in problems:
                print(f"{workload.name}: operation {counts['attempted']} failed: {problem}",
                      file=sys.stderr)
            return None
        return sample

    attempt(traced=False)
    # Traced runs alternate traced and untraced operations, so the tracing
    # overhead is measured against untraced operations of the same run.
    minimum = 2 if trace else 1
    samples = []
    host = Calibration()
    host.run(0.0)
    start = time.perf_counter()
    last = 0.0
    done = 0
    while done < minimum or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        traced = trace and done % 2 == 0
        sample = attempt(traced)
        done += 1
        if sample is not None:
            sample["traced"] = traced
            samples.append(sample)
        host.run(CALIBRATION_SHARE * (time.perf_counter() - began))
        last = time.perf_counter() - began
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {**counts, "samples": samples, "host": host, "peak_rss_mb": peak_kb / 1024.0}


def summarize(result: dict, trace: bool) -> dict[str, float]:
    """Medians over the run's samples; empty when a kind of sample is missing.

    Times are at the reference host speed (see calibration.py).  The
    untraced run also reports the raw medians and the calibration pass.
    """
    median = statistics.median
    plain = [s for s in result["samples"] if not s["traced"]]
    traced = [s for s in result["samples"] if s["traced"]]
    if not plain or (trace and not traced):
        return {}
    scaled = result["host"].to_reference
    if not trace:
        return {"wall_s": scaled(median(s["wall_s"] for s in plain)),
                "verify_s": scaled(median(s["verify_s"] for s in plain)),
                "peak_rss_mb": result["peak_rss_mb"],
                "output_mb": median(s["output_mb"] for s in plain),
                "raw_wall_s": median(s["wall_s"] for s in plain),
                "host.calibration_s": median(result["host"].passes)}
    metrics = {}
    for name, unit in tracing.OPERATION_METRICS.items():
        value = median(s["layers"][name] for s in traced)
        metrics[name] = scaled(value) if unit == "s" else value
    metrics["trace.wall_s"] = scaled(median(s["wall_s"] for s in traced))
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - scaled(
        median(s["wall_s"] for s in plain))
    metrics["trace.coverage"] = median(
        sum(v for k, v in s["layers"].items() if tracing.OPERATION_METRICS[k] == "s")
        / s["wall_s"] for s in traced)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--scratch", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", action="store_true",
                        help="also compare with the references recorded for seed 0")
    args = parser.parse_args(argv)
    result = measure(WORKLOADS[args.workload], args.config, args.scratch,
                     args.seconds, bool(args.trace), args.reference)
    print(json.dumps({"attempted": result["attempted"], "failed": result["failed"],
                      "samples": len(result["samples"]),
                      "metrics": summarize(result, bool(args.trace))}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
