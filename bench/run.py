"""Benchmark of the multibump pipeline, one workload per run.

From the root of a checkout:

    python3 bench/run.py --workload square-descent --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of the output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit status is 0 only when every operation passed the correctness gate.

Each run starts fresh interpreters for its measurements: three set-up
probes (import multibump and load the config; ``setup_s`` is their median)
and one worker that runs the workload's closed loop (``worker.py``).  Times
are reported at a reference host speed (``calibration.py``).  BLAS
and OpenMP run one thread each.  Inputs are written to, and outputs made
in, ``.bench_scratch/`` at the root of the checkout, which the run removes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_PROBES = 3
RUN_BUDGET_S = 170.0        # every process of one run ends within this
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "output_mb": "MB"}
# Printed in the table only: the raw times behind the rescaled ones, and
# `verify_s`, whose run-to-run spread is wider than any bound.
TABLE_ONLY = {"verify_s": "s", "raw_wall_s": "s", "raw_setup_s": "s",
              "host.calibration_s": "s"}


def _environment() -> dict[str, str]:
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _run_child(argv: list[str], deadline: float) -> str:
    """Run a child interpreter to completion; return its standard output.

    ``subprocess.run`` kills and reaps the child when the deadline passes.
    """
    done = subprocess.run([sys.executable, *argv], stdout=subprocess.PIPE,
                          text=True, env=_environment(), cwd=ROOT,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if done.returncode != 0:
        raise RuntimeError(f"{Path(argv[0]).name} exited with status {done.returncode}")
    return done.stdout


def _measure(args, scratch: Path, deadline: float) -> tuple[dict, list[dict]]:
    workload = WORKLOADS[args.workload]
    config_path = scratch / "config.json"
    config_path.write_text(json.dumps(workload.config(args.seed, tiny=args.tiny), indent=2))
    probes = 1 if args.tiny else SETUP_PROBES
    setup = [] if args.trace else [
        json.loads(_run_child([str(HERE / "setup_probe.py"), str(config_path)], deadline))
        for _ in range(probes)]
    argv = [str(HERE / "worker.py"), "--workload", args.workload,
            "--config", str(config_path), "--scratch", str(scratch),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.seed == DEFAULT_SEED and not args.tiny:
        argv.append("--reference")
    result = json.loads(_run_child(argv, deadline).splitlines()[-1])
    return result, setup


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="multibump benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test resolutions, one set-up probe")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    # Exit through the handlers below on SIGTERM too, so the running child is
    # killed and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "multibump" / "__init__.py").is_file():
        print(f"error: no multibump sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    scratch = ROOT / ".bench_scratch" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        result, setup = _measure(args, scratch, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    values = dict(result["metrics"])
    for name in ("setup_s", "raw_setup_s") if setup else ():
        values[name] = statistics.median(probe[name] for probe in setup)
    units = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(units) - set(values))
    attempted, failed = result["attempted"], result["failed"]
    print(f"{args.workload} seed {args.seed}: {attempted} operations "
          f"(1 warm-up, {result['samples']} timed samples), {failed} failed")
    for name, unit in {**units, **TABLE_ONLY}.items():
        if name in values:
            print(f"  {name:34s} {values[name]:.6g} {unit}")
    print(f"  {'failed_ratio':34s} {failed / attempted:.6g} ({failed}/{attempted})")
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
    correct = failed == 0 and not missing
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values}}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
