"""The benchmark's workloads: base configs, seeded perturbations, references.

Each workload solves one config in ``configs/`` and re-verifies every file
the solve wrote.  Seed 0 runs the config as stored, and the gate compares
bump energies and eigenvalues with references recorded from the solver for
that seed.  Any other seed
perturbs the problem by a few percent.  Each perturbation keeps chi and a
positive (f2) margin, and it changes the work of the dominant stage by only
a few percent, so every seed measures the same kind of operation.  For those
seeds the gate uses the paper's conclusions alone.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CONFIG_DIR = Path(__file__).resolve().parent / "configs"
DEFAULT_SEED = 0


def _jitter(rng: random.Random, fraction: float) -> float:
    """Factor drawn uniformly from [1 - fraction, 1 + fraction]."""
    return 1.0 + fraction * (2.0 * rng.random() - 1.0)


def _translate_box(data: dict, rng: random.Random) -> None:
    # Gamma stays fixed: a 1% change of it moves the Armijo descent's
    # iteration count by up to 15%.  The shift is a multiple of 1/64, so
    # every node coordinate stays exact: an arbitrary shift can round the
    # far boundary row inside the box and enlarge the discrete domain.
    shift = [rng.randint(-32, 32) / 64 for _ in data["domain"]["lo"]]
    data["domain"]["lo"] = [lo + s for lo, s in zip(data["domain"]["lo"], shift)]
    data["domain"]["hi"] = [hi + s for hi, s in zip(data["domain"]["hi"], shift)]


def _perturb_radii(fraction: float) -> Callable[[dict, random.Random], None]:
    def perturb(data: dict, rng: random.Random) -> None:
        for factor in data["weight"]["factors"]:
            factor["radius"] *= _jitter(rng, fraction)
        data["nonlinearity"]["gamma"] *= _jitter(rng, 0.03)
    return perturb


@dataclass(frozen=True)
class Workload:
    name: str
    chi: int                  # components the paper's decomposition must find
    tiny_resolution: int      # for the benchmark's own smoke test
    perturb: Callable[[dict, random.Random], None]
    # Recorded from the solver at DEFAULT_SEED and the stored resolution,
    # one entry per component in component-id order.
    lambda1: tuple[float, ...]
    energies: tuple[float, ...]

    def config(self, seed: int, tiny: bool = False) -> dict:
        data = json.loads((CONFIG_DIR / f"{self.name}.json").read_text())
        if seed != DEFAULT_SEED:
            self.perturb(data, random.Random(seed))
        if tiny:
            data["resolution"] = self.tiny_resolution
        return data


WORKLOADS = {w.name: w for w in (
    Workload("square-descent", chi=1, tiny_resolution=17,
             perturb=_translate_box,
             lambda1=(19.73524553737384,),
             energies=(-0.0994027382789835,)),
    Workload("nested-output", chi=4, tiny_resolution=33,
             perturb=_perturb_radii(0.01),
             lambda1=(24.242103050666408, 40.78514400898302,
                      43.017020211523544, 42.67619595915235),
             energies=(-2.5077260068813425, -9.439649735080282,
                       -13.100182080885316, -8.021496297715016)),
    Workload("shell3d", chi=2, tiny_resolution=17,
             perturb=_perturb_radii(0.02),
             lambda1=(10.528520028043614, 10.622398810250672),
             energies=(-18.130074280331144, -140.43304045320272)),
)}
