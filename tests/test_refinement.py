"""Refinement-order oracle: the discretization is second order on the square.

Every verdict of a run uses the solver's own operator, so a first-order
slip in it (an edge conductance taken from one endpoint, a spacing off by
one node) still verifies.  The five-point scheme is consistent to O(h^2)
(LeVeque, *Finite Difference Methods for Ordinary and Partial Differential
Equations*, SIAM 2007, ch. 3), so the bump energy and lambda_1 of a smooth
problem must converge at order 2 under refinement.  The observed order is
log2 of the ratio of successive differences at n = 33, 65 and 129.
"""

import numpy as np
import pytest

from multibump.pipeline import parse_config, run_pipeline

RESOLUTIONS = (33, 65, 129)


def observed_order(values) -> float:
    coarse, middle, fine = values
    return float(np.log2((coarse - middle) / (middle - fine)))


@pytest.mark.parametrize("weight", [
    {"kind": "constant", "value": 1.0},
    {"kind": "custom-expression", "expr": "1 + 0.5*x*y"},
], ids=["constant", "variable"])
def test_bump_energy_and_lambda1_are_second_order(weight):
    energies, lambdas = [], []
    for n in RESOLUTIONS:
        report = run_pipeline(parse_config({
            "domain": {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
            "weight": weight,
            "nonlinearity": {"kind": "logistic-default", "gamma": 40.0, "s_star": 1.0},
            "resolution": n,
            "output_dir": "out",
        }), write=False)
        assert report.status == "ok" and report.all_verified
        energies.append(report.bumps[0].energy)
        lambdas.append(report.f2_entries[0].lambda1)
    assert observed_order(energies) >= 1.8, energies
    assert observed_order(lambdas) >= 1.8, lambdas
    # lambda_1 of the unit square is 2 pi^2.
    assert abs(lambdas[-1] - 2.0 * np.pi ** 2) < 1e-3 * 2.0 * np.pi ** 2
