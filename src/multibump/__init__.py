"""Multi-bump solutions of degenerate semilinear elliptic Dirichlet problems.

Solves -div(a(x) grad u) = f(u) with u = 0 on the domain boundary and on the
interior zero set of the coefficient a.  When a vanishes on closed interior
manifolds, the domain splits into chi connected components; one nonnegative
"bump" is produced on each by energy minimization, and the 2^chi - 1
nonempty component subsets are composed into verified multi-bump solutions.
"""

from .composition import (MultiBumpSolution, bump_histogram, compose_bumps,
                          enumerate_all, expected_histogram, extend_bump,
                          holder_bound_report, w11_seminorm)
from .energy import (BumpSolution, DiscreteEnergy, NonlinearitySpec,
                     SolverOptions, TruncatedNonlinearity, assemble_energy,
                     minimize_energy, truncate_nonlinearity)
from .errors import (ConfigError, EmptyDecompositionError,
                     EnumerationSizeError, HypothesisViolationError,
                     InvalidNonlinearityError, InvalidWeightError,
                     MissingBumpError, NumericalFailureError,
                     ResolutionTooCoarseError, SeedFailureError, SolverError)
from .grid import BOUNDARY, EXTERIOR, INTERIOR, DomainSpec, Grid, build_grid
from .pipeline import (RunConfig, RunReport, load_config, parse_config,
                       render_report, run_pipeline, verify_solution_file)
from .spectral import EigenPair, F2Entry, check_hypothesis_f2, dirichlet_lambda1
from .topology import Component, Decomposition, decompose_components
from .verify import (VerificationReport, VerifyTolerances, check_conclusions,
                     weak_residual)
from .weights import (AdmissibilityOptions, AdmissibilityReport,
                      WeightField, WeightSpec, ZeroSet, assess_admissibility,
                      cbrt_ring_weight, detect_zero_set, estimate_a2_constant,
                      estimate_lt_norm, evaluate_weight)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityOptions", "AdmissibilityReport", "BOUNDARY",
    "BumpSolution", "Component", "ConfigError", "Decomposition",
    "DiscreteEnergy", "DomainSpec", "EXTERIOR", "EigenPair",
    "EmptyDecompositionError", "EnumerationSizeError", "F2Entry",
    "Grid", "HypothesisViolationError", "INTERIOR", "InvalidNonlinearityError",
    "InvalidWeightError", "MissingBumpError", "MultiBumpSolution",
    "NonlinearitySpec", "NumericalFailureError", "ResolutionTooCoarseError",
    "RunConfig", "RunReport", "SeedFailureError", "SolverError",
    "SolverOptions", "TruncatedNonlinearity", "VerificationReport",
    "VerifyTolerances", "WeightField", "WeightSpec", "ZeroSet",
    "assemble_energy", "assess_admissibility", "build_grid", "bump_histogram",
    "cbrt_ring_weight", "check_conclusions", "check_hypothesis_f2",
    "compose_bumps", "decompose_components", "detect_zero_set",
    "dirichlet_lambda1", "enumerate_all", "estimate_a2_constant",
    "estimate_lt_norm", "evaluate_weight", "expected_histogram",
    "extend_bump", "holder_bound_report", "load_config", "minimize_energy",
    "parse_config", "render_report", "run_pipeline",
    "truncate_nonlinearity", "verify_solution_file", "w11_seminorm",
    "weak_residual", "__version__",
]
