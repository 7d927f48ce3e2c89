"""Multi-bump solutions of degenerate semilinear elliptic Dirichlet problems.

Solves -div(a(x) grad u) = f(u) with u = 0 on the domain boundary and on the
interior zero set of the coefficient a.  When a vanishes on closed interior
manifolds, the domain splits into chi connected components; one nonnegative
"bump" is produced on each by energy minimization, and the 2^chi - 1
nonempty component subsets are composed into verified multi-bump solutions.
"""

from .errors import ConfigError, SolverError
from .pipeline import (RunConfig, RunReport, check_hypotheses, load_config,
                       parse_config, render_report, report_to_dict,
                       run_pipeline, verify_solution_file, write_outputs)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "RunConfig", "RunReport", "SolverError",
    "check_hypotheses", "load_config", "parse_config", "render_report",
    "report_to_dict", "run_pipeline", "verify_solution_file",
    "write_outputs", "__version__",
]
