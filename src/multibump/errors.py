"""Exception hierarchy for the solver pipeline."""


class SolverError(Exception):
    """Base class for all errors raised by this package."""


class ResolutionTooCoarseError(SolverError):
    """The grid has no interior node at the requested resolution."""


class InvalidWeightError(SolverError):
    """Weight evaluation produced negative or non-finite values."""


class InvalidNonlinearityError(SolverError):
    """Nonlinearity violates the required shape conditions (f1)."""


class HypothesisViolationError(SolverError):
    """One of the admissibility conditions (a1), (a2), (f1), (f2) fails.

    The violated condition is recorded in :attr:`hypothesis`.
    """

    def __init__(self, hypothesis: str, message: str):
        self.hypothesis = hypothesis
        super().__init__(f"hypothesis ({hypothesis}) violated: {message}")


class SeedFailureError(SolverError):
    """No positive multiple of the first eigenfunction has negative energy."""


class NumericalFailureError(SolverError):
    """An iterative solve did not converge within its iteration budget."""


class EmptyDecompositionError(SolverError):
    """Every interior node belongs to the zero set; nothing to decompose."""


class EnumerationSizeError(SolverError):
    """Subset enumeration refused because 2^chi would be too large."""


class ConfigError(SolverError):
    """Run configuration file is malformed or contains unknown keys."""
