"""Exception hierarchy for the solver pipeline.

Each report status has one class, which declares it as ``status``: a run
that raises it stops with that status.  ``ConfigError`` (status None) stops
the command before any report is written.
"""


class SolverError(Exception):
    """Base class for all errors raised by this package."""
    status: str | None = None


class ResolutionTooCoarseError(SolverError):
    """The grid has no interior node at the requested resolution."""
    status = "resolution-too-coarse"


class InvalidWeightError(SolverError):
    """Weight evaluation produced negative or non-finite values."""
    status = "invalid-weight"


class HypothesisViolationError(SolverError):
    """One of the conditions (a1), (a2), (f1), (f2) fails.

    The violated condition is recorded in :attr:`hypothesis`.
    """
    status = "hypothesis-violation"

    def __init__(self, hypothesis: str, message: str):
        self.hypothesis = hypothesis
        super().__init__(message)


class NumericalFailureError(SolverError):
    """An iterative solve did not converge, or no negative-energy seed exists."""
    status = "numerical-failure"


class EnumerationSizeError(SolverError):
    """Subset enumeration refused because 2^chi would be too large."""
    status = "enumeration-overflow"


class ConfigError(SolverError):
    """Run configuration file is malformed or contains unknown keys."""
