"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single handler while still
letting programming errors (``TypeError`` and friends) propagate untouched.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ValidationError(ReproError):
    """Raised when input data fails structural validation.

    Examples: a test bus of non-positive width, a core assigned to a
    nonexistent bus, or an SOC with duplicate core names.
    """


class InfeasibleError(ReproError):
    """Raised when an optimization problem has no feasible solution.

    Carries an optional human-readable ``reason`` explaining which constraint
    family made the instance infeasible (useful when sweeping constraint
    budgets in the experiment harness).
    """

    def __init__(self, message: str = "problem is infeasible", reason: str | None = None):
        super().__init__(message if reason is None else f"{message}: {reason}")
        self.reason = reason


class LintError(ReproError):
    """Raised when a lint gate finds error-severity diagnostics.

    ``model.solve(lint="error")`` raises this instead of handing a broken
    formulation to the solver. Carries the full :class:`~repro.analysis.
    diagnostics.LintReport` on ``report`` so callers can render or
    serialize the findings.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class SolverError(ReproError):
    """Raised when a solver fails for a reason other than infeasibility.

    Examples: iteration/node limits exhausted before proving optimality when
    the caller demanded an exact answer, or numerical breakdown in the
    simplex basis factorization.
    """

