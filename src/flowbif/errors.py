"""Exception types shared across the package.

``AnalysisRefusal`` subclasses mark inputs the theory deliberately does not
cover (as opposed to numerical failures); the CLI maps them to exit code 2.
"""


class FlowbifError(Exception):
    """Base class for all package errors."""


class FieldFileError(FlowbifError):
    """Malformed field/family file.  Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CurveZeroError(FlowbifError):
    """Field vanishes (numerically) on the curve a winding number needs."""


class WindingConvergenceError(FlowbifError):
    """Winding computation did not stabilise within the sample budget."""


class BudgetExceededError(FlowbifError):
    """Subdivision search exceeded its cell budget."""


class StepLimitError(FlowbifError):
    """Streamline integration hit the step limit.  ``orbit`` holds the partial path."""

    def __init__(self, message: str, orbit=None):
        self.orbit = orbit
        super().__init__(message)


class AnalysisRefusal(FlowbifError):
    """The input falls outside what the classification covers."""


class NotSimpleError(AnalysisRefusal):
    """Zero Jacobian at the singular point: not a simple degenerate zero."""


class IsolationOrderError(AnalysisRefusal):
    """No finite tangency order found up to the polynomial degree."""


class InvalidCaseDataError(FlowbifError):
    """Degeneracy invariants violate the preconditions of a classification."""


class UnsupportedCaseError(AnalysisRefusal):
    """Bifurcation analysis is not available for this case label."""
