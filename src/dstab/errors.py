"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: scenario/input problems exit with 2,
numerical failures (non-convergence, divergence, lost precision) with 3.
"""


class DstabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidRegionError(DstabError, ValueError):
    """Region parameters outside the admissible ranges."""


class RootFindingError(DstabError, ArithmeticError):
    """Polynomial root finder failed to reach its residual contract."""


class NonProperError(DstabError, ValueError):
    """Operation requires a (strictly) proper rational function."""


class DegenerateLoopError(DstabError, ValueError):
    """Feedback interconnection with identically zero return difference."""


class NotAPoleError(DstabError, ValueError):
    """Residue requested at a point that is not a denominator root."""


class PrecisionError(DstabError, ArithmeticError):
    """Coefficients overflowed or spread too wide for double precision."""


class NetworkError(DstabError, ValueError):
    """Bad network data: nonpositive resistance, disconnected graph, ..."""


class LLAssumptionError(DstabError, ValueError):
    """Load-block damping assumption violated: Y^ll cos(theta0) - diag(y_v) is
    not positive definite."""


class ConvergenceError(DstabError, ArithmeticError):
    """Iterative solver (power-flow Newton, eigensolver) failed to converge."""


class DivergenceError(DstabError, ArithmeticError):
    """Time-domain simulation left the finite floats."""


class ScenarioError(DstabError, ValueError):
    """Scenario file violates the input schema."""
