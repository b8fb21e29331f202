"""Exception and warning types shared across the package."""


class E2vemError(Exception):
    """Base class for package-specific errors."""


class NotSimple(E2vemError):
    """Polygon boundary is degenerate or self-intersecting."""


class NotStarShaped(E2vemError):
    """Polygon has an empty kernel; no valid star center exists."""


class ClockwiseOrientation(E2vemError):
    """Vertices are ordered clockwise."""


class UnsupportedDegree(E2vemError):
    """Requested quadrature exactness exceeds the generated rule range."""


class StructuralDefect(E2vemError):
    """Mesh connectivity violates the conforming-tessellation contract."""

    def __init__(self, message, cell=None):
        if cell is not None:
            message = f"cell {cell}: {message}"
        super().__init__(message)
        self.cell = cell


class SingularSystem(E2vemError):
    """A local projector system could not be solved."""


class IllConditioned(UserWarning):
    """Vector Gram condition number exceeded the reporting threshold."""


class AdmissibilityNotReached(E2vemError):
    """No projection degree in the searched range certifies coercivity."""

    def __init__(self, message, cell=None, n_vertices=None, searched=None):
        if cell is not None:
            message = f"cell {cell}: {message}"
        super().__init__(message)
        self.cell = cell
        self.n_vertices = n_vertices
        self.searched = searched


class InadmissibleDegrees(E2vemError):
    """A degree assignment without valid rank evidence was passed to assembly."""


class NotSPD(E2vemError):
    """The reduced linear system failed a positive-definiteness certificate."""


class MissingExactSolution(E2vemError):
    """An error norm was requested but the problem has no exact solution."""


class DegenerateData(E2vemError):
    """Rate extraction received invalid mesh sizes or error values."""


class RejectionBudgetExceeded(E2vemError):
    """Random polygon constraints are infeasible for the requested size."""


class ParseError(E2vemError):
    """A mesh or configuration file could not be decoded."""
