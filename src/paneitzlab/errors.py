"""Exception hierarchy for paneitzlab."""


class PaneitzLabError(Exception):
    """Base class for all errors raised by this package."""


class GridMismatchError(PaneitzLabError):
    """Two objects live on different computational grids."""


class FieldFileError(PaneitzLabError):
    """A field file is missing, malformed or does not cover its grid."""


class CoercivityError(PaneitzLabError):
    """A quadratic-form positivity requirement failed or could not be certified."""


class SolverError(PaneitzLabError):
    """An iterative solver failed to produce a valid result."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ConvergenceError(SolverError):
    """Iteration budget exhausted before reaching the requested tolerance."""


class BracketError(SolverError):
    """No valid sub/supersolution bracket could be constructed."""


class MountainPassGeometryError(SolverError):
    """The two-low-points-across-a-rim geometry is not numerically visible."""


class CertificateError(PaneitzLabError):
    """A certificate was evaluated outside its domain of validity."""


class ConfigError(PaneitzLabError):
    """Invalid experiment configuration."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
