"""Exception types shared across the package."""


class WeylSpinError(Exception):
    """Base class for all package errors."""


class RankError(WeylSpinError):
    """Tensor rank does not match what the operation requires."""


class SlotError(WeylSpinError):
    """Contraction slot out of range or repeated."""


class SymmetryError(WeylSpinError):
    """Input violates a required (anti)symmetry."""


class ShapeError(WeylSpinError):
    """Array has the wrong shape or fails structural validation."""


class JacobiViolation(WeylSpinError):
    """Structure constants fail the Jacobi identity beyond tolerance."""


class NotGT(WeylSpinError):
    """Geometry fails the Gauduchon-Tod residuals at tolerance."""


class NotFlat(WeylSpinError):
    """Killing connection is not flat at tolerance; no global parallel basis."""


class NoConvergence(WeylSpinError):
    """Newton search hit the iteration cap; carries the best iterate found."""

    def __init__(self, message, best_params=None, best_residual=None, iterations=None):
        super().__init__(message)
        self.best_params = best_params
        self.best_residual = best_residual
        self.iterations = iterations


class ParseError(WeylSpinError):
    """Malformed geometry file; carries a position when one is known."""

    def __init__(self, message, path=None, line=None, col=None):
        self.path = path
        self.line = line
        self.col = col
        where = ""
        if path is not None:
            where = str(path)
        if line is not None:
            where += f":{line}"
            if col is not None:
                where += f":{col}"
        super().__init__(f"{where}: {message}" if where else message)
