"""Exception types shared across the package."""


class FracinvError(Exception):
    """Base class for all package-specific errors."""


class MeshValidationError(FracinvError):
    """Raised when mesh data violates a structural invariant."""


class InvalidCoefficientError(FracinvError):
    """Raised when a diffusion coefficient is not strictly positive."""


class NotSpdError(FracinvError):
    """Raised when a matrix handed to the SPD solver is not symmetric positive definite."""


class DegenerateDirectionError(FracinvError):
    """Raised when a search direction lies in the null space of the step-size model."""
