"""Exception types shared across the package."""


class ConvergenceError(RuntimeError):
    """Raised when an iterative solver exhausts its iteration budget."""
