"""Exception types shared across the package."""


class InterfracError(Exception):
    """Base class for all package errors."""


class DomainError(InterfracError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class NonConvergence(InterfracError, RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget above tolerance."""

    def __init__(self, message, value=None, error=None):
        super().__init__(message)
        self.value = value
        self.error = error


class NonFiniteSample(InterfracError, ValueError):
    """An integrand returned nan/inf at an interior quadrature node."""


class SelfBalanceViolation(InterfracError, ValueError):
    """Crack-face loading is not self-balanced (jump transform at 0 is nonzero)."""


class UnsupportedLoad(InterfracError, TypeError):
    """Operation needs an x-domain representation the load does not provide."""


class GeometryError(InterfracError, ValueError):
    """Inclusion/evaluation geometry violates a guard (on-interface point, tiny angle)."""


class ConfigError(InterfracError, ValueError):
    """Invalid run configuration (CLI exit code 2)."""
