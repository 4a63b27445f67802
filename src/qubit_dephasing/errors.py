"""Exception types shared across the library."""

__all__ = [
    "ConfigError",
    "DephasingError",
    "DimensionTooLarge",
    "InvalidState",
    "IoError",
    "NoConvergence",
    "NonHermitian",
    "ToleranceNotMet",
]


class DephasingError(Exception):
    """Base class for all library-specific errors."""


class NonHermitian(DephasingError):
    """A matrix expected to be Hermitian is not, beyond tolerance."""


class NoConvergence(DephasingError):
    """An iterative eigenvalue solver exhausted its iteration budget."""


class DimensionTooLarge(DephasingError):
    """A matrix dimension exceeds the cap for the requested operation."""


class ToleranceNotMet(DephasingError):
    """A numerical routine could not certify the requested accuracy."""


class InvalidState(DephasingError):
    """A density matrix violates Hermiticity, trace, or positivity bounds."""


class ConfigError(DephasingError):
    """A configuration file or flag value is malformed or inconsistent."""


class IoError(DephasingError):
    """An input or output operation failed; the message carries the path."""
