"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Bad construction parameters (cache too small, unknown field degree, ...)."""


class CapacityError(RuntimeError):
    """An allocation would exceed the cache's word capacity."""


class AddressError(KeyError):
    """Read of a memory address that was never written or initialized."""


class UsageError(RuntimeError):
    """Operation on an empty slot, an unknown op, or a slot-size mismatch."""


class ResidencyError(RuntimeError):
    """A compute referenced an operand that is not cache-resident."""


class RegimeError(ValueError):
    """Kernel invoked outside its valid cache-size regime."""


class FieldError(ValueError):
    """Invalid finite-field parameters (composite q, q <= N, ...)."""


class EnumerationCapError(RuntimeError):
    """An exhaustive check would exceed its documented enumeration budget."""

    def __init__(self, message, required=None, cap=None):
        super().__init__(message)
        self.required = required
        self.cap = cap


class DegenerateParameterError(ValueError):
    """Requested independence parameter is below 1; the construction says nothing."""
