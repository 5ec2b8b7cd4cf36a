"""Exception types shared across the package."""

import math
from numbers import Integral


class ConfigurationError(ValueError):
    """Bad construction parameters (cache too small, unknown field degree, ...)."""


def is_integer(x) -> bool:
    """Whether ``x`` is an integer: an int or a numpy integer, not a bool."""
    return isinstance(x, Integral) and not isinstance(x, bool)


def check_integer(name: str, value) -> None:
    """Refuse a size ``name`` whose ``value`` is not an integer (a float
    or a bool, say) with ``ConfigurationError``; the one integer check of
    the package's entry points."""
    if not is_integer(value):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")


class CapacityError(RuntimeError):
    """An allocation would exceed the cache's word capacity."""


class AddressError(KeyError):
    """A block move outside every loaded or reserved array, a malformed
    block, or a read of a reserved word that was never written."""


class UsageError(RuntimeError):
    """A misused simulator primitive: an unknown op, a wrong operand
    count, operand shapes the op cannot combine, a slot-size mismatch,
    or a slot that is not resident."""


class ResidencyError(UsageError):
    """A slot handed to ``free``, ``write_block`` or ``compute`` is not
    cache-resident: never made, or already freed."""


class RegimeError(ValueError):
    """Kernel invoked outside its valid cache-size regime."""


class FieldError(ValueError):
    """Invalid finite-field parameters (composite q, q <= N, ...)."""


class EnumerationCapError(RuntimeError):
    """An exhaustive check would exceed its documented enumeration budget:
    ``required`` cases against ``cap``, both exact and in one unit."""

    def __init__(self, message, required, cap):
        super().__init__(message)
        self.required = required
        self.cap = cap


def _magnitude(n: int) -> str:
    # str() of a huge int is slow, and refused past 4,300 digits.
    return str(n) if n < 10 ** 18 else f"≈10^{math.log10(n):.1f}"


def check_enumeration(required: int, cap: int, unit: str) -> None:
    """Refuse an enumeration of ``required`` cases (say ``unit``) above
    ``cap``; the only place that raises ``EnumerationCapError``."""
    if required > cap:
        raise EnumerationCapError(
            f"enumeration of {_magnitude(required)} {unit} exceeds the cap "
            f"of {_magnitude(cap)}", required, cap)


class DegenerateParameterError(ValueError):
    """Requested independence parameter is below 1; the construction says nothing."""
