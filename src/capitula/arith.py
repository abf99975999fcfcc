"""Small exact integer helpers used across the package."""

from math import gcd, lcm, prod

from .errors import ValidationError

__all__ = ["gcd", "lcm", "prod", "gcd_list", "lcm_list", "ext_gcd", "is_prime", "json_int"]


def gcd_list(values):
    """gcd of a nonempty collection of integers.

    An empty collection is an error: callers must never pass an empty
    place set where a nonempty one is guaranteed.
    """
    values = list(values)
    if not values:
        raise ValidationError("gcd of an empty collection is undefined here")
    return gcd(*values) if len(values) > 1 else abs(values[0])


def lcm_list(values):
    """lcm of a nonempty collection of positive integers."""
    values = list(values)
    if not values:
        raise ValidationError("lcm of an empty collection is undefined here")
    return lcm(*values) if len(values) > 1 else abs(values[0])


def ext_gcd(a, b):
    """(g, x, y) with a*x + b*y = g, where g = gcd(a, b) for a, b >= 0."""
    if b == 0:
        return a, 1, 0
    g, x, y = ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def json_int(value, what: str, error=ValidationError) -> int:
    """A JSON integer as it stands: bool, float and str are rejected, not
    converted, by raising `error` with a message that names `what`."""
    if type(value) is not int:
        raise error(f"{what} must be an integer, got {value!r}")
    return value
