"""Small exact integer helpers used across the package."""

from math import gcd, lcm, prod

from .errors import ValidationError

__all__ = ["gcd", "lcm", "prod", "gcd_list", "lcm_list", "ext_gcd", "is_prime",
           "is_prime_power", "json_int"]


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


# the first 13 primes: a strong probable prime to all of them below
# 3.3 * 10^24 is prime (Sorenson and Webster, Math. Comp. 86, 2017)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases _WITNESSES: exact below 3.3 * 10^24 (a
    strong probable prime to those bases above it), in time polynomial in
    the digits of n, where trial division is not."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        # a square root of 1 other than +-1 proves n composite
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _integer_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def is_prime_power(n: int) -> bool:
    """Whether n = p^k for a prime p and k >= 1.

    n = r^k for the largest k with an exact integer k-th root r >= 2 (so
    k < bit_length(n)), and r is then no perfect power, so n is a prime
    power exactly when r is prime.
    """
    if n < 2:
        return False
    for k in range(n.bit_length() - 1, 1, -1):
        r = _integer_root(n, k)
        if r ** k == n:
            return is_prime(r)
    return is_prime(n)


def json_int(value, what: str, error=ValidationError) -> int:
    """A JSON integer as it stands: bool, float and str are rejected, not
    converted, by raising `error` with a message that names `what`."""
    if type(value) is not int:
        raise error(f"{what} must be an integer, got {value!r}")
    return value
