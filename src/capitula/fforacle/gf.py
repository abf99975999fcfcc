"""Exact finite field arithmetic for the function-field oracle.

GF(p) is a prime field whose elements are plain ints.  GF(p^k) with k >= 2
is a table field: its elements are the ints 0..q-1, each the element's
index in the polynomial basis of the shipped modulus (coefficients read as
base-p digits, lowest first), and mul, inv, div and pow are lookups in
log/antilog tables of a primitive element.  In characteristic 2 addition
is XOR of indices; otherwise it goes through a Zech table,
log(1 + g^n) (Huber, IEEE Trans. IT 36, 1990; FLINT fq_zech).

An extension field holds a monic irreducible modulus over its base field
and represents elements as coefficient tuples over the base.  Residue
fields of places and the cached extensions of `extension` are such
towers over the constant field, so evaluation "mod pi" needs no change of
basis and no table is built per place.  A product, the residual-root
scan's hot loop, is the base field's polynomial product of the two tuples
reduced by the modulus, both through the base field's kernels (below); an
inverse is poly.py's extended Euclid (`Poly.invmod`) modulo the modulus,
and the elements run in index order straight from `element_from_index`.

Every field class also carries the kernels that `Poly` runs on, on
coefficient vectors lowest first: `trim`, `poly_add`, `poly_sub`,
`poly_scale`, `poly_mul`, `poly_divmod` and `poly_eval`.  Their results
may end in zeros, which `trim` strips when `Poly` stores them, so `Poly`
never asks which field it holds.  GF(p) sums plain integer products and
reduces once per output coefficient (in a division, each coefficient of
the running remainder when it tops the divisor); a table field multiplies
through its logs and adds with its own add, XOR or Zech; an extension
field runs the generic loops on its own add, sub and mul.

Moduli for the standard extensions GF(p^k) are shipped as a fixed table
(the lexicographically smallest monic irreducible, coefficient vector read
as a base-p integer), so arithmetic is reproducible run to run; moduli over
non-prime bases follow the same rule in element-index order
(poly.first_monic_irreducible) and are cached.  Field sizes are capped at
4096 by default.
"""

from __future__ import annotations

from itertools import starmap, zip_longest
from operator import pos, xor

from ..arith import is_prime
from ..errors import ResourceError, UnsupportedError, ValidationError
from .poly import Poly, first_monic_irreducible

MAX_FIELD_SIZE = 4096

# (p, k) -> ascending coefficients of the canonical degree-k irreducible
# over GF(p), leading 1 included
IRREDUCIBLE_TABLE = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (2, 11): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 12): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 7): (2, 0, 1, 0, 0, 0, 0, 1),
    (5, 2): (2, 0, 1),
    (5, 3): (1, 1, 0, 1),
    (5, 4): (2, 0, 0, 0, 1),
    (5, 5): (1, 4, 0, 0, 0, 1),
    (7, 2): (1, 0, 1),
    (7, 3): (2, 0, 0, 1),
    (7, 4): (1, 1, 0, 0, 1),
    (11, 2): (1, 0, 1),
    (11, 3): (4, 1, 0, 1),
    (13, 2): (2, 0, 1),
    (13, 3): (2, 0, 0, 1),
}


def _trim_ints(coeffs) -> tuple:
    """A coefficient vector of int elements without its trailing zeros."""
    cs = tuple(coeffs)
    if cs and not cs[-1]:
        n = len(cs) - 1
        while n and not cs[n - 1]:
            n -= 1
        cs = cs[:n]
    return cs


class PrimeField:
    """GF(p) with elements represented as ints in 0..p-1."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValidationError(f"{p} is not prime")
        self.char = p
        self.order = p
        self.degree_over_prime = 1

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, k: int):
        return k % self.char

    def is_zero(self, a):
        return a == 0

    def add(self, a, b):
        return (a + b) % self.char

    def sub(self, a, b):
        return (a - b) % self.char

    def neg(self, a):
        return (-a) % self.char

    def mul(self, a, b):
        return (a * b) % self.char

    def inv(self, a):
        if a % self.char == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.char - 2, self.char)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        return pow(a, e, self.char)

    # -- kernels on coefficient vectors (module docstring) -----------------

    trim = staticmethod(_trim_ints)

    def poly_add(self, a, b):
        p = self.char
        return [(x + y) % p for x, y in zip_longest(a, b, fillvalue=0)]

    def poly_sub(self, a, b):
        p = self.char
        return [(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)]

    def poly_scale(self, a, c):
        p = self.char
        return [x * c % p for x in a]

    def poly_mul(self, a, b):
        """Plain integer products, summed and reduced once per coefficient."""
        if not a or not b:
            return []
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b, i):
                    out[k] += x * y
        p = self.char
        return [c % p for c in out]

    def poly_divmod(self, a, b):
        """Long division by b made monic; each coefficient of the running
        remainder is reduced when it tops the divisor, or at the end."""
        p = self.char
        m = len(b) - 1
        rem = list(a)
        dq = len(rem) - m - 1
        if dq < 0:
            return [], rem
        inv = pow(b[-1], p - 2, p)
        low = b[:m] if inv == 1 else [y * inv % p for y in b[:m]]
        quo = [0] * (dq + 1)
        for shift in range(dq, -1, -1):
            c = rem[shift + m] % p
            if c:
                quo[shift] = c * inv % p
                for k, y in enumerate(low, shift):
                    rem[k] -= c * y
        return quo, [x % p for x in rem[:m]]

    def poly_eval(self, a, x):
        p = self.char
        acc = 0
        for c in reversed(a):
            acc = (acc * x + c) % p
        return acc

    def elements(self):
        return list(range(self.char))

    def element_index(self, a):
        return a % self.char

    def element_from_index(self, i):
        if not 0 <= i < self.order:
            raise ValidationError("element index out of range")
        return i

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.char == self.char

    def __hash__(self):
        return hash(("PrimeField", self.char))

    def __repr__(self):
        return f"GF({self.char})"


class ExtField:
    """Extension of a base field by a monic irreducible modulus.

    Elements are tuples of base-field elements of length = degree, in
    ascending powers of the generator.
    """

    def __init__(self, base, modulus):
        self.base = base
        mod = tuple(modulus)
        if len(mod) < 3 or mod[-1] != base.one():
            raise ValidationError("modulus must be monic of degree >= 2")
        self.modulus = mod
        self._modulus_poly = Poly(base, mod)
        self.degree = len(mod) - 1
        self.char = base.char
        self.order = base.order**self.degree
        self.degree_over_prime = base.degree_over_prime * self.degree

    def zero(self):
        return tuple([self.base.zero()] * self.degree)

    def one(self):
        return tuple([self.base.one()] + [self.base.zero()] * (self.degree - 1))

    def from_int(self, k: int):
        return self.embed(self.base.from_int(k))

    def embed(self, base_elem):
        return tuple([base_elem] + [self.base.zero()] * (self.degree - 1))

    def generator(self):
        zero, one = self.base.zero(), self.base.one()
        return tuple([zero, one] + [zero] * (self.degree - 2))

    def is_zero(self, a):
        return all(self.base.is_zero(c) for c in a)

    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(self.base.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def mul(self, a, b):
        # a product of two d-vectors has 2d - 1 >= d + 1 coefficients, so the
        # remainder by the monic modulus has exactly d
        base = self.base
        return tuple(base.poly_divmod(base.poly_mul(a, b), self.modulus)[1])

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        coeffs = Poly(self.base, a).invmod(self._modulus_poly).coeffs
        return coeffs + (self.base.zero(),) * (self.degree - len(coeffs))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = self.one()
        cur = a
        while e:
            if e & 1:
                result = self.mul(result, cur)
            cur = self.mul(cur, cur)
            e >>= 1
        return result

    # -- kernels on coefficient vectors (module docstring) -----------------
    # the generic loops on the field's own add, sub and mul

    def trim(self, coeffs):
        cs = list(coeffs)
        while cs and self.is_zero(cs[-1]):
            cs.pop()
        return tuple(cs)

    def poly_add(self, a, b):
        return list(starmap(self.add, zip_longest(a, b, fillvalue=self.zero())))

    def poly_sub(self, a, b):
        return list(starmap(self.sub, zip_longest(a, b, fillvalue=self.zero())))

    def poly_scale(self, a, c):
        return [self.mul(c, x) for x in a]

    def poly_mul(self, a, b):
        if not a or not b:
            return []
        out = [self.zero()] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if self.is_zero(x):
                continue
            for j, y in enumerate(b):
                out[i + j] = self.add(out[i + j], self.mul(x, y))
        return out

    def poly_divmod(self, a, b):
        rem = list(a)
        dq = len(rem) - len(b)
        if dq < 0:
            return [], rem
        quo = [self.zero()] * (dq + 1)
        inv_lead = self.inv(b[-1])
        for shift in range(dq, -1, -1):
            top = shift + len(b) - 1
            if self.is_zero(rem[top]):
                continue
            c = self.mul(rem[top], inv_lead)
            quo[shift] = c
            for i, bc in enumerate(b):
                rem[shift + i] = self.sub(rem[shift + i], self.mul(c, bc))
        return quo, rem[:len(b) - 1]

    def poly_eval(self, a, x):
        acc = self.zero()
        for c in reversed(a):
            acc = self.add(self.mul(acc, x), c)
        return acc

    def elements(self):
        return [self.element_from_index(i) for i in range(self.order)]

    def element_index(self, a):
        idx = 0
        for c in reversed(a):
            idx = idx * self.base.order + self.base.element_index(c)
        return idx

    def element_from_index(self, i):
        if not 0 <= i < self.order:
            raise ValidationError("element index out of range")
        coords = []
        for _ in range(self.degree):
            coords.append(self.base.element_from_index(i % self.base.order))
            i //= self.base.order
        return tuple(coords)

    def __eq__(self, other):
        return (isinstance(other, ExtField) and other.base == self.base
                and other.modulus == self.modulus)

    def __hash__(self):
        return hash(("ExtField", self.base, self.modulus))

    def __repr__(self):
        return f"GF({self.order})"


class TableField:
    """GF(p^k), k >= 2, on element indices 0..q-1 with log/antilog tables.

    The tables are built once from the tower ExtField(GF(p), modulus) for
    the primitive element g that comes first in index order.  With
    n = q - 1, exp holds two periods of g^i, so exp[i] is the index of g^i
    for every -2n <= i < 2n (negative i read from the end) and a sum or
    difference of two logs needs no reduction; log inverts exp on the
    nonzero indices, and zech[i] = log(1 + g^i), None where 1 + g^i = 0.
    """

    def __init__(self, p: int, k: int):
        tower = ExtField(PrimeField(p), IRREDUCIBLE_TABLE[(p, k)])
        q = p**k
        self.char = p
        self.order = q
        self.degree_over_prime = k
        n = q - 1
        g = next(a for a in map(tower.element_from_index, range(p, q))
                 if multiplicative_order(tower, a) == n)
        exp = [0] * n
        cur = tower.one()
        for i in range(n):
            exp[i] = tower.element_index(cur)
            cur = tower.mul(cur, g)
        log = [None] * q
        for i, a in enumerate(exp):
            log[a] = i
        # adding 1 changes only the lowest base-p digit of an index
        self._zech = [log[a - a % p + (a + 1) % p] for a in exp]
        self._exp = exp + exp
        self._log = log
        self._half = n // 2
        if p == 2:
            self.add = self.sub = xor
            self.neg = pos  # -a = a

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, k: int):
        return k % self.char

    def is_zero(self, a):
        return a == 0

    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        la = self._log[a]
        z = self._zech[self._log[b] - la]
        return 0 if z is None else self._exp[la + z]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        return self._exp[self._log[a] + self._half] if a else 0

    def mul(self, a, b):
        if a and b:
            return self._exp[self._log[a] + self._log[b]]
        return 0

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[-self._log[a]]

    def div(self, a, b):
        if not b:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[self._log[a] - self._log[b]] if a else 0

    def pow(self, a, e):
        if not a:
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return 0 if e else 1
        return self._exp[self._log[a] * e % (self.order - 1)]

    # -- kernels on coefficient vectors (module docstring) -----------------
    # products through the logs, sums through add: XOR in characteristic 2,
    # the Zech table otherwise

    trim = staticmethod(_trim_ints)

    def poly_add(self, a, b):
        return list(starmap(self.add, zip_longest(a, b, fillvalue=0)))

    def poly_sub(self, a, b):
        return list(starmap(self.sub, zip_longest(a, b, fillvalue=0)))

    def poly_scale(self, a, c):
        if not c:
            return []
        log, exp = self._log, self._exp
        lc = log[c]
        return [exp[lc + log[x]] if x else 0 for x in a]

    def poly_mul(self, a, b):
        if not a or not b:
            return []
        log, exp, add = self._log, self._exp, self.add
        logs_b = [(j, log[y]) for j, y in enumerate(b) if y]
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                lx = log[x]
                for j, ly in logs_b:
                    k = i + j
                    out[k] = add(out[k], exp[lx + ly])
        return out

    def poly_divmod(self, a, b):
        """Long division adding the logs of -b_j / lead(b), in (-n, n)."""
        log, exp, add = self._log, self._exp, self.add
        m = len(b) - 1
        rem = list(a)
        dq = len(rem) - m - 1
        if dq < 0:
            return [], rem
        inv = -log[b[-1]]
        logs_b = [(j, log[self.neg(y)] + inv) for j, y in enumerate(b[:m]) if y]
        quo = [0] * (dq + 1)
        for shift in range(dq, -1, -1):
            c = rem[shift + m]
            if c:
                lc = log[c]
                quo[shift] = exp[lc + inv]
                for j, ly in logs_b:
                    k = shift + j
                    rem[k] = add(rem[k], exp[lc + ly])
        return quo, rem[:m]

    def poly_eval(self, a, x):
        if not x:
            return a[0] if a else 0
        log, exp, add = self._log, self._exp, self.add
        lx = log[x]
        acc = 0
        for c in reversed(a):
            acc = add(exp[log[acc] + lx] if acc else 0, c)
        return acc

    def elements(self):
        return range(self.order)

    def element_index(self, a):
        return a

    def element_from_index(self, i):
        if not 0 <= i < self.order:
            raise ValidationError("element index out of range")
        return i

    def __eq__(self, other):
        return isinstance(other, TableField) and other.order == self.order

    def __hash__(self):
        return hash(("TableField", self.order))

    def __repr__(self):
        return f"GF({self.order})"


def absolute_trace(field, a) -> int:
    """Trace down to the prime field, returned as an int in 0..p-1."""
    total = field.zero()
    cur = a
    for _ in range(field.degree_over_prime):
        total = field.add(total, cur)
        cur = field.pow(cur, field.char)
    return _prime_component(field, total)


def _prime_component(field, a) -> int:
    while isinstance(field, ExtField):
        if any(not field.base.is_zero(c) for c in a[1:]):
            raise ValidationError("element is not in the prime subfield")
        a = a[0]
        field = field.base
    # the prime subfield of a table field is indices 0..p-1
    if a >= field.char:
        raise ValidationError("element is not in the prime subfield")
    return a


def pth_root(field, a):
    """The unique p-th root in a finite field: a^(order/p)."""
    return field.pow(a, field.order // field.char)


def is_power_residue(field, a, ell: int) -> bool:
    """Whether a nonzero element is an ell-th power; needs ell | order - 1."""
    if field.is_zero(a):
        raise ValidationError("power residue test needs a nonzero element")
    if (field.order - 1) % ell:
        raise ValidationError(f"{ell} does not divide |F*| = {field.order - 1}")
    return field.pow(a, (field.order - 1) // ell) == field.one()


def multiplicative_order(field, a) -> int:
    if field.is_zero(a):
        raise ValidationError("zero has no multiplicative order")
    n = field.order - 1
    order = n
    d = 2
    remaining = n
    primes = []
    while d * d <= remaining:
        if remaining % d == 0:
            primes.append(d)
            while remaining % d == 0:
                remaining //= d
        d += 1
    if remaining > 1:
        primes.append(remaining)
    for p in primes:
        while order % p == 0 and field.pow(a, order // p) == field.one():
            order //= p
    return order


def primitive_root_of_unity(field, ell: int):
    """First element (in enumeration order) of multiplicative order ell."""
    if (field.order - 1) % ell:
        raise ValidationError(f"no {ell}-th roots of unity in {field!r}")
    for a in field.elements():
        if not field.is_zero(a) and multiplicative_order(field, a) == ell:
            return a
    raise ValidationError("unreachable: cyclic group has elements of every dividing order")


_field_cache: dict = {}


def GF(q: int, max_size: int = MAX_FIELD_SIZE):
    """The finite field with q elements (q a prime power up to the cap)."""
    if q > max_size:
        raise ResourceError(f"field size {q} exceeds the cap {max_size}")
    if q in _field_cache:
        return _field_cache[q]
    p, k = _prime_power(q)
    if k == 1:
        field = PrimeField(p)
    else:
        if (p, k) not in IRREDUCIBLE_TABLE:
            raise UnsupportedError(f"no shipped modulus for GF({p}^{k})")
        field = TableField(p, k)
    _field_cache[q] = field
    return field


def extension(field, degree: int, max_size: int = MAX_FIELD_SIZE):
    """Degree-m extension of a field, with deterministic modulus choice."""
    if degree == 1:
        return field
    if field.order**degree > max_size:
        raise ResourceError(
            f"field size {field.order}^{degree} exceeds the cap {max_size}")
    key = ("ext", field, degree)
    if key in _field_cache:
        return _field_cache[key]
    if isinstance(field, PrimeField) and (field.char, degree) in IRREDUCIBLE_TABLE:
        mod = [field.from_int(c) for c in IRREDUCIBLE_TABLE[(field.char, degree)]]
    else:
        mod = list(first_monic_irreducible(field, degree).coeffs)
    ext = ExtField(field, mod)
    _field_cache[key] = ext
    return ext


def _prime_power(q: int):
    for p in range(2, q + 1):
        if q % p == 0:
            k = 0
            while q % p == 0:
                q //= p
                k += 1
            if q != 1:
                raise ValidationError("not a prime power")
            return p, k
    raise ValidationError("not a prime power")
