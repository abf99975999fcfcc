"""Polynomials and rational functions in one variable over a finite field.

Coefficients are stored ascending with no trailing zeros; the zero
polynomial is the empty tuple.  The arithmetic on the coefficients runs in
the coefficient field's kernels (gf.py: trim, add, sub, scale, mul, divmod
and evaluation on coefficient vectors), so Poly holds a field and a tuple
and never asks which kind of field it holds.  Rational functions are kept
in lowest terms with a monic denominator, so valuations can be read off
from multiplicities.  Everything downstream (places, curves, local
expansions) speaks these two types.
"""

from __future__ import annotations

from functools import lru_cache

from ..errors import ValidationError


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = field.trim(coeffs)

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @classmethod
    def one(cls, field):
        return cls(field, [field.one()])

    @classmethod
    def constant(cls, field, c):
        return cls(field, [c])

    @classmethod
    def x(cls, field):
        return cls(field, [field.zero(), field.one()])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_constant(self):
        return len(self.coeffs) <= 1

    def leading(self):
        if self.is_zero():
            raise ValidationError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant_term(self):
        return self.coeffs[0] if self.coeffs else self.field.zero()

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.field == self.field
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __add__(self, other):
        return Poly(self.field, self.field.poly_add(self.coeffs, other.coeffs))

    def __neg__(self):
        return Poly(self.field, self.field.poly_sub((), self.coeffs))

    def __sub__(self, other):
        return Poly(self.field, self.field.poly_sub(self.coeffs, other.coeffs))

    def __mul__(self, other):
        return Poly(self.field, self.field.poly_mul(self.coeffs, other.coeffs))

    def scale(self, c):
        f = self.field
        if c == f.one():
            return self
        return Poly(f, f.poly_scale(self.coeffs, c))

    def __pow__(self, e):
        if e < 0:
            raise ValidationError("a polynomial power needs a nonnegative exponent")
        result = Poly.one(self.field)
        cur = self
        while e:
            if e & 1:
                result = result * cur
            cur = cur * cur
            e >>= 1
        return result

    def powmod(self, e, mod):
        """self^e modulo mod, reducing after every product."""
        if e < 0:
            raise ValidationError("a polynomial power needs a nonnegative exponent")
        result = Poly.one(self.field) % mod
        cur = self % mod
        while e:
            if e & 1:
                result = (result * cur) % mod
            e >>= 1
            if e:
                cur = (cur * cur) % mod
        return result

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        if len(self.coeffs) < len(other.coeffs):
            return Poly.zero(f), self
        quo, rem = f.poly_divmod(self.coeffs, other.coeffs)
        return Poly(f, quo), Poly(f, rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.leading()))

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def invmod(self, mod: "Poly") -> "Poly":
        """Inverse of self modulo mod, when gcd(self, mod) = 1."""
        f = self.field
        r0, r1 = mod, self % mod
        s0, s1 = Poly.zero(f), Poly.one(f)
        while not r1.is_zero():
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        if r0.degree != 0:
            raise ValidationError("element is not invertible modulo the modulus")
        return (s0.scale(f.inv(r0.constant_term()))) % mod

    def evaluate(self, point):
        """Horner evaluation at a point of the coefficient field."""
        return self.field.poly_eval(self.coeffs, point)

    def map_coefficients(self, fn, new_field):
        return Poly(new_field, [fn(c) for c in self.coeffs])

    def valuation(self, pi: "Poly") -> int:
        """Multiplicity of the irreducible pi in self (self nonzero)."""
        if self.is_zero():
            raise ValidationError("valuation of the zero polynomial")
        return split_off(self, pi)[0]

    def reversed_coeffs(self):
        """x^deg * self(1/x); nonzero constant term when self is nonzero."""
        return Poly(self.field, list(reversed(self.coeffs)))

    def __repr__(self):
        return f"Poly({render_poly(self)})"


def render_poly(p: Poly, var: str = "t") -> str:
    if p.is_zero():
        return "0"
    field = p.field
    parts = []
    for j in range(p.degree, -1, -1):
        c = p.coeffs[j]
        if field.is_zero(c):
            continue
        idx = field.element_index(c)
        if j == 0:
            parts.append(str(idx))
        else:
            tpow = var if j == 1 else f"{var}^{j}"
            parts.append(tpow if idx == 1 else f"{idx}*{tpow}")
    return "+".join(parts)


def _term_number(digits: str, term: str) -> int:
    """A coefficient or exponent of a term of parse_poly: decimal digits only."""
    if not (digits.isascii() and digits.isdigit()):
        raise ValidationError(f"cannot parse term {term!r}")
    return int(digits)


def parse_poly(field, text: str, var: str = "t") -> Poly:
    """Inverse of render_poly: integer coefficients index field elements.

    A coefficient must be an index below q; a negative one, such as the 1
    of t-1, is the negative of that element.  Terms of the same degree add
    as field elements."""
    text = text.replace(" ", "").replace("-", "+-")
    if not text:
        raise ValidationError("empty polynomial")
    coeffs: dict[int, object] = {}
    for part in text.split("+"):
        if not part:
            continue
        neg = part.startswith("-")
        if neg:
            part = part[1:]
        if var in part:
            coef_s, _, pow_s = part.partition(var)
            coef = _term_number(coef_s.rstrip("*"), part) if coef_s else 1
            power = (_term_number(pow_s[1:], part) if pow_s.startswith("^")
                     else (1 if not pow_s else None))
            if power is None:
                raise ValidationError(f"cannot parse term {part!r}")
        else:
            coef = _term_number(part, part)
            power = 0
        if coef >= field.order:
            raise ValidationError(
                f"coefficient {coef} in term {part!r} is not an element index "
                f"0..{field.order - 1} of GF({field.order})")
        elem = field.element_from_index(coef)
        coeffs[power] = (field.sub if neg else field.add)(coeffs.get(power, field.zero()), elem)
    out = [field.zero()] * (max(coeffs) + 1 if coeffs else 0)
    for power, c in coeffs.items():
        out[power] = c
    return Poly(field, out)


class RationalFunc:
    """num/den in lowest terms with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        field = num.field
        if not num.is_zero():
            g = num.gcd(den)
            if g.degree > 0:
                num = num // g
                den = den // g
        else:
            den = Poly.one(field)
        lead = den.leading()
        if lead != field.one():
            inv = field.inv(lead)
            num = num.scale(inv)
            den = den.scale(inv)
        self.num = num
        self.den = den

    @classmethod
    def of(cls, num: Poly, den: Poly | None = None):
        return cls(num, den if den is not None else Poly.one(num.field))

    @classmethod
    def _reduced(cls, num: Poly, den: Poly):
        """num/den already in lowest terms with monic den: no gcd is taken."""
        out = object.__new__(cls)
        out.num = num
        out.den = den
        return out

    @property
    def field(self):
        return self.num.field

    def is_zero(self):
        return self.num.is_zero()

    def is_constant(self):
        return self.num.is_constant() and self.den.is_constant()

    def __eq__(self, other):
        return (isinstance(other, RationalFunc) and other.num == self.num
                and other.den == self.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        return RationalFunc(self.num * other.den + other.num * self.den,
                            self.den * other.den)

    def __neg__(self):
        return RationalFunc._reduced(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RationalFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError
        return RationalFunc(self.num * other.den, self.den * other.num)

    def __pow__(self, e):
        if e < 0:
            return RationalFunc(self.den**(-e), self.num**(-e))
        return RationalFunc(self.num**e, self.den**e)

    def valuation_at_infinity(self) -> int:
        if self.is_zero():
            raise ValidationError("valuation of zero")
        return self.den.degree - self.num.degree

    def reciprocal_substitution(self) -> "RationalFunc":
        """The same function written in u = 1/t, i.e. f(1/u).

        No gcd is taken: rev(num) and rev(den) are coprime because num and
        den are, and u divides neither, so only the denominator is made monic.
        """
        if self.is_zero():
            return self
        field = self.field
        dn, dd = self.num.degree, self.den.degree
        num_u = self.num.reversed_coeffs()
        den_u = self.den.reversed_coeffs()
        u = Poly.x(field)
        if dd >= dn:
            num_u = num_u * u**(dd - dn)
        else:
            den_u = den_u * u**(dn - dd)
        inv = field.inv(den_u.leading())
        return RationalFunc._reduced(num_u.scale(inv), den_u.scale(inv))

    def __repr__(self):
        if self.den.degree == 0:
            return f"({render_poly(self.num)})"
        return f"({render_poly(self.num)})/({render_poly(self.den)})"


# ---------------------------------------------------------------------------
# irreducible enumeration (the finite places of F_q(t))

def _monic_from_index(field, degree, val):
    """The monic polynomial of the given degree whose lower coefficients
    are the base-q digits of val, lowest first (its element index)."""
    coeffs = []
    for _ in range(degree):
        coeffs.append(field.element_from_index(val % field.order))
        val //= field.order
    coeffs.append(field.one())
    return Poly(field, coeffs)


def _monic_index(poly: Poly) -> int:
    field = poly.field
    val = 0
    for c in reversed(poly.coeffs[:-1]):
        val = val * field.order + field.element_index(c)
    return val


def _irreducibles_in_order(field, degree):
    """Monic irreducibles of exact degree, lazily, in element-index order."""
    for val in range(field.order**degree):
        poly = _monic_from_index(field, degree, val)
        if _is_irreducible(poly):
            yield poly


@lru_cache(maxsize=None)
def _monic_irreducibles_cached(field, degree):
    """Every monic irreducible of exact degree, in element-index order, by a
    product sieve: a monic polynomial of degree d is reducible exactly when
    it has a monic irreducible factor a of degree k <= d/2, so marking a*b
    for each such a and every monic b of degree d - k leaves the irreducibles."""
    size = field.order**degree
    reducible = bytearray(size)
    for k in range(1, degree // 2 + 1):
        cofactors = [_monic_from_index(field, degree - k, val)
                     for val in range(field.order**(degree - k))]
        for a in _monic_irreducibles_cached(field, k):
            for b in cofactors:
                reducible[_monic_index(a * b)] = 1
    return tuple(_monic_from_index(field, degree, val)
                 for val in range(size) if not reducible[val])


def first_monic_irreducible(field, degree: int) -> Poly:
    """The first monic irreducible of the given degree in element-index order."""
    return next(_irreducibles_in_order(field, degree))


def monic_irreducibles(field, degree: int):
    return list(_monic_irreducibles_cached(field, degree))


def monic_irreducibles_up_to(field, max_degree: int):
    out = []
    for d in range(1, max_degree + 1):
        out.extend(monic_irreducibles(field, d))
    return out


def _is_irreducible(poly: Poly) -> bool:
    d = poly.degree
    if d <= 0:
        return False
    if d == 1:
        return True
    field = poly.field
    x = Poly.x(field)
    # x^(q^d) = x mod poly, and gcd(x^(q^(d/l)) - x, poly) = 1 for primes l | d
    def x_q_power(levels):
        cur = x % poly
        for _ in range(levels):
            cur = cur.powmod(field.order, poly)
        return cur

    if not (x_q_power(d) - x % poly).is_zero():
        return False
    dd = d
    primes = set()
    t = 2
    while t * t <= dd:
        if dd % t == 0:
            primes.add(t)
            while dd % t == 0:
                dd //= t
        t += 1
    if dd > 1:
        primes.add(dd)
    for ell in primes:
        g = (x_q_power(d // ell) - x % poly).gcd(poly)
        if g.degree > 0:
            return False
    return True


def factor_with_bounded_degree(poly: Poly, max_degree: int):
    """Trial division by irreducibles of degree <= max_degree.

    Returns (unit constant, {irreducible: multiplicity}, cofactor); the
    cofactor is monic and carries whatever was not split off (1 when the
    factorization is complete within the bound).
    """
    if poly.is_zero():
        raise ValidationError("cannot factor the zero polynomial")
    field = poly.field
    unit = poly.leading()
    rest = poly.monic()
    factors = {}
    for d in range(1, max_degree + 1):
        if rest.degree < d:
            break
        for pi in monic_irreducibles(field, d):
            if rest.degree < d:
                break
            mult, rest = split_off(rest, pi)
            if mult:
                factors[pi] = mult
    return unit, factors, rest


def split_off(poly: Poly, pi: Poly) -> tuple[int, Poly]:
    """(v_pi(poly), poly / pi^v) for a nonzero poly and an irreducible pi."""
    if pi.degree == 1:
        # a linear pi divides poly exactly when poly vanishes at its root
        f = poly.field
        if not f.is_zero(poly.evaluate(f.neg(f.div(pi.coeffs[0], pi.coeffs[1])))):
            return 0, poly
    mult = 0
    while poly.degree >= pi.degree:
        q, r = poly.divmod(pi)
        if not r.is_zero():
            break
        poly = q
        mult += 1
    return mult, poly


# ---------------------------------------------------------------------------
# norms and traces from kappa = F_q[x]/pi down to F_q

def norm_mod(pi: Poly, a: Poly):
    """N_{kappa/F_q}(a mod pi) for a monic irreducible pi: the resultant
    Res(pi, a), the product of a over the roots of pi.  Euclid's algorithm
    on Res(f, g) = (-1)^(deg f deg g) lc(g)^(deg f - deg r) Res(g, r) with
    r = f mod g, down to Res(f, g0) = g0^(deg f) for a constant g0."""
    field = pi.field
    acc = field.one()
    f, g = pi, a % pi
    while not g.is_zero():
        m, k = f.degree, g.degree
        if k == 0:
            return field.mul(acc, field.pow(g.coeffs[0], m))
        r = f % g
        lead = field.pow(g.leading(), m - max(r.degree, 0))
        acc = field.mul(acc, field.neg(lead) if m * k % 2 else lead)
        f, g = g, r
    return field.zero()


def trace_mod(pi: Poly, a: Poly):
    """Tr_{kappa/F_q}(a mod pi) for a monic irreducible pi: sum a_j s_j, with
    s_j the power sums of the roots of pi, from Newton's identities
    s_k = -(k c_(d-k) + sum_(i<k) c_(d-i) s_(k-i)), pi = sum c_i x^i."""
    field = pi.field
    d, c = pi.degree, pi.coeffs
    sums = [field.from_int(d)]
    for k in range(1, d):
        acc = field.mul(field.from_int(k), c[d - k])
        for i in range(1, k):
            acc = field.add(acc, field.mul(c[d - i], sums[k - i]))
        sums.append(field.neg(acc))
    total = field.zero()
    for aj, sj in zip((a % pi).coeffs, sums):
        total = field.add(total, field.mul(aj, sj))
    return total
