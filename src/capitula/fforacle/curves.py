"""Artin-Schreier and Kummer covers of the rational function field F_q(t).

An Artin-Schreier curve is y^p - y = Q(t) with p the characteristic; after
reduction modulo h^p - h every pole of Q has order prime to p, and the
cover ramifies exactly at those poles (wildly, with different exponent
(p-1)(m+1) at a pole of order m).  A Kummer curve is y^l = f(t) with
l | q - 1; it ramifies where the order of f is not a multiple of l, tamely.

Both are cyclic and share one model (Stichtenoth, Algebraic Function
Fields and Codes, Prop. 3.7.3 and 3.7.8): y^n = c y + D(t), where D is
`defining` (Q resp. f), with the Galois generator y -> zeta y + beta.
Artin-Schreier is (c, zeta, beta) = (1, 1, 1) and Kummer is (0, zeta_l, 0)
for the primitive l-th root of unity zeta_l that comes first in element
order.  This module is the only one that tells the two families apart;
the Picard engine reads the model alone.

The infinite place is handled through the substitution t -> 1/u, which
turns it into the finite place u = 0 of F_q(u); all local computations
run on that uniform polynomial model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import NamedTuple

from ..errors import (
    DegenerateExtensionError,
    InconsistencyError,
    UnsupportedError,
    ValidationError,
)
from .gf import ExtField, absolute_trace, is_power_residue, primitive_root_of_unity, pth_root
from .poly import Poly, RationalFunc, factor_with_bounded_degree, render_poly


@dataclass(frozen=True)
class BasePlace:
    """A place of F_q(t): a monic irreducible polynomial, or infinity."""

    pi: Poly | None = None

    @property
    def is_infinite(self):
        return self.pi is None

    @property
    def degree(self):
        return 1 if self.pi is None else self.pi.degree

    @property
    def id(self):
        return "inf" if self.pi is None else render_poly(self.pi)

    def sort_key(self):
        if self.pi is None:
            return (1, 0, ())
        field = self.pi.field
        return (self.pi.degree, 1, tuple(field.element_index(c) for c in self.pi.coeffs))

    def __repr__(self):
        return f"BasePlace({self.id})"


INFINITE = BasePlace(None)


class ResiduePoint:
    """Reduction and lifting at one base place.

    kappa is the residue field; rational functions regular at the place
    reduce into it, and residue elements lift back to polynomials of
    degree < deg(pi) for Hensel seeds.  At infinity everything is read in
    the u = 1/t model, where the place is u = 0.
    """

    def __init__(self, field, place: BasePlace):
        self.field = field
        self.place = place
        if place.is_infinite or place.pi.degree == 1:
            self.kappa = field
        else:
            self.kappa = ExtField(field, place.pi.coeffs)

    def reduce_poly(self, poly: Poly):
        if self.place.is_infinite:
            raise ValidationError("reduce_poly is for finite places; use reduce_rational")
        pi = self.place.pi
        if pi.degree == 1:
            root = self.field.neg(pi.constant_term())
            return poly.evaluate(root)
        rem = poly % pi
        coeffs = list(rem.coeffs) + [self.field.zero()] * (pi.degree - len(rem.coeffs))
        return tuple(coeffs)

    def reduce_rational(self, rat: RationalFunc):
        """Value in kappa of a rational function regular at the place."""
        if self.place.is_infinite:
            rat_u = rat.reciprocal_substitution()
            if rat_u.den.constant_term() == self.field.zero():
                raise ValidationError("tried to evaluate a function with a pole at infinity")
            return self.field.div(rat_u.num.evaluate(self.field.zero()),
                                  rat_u.den.evaluate(self.field.zero()))
        den_red = self.reduce_poly(rat.den)
        if self.kappa.is_zero(den_red):
            raise ValidationError(f"tried to evaluate at a pole above {self.place.id}")
        return self.kappa.div(self.reduce_poly(rat.num), den_red)

    def lift(self, elem) -> Poly:
        if self.place.is_infinite:
            return Poly(self.field, [elem])
        if self.place.pi.degree == 1:
            return Poly(self.field, [elem])
        return Poly(self.field, list(elem))

    def embed(self, base_elem):
        """The image of a constant in kappa."""
        if self.kappa == self.field:
            return base_elem
        return self.kappa.embed(base_elem)


class CoverModel(NamedTuple):
    """y^n = c y + D(t), with Galois generator y -> zeta y + beta."""

    c: object
    zeta: object
    beta: object


@dataclass(frozen=True)
class ASCurve:
    """y^p - y = Q(t) with Q reduced (all pole orders prime to p)."""

    field: object
    Q: RationalFunc
    constant_ext: bool = False

    @property
    def p(self):
        return self.field.char

    @property
    def n(self):
        return self.field.char

    @property
    def kind(self):
        return "artin_schreier"

    @property
    def defining(self) -> RationalFunc:
        return self.Q

    @cached_property
    def model(self) -> CoverModel:
        one = self.field.one()
        return CoverModel(one, one, one)

    @classmethod
    def make(cls, field, Q: RationalFunc) -> "ASCurve":
        reduced = as_reduce(Q, field)
        constant_ext = reduced.is_constant()
        return cls(field, reduced, constant_ext)

    def __repr__(self):
        return f"ASCurve(q={self.field.order}, y^{self.p}-y={self.Q!r})"


@dataclass(frozen=True)
class KummerCurve:
    """y^ell = f(t) with ell | q - 1 and multiplicities reduced mod ell."""

    field: object
    ell: int
    f: RationalFunc
    constant_ext: bool = False

    @property
    def n(self):
        return self.ell

    @property
    def kind(self):
        return "kummer"

    @property
    def defining(self) -> RationalFunc:
        return self.f

    @cached_property
    def model(self) -> CoverModel:
        zero = self.field.zero()
        return CoverModel(zero, primitive_root_of_unity(self.field, self.ell), zero)

    @classmethod
    def make(cls, field, ell: int, f: RationalFunc) -> "KummerCurve":
        if ell < 2:
            raise ValidationError("Kummer degree must be at least 2")
        if (field.order - 1) % ell:
            raise ValidationError(
                f"need ell | q-1 for a cyclic Kummer cover; ell={ell}, q={field.order}")
        if f.is_zero():
            raise ValidationError("defining function must be nonzero")
        normalized, constant_ext = _kummer_normalize(field, ell, f)
        return cls(field, ell, normalized, constant_ext)

    def __repr__(self):
        return f"KummerCurve(q={self.field.order}, y^{self.ell}={self.f!r})"


Curve = ASCurve | KummerCurve


def as_reduce(Q: RationalFunc, field) -> RationalFunc:
    """Artin-Schreier reduction: shift Q by h^p - h until every pole order
    is prime to p.  A Q of the form h^p - h defines the split extension
    and is rejected; a nonzero constant residue with nonzero trace means a
    constant-field extension (the constant is kept)."""
    p = field.char
    if Q.is_zero():
        raise DegenerateExtensionError("Q = 0 defines the split extension")
    current = Q
    while True:
        target = _find_reducible_pole(current, p, field)
        if target is None:
            break
        current = current - target
        if current.is_zero():
            raise DegenerateExtensionError("Q is of the form h^p - h")
    if current.is_constant():
        c = current.num.constant_term()
        if current.is_zero() or absolute_trace(field, c) == 0:
            raise DegenerateExtensionError(
                "Q reduces to a constant with zero trace: the extension splits")
    return current


def _find_reducible_pole(Q: RationalFunc, p: int, field):
    """h^p - h for one pole of order divisible by p, or None."""
    pi_rat = None
    _, den_factors, rest = factor_with_bounded_degree(Q.den, max(Q.den.degree, 1))
    if not rest.is_constant():
        raise InconsistencyError("denominator factorization left a cofactor")
    for pi, mult in sorted(den_factors.items(), key=lambda kv: BasePlace(kv[0]).sort_key()):
        if mult % p == 0:
            point = ResiduePoint(field, BasePlace(pi))
            unit = Q * RationalFunc.of(pi)**mult
            a = point.reduce_rational(unit)
            b = point.kappa if pi.degree > 1 else field
            root = pth_root(b, a)
            beta = point.lift(root)
            h = RationalFunc(beta, pi**(mult // p))
            return h**p - h
    v_inf = Q.valuation_at_infinity()
    if v_inf < 0 and (-v_inf) % p == 0:
        m = -v_inf
        point = ResiduePoint(field, INFINITE)
        t_rat = RationalFunc.of(Poly.x(field))
        a = point.reduce_rational(Q * t_rat**(-m))
        root = pth_root(field, a)
        h = RationalFunc.of(Poly(field, [field.zero()] * (m // p) + [root]))
        return h**p - h
    return None


def _kummer_normalize(field, ell, f: RationalFunc):
    """Reduce every finite multiplicity mod ell (same extension); detect
    split and constant-field cases."""
    _, num_factors, num_rest = factor_with_bounded_degree(f.num, max(f.num.degree, 1))
    _, den_factors, den_rest = factor_with_bounded_degree(f.den, max(f.den.degree, 1))
    if not num_rest.is_constant() or not den_rest.is_constant():
        raise InconsistencyError("factorization left a cofactor")
    unit = field.div(f.num.leading(), f.den.leading())
    mults: dict = {}
    for pi, m in num_factors.items():
        mults[pi] = mults.get(pi, 0) + m
    for pi, m in den_factors.items():
        mults[pi] = mults.get(pi, 0) - m
    normalized = RationalFunc.of(Poly(field, [unit]))
    for pi, m in sorted(mults.items(), key=lambda kv: BasePlace(kv[0]).sort_key()):
        normalized = normalized * RationalFunc.of(pi)**(m % ell)
    constant_ext = False
    if normalized.is_constant() or all(m % ell == 0 for m in mults.values()):
        v_inf = normalized.valuation_at_infinity()
        if v_inf % ell == 0:
            # y^ell = c * (power): only the constant matters
            if is_power_residue(field, unit, ell):
                raise DegenerateExtensionError(
                    "f is an ell-th power up to an ell-th power constant: the cover splits"
                    if normalized.is_constant() else
                    "f is an ell-th power times a residue constant: the cover splits")
            constant_ext = True
    if normalized.is_constant() and not constant_ext:
        # unreachable: constant normalized f either splits or extends constants
        raise InconsistencyError("normalization lost the ramification data")
    return normalized, constant_ext


@dataclass(frozen=True)
class LocalData:
    """Decomposition of one base place: e, residue degree f, and the
    number g of places above, with e*f*g = n."""

    place: BasePlace
    e: int
    f: int
    g: int

    @property
    def kind(self):
        if self.e > 1:
            return "ramified"
        return "split" if self.f == 1 else "inert"

    @property
    def local_degree(self):
        return self.e * self.f


def defining_valuation(curve: Curve, place: BasePlace) -> int:
    """Order of the defining function D at the place."""
    if place.is_infinite:
        return curve.defining.valuation_at_infinity()
    return curve.defining.valuation_at(place.pi)


def local_invariants(curve: Curve, place: BasePlace) -> LocalData:
    """The (e, f, g) decomposition type of a base place in the cover."""
    field = curve.field
    if curve.kind == "artin_schreier":
        v = defining_valuation(curve, place)
        if v < 0:
            if (-v) % curve.p == 0:
                raise InconsistencyError("unreduced Artin-Schreier data")
            return LocalData(place, curve.p, 1, 1)
        point = ResiduePoint(field, place)
        c = point.reduce_rational(curve.Q)
        kappa = point.kappa
        if absolute_trace(kappa, c) == 0:
            return LocalData(place, 1, 1, curve.p)
        return LocalData(place, 1, curve.p, 1)

    ell = curve.ell
    a = defining_valuation(curve, place)
    d = gcd(ell, a % ell)
    e = ell // d
    point = ResiduePoint(field, place)
    kappa = point.kappa
    # f / pi^a for the uniformizer pi, which is 1/t at infinity
    inv_pi = (RationalFunc.of(Poly.x(field)) if place.is_infinite
              else RationalFunc(Poly.one(field), place.pi))
    ubar = point.reduce_rational(curve.f * inv_pi**a)
    # h is a d-th root of unity; its order, a divisor of d, is the residue degree
    h = kappa.pow(ubar, (kappa.order - 1) // d)
    f_w = next(k for k in range(1, d + 1) if d % k == 0 and kappa.pow(h, k) == kappa.one())
    return LocalData(place, e, f_w, ell // (e * f_w))


def splitting(curve: Curve, place: BasePlace) -> LocalData:
    """Decomposition type of a place; total (ramified places included)."""
    _reject_constant_ext(curve)
    return local_invariants(curve, place)


@dataclass(frozen=True)
class RamifiedPlace:
    place: BasePlace
    e: int
    different_exponent: int


def ramification_data(curve: Curve) -> tuple[list[RamifiedPlace], int]:
    """Ramified places with different exponents, plus the genus from the
    Riemann-Hurwitz formula over the rational base."""
    _reject_constant_ext(curve)
    ram: list[RamifiedPlace] = []
    if curve.kind == "artin_schreier":
        p = curve.p
        _, den_factors, _ = factor_with_bounded_degree(curve.Q.den, max(curve.Q.den.degree, 1))
        places = [(BasePlace(pi), m) for pi, m in den_factors.items()]
        v_inf = curve.Q.valuation_at_infinity()
        if v_inf < 0:
            places.append((INFINITE, -v_inf))
        deg_sum = 0
        for place, m in sorted(places, key=lambda pm: pm[0].sort_key()):
            if m % p == 0:
                raise InconsistencyError("unreduced Artin-Schreier data")
            ram.append(RamifiedPlace(place, p, (p - 1) * (m + 1)))
            deg_sum += (p - 1) * (m + 1) * place.degree
        two_g_minus_2 = -2 * p + deg_sum
    else:
        ell = curve.ell
        _, num_factors, _ = factor_with_bounded_degree(curve.f.num, max(curve.f.num.degree, 1))
        _, den_factors, _ = factor_with_bounded_degree(curve.f.den, max(curve.f.den.degree, 1))
        mults = {BasePlace(pi): m for pi, m in num_factors.items()}
        for pi, m in den_factors.items():
            mults[BasePlace(pi)] = mults.get(BasePlace(pi), 0) - m
        v_inf = curve.f.valuation_at_infinity()
        if v_inf % ell:
            mults[INFINITE] = v_inf
        contribution = 0
        for place in sorted(mults, key=lambda pl: pl.sort_key()):
            a = mults[place]
            if a % ell == 0:
                continue
            e = ell // gcd(ell, a % ell)
            ram.append(RamifiedPlace(place, e, e - 1))
            contribution += (ell // e) * (e - 1) * place.degree
        two_g_minus_2 = -2 * ell + contribution
    if two_g_minus_2 % 2 or two_g_minus_2 < -2:
        raise InconsistencyError(f"Riemann-Hurwitz gave 2g-2 = {two_g_minus_2}")
    genus = (two_g_minus_2 + 2) // 2
    return ram, genus


def genus(curve: Curve) -> int:
    return ramification_data(curve)[1]


def _reject_constant_ext(curve: Curve):
    if curve.constant_ext:
        raise UnsupportedError(
            "the cover extends the constant field; geometric invariants do not apply")


# ---------------------------------------------------------------------------
# curve JSON interface

_CURVE_KEYS = {"kind", "q", "p_or_l", "Q_or_f"}


def _json_int(value, what: str) -> int:
    """A JSON integer as it stands: bool, float and str are rejected, not converted."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def curve_from_json(data) -> Curve:
    """Parse the curve description schema.

    Coefficients are element indices of GF(q), 0..q-1 as `element_index`
    numbers them (so 0..p-1 are the prime-subfield elements), in ascending
    degree order; an index outside that range and unknown keys are rejected.
    """
    import json as _json

    from .gf import GF

    if isinstance(data, str):
        data = _json.loads(data)
    if not isinstance(data, dict):
        raise ValidationError("curve JSON must be an object")
    unknown = set(data) - _CURVE_KEYS
    if unknown:
        raise ValidationError(f"unknown curve keys: {sorted(unknown)}")
    for key in ("kind", "q", "p_or_l", "Q_or_f"):
        if key not in data:
            raise ValidationError(f"curve JSON is missing {key!r}")
    kind = data["kind"]
    q = _json_int(data["q"], "q")
    field = GF(q)
    fraction = data["Q_or_f"]
    if not isinstance(fraction, dict) or "num" not in fraction \
            or set(fraction) - {"num", "den"}:
        raise ValidationError('Q_or_f must be {"num": [...], "den": [...]}')

    def poly(key):
        coeffs = fraction.get(key, [1])
        if not isinstance(coeffs, (list, tuple)):
            raise ValidationError(f"Q_or_f {key} must be a list of element indices")
        indices = [_json_int(c, f"{key} coefficient") for c in coeffs]
        bad = next((c for c in indices if not 0 <= c < q), None)
        if bad is not None:
            raise ValidationError(
                f"{key} coefficient {bad} is not an element index 0..{q - 1} of GF({q})")
        return Poly(field, map(field.element_from_index, indices))

    num = poly("num")
    den = poly("den")
    if den.is_zero():
        raise ValidationError("denominator is zero")
    rat = RationalFunc(num, den)
    degree = _json_int(data["p_or_l"], "p_or_l")
    if kind == "artin_schreier":
        if degree != field.char:
            raise ValidationError(
                f"Artin-Schreier degree must be the characteristic {field.char}")
        return ASCurve.make(field, rat)
    if kind == "kummer":
        return KummerCurve.make(field, degree, rat)
    raise ValidationError(f"unknown curve kind {kind!r}")


def curve_to_json(curve: Curve) -> dict:
    field = curve.field
    rat = curve.defining
    return {
        "kind": curve.kind,
        "q": field.order,
        "p_or_l": curve.n,
        "Q_or_f": {
            "num": [field.element_index(c) for c in rat.num.coeffs],
            "den": [field.element_index(c) for c in rat.den.coeffs],
        },
    }


def parse_base_place(field, text: str) -> BasePlace:
    """Parse a place id: "inf" or a monic polynomial in t."""
    from .poly import parse_poly

    text = text.strip()
    if text == "inf":
        return INFINITE
    pi = parse_poly(field, text)
    if pi.degree < 1 or pi.leading() != field.one():
        raise ValidationError(f"{text!r} is not a monic polynomial place")
    return BasePlace(pi)
