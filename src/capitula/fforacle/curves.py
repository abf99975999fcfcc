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
order.  One record, `Cover(field, kind, n, defining, constant_ext)`,
holds either family.  The family is read only where the mathematics
differs: the two constructors `Cover.artin_schreier` (`as_reduce`) and
`Cover.kummer` (`_kummer_normalize`), `Cover.model`, `_decompose`, the
curve JSON and the repr.  This module is the only one that tells the two
families apart; the Picard engine reads the model alone.

The infinite place is handled through the substitution t -> 1/u, which
turns it into the finite place u = 0 of F_q(u) (`local_model`); all local
computations run on that uniform polynomial model, from `ResiduePoint`
and the Artin-Schreier reduction to `local_invariants`.  Each cover
computes its per-place facts once, as cached properties of the record:
`divisor` (v_P(D)), `decompositions`, the table of decomposition types
(e, f, g), and from those two `ramification_data`.

A decomposition type is read down to F_q, with no residue field built.
At an unramified Artin-Schreier place, w = Q mod pi splits the place when
Tr_{kappa/F_p}(w) = 0, and Tr_{kappa/F_q}(w) = sum w_j s_j, s_j the power
sums of the roots of pi (Newton's identities).  At a Kummer place with d
= gcd(ell, v_P(f)) > 1, the residue degree is the order of the d-th root
of unity ubar^((|kappa|-1)/d) for the residue ubar of the unit f /
pi^v_P(f); since d | q - 1, that is N_{kappa/F_q}(ubar)^((q-1)/d), and the
norm is the resultant Res(pi, ubar) over F_q.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import NamedTuple

from ..arith import json_int
from ..errors import (
    DegenerateExtensionError,
    InconsistencyError,
    UnsupportedError,
    ValidationError,
)
from .gf import ExtField, absolute_trace, is_power_residue, primitive_root_of_unity, pth_root
from .poly import (
    Poly,
    RationalFunc,
    _is_irreducible,
    factor_with_bounded_degree,
    norm_mod,
    parse_poly,
    render_poly,
    trace_mod,
)


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


def local_model(rat: RationalFunc, place: BasePlace) -> tuple[Poly, RationalFunc]:
    """(pi, rat) in the model where the place is the finite place pi:
    F_q(t) itself, or at infinity F_q(u) with u = 1/t and pi = u."""
    if place.is_infinite:
        return Poly.x(rat.field), rat.reciprocal_substitution()
    return place.pi, rat


class ResiduePoint:
    """Reduction and lifting at one finite base place.

    kappa is the residue field; polynomials reduce into it, and residue
    elements lift back to polynomials of degree < deg(pi) for Hensel
    seeds.  Callers reduce a numerator and a denominator with the power
    of pi already divided out, never a rational function.  Infinity is
    read as the place u = 0 of the u = 1/t model (`local_model`).
    """

    def __init__(self, field, place: BasePlace):
        self.field = field
        self.place = place
        if place.pi.degree == 1:
            self.kappa = field
        else:
            self.kappa = ExtField(field, place.pi.coeffs)

    def reduce_poly(self, poly: Poly):
        pi = self.place.pi
        if pi.degree == 1:
            root = self.field.neg(pi.constant_term())
            return poly.evaluate(root)
        rem = poly % pi
        coeffs = list(rem.coeffs) + [self.field.zero()] * (pi.degree - len(rem.coeffs))
        return tuple(coeffs)

    def lift(self, elem) -> Poly:
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
class Cover:
    """y^n = c y + D(t) over F_q(t), of the family `kind` names, with D
    `defining`.  Build one with `artin_schreier` or `kummer`, which reduce
    D and detect the split and constant-field cases; each per-place fact
    is then computed once per cover."""

    field: object
    kind: str
    n: int
    defining: RationalFunc
    constant_ext: bool = False

    @classmethod
    def artin_schreier(cls, field, Q: RationalFunc) -> "Cover":
        """y^p - y = Q(t), with Q reduced (all pole orders prime to p)."""
        reduced = as_reduce(Q, field)
        return cls(field, "artin_schreier", field.char, reduced, reduced.is_constant())

    @classmethod
    def kummer(cls, field, ell: int, f: RationalFunc) -> "Cover":
        """y^ell = f(t), ell | q - 1, with multiplicities reduced mod ell."""
        if ell < 2:
            raise ValidationError("Kummer degree must be at least 2")
        if (field.order - 1) % ell:
            raise ValidationError(
                f"need ell | q-1 for a cyclic Kummer cover; ell={ell}, q={field.order}")
        if f.is_zero():
            raise ValidationError("defining function must be nonzero")
        normalized, constant_ext = _kummer_normalize(field, ell, f)
        return cls(field, "kummer", ell, normalized, constant_ext)

    def over(self, big) -> "Cover":
        """The same cover over an extension of the constant field."""
        rat = self.defining
        return Cover(big, self.kind, self.n,
                     RationalFunc(rat.num.map_coefficients(big.embed, big),
                                  rat.den.map_coefficients(big.embed, big)))

    @cached_property
    def model(self) -> CoverModel:
        if self.kind == "artin_schreier":
            one = self.field.one()
            return CoverModel(one, one, one)
        zero = self.field.zero()
        return CoverModel(zero, primitive_root_of_unity(self.field, self.n), zero)

    @cached_property
    def divisor(self) -> dict[BasePlace, int]:
        """v_P(D) at every pole of D and, when the model's c is 0, at every zero.

        With c != 0 a zero of D is an unramified place of the integral
        model, and its order is never read.  The finite places come in the
        factorization order of D's denominator, then of its numerator.
        """
        rat = self.defining
        with_zeros = self.field.is_zero(self.model.c)
        out: dict[BasePlace, int] = {}
        parts = [(rat.den, -1), (rat.num, 1)] if with_zeros else [(rat.den, -1)]
        for poly, sign in parts:
            if poly.degree < 1:
                continue
            _, factors, rest = factor_with_bounded_degree(poly, poly.degree)
            if not rest.is_constant():
                raise InconsistencyError("defining data factorization left a cofactor")
            for pi, mult in factors.items():
                out[BasePlace(pi)] = sign * mult
        v_inf = rat.valuation_at_infinity()
        if v_inf < 0 or (v_inf > 0 and with_zeros):
            out[INFINITE] = v_inf
        return out

    @cached_property
    def decompositions(self) -> dict[BasePlace, "LocalData"]:
        """(e, f, g) of every base place decomposed so far (`local_invariants`)."""
        return {}

    @cached_property
    def _ramification(self) -> tuple[tuple["RamifiedPlace", ...], int]:
        """Ramified places and genus.  Every ramified place is in `divisor`;
        the different exponent is e - 1 when p does not divide e, and
        (e - 1)(1 - v_P(D)) at a wild pole (Stichtenoth, Prop. 3.7.8)."""
        p, n = self.field.char, self.n
        ram = []
        two_g_minus_2 = -2 * n
        for place in sorted(self.divisor, key=BasePlace.sort_key):
            e = local_invariants(self, place).e
            if e == 1:
                continue
            different = e - 1 if e % p else (e - 1) * (1 - self.divisor[place])
            ram.append(RamifiedPlace(place, e, different))
            two_g_minus_2 += (n // e) * different * place.degree
        if two_g_minus_2 % 2 or two_g_minus_2 < -2:
            raise InconsistencyError(f"Riemann-Hurwitz gave 2g-2 = {two_g_minus_2}")
        return tuple(ram), (two_g_minus_2 + 2) // 2

    def __repr__(self):
        lhs = f"y^{self.n}-y" if self.kind == "artin_schreier" else f"y^{self.n}"
        return f"Cover(q={self.field.order}, {lhs}={self.defining!r})"


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
    _, den_factors, rest = factor_with_bounded_degree(Q.den, max(Q.den.degree, 1))
    if not rest.is_constant():
        raise InconsistencyError("denominator factorization left a cofactor")
    poles = sorted(((BasePlace(pi), m) for pi, m in den_factors.items()),
                   key=lambda pm: pm[0].sort_key())
    poles.append((INFINITE, -Q.valuation_at_infinity()))
    for place, mult in poles:
        if mult > 0 and mult % p == 0:
            pi, model = local_model(Q, place)
            point = ResiduePoint(field, BasePlace(pi))
            # the residue of Q pi^mult: pi^mult divides the denominator exactly
            residue = point.kappa.div(point.reduce_poly(model.num),
                                      point.reduce_poly(model.den // pi**mult))
            root = pth_root(point.kappa, residue)
            h = RationalFunc(point.lift(root), pi**(mult // p))
            if place.is_infinite:
                h = h.reciprocal_substitution()
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


def defining_valuation(curve: Cover, place: BasePlace) -> int:
    """Order of the defining function D at the place, read off `divisor`;
    min(v_P(D), 0) when the model's c is nonzero (zeros are never read)."""
    return curve.divisor.get(place, 0)


def local_invariants(curve: Cover, place: BasePlace) -> LocalData:
    """The (e, f, g) decomposition type of a base place in the cover."""
    if place not in curve.decompositions:
        curve.decompositions[place] = _decompose(curve, place)
    return curve.decompositions[place]


def _decompose(curve: Cover, place: BasePlace) -> LocalData:
    """(e, f, g) from the unit of D at the place, read down to F_q: the
    Artin-Schreier trace and the Kummer power-residue symbol of the residue
    ubar in kappa_P are a trace and a norm from kappa_P to F_q (module
    docstring), so no residue field is built."""
    field = curve.field
    v = defining_valuation(curve, place)
    pi, rat = local_model(curve.defining, place)
    n = curve.n
    if curve.kind == "artin_schreier":
        if v < 0:
            if (-v) % n == 0:
                raise InconsistencyError("unreduced Artin-Schreier data")
            return LocalData(place, n, 1, 1)
        # Q mod pi: Q is regular at the place
        residue = (rat.num * rat.den.invmod(pi)) % pi
        if absolute_trace(field, trace_mod(pi, residue)) == 0:
            return LocalData(place, 1, 1, n)
        return LocalData(place, 1, n, 1)

    d = gcd(n, v % n)
    e = n // d
    if d == 1:
        # f and g divide d
        return LocalData(place, e, 1, 1)
    # the unit f / pi^v, by an exact division of the numerator or the denominator
    num, den = (rat.num // pi**v, rat.den) if v >= 0 else (rat.num, rat.den // pi**-v)
    # ubar^((|kappa|-1)/d) = N(ubar)^((q-1)/d), a d-th root of unity of F_q
    # whose order, a divisor of d, is the residue degree
    h = field.pow(field.div(norm_mod(pi, num), norm_mod(pi, den)), (field.order - 1) // d)
    f_w = next(k for k in range(1, d + 1) if d % k == 0 and field.pow(h, k) == field.one())
    return LocalData(place, e, f_w, n // (e * f_w))


def splitting(curve: Cover, place: BasePlace) -> LocalData:
    """Decomposition type of a place; total (ramified places included)."""
    _reject_constant_ext(curve)
    return local_invariants(curve, place)


@dataclass(frozen=True)
class RamifiedPlace:
    place: BasePlace
    e: int
    different_exponent: int


def ramification_data(curve: Cover) -> tuple[list[RamifiedPlace], int]:
    """Ramified places with different exponents, plus the genus from the
    Riemann-Hurwitz formula over the rational base."""
    _reject_constant_ext(curve)
    ram, genus = curve._ramification
    return list(ram), genus


def genus(curve: Cover) -> int:
    return ramification_data(curve)[1]


def _reject_constant_ext(curve: Cover):
    if curve.constant_ext:
        raise UnsupportedError(
            "the cover extends the constant field; geometric invariants do not apply")


# ---------------------------------------------------------------------------
# curve JSON interface

_CURVE_KEYS = {"kind", "q", "p_or_l", "Q_or_f"}


def curve_from_json(data) -> Cover:
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
    q = json_int(data["q"], "q")
    field = GF(q)
    fraction = data["Q_or_f"]
    if not isinstance(fraction, dict) or "num" not in fraction \
            or set(fraction) - {"num", "den"}:
        raise ValidationError('Q_or_f must be {"num": [...], "den": [...]}')

    def poly(key):
        coeffs = fraction.get(key, [1])
        if not isinstance(coeffs, (list, tuple)):
            raise ValidationError(f"Q_or_f {key} must be a list of element indices")
        indices = [json_int(c, f"{key} coefficient") for c in coeffs]
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
    degree = json_int(data["p_or_l"], "p_or_l")
    if kind == "artin_schreier":
        if degree != field.char:
            raise ValidationError(
                f"Artin-Schreier degree must be the characteristic {field.char}")
        return Cover.artin_schreier(field, rat)
    if kind == "kummer":
        return Cover.kummer(field, degree, rat)
    raise ValidationError(f"unknown curve kind {kind!r}")


def curve_to_json(curve: Cover) -> dict:
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
    """Parse a place id: "inf" or a monic irreducible polynomial in t."""
    text = text.strip()
    if text == "inf":
        return INFINITE
    pi = parse_poly(field, text)
    if pi.degree < 1 or pi.leading() != field.one():
        raise ValidationError(f"{text!r} is not a monic polynomial place")
    if not _is_irreducible(pi):
        raise ValidationError(f"{text!r} is reducible over GF({field.order}), not a place")
    return BasePlace(pi)
