"""Explicit divisor class groups of the oracle curves, with Galois action.

The presentation is concrete: the free abelian group on a factor base of
low-degree places of K, modulo relations given by principal divisors.
Relations are harvested from the base-field places themselves and from
functions in Riemann-Roch spaces L(m P0) of a fixed rational place P0,
computed by linear algebra over F_q in the monomial basis y^i t^j.  The
t-degree window of that basis is read off the places above infinity,
where the numerators' degrees are bounded by proof (riemann_roch_basis),
so each space is one linear system, solved once.  A base
polynomial pi needs no divisor computation: div(pi) is the conorm of its
place minus deg pi times the conorm of infinity, sum_{w|P} e_w w -
deg pi sum_{w|inf} e_w w (Stichtenoth, Algebraic Function Fields and
Codes, 3.1).  The degree-zero part must have order exactly h = L(1).  One
bound escalates: the first try takes the degree bound b = max(b_req, g),
b_req the requested bound (1 by default), and a try that does not certify
raises b by one, up to max_degree_bound; the error after the last try
names it.  Each try takes the function-degree bound m = max(2g + 1, b + g):
a place w of degree b is a zero of a function in L(m P0) only when
l(m P0 - w) > 0, which Riemann's inequality guarantees from m = b + g on
(ibid., ch. 1).  A try that needs a space with m above the cap
max_rr_degree is refused before the space is built, and a failed try names
how many candidate functions it tried and whether the cap max_candidates
stopped it.

Each new relation goes into a Hermite form of R' = R + 2h L0 kept modulo
2h (abelian.HermiteModD), in the coordinates Z^(k-1) that drop the
rational place p0 (deg p0 = 1, so dropping it maps L0 onto Z^(k-1)).  Its
index certifies the presentation with no assumption.  The factor base
holds every place of degree <= b, and b >= g, so it generates Pic^0: a
class c of degree zero gives c + g p0 degree g, Riemann's inequality l(A)
>= deg A + 1 - g puts an effective divisor E of degree g in it, every
place of E has degree <= g, and c is the class of E - g p0.  Let P be the
principal divisors in L0, so R lies in P, and L0 / P = Pic^0 has order h.
So h L0 lies in P, and so does R'.  Once [L0 : R'] = h, R' = P, and the
triangular Hermite basis of R' presents Pic^0; wherever [L0 : R] = h, h
L0 lies in R, so R = R'.  A relation lattice of lower rank leaves the
index at least 2h.  sigma acts on Z^(k-1) as drop o perm o lift, where
lift restores the p0 coordinate of degree zero.  perm is built before the
search, because each smooth candidate z gives n - 1 relations for one
divisor computation: div(sigma^i z) = sigma^i(div z) for 1 <= i <= n - 2
go in after div z, until the index reaches h (Duursma, Gaudry and Morain,
ASIACRYPT 1999).  The sum of all n conjugates is div N(z), which the base
relations already hold, so the last is left out, and n = 2 adds none.
The rows that present Pic^0 are the reduced Hermite form of P
(abelian.HermiteModD.rows), which P alone determines, so the presentation
and the matrix of sigma do not depend on the order of the relations.

Every other class group is read off that one presentation.  The rational
place p0 of the Riemann-Roch spaces has degree one, so the factor-base
Pic = Z^k / R is Pic^0 + Z p0: a divisor D has the class (coordinates of
D - deg D p0 in Pic^0, deg D), and sigma acts on Z^(r+1) by [[A, c],
[0, 1]], A the action on Pic^0 and c the class of sigma(p0) - p0.  The
invariant classes (a, d) are those with (sigma - 1) a = -d c, so delta'
is the order of c in the coinvariants Pic^0 / (sigma - 1) Pic^0, a
subgroup order [Z^r : L] / [Z^r : L + <c>] read off two Smith diagonals
(abelian.subgroup_order).  For a set S of base places, C_{K,S} is one
record (SClassGroup), built once: the quotient of Z^(r+1) by the
invariant factors of Pic^0 and the classes of the places of K above S
(Cohen, GTM 138, 2.4.3), presented with SNF transforms
(abelian.QuotientPresentation), so that its class_of reads any divisor in
its coordinates.  Every S-class quantity is read off that record: sigma
on it, the strongly ambiguous classes as the subgroup that the orbit sums
generate, and the capitulation map j: C_{F,S} = Z/h_FS -> C_{K,S} as a
homomorphism (abelian.AbHom) that sends the class of infinity to the class
of its conorm, with |ker j| = h_FS / |j(C_{F,S})|.

Every cover is read through one model (curves.CoverModel): y^n = c y +
D(t) with Galois generator sigma: y -> zeta y + beta, where Artin-Schreier
covers are (c, zeta, beta) = (1, 1, 1) and Kummer covers (0, zeta_l, 0).
This module never asks which family it holds.

Functions stay in F_q[t] (Hess, J. Symbolic Comput. 33, 2002): a function
is z = sum A_i y^i / H with polynomial numerators A_i and one denominator
H, a product of known places.  The Riemann-Roch basis comes in that form,
and candidates are sums of numerator vectors over the same H, so no gcd
is ever taken.  With D = Dn / Dd in lowest terms, Dd times the
multiplication matrix of sum A_i y^i has polynomial entries (the entries
are constants times Dd or Dn), so N(sum A_i y^i) = P / Dd^k with P =
Dd a (a + c b) - Dn b^2 and k = 1 for n = 2, and P the determinant of
that matrix and k = n otherwise, by a Laplace expansion that computes
each minor once and skips zero entries.  P is factored once, and v_P(N z)
= v_P(P) - k v_P(Dd) - n v_P(H) at every base place, -deg P + k deg Dd +
n deg H at infinity.  z has poles only at the critical places (infinity
and the poles of D) and the places of H, and zeros only there and at the
factors of P.  A candidate is smooth when N z has nonzero valuation only
at base places of degree <= b or in the factor base's fixed part (the
critical places and the extra places): every such place is in the factor
base.

Valuations are exact, and read off the numerators: v_w(z) = v_w(sum A_i
y^i) - e_w v_P(H), with v_P(A_i) the multiplicity of pi in A_i (-deg A_i
at infinity).  Let s = e v_P(D) / n (the engine's s_y), v_P(D) read as 0
at a zero of D when c != 0.  At a ramified place s = v_w(y); at an
unramified one y = pi^s Y with Y integral (when c != 0 a pole of D is
ramified).  Where w is the only place above its base, one formula holds:
v_w(sum A_i y^i) = min_i (e v(A_i) + i s), with no cancellation.  At a
totally ramified place (e = n) s is prime to n, so the values i s are
distinct mod n; at an inert one (e = 1) the basis Y^i stays a unit basis
(Stichtenoth, Algebraic Function Fields and Codes, Prop. 3.7.3).  At a
split place the same minimum w0 (e = 1) is a lower bound.  The local
equation stays in F_q[x]: D pi^(-ns) = Dn' / Dd' with polynomials in the
model variable, the power of pi divided exactly out of the numerator or
the denominator of D, and Dd' is prime to pi, since a split place is no
pole of D pi^(-ns).  Y solves
G(Y) = Dd' (Y^n - c Y) - Dn' = 0.  At a totally split place w, labelled by
a residue r of Y, sum A_i y^i = pi^w0 sum a_i Y^i with polynomials a_i,
not all divisible by pi: each a_i is A_i multiplied or exactly divided by
a power of pi, and at infinity rev(A_i) u^(i s - w0 - deg A_i) in u = 1/t.
sum a_i r^i is evaluated in the residue field first: a nonzero value means
v_w = w0, which settles most evaluations.  The m places where it vanishes
are then settled by one evaluation of sum a_i R^i in F_q[t]/pi^N, R the
root of G above r, at the precision the norm names: the n numbers v_w - w0
sum to T = v_P(N (H z)) - n w0 and each pending one is at least 1, so each
is at most T - (m - 1), and N = max(2, T - m + 2) decides them all.  A
value that vanishes modulo pi^N means the engine and the norm disagree and
raises InconsistencyError.  The n places above the base are one Galois
orbit (Stichtenoth, Algebraic Function Fields and Codes, Thm. 3.7.1), and
the engine numbers them by orbit position: place k is labelled r_k =
zeta_k r0 + beta_k, the residue of sigma^k(Y) (beta is nonzero only when
s = 0, so sigma acts on Y as on y), where r0 is the first r in
element-index order with Dd' (r^n - c r) = Dn' in kappa_P.  One root R0
above r0 is Hensel-lifted per base, and the root above place k is zeta_k
R0 + beta_k.  The lift doubles the precision at every Newton step,
carries the inverse of G'(R0) = Dd' (n R0^(n-1) - c) from step to step,
and checks G(R0) = 0 after each.  sigma moves the place labelled r to the
one labelled (r - beta) / zeta, and (r_k - beta) / zeta = r_(k-1), so
sigma is the shift k -> k - 1 (mod n) of place numbers, with no
residue-field arithmetic; the sum of the places above a base is its one
orbit sum.  Only a totally split base place gets n places; any other gets
one.  So the places, their valuations and the conorm are exact only where
n is one of e, f and g: totally ramified, inert or totally split.  Any
other type (possible only for composite Kummer degrees) is rejected before
a presentation is built: a guard on every base place the presentation
uses, the ramified ones included, names (e, f, g).  The infinite place
runs through the same code in the u = 1/t model.  Every divisor_of
computation is cross-checked against the valuation of the norm, place by
place, and its degree against zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from ..abelian import (
    AbHom,
    FinAbGroup,
    HermiteModD,
    QuotientPresentation,
    columns,
    finite_quotient,
    from_columns,
    identity_matrix,
    image_order,
    kernel,
    subgroup_order,
)
from ..arith import gcd_list
from ..errors import InconsistencyError, ResourceError, UnsupportedError, ValidationError
from ..profile import CYCLIC, ExtensionProfile, FunctionField, PlaceProfile
from .curves import (
    BasePlace,
    INFINITE,
    ResiduePoint,
    _reject_constant_ext,
    defining_valuation,
    local_invariants,
    local_model,
    ramification_data,
)
from .gf import MAX_FIELD_SIZE
from .poly import (
    Poly,
    factor_with_bounded_degree,
    monic_irreducibles_up_to,
    split_off,
)
from .zeta import l_polynomial


@dataclass(frozen=True)
class OracleConfig:
    max_degree_bound: int = 8
    max_rr_degree: int = 96
    max_candidates: int = 8000
    max_field_size: int = MAX_FIELD_SIZE
    max_genus: int = 5
    max_precision: int = 512


DEFAULT_CONFIG = OracleConfig()


@dataclass(frozen=True)
class PlaceAbove:
    """A place of K, identified by its base place and (when split) the
    residue of y that cuts it out."""

    base: BasePlace
    e: int
    f: int
    label_index: int  # the element index of the residue of Y when split, else -1
    deg: int

    @property
    def id(self):
        if self.label_index >= 0:
            return f"{self.base.id}#{self.label_index}"
        return self.base.id

    def sort_key(self):
        return (self.deg,) + self.base.sort_key() + (self.label_index,)

    def __repr__(self):
        return f"PlaceAbove({self.id})"


class LocalEngine:
    """All places of K above one base place, with exact valuations.

    s_y = e v_P(D) / n is v_w(y) at a ramified base, and y = pi^s_y Y with
    Y integral at an unramified one (module docstring).  labels is empty
    unless the base is totally split.  There unit_num / unit_den = D
    pi^(-n s_y) (Dn' / Dd' in the module docstring), and Y solves G(Y) =
    unit_den (Y^n - c Y) - unit_num.  The places are numbered by orbit
    position: r0 is the first residual root in index order, labels[k] =
    zeta_k r0 + beta_k (the image of r0 under sigma^k(Y) = zeta_k Y +
    beta_k), places[k] is the place where Y has the residue labels[k], and
    root_mod(k, N) is the root of G above it, zeta_k R0 + beta_k for the
    one Hensel-lifted root R0.  sigma maps places[k] to places[k - 1].
    """

    def __init__(self, arith: "CurveArithmetic", base: BasePlace):
        self.arith = arith
        self.base = base
        curve = arith.curve
        field = curve.field
        self.field = field
        self.is_inf = base.is_infinite
        self.pi, model_defining = local_model(curve.defining, base)
        self.model_point = ResiduePoint(field, BasePlace(self.pi))
        self.data = local_invariants(curve, base)
        self.def_val = defining_valuation(curve, base)
        self._pi_powers: dict[int, Poly] = {}

        n = curve.n
        c, zeta, beta = curve.model
        d = self.data
        # v_w(y) at a ramified place; y = pi^s_y Y with Y integral at an unramified one
        self.s_y = d.e * self.def_val // n

        deg = d.f * base.degree
        self.labels = []
        self.places = [PlaceAbove(base, d.e, d.f, -1, deg)]
        if d.e == d.f == 1:
            point = self.model_point
            kappa = point.kappa
            # D pi^(-n s) by an exact division of the numerator or the
            # denominator: n s = v_P(D) when c = 0, and s = 0 otherwise
            num, den = model_defining.num, model_defining.den
            ns = n * self.s_y
            self.unit_num, self.unit_den = ((num // self.pi_power(ns), den) if ns >= 0
                                            else (num, den // self.pi_power(-ns)))
            c_k = point.embed(c)
            num_bar, den_bar = point.reduce_poly(self.unit_num), point.reduce_poly(self.unit_den)
            # the scan stops at the first root in index order
            base_root = next((r for r in map(kappa.element_from_index, range(kappa.order))
                              if kappa.mul(den_bar, kappa.sub(kappa.pow(r, n), kappa.mul(c_k, r)))
                              == num_bar), None)
            if base_root is None:
                raise InconsistencyError("split place has no residual root")
            # sigma^k(Y) = zeta_k Y + beta_k
            consts = [(field.one(), field.zero())]
            for _ in range(n - 1):
                zeta_k, beta_k = consts[-1]
                consts.append((field.mul(zeta, zeta_k), field.add(field.mul(zeta, beta_k), beta)))
            self._root_consts = consts
            self.labels = [kappa.add(kappa.mul(point.embed(zeta_k), base_root), point.embed(beta_k))
                           for zeta_k, beta_k in consts]
            self._root = point.lift(base_root)
            self._root_precision = 1
            self._root_inverse = None  # 1 / G'(R0), modulo pi^k for R0 modulo pi^(<= 2k)
            self.places = [PlaceAbove(base, d.e, d.f, kappa.element_index(label), deg)
                           for label in self.labels]

    # -- model-side helpers ------------------------------------------------

    def pi_power(self, precision: int) -> Poly:
        """pi^precision, cached: every split-place computation reduces by it."""
        power = self._pi_powers.get(precision)
        if power is None:
            power = self._pi_powers[precision] = self.pi**precision
        return power

    def root_mod(self, index: int, precision: int) -> Poly:
        """The root of the local equation above labels[index], mod pi^N."""
        modulus = self.pi_power(precision)
        if precision > self._root_precision:
            self._lift_root(precision)
        zeta_k, beta_k = self._root_consts[index]
        return (self._root % modulus).scale(zeta_k) + Poly.constant(self.field, beta_k)

    def _lift_root(self, precision: int):
        """Newton lifting of R0 with doubling precision (von zur Gathen and
        Gerhard, Modern Computer Algebra, Alg. 9.22).

        Each level takes R0 from pi^k to pi^min(2k, N) by one Newton step on
        G(Y) = unit_den (Y^n - c Y) - unit_num, G' = unit_den (n Y^(n-1) -
        c).  The inverse of G'(R0) that step needs modulo pi^k is the
        previous level's, correct modulo pi^(k/2) at least, refined by one
        Newton step of its own; the first is an extended Euclid modulo pi.
        """
        field = self.field
        n = self.arith.curve.n
        c_poly = Poly.constant(field, self.arith.curve.model.c)
        n_c = field.from_int(n)
        one = Poly.one(field)
        r, k, inverse = self._root, self._root_precision, self._root_inverse
        while k < precision:
            top = min(2 * k, precision)
            modulus, low = self.pi_power(top), self.pi_power(k)
            num, den = self.unit_num % modulus, self.unit_den % modulus
            r_pow = r.powmod(n - 1, modulus)
            derivative = (den * (r_pow.scale(n_c) - c_poly)) % low
            if inverse is None:
                inverse = derivative.invmod(low)
            else:
                inverse = (inverse + inverse * (one - derivative * inverse)) % low
            r = (r - (den * (r * (r_pow - c_poly) % modulus) - num) * inverse) % modulus
            if not ((den * (r.powmod(n, modulus) - r * c_poly) - num) % modulus).is_zero():
                raise InconsistencyError(
                    f"Hensel lift above {self.base.id} is not a root modulo pi^{top}")
            k = top
        self._root, self._root_precision, self._root_inverse = r, k, inverse

    def base_valuation(self, poly: Poly) -> int:
        """v_P of a nonzero polynomial of F_q[t]; -deg at infinity."""
        return -poly.degree if self.is_inf else poly.valuation(self.pi)

    def valuations(self, coeffs, norm_val: int, den_val: int) -> list[int]:
        """v_w(z) for every place w above the base, z = sum coeffs[i] y^i / H.

        coeffs are polynomials of F_q[t] and den_val is v_P(H), so v_w(z) =
        v_w(sum coeffs[i] y^i) - e_w den_val.  norm_val is v_P(N z) = sum
        f_w v_w(z); at a split base it names the precision of the one
        pi-adic evaluation (module docstring).
        """
        terms = [(i, self.base_valuation(c)) for i, c in enumerate(coeffs) if not c.is_zero()]
        if not terms:
            raise ValidationError("valuation of the zero function")
        n = self.arith.curve.n
        e, s = self.data.e, self.s_y
        # the value at an unsplit base; at a split one (e = 1) v_w - w0 >= 0
        w0 = min(e * v + i * s for i, v in terms)
        if not self.labels:
            return [w0 - e * den_val]
        # split: sum coeffs[i] y^i = pi^w0 sum a_i Y^i, a_i in F_q[x] not all divisible by pi
        integral = [self._integral(c, i * s - w0) for i, c in enumerate(coeffs)]
        # residue first: a nonzero value of sum a_i label^i in kappa means v = w0
        kappa = self.model_point.kappa
        residues = [self.model_point.reduce_poly(a) for a in integral]
        out = [w0 - den_val] * len(self.labels)
        pending = []
        for j, label in enumerate(self.labels):
            acc = kappa.zero()
            for a in reversed(residues):
                acc = kappa.add(kappa.mul(acc, label), a)
            if kappa.is_zero(acc):
                pending.append(j)
        if not pending:
            return out
        # v_w - w0 is 0 off pending and at least 1 on it, and the n of them
        # sum to v_P(N (H z)) - n w0, so each pending one is below this precision
        precision = max(2, norm_val + n * (den_val - w0) - len(pending) + 2)
        cap = self.arith.config.max_precision
        if precision > cap:
            raise ResourceError(
                f"local expansion precision {precision} above {self.base.id} "
                f"exceeds the cap {cap}")
        modulus = self.pi_power(precision)
        reduced = [a % modulus for a in integral]
        for j in pending:
            out[j] += self._split_val(reduced, j, precision)
        return out

    def _integral(self, coeff: Poly, k: int) -> Poly:
        """coeff pi^k in the model variable, for k >= -v_P(coeff): a product or
        an exact quotient at a finite base, rev(coeff) u^(k - deg coeff) at
        infinity."""
        if coeff.is_zero():
            return coeff
        if self.is_inf:
            return self.pi_power(k - coeff.degree) * coeff.reversed_coeffs()
        return self.pi_power(k) * coeff if k >= 0 else coeff // self.pi_power(-k)

    def _split_val(self, reduced, index, precision):
        """v_pi of sum reduced[i] R^i at the root R above labels[index].

        The norm bounds it below the precision, so a value that vanishes
        modulo pi^N means the engine and the norm disagree.
        """
        modulus = self.pi_power(precision)
        root = self.root_mod(index, precision)
        total = Poly.zero(self.field)
        for a in reversed(reduced):
            total = (total * root + a) % modulus
        if total.is_zero():
            d = self.data
            raise InconsistencyError(
                f"split value above {self.base.id} vanishes modulo pi^{precision}, "
                f"past the bound of the norm; (e, f, g) = {(d.e, d.f, d.g)}")
        return total.valuation(self.pi)


class CurveArithmetic:
    """Multiplication, norms and local engines for one cover."""

    def __init__(self, curve, config: OracleConfig = DEFAULT_CONFIG):
        _reject_constant_ext(curve)
        self.curve = curve
        self.config = config
        field = curve.field
        n = curve.n
        self.d_num, self.d_den = curve.defining.num, curve.defining.den
        zero = Poly.zero(field)
        c = curve.model.c
        # Dd y^k in the basis 1, y, ..., y^(n-1) for k up to 2n-2, by y^n = c y + D;
        # the top coefficient of y^(k-1) is then a constant, so every entry
        # is a constant times Dd or Dn
        reps = [[zero] * n for _ in range(2 * n - 1)]
        for k in range(n):
            reps[k][k] = self.d_den
        for k in range(n, 2 * n - 1):
            prev = reps[k - 1]
            vec = [zero] + prev[: n - 1]
            top = prev[n - 1]
            if not top.is_zero():
                vec[1] = vec[1] + top.scale(c)
                vec[0] = vec[0] + (top // self.d_den) * self.d_num
            reps[k] = vec
        self.y_reps = reps
        self._engines: dict[BasePlace, LocalEngine] = {}

    def engine(self, base: BasePlace) -> LocalEngine:
        if base not in self._engines:
            self._engines[base] = LocalEngine(self, base)
        return self._engines[base]

    def places_above(self, base: BasePlace) -> list[PlaceAbove]:
        return list(self.engine(base).places)

    def conorm(self, base: BasePlace) -> dict[PlaceAbove, int]:
        """The divisor sum_{w|P} e_w w of K that the base place P extends to."""
        return {w: w.e for w in self.engine(base).places}

    def base_divisor(self, pi: Poly) -> dict[PlaceAbove, int]:
        """div(pi) for a monic irreducible pi: the conorm of its place minus
        deg pi times the conorm of infinity.  Exact only where the engine
        builds the true places (module docstring); no norm is checked."""
        div = self.conorm(BasePlace(pi))
        for w, e in self.conorm(INFINITE).items():
            div[w] = -pi.degree * e
        return div

    def norm(self, coeffs) -> tuple[Poly, int]:
        """(P, k) with N(sum coeffs[i] y^i) = P / Dd^k for polynomial coeffs,
        Dd the denominator of D: P = Dd a (a + c b) - Dn b^2 with k = 1 for
        n = 2, else the determinant of Dd times the multiplication matrix
        with k = n."""
        n = self.curve.n
        if n == 2:
            a, b = coeffs
            return (self.d_den * a * (a + b.scale(self.curve.model.c))
                    - self.d_num * b * b), 1
        zero = Poly.zero(self.curve.field)
        mat = [[zero] * n for _ in range(n)]
        for j in range(n):
            for i, c in enumerate(coeffs):
                if c.is_zero():
                    continue
                rep = self.y_reps[i + j]
                for r in range(n):
                    if not rep[r].is_zero():
                        mat[r][j] = mat[r][j] + c * rep[r]
        return _det(mat), n

    def divisor_of(self, coeffs, smooth_bound: int | None, extra_bases=(), den=None):
        """The principal divisor of z = sum coeffs[i] y^i / H as {place: order}.

        coeffs are polynomials, and den maps the places of H to their
        multiplicities (H = 1 when den is omitted).  z has poles only at
        the critical places and the places of H, and zeros only there and
        at the factors of its norm.  When smooth_bound is given, None is
        returned as soon as N z has nonzero valuation at a base place of
        degree above the bound that is neither critical nor in
        extra_bases.  The sum of f_w v_w over each base place is checked
        against the valuation of the norm, and the total degree against
        zero.
        """
        den = den or {}
        nrm, k = self.norm(coeffs)
        if nrm.is_zero():
            raise ValidationError("norm of a zero function")
        n = self.curve.n
        named: dict[BasePlace, None] = dict.fromkeys(self._critical_bases())
        named.update(dict.fromkeys(extra_bases))
        allowed = set(named)
        named.update(dict.fromkeys(den))
        bound = smooth_bound if smooth_bound is not None else max(nrm.degree, 1)
        factors, rest = {}, nrm
        if nrm.degree >= 1:
            _, factors, rest = factor_with_bounded_degree(nrm, bound)
        for base in named:
            if base.degree > bound:
                mult, rest = split_off(rest, base.pi)
                if mult:
                    factors[base.pi] = mult
        if not rest.is_constant():
            return None
        # v_P(N z) = v_P(P) - k v_P(Dd) - n v_P(H); v_inf(H) = -deg H
        den_degree = sum(mult * base.degree for base, mult in den.items())
        norm_vals = {INFINITE: -nrm.degree + k * self.d_den.degree + n * den_degree}
        for base in list(named) + [BasePlace(pi) for pi in factors]:
            if not base.is_infinite:
                norm_vals[base] = (factors.get(base.pi, 0)
                                   + k * min(self.curve.divisor.get(base, 0), 0)
                                   - n * den.get(base, 0))
        if smooth_bound is not None and any(
                v and base.degree > bound and base not in allowed
                for base, v in norm_vals.items()):
            return None

        out: dict[PlaceAbove, int] = {}
        total_degree = 0
        for base, norm_val in norm_vals.items():
            eng = self.engine(base)
            den_val = -den_degree if base.is_infinite else den.get(base, 0)
            vals = eng.valuations(coeffs, norm_val, den_val)
            check = sum(f_w * v for f_w, v in zip((w.f for w in eng.places), vals))
            if check != norm_val:
                d = eng.data
                raise InconsistencyError(
                    f"norm valuation mismatch above {base.id}: {check} != {norm_val}; "
                    f"(e, f, g) = {(d.e, d.f, d.g)}, {len(eng.places)} place(s) built")
            for w, v in zip(eng.places, vals):
                if v:
                    out[w] = v
                    total_degree += v * w.deg
        if total_degree != 0:
            raise InconsistencyError("principal divisor has nonzero degree")
        return out

    def _critical_bases(self):
        """Base places where a monomial y^i t^j can have a pole: infinity
        plus the poles of the defining function D (at a zero of D, y has
        nonnegative valuation and never threatens)."""
        return [INFINITE] + [base for base, v in self.curve.divisor.items()
                             if v < 0 and not base.is_infinite]


def _det(mat) -> Poly:
    """Determinant over F_q[t] by Laplace expansion along the rows, each
    minor (a set of columns) computed once and zero entries skipped: the
    multiplication matrices are sparse."""
    n = len(mat)
    zero = Poly.zero(mat[0][0].field)
    minors: dict[int, Poly] = {}

    def minor(row: int, cols: int) -> Poly:
        """The determinant of the rows from row on, on the column set cols."""
        if row == n - 1:
            return mat[row][cols.bit_length() - 1]
        if cols in minors:
            return minors[cols]
        total, position = zero, 0
        for j in range(n):
            if not cols >> j & 1:
                continue
            if not mat[row][j].is_zero():
                sub = minor(row + 1, cols & ~(1 << j))
                if not sub.is_zero():
                    term = mat[row][j] * sub
                    total = total - term if position % 2 else total + term
            position += 1
        minors[cols] = total
        return total

    return minor(0, (1 << n) - 1)


# ---------------------------------------------------------------------------
# Riemann-Roch spaces

def riemann_roch_basis(arith: CurveArithmetic, p0: PlaceAbove, m: int, genus: int):
    """Basis of L(m P0) for a degree-one place P0 over one denominator H.

    Returns (numerators, den): each basis element is sum A_i y^i / H with
    numerators (A_0, ..., A_(n-1)) in F_q[t]^n, and den maps the places of
    H to their multiplicities.

    Candidate functions are spanned by t^j E_i(t) y^i / H(t), where the
    denominator H collects the pole place (pi0^s) together with the poles
    that y^i is allowed to cancel at ramified zeros of the defining
    function D: at a zero of order a the coefficient of y^i may carry a
    denominator of order floor(i a / n) (the valuation of y there is a).
    Linear constraints at the finitely many places where a monomial can
    have a pole cut out exactly L(m P0).

    The t-degree window is read off the places w above infinity, where the
    condition is v_w(sum A_i y^i) >= l_w = (-m if w = P0 else 0) - e deg H
    (Hess, J. Symbolic Comput. 33, 2002, bounds the degrees through an
    integral basis; here the local shapes suffice).
    - One place above infinity: v_w(sum A_i y^i) = min_i (e v(A_i) + i s_y)
      with no cancellation (module docstring), so deg A_i <= floor((i s_y -
      l_w) / e).
    - n split places: y = u^s Y, and the n roots of Y have distinct
      residues, so their Vandermonde matrix is a unit of F_q[[u]].  Each
      A_i u^(i s) is a combination of the n values, so its valuation is at
      least min_w l_w: deg A_i <= i s - min_w l_w.
    Both read deg A_i <= floor((i s_y - min_w l_w) / e), as e = 1 when
    infinity splits.  A_i = (sum_j c_ij t^j) E_i, so the window takes j up
    to the largest of these bounds less deg E_i (and at least 0).  Every
    function of L(m P0) lies in it, and the one system is solved once; a
    dimension other than m + 1 - genus raises InconsistencyError.
    """
    if p0.deg != 1:
        raise ValidationError("the pole place must have degree one")
    if m < max(2 * genus - 1, 1):
        raise ValidationError("pole order below the Riemann-Roch range")
    curve = arith.curve
    field = curve.field
    n = curve.n
    expected = m + 1 - genus

    p0_finite = not p0.base.is_infinite
    s = -(-m // p0.e) if p0_finite else 0  # ceil(m / e)

    # denominator exponents: {base: multiplicity in H}, per-i reduction k
    den_mults: dict[BasePlace, int] = {}
    per_i_reduction: dict[BasePlace, list[int]] = {}
    for ram in ramification_data(curve)[0]:
        a = 0 if ram.place.is_infinite else defining_valuation(curve, ram.place)
        ks = [(i * a) // n for i in range(n)]
        if max(ks):
            per_i_reduction[ram.place] = ks
            den_mults[ram.place] = max(ks)
    if p0_finite:
        den_mults[p0.base] = den_mults.get(p0.base, 0) + s

    multipliers = []
    for i in range(n):
        e_i = Poly.one(field)
        for base, ks in per_i_reduction.items():
            power = den_mults[base] - ks[i] - (s if p0_finite and base == p0.base else 0)
            # the pi0^s part stays in the denominator for every i
            power = max(power, 0)
            if power:
                e_i = e_i * base.pi**power
        multipliers.append(e_i)
    den_degree = sum(mult * base.degree for base, mult in den_mults.items())

    # the window: deg A_i <= floor((i s_y - min_w l_w) / e) above infinity
    inf = arith.engine(INFINITE)
    e_inf = inf.data.e
    lowest = (0 if p0_finite else -m) - e_inf * den_degree
    j_max = max(0, max((i * inf.s_y - lowest) // e_inf - mult.degree
                       for i, mult in enumerate(multipliers)))

    constraint_bases = {INFINITE: None}
    for base in arith._critical_bases():
        constraint_bases[base] = None
    for base in den_mults:
        constraint_bases[base] = None

    rows = []
    for base in constraint_bases:
        eng = arith.engine(base)
        # v_P(H); v_w(z) >= -m at P0 and 0 elsewhere asks v_w(sum A_i y^i) >= lreq
        den_val = -den_degree if base.is_infinite else den_mults.get(base, 0)
        for root_idx, w in enumerate(eng.places):
            lreq = (-m if w == p0 else 0) + w.e * den_val
            rows.extend(_constraint_rows(eng, root_idx, lreq, j_max, multipliers))
    basis = _nullspace(field, rows, n * (j_max + 1))
    if len(basis) != expected:
        raise InconsistencyError(
            f"Riemann-Roch space L({m} P0) has dimension {len(basis)}, "
            f"not m + 1 - g = {expected}")

    numerators = [[Poly(field, vec[i * (j_max + 1): (i + 1) * (j_max + 1)]) * multipliers[i]
                   for i in range(n)] for vec in basis]
    return numerators, den_mults


def _constraint_rows(eng: LocalEngine, root_idx: int, lreq: int, j_max: int,
                     multipliers):
    """F_q-linear conditions forcing v_w(sum_ij c_ij t^j E_i y^i) >= lreq at
    the place w = eng.places[root_idx], as x-digits in the place's own model.

    At infinity x = u = 1/t, and u^offset t^j E_i = u^(offset - j - deg E_i)
    rev(E_i) is a polynomial whose exponent rises by one as j falls; the
    conditions read the valuation offset higher.  At an unsplit place the
    terms of sum A_i y^i have the distinct valuations e v(A_i) + i s_y, so
    each A_i gets its own rows, v(A_i) >= ceil((lreq - i s_y) / e).  At a
    split place y = pi^s Y, and the rows are the digits of sum A_i pi^(i s)
    R^i modulo pi^lreq, R the root above w, every term and the modulus
    scaled by pi^((n - 1) max(0, -s)) to stay integral.
    """
    field = eng.field
    n = eng.arith.curve.n
    nvars = n * (j_max + 1)
    e, s = eng.data.e, eng.s_y
    if eng.is_inf:
        offset = j_max + max(mult.degree for mult in multipliers)
        lead = [Poly.x(field)**(offset - j_max - mult.degree) * mult.reversed_coeffs()
                for mult in multipliers]
        js = range(j_max, -1, -1)
    else:
        offset, lead, js = 0, multipliers, range(j_max + 1)

    if not eng.labels:
        rows = []
        for i in range(n):
            depth = offset - (i * s - lreq) // e  # offset + ceil((lreq - i s) / e)
            if depth >= 1:
                rows += _digit_rows(field, {i: lead[i]}, js, j_max, eng.pi_power(depth), nvars)
        return rows

    lift = (n - 1) * max(0, -s)
    depth = lreq + offset + lift
    if depth < 1:
        return []
    modulus = eng.pi_power(depth)
    root = eng.root_mod(root_idx, depth)
    starts, root_pow = {}, Poly.one(field)
    for i in range(n):
        starts[i] = lead[i] * eng.pi_power(i * s + lift) * root_pow
        root_pow = (root_pow * root) % modulus
    return _digit_rows(field, starts, js, j_max, modulus, nvars)


def _digit_rows(field, starts, js, j_max, modulus, nvars):
    """One row per x-digit of F_q[x]/modulus.  Column i (j_max + 1) + j holds
    starts[i] x^k modulo the modulus, k the position of j in js; columns
    of an i outside starts are zero."""
    width = modulus.degree
    x = Poly.x(field)
    zero = (field.zero(),) * width
    digits = [zero] * nvars
    for i, mono in starts.items():
        mono = mono % modulus
        for j in js:
            digits[i * (j_max + 1) + j] = mono.coeffs + zero[len(mono.coeffs):]
            mono = (mono * x) % modulus
    return [[cs[r] for cs in digits] for r in range(width)]


def _nullspace(field, rows, nvars):
    """Right nullspace basis of the row system over a finite field."""
    mat = [list(r) for r in rows if any(not field.is_zero(x) for x in r)]
    pivots = {}
    row_idx = 0
    for col in range(nvars):
        sel = None
        for r in range(row_idx, len(mat)):
            if not field.is_zero(mat[r][col]):
                sel = r
                break
        if sel is None:
            continue
        mat[row_idx], mat[sel] = mat[sel], mat[row_idx]
        inv = field.inv(mat[row_idx][col])
        mat[row_idx] = [field.mul(inv, x) for x in mat[row_idx]]
        for r in range(len(mat)):
            if r != row_idx and not field.is_zero(mat[r][col]):
                c = mat[r][col]
                mat[r] = [field.sub(x, field.mul(c, y))
                          for x, y in zip(mat[r], mat[row_idx])]
        pivots[col] = row_idx
        row_idx += 1
    free_cols = [c for c in range(nvars) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = [field.zero()] * nvars
        vec[fc] = field.one()
        for col, r in pivots.items():
            vec[col] = field.neg(mat[r][fc])
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# the certified presentation

@dataclass
class PicardData:
    """Certified presentation of Pic^0 with the Galois action.

    group is Pic^0 in invariant-factor form, sigma_action the induced
    matrix of the chosen Galois generator on its generators, and h = L(1)
    the certifying class number.  The degree-one place _p0 splits Pic =
    Pic^0 + Z p0, and _sigma_p0 holds the Pic^0 coordinates of sigma(p0) -
    p0 (module docstring).  _pres0 presents Pic^0 on the factor base
    without p0, and _relations are its Hermite rows lifted into L0.  The
    S-class group is read off it once per S (s_class_group); the
    local integers d_v, D, n0 and |B| are not computed here but by the
    ExtensionProfile that realize_profile emits.
    """

    group: FinAbGroup
    sigma_action: AbHom
    h: int
    l_poly: list[int]
    factor_base: list[PlaceAbove] = dataclass_field(repr=False, default_factory=list)
    _relations: list = dataclass_field(repr=False, default_factory=list)
    _pres0: object = dataclass_field(repr=False, default=None)
    _p0: PlaceAbove | None = dataclass_field(repr=False, default=None)
    _sigma_p0: tuple = dataclass_field(repr=False, default=())
    _arith: object = dataclass_field(repr=False, default=None)

    def place_index(self, place: PlaceAbove) -> int:
        try:
            return self.factor_base.index(place)
        except ValueError:
            raise UnsupportedError(
                f"place {place.id} is outside the presentation; raise the degree bound"
            ) from None


def _candidate_functions(field, basis, cap):
    """Projective points of the span of the basis, deterministically, as
    numerator vectors over the basis's one denominator."""
    elements = field.elements()
    one = field.one()
    dim = len(basis)
    count = 0
    idx = [0] * dim
    total = field.order**dim
    for flat in range(1, total):
        v = flat
        for slot in range(dim):
            idx[slot] = v % field.order
            v //= field.order
        first = next(i for i in range(dim) if idx[i] != 0)
        if elements[idx[first]] != one:
            continue
        coeffs = None
        for slot in range(dim):
            if idx[slot] == 0:
                continue
            term = [a.scale(elements[idx[slot]]) for a in basis[slot]]
            coeffs = term if coeffs is None else [a + b for a, b in zip(coeffs, term)]
        count += 1
        if count > cap:
            return
        yield coeffs


def picard_group(curve, degree_bound: int | None = None, extra_base_places=(),
                 config: OracleConfig = DEFAULT_CONFIG) -> PicardData:
    """Certified Pic^0 presentation: tries from b = max(degree_bound, g) on,
    raising b by one per failed try, until |Pic^0| = L(1) or b reaches
    max_degree_bound (module docstring)."""
    arith = CurveArithmetic(curve, config)
    ram, genus = ramification_data(curve)
    if genus > config.max_genus:
        raise ResourceError(f"genus {genus} exceeds the cap {config.max_genus}")
    l_coeffs, h = l_polynomial(curve, config.max_field_size)
    b_bound = degree_bound if degree_bound is not None else 1
    if b_bound < 1:
        raise ValidationError("degree bound must be at least 1")
    # places of degree <= g generate Pic^0 (module docstring)
    b_bound = max(b_bound, genus)
    while True:
        built = _try_presentation(arith, ram, genus, h, l_coeffs, b_bound,
                                  tuple(extra_base_places), config)
        if isinstance(built, PicardData):
            return built
        if b_bound >= config.max_degree_bound:
            raise ResourceError(
                f"presentation never certified within the configured bounds: {built}")
        b_bound += 1


def _try_presentation(arith, ram, genus, h, l_coeffs, b_bound, extra_bases, config):
    """The certified PicardData at degree bound b, or a sentence saying how
    far this try got."""
    curve = arith.curve
    field = curve.field
    # L(m P0) reaches every place of degree b once m >= b + g (module docstring)
    m_bound = max(2 * genus + 1, b_bound + genus)
    bases: dict[BasePlace, None] = {}
    for base in arith._critical_bases():
        bases[base] = None
    for base in extra_bases:
        bases[base] = None
    pis = monic_irreducibles_up_to(field, b_bound)
    for pi in pis:
        bases[BasePlace(pi)] = None

    # the conorm and the valuations are exact only where the engine builds
    # the true places (module docstring)
    for base in list(bases) + [r.place for r in ram]:
        eng = arith.engine(base)
        d = eng.data
        if curve.n not in (d.e, d.f, d.g):
            raise InconsistencyError(
                f"the engine cannot build the places above {base.id}: (e, f, g) = "
                f"{(d.e, d.f, d.g)}, {len(eng.places)} place(s) built")

    critical = set(arith._critical_bases()) | set(extra_bases)
    fb: list[PlaceAbove] = []
    for base in bases:
        for w in arith.places_above(base):
            if w.deg <= b_bound or base in critical:
                fb.append(w)
    fb.sort(key=lambda w: w.sort_key())
    index = {w: i for i, w in enumerate(fb)}

    p0 = next((w for w in fb if w.deg == 1), None)
    if p0 is None:
        raise UnsupportedError("the cover has no rational place in the factor base")

    k = len(fb)
    # deg p0 = 1, so dropping the p0 coordinate maps L0 onto Z^(k-1)
    p0_at = index[p0]
    degrees = [w.deg for w in fb]
    del degrees[p0_at]
    form = HermiteModD(k - 1, 2 * h)

    # sigma on Z^k, built once: the certified action below reads it too
    perm = _sigma_permutation(arith, fb)

    def apply_sigma(vec: list[int]) -> list[int]:
        out = [0] * k
        for i, v in enumerate(vec):
            out[perm[i]] = v
        return out

    def add_relation(div: dict[PlaceAbove, int], conjugates: int = 0) -> None:
        """Add div, then sigma^i(div) for i up to conjugates, until the
        index reaches h."""
        if any(w not in index for w in div):
            return
        vec = [0] * k
        for w, v in div.items():
            vec[index[w]] = v
        for i in range(conjugates + 1):
            if i:
                vec = apply_sigma(vec)
            form.add(vec[:p0_at] + vec[p0_at + 1:])
            if form.index == h:
                return

    def lift(vec: list[int]) -> list[int]:
        """The divisor of degree zero that drops to vec."""
        return vec[:p0_at] + [-sum(d * v for d, v in zip(degrees, vec))] + vec[p0_at:]

    for pi in pis:
        add_relation(arith.base_divisor(pi))

    # index h modulo 2h certifies L0 / (R + 2h L0) as Pic^0 (module docstring)
    if form.index != h:
        if m_bound > config.max_rr_degree:
            raise ResourceError(
                f"the try at (b, m) = ({b_bound}, {m_bound}) needs L(m P0) above the "
                f"cap max_rr_degree = {config.max_rr_degree}")
        basis, den = riemann_roch_basis(arith, p0, m_bound, genus)
        tried = 0
        for cand in _candidate_functions(field, basis, config.max_candidates):
            tried += 1
            div = arith.divisor_of(cand, b_bound, extra_bases=critical, den=den)
            if div is not None:
                # div(sigma^i z) = sigma^i(div z); the sum over all n of them
                # is div N(z), so the last conjugate is left out
                add_relation(div, curve.n - 2)
                if form.index == h:
                    break
    if form.index != h:
        # the projective points of L(m P0), which holds q^dim - 1 nonzero functions
        points = (field.order**len(basis) - 1) // (field.order - 1)
        stop = (f"{tried} of {points} candidate functions, stopped by max_candidates = "
                f"{config.max_candidates}" if tried < points else
                f"all {points} candidate functions")
        return (f"the last try, at (b, m) = ({b_bound}, {m_bound}) with k = {k} "
                f"factor-base places, reached Hermite index {form.index} against h = {h} "
                f"after {stop}")

    rows = form.rows
    pres = QuotientPresentation(rows, k - 1)
    group = pres.group
    if group.order != h:
        raise InconsistencyError(
            f"Hermite index {h} but the presentation has order {group.order}")

    def sigma_on_l0(vec: list[int]) -> list[int]:
        out = apply_sigma(lift(vec))
        del out[p0_at]
        return out

    sigma = AbHom(group, group, pres.induced_matrix(
        from_columns([sigma_on_l0(e) for e in identity_matrix(k - 1)], k - 1)))
    # sigma(p0) - p0 with its p0 coordinate dropped
    sigma_p0 = [0] * k
    sigma_p0[perm[p0_at]] = 1
    del sigma_p0[p0_at]
    return PicardData(
        group=group,
        sigma_action=sigma,
        h=h,
        l_poly=list(l_coeffs),
        factor_base=fb,
        _relations=[lift(row) for row in rows],
        _pres0=pres,
        _p0=p0,
        _sigma_p0=pres.coords(sigma_p0),
        _arith=arith,
    )


def _sigma_permutation(arith, fb):
    """Index map w -> sigma(w) on the factor base.

    The generator acts by y -> zeta y + beta, so it moves the place whose
    residue of Y is r to the one where it is (r - beta) / zeta.  The
    engine numbers the places above a base by orbit position, labels[k] =
    zeta labels[k-1] + beta, so sigma(w) is the place just before w in
    LocalEngine.places: the shift k -> k - 1 (mod n).  Above any other
    base that list holds w alone, and sigma fixes it.
    """
    index = {w: i for i, w in enumerate(fb)}
    perm = []
    for w in fb:
        places = arith.engine(w.base).places
        j = index.get(places[places.index(w) - 1])
        if j is None:
            raise InconsistencyError("factor base is not Galois stable")
        perm.append(j)
    return perm


# ---------------------------------------------------------------------------
# derived quantities, all on Pic = Pic^0 + Z p0 (module docstring)

def galois_invariants(pd: PicardData) -> FinAbGroup:
    """J_K^G: the kernel of (sigma - 1) on the certified Pic^0."""
    return invariants_of(pd.group, pd.sigma_action)


def invariants_of(group: FinAbGroup, action: AbHom) -> FinAbGroup:
    mat = [list(r) for r in action.matrix]
    for i in range(group.rank):
        mat[i][i] -= 1
    inv, _ = kernel(AbHom(group, group, tuple(tuple(r) for r in mat)))
    return inv


def _pic_class(pd: PicardData, divisor: dict) -> list[int]:
    """(Pic^0 coordinates of D - deg D p0, deg D) for a factor-base divisor D."""
    vec = [0] * len(pd.factor_base)
    deg = 0
    for w, mult in divisor.items():
        vec[pd.place_index(w)] += mult
        deg += mult * w.deg
    # D and D - deg D p0 have the same image once the p0 coordinate is dropped
    del vec[pd.place_index(pd._p0)]
    return list(pd._pres0.coords(vec)) + [deg]


@dataclass(frozen=True)
class SClassGroup:
    """C_{K,S} for a set S of base places, presented once as Z^(r+1) / L.

    S_K is every place of K above S, so it is Galois stable.  L holds the
    invariant factors of Pic^0 and the classes of the places of S_K, group
    is the quotient in invariant-factor form and action the induced sigma
    (module docstring).  class_of reads any factor-base divisor in its
    coordinates.
    """

    group: FinAbGroup
    action: AbHom
    s_bases: tuple
    pd: PicardData = dataclass_field(repr=False)
    _pres: QuotientPresentation = dataclass_field(repr=False)

    def class_of(self, divisor: dict) -> tuple:
        """The coordinates in C_{K,S} of a factor-base divisor of K."""
        return self._pres.coords(_pic_class(self.pd, divisor))


def s_class_group(pd: PicardData, s_bases) -> SClassGroup:
    """Pic modulo the classes of the places above S, with the induced action.

    A place above S outside the factor base raises UnsupportedError.
    """
    den = [col + [0] for col in pd.group.relation_columns()]
    den += [_pic_class(pd, {w: 1}) for base in s_bases for w in pd._arith.places_above(base)]
    pres = QuotientPresentation(den, pd.group.rank + 1)
    sigma = [list(row) + [c] for row, c in zip(pd.sigma_action.matrix, pd._sigma_p0)]
    sigma.append([0] * pd.group.rank + [1])
    return SClassGroup(pres.group, AbHom(pres.group, pres.group, pres.induced_matrix(sigma)),
                       tuple(s_bases), pd, pres)


def delta_prime(pd: PicardData) -> int:
    """gcd of the degrees of Galois-invariant classes in the full Pic.

    (a, d) is invariant when (sigma - 1) a = -d c, c the class of
    sigma(p0) - p0, so delta' is the order of c in the coinvariants
    Pic^0 / (sigma - 1) Pic^0, a subgroup order.
    """
    rank = pd.group.rank
    sigma_minus_1 = pd.sigma_action.matrix_rows()
    for i in range(rank):
        sigma_minus_1[i][i] -= 1
    return subgroup_order(pd.group.relation_columns() + columns(sigma_minus_1),
                          [pd._sigma_p0], rank)


def base_class_number(s_bases) -> int:
    """h_{F,S} over the rational base: Pic(P^1) = Z modulo the degrees of S."""
    check_s_bases(s_bases)
    return gcd_list([b.degree for b in s_bases])


def strongly_ambiguous_order(cks: SClassGroup) -> int:
    """Order of the subgroup of C_{K,S} generated by classes of
    Galois-invariant divisors (the transgressive ambiguous classes).

    The places above a base are one Galois orbit (module docstring), and
    the factor base holds all of them or none, as they share one degree.
    So the invariant divisors are spanned by one orbit sum per base: the
    sum of the factor-base places above it.  The subgroup has order
    |C_{K,S}| / |C_{K,S} / <orbit sums>|.
    """
    orbit_sums: dict[BasePlace, dict[PlaceAbove, int]] = {}
    for w in cks.pd.factor_base:
        orbit_sums.setdefault(w.base, {})[w] = 1
    rank = cks.group.rank
    classes = cks.group.relation_columns() + [cks.class_of(div) for div in orbit_sums.values()]
    return cks.group.order // finite_quotient(identity_matrix(rank), classes, rank).order


def capitulation_kernel_order(cks: SClassGroup) -> int:
    """|ker j| for j: C_{F,S} -> C_{K,S}, the extension of classes.

    C_{F,S} = Pic(P^1) / <S> is cyclic of order h_FS = gcd(deg v : v in
    S), generated by any divisor of degree one, such as the place at
    infinity.  j sends it to the class of its conorm, the e-weighted sum of
    the places above infinity, so |ker j| = h_FS / |j(C_{F,S})|.
    """
    source = FinAbGroup.of(base_class_number(cks.s_bases))
    image = cks.class_of(cks.pd._arith.conorm(INFINITE))
    try:
        j = AbHom(source, cks.group, tuple((x,) * source.rank for x in image))
    except ValidationError as exc:
        raise InconsistencyError(
            f"j: C_F,S -> C_K,S is not well defined: h_FS = {source.order} does not "
            f"kill the class of the conorm of infinity") from exc
    return source.order // image_order(j)


def check_s_bases(s_bases) -> None:
    """Raise a ValidationError when S is empty or lists a base place twice;
    S is a nonempty set, and a repeated place would count twice above it."""
    if not s_bases:
        raise ValidationError("S must be nonempty")
    for i, base in enumerate(s_bases):
        if base in s_bases[:i]:
            raise ValidationError(f"S lists the place {base.id} twice")


def realize_profile(curve, s_bases, degree_bound: int | None = None,
                    config: OracleConfig = DEFAULT_CONFIG,
                    pd: PicardData | None = None) -> tuple[ExtensionProfile, PicardData]:
    """Emit the ExtensionProfile of the cover for a base place set S.

    Local data comes from the splitting machinery, h_KS from the certified
    S-class group; the constant field is preserved for every supported
    cover, so q' = q, and h_FS is the class number of the rational base
    relative to S (the gcd of the S-degrees).
    """
    s_bases = list(s_bases)
    check_s_bases(s_bases)
    if pd is None:
        pd = picard_group(curve, degree_bound, extra_base_places=s_bases, config=config)
    profile, _ = profile_and_s_classes(curve, s_bases, pd)
    return profile, pd


def profile_and_s_classes(curve, s_bases: list, pd: PicardData):
    """(profile, C_{K,S}) for S: the one build of the S-class group behind
    realize_profile and verify.oracle_report."""
    # the places of S, then the ramified places outside S in sort_key order
    ram_outside = [r.place for r in ramification_data(curve)[0] if r.place not in s_bases]
    places = []
    for base in s_bases + ram_outside:
        data = local_invariants(curve, base)
        places.append(PlaceProfile(
            id=base.id, in_S=base in s_bases, e=data.e, f=data.f, deg=base.degree))
    cks = s_class_group(pd, s_bases)
    profile = ExtensionProfile(
        base=FunctionField(curve.field.order),
        n=curve.n,
        group=CYCLIC,
        places=tuple(places),
        h_FS=base_class_number(s_bases),
        h_KS=cks.group.order,
        q_prime=curve.field.order,
    )
    return profile, cks
