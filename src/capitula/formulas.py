"""Theorem-level calculators on extension profiles.

Every function here evaluates one exact order identity, divisibility bound
or structure statement about capitulation kernels/cokernels, ambiguous
classes, or the cohomology of S-units, as a function of the local data in
an ExtensionProfile plus whatever class-group orders the caller supplies.
Hypotheses that cannot be derived from local data (norm conditions, genus
field property, constants being preserved) are caller-asserted booleans:
nothing is ever silently assumed.

Bounds are tagged with a kind (lower_bound / divisor / exact) so reports
cannot conflate "at least" with "equals".

The local integers d_v, D, n0, |B| = (prod d_v)/D, the b-group B and the
pairwise coprimality of the d_v are derived once per profile, on
ExtensionProfile (profile module docstring); every calculator here reads
them there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, prod

from .abelian import FinAbGroup
from .arith import is_prime, lcm_list
from .errors import HypothesisError, InconsistencyError, ValidationError
from .profile import ExtensionProfile


def _require_cyclic(profile: ExtensionProfile, what: str):
    if not profile.group.is_cyclic:
        raise HypothesisError(f"{what} requires a cyclic extension")


def hilbert94_lower_bound(profile: ExtensionProfile) -> int:
    """Divisor of the capitulation kernel order for cyclic extensions:
    n0 / gcd(n0, (prod d_v)/D).  This many S-classes at least capitulate."""
    _require_cyclic(profile, "the capitulation kernel bound")
    n0 = profile.n0
    return n0 // gcd(n0, profile.b_order)


def b_group(profile: ExtensionProfile) -> FinAbGroup:
    """The kernel of the summation map on ⊕ Z/d_v -> Z/D, of order (prod d_v)/D.

    This group receives the relative Brauer classes supported outside the
    ideles of S, and controls the gap between coker j and H^2 of the units.
    The summation map is onto Z/D, a free Z/D-module, so it splits and
    ⊕ Z/d_v ≅ B ⊕ Z/D: B has the invariant factors of ⊕ Z/d_v but the
    last, D (abelian.sum_map_kernel).  It is built once per profile
    (ExtensionProfile.b_group).
    """
    return profile.b_group


@dataclass(frozen=True)
class SemisimpleReport:
    h2_units: FinAbGroup
    ker_j_order: int | None


def semisimple_report(profile: ExtensionProfile, h_KS: int) -> SemisimpleReport:
    """When n is prime to h_{K,S}: H^2(G, U_{K,S}) is exactly the b-group;
    for cyclic extensions the capitulation kernel order is exactly n0."""
    if gcd(profile.n, h_KS) != 1:
        raise HypothesisError(
            f"semisimple case needs gcd(n, h_KS) = 1, got gcd({profile.n}, {h_KS})"
        )
    structure = b_group(profile)
    ker_j = profile.n0 if profile.group.is_cyclic else None
    return SemisimpleReport(structure, ker_j)


def coker_lower_bound(profile: ExtensionProfile, units_are_norms: bool) -> int:
    """At least this many ambiguous S-classes do not come from the base,
    provided every S-unit of F is a norm from K: (prod d/D)/gcd(n0, prod d/D)."""
    if not units_are_norms:
        raise HypothesisError("caller must assert that U_{F,S} consists of norms")
    _require_cyclic(profile, "the capitulation cokernel bound")
    ratio = profile.b_order
    return ratio // gcd(profile.n0, ratio)


@dataclass(frozen=True)
class NormIndexReport:
    divisor_bound: int
    all_units_norms: bool


def norm_index_report(profile: ExtensionProfile) -> NormIndexReport:
    """[U_{F,S} : W_{F,S}] divides (prod d_v)/D; when the d_v are pairwise
    coprime every S-unit of F is a norm from K."""
    _require_cyclic(profile, "the norm index bound")
    return NormIndexReport(profile.b_order, profile.d_pairwise_coprime)


def genus_field_h1(h_F: int, e_list, class_exponent_condition: bool,
                   c_f: FinAbGroup | None = None) -> tuple[int, FinAbGroup | None]:
    """Order (and structure when determined) of H^1(G, U_K) for extensions
    equal to their own genus field: |H^1| = h_F * prod e_v.

    The structure is ⊕ Z/e_v for class number one.  Under the condition
    that every e_v-th power map is surjective on the class group it is
    C_F ⊕ ⊕ Z/e_v; the class group itself can be passed as c_f, and is
    inferred when its order determines it (squarefree h_F).
    """
    if h_F < 1:
        raise ValidationError("h_F must be positive")
    es = [int(e) for e in e_list]
    if any(e < 1 for e in es):
        raise ValidationError("ramification indices must be positive")
    if c_f is not None and c_f.order != h_F:
        raise ValidationError(f"supplied class group has order {c_f.order}, not {h_F}")
    order = h_F * prod(es)
    ram_part = FinAbGroup.of(*es)
    if h_F == 1:
        return order, ram_part
    if class_exponent_condition:
        if c_f is None and _squarefree(h_F):
            c_f = FinAbGroup.of(h_F)
        if c_f is not None:
            return order, c_f.direct_sum(ram_part)
    return order, None


def _squarefree(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class ImaginaryReport:
    ckg_order: int
    h1_class: FinAbGroup
    cor62_structure: FinAbGroup | None


def imaginary_report(profile: ExtensionProfile, h_FS: int) -> ImaginaryReport:
    """Imaginary function-field case: exactly one place of K above S and n
    prime to q'-1.

    Then |C_{K,S}^G| = h_{F,S} * prod of the e_v ramified outside S, and
    H^1(G, C_{K,S}) is the b-group.  In the degree-p Artin-Schreier shape
    over a rational base the ambiguous classes are elementary abelian:
    (Z/p)^r with r the number of finite ramified primes.
    """
    if not profile.is_function_field:
        raise HypothesisError("imaginary case applies to function fields")
    if profile.q_prime is None:
        raise HypothesisError("q_prime (constant field of K) is required")
    if profile.s_k_count() != 1:
        raise HypothesisError("need exactly one place of K above S")
    if gcd(profile.n, profile.q_prime - 1) != 1:
        raise HypothesisError(
            f"need gcd(n, q'-1) = 1, got gcd({profile.n}, {profile.q_prime - 1})"
        )
    ram = profile.ramified_outside_s
    ckg_order = h_FS * prod(p.e for p in ram)
    h1_class = b_group(profile)
    cor62 = None
    if h_FS == 1 and is_prime(profile.n) and all(
        p.e == profile.n for p in profile.places if p.ramified
    ):
        cor62 = FinAbGroup.of(*([profile.n] * len(ram)))
    return ImaginaryReport(ckg_order, h1_class, cor62)


@dataclass(frozen=True)
class LargeSReport:
    b_order: int
    ker_j_is_h1_units: bool
    coker_j_is_sha2: bool
    cor72_applies: bool
    coker_j_is_full_h2: bool


def large_s_report(profile: ExtensionProfile) -> LargeSReport:
    """When S contains every ramified prime: ker j = H^1(G, U_{K,S}) and
    coker j is the Hasse-principle defect of H^2(G, U_{K,S}).

    With exactly one ramified prime and every other S-place split, the
    b-group is trivial, so the defect group is all of H^2.
    """
    if profile.ramified_outside_s:
        raise HypothesisError("S must contain every ramified place")
    b_order = profile.b_order
    ramified = [p for p in profile.places if p.ramified]
    cor72 = len(ramified) == 1 and all(
        p.local_degree == 1 for p in profile.places if not p.ramified
    )
    if cor72 and b_order != 1:
        raise ValidationError("a single ramified prime with split companions forces |B| = 1")
    return LargeSReport(
        b_order=b_order,
        ker_j_is_h1_units=True,
        coker_j_is_sha2=True,
        cor72_applies=cor72,
        coker_j_is_full_h2=cor72,
    )


def h1_class_lower_bound(profile: ExtensionProfile, h2_units_trivial: bool) -> int:
    """When H^2(G, U_{K,S}) vanishes, H^1(G, C_{K,S}) has at least
    (prod d_v)/D elements."""
    if not h2_units_trivial:
        raise HypothesisError("caller must assert that H^2(G, U_{K,S}) vanishes")
    return profile.b_order


def order_relation_check(ker_j: int, h1_units: int, coker_jprime: int, e_list,
                         h0_hat: int, local_degrees_S, n: int) -> tuple[bool, bool]:
    """The two exact order identities tying capitulation to unit cohomology:

        |ker j| * prod_{v in R\\S} e_v  =  |H^1(G,U)| * |coker j'|
        n * |H^0_hat(G,U)|             =  |H^1(G,U)| * prod_{v in S} [K_w:F_v]
    """
    for value in (ker_j, h1_units, coker_jprime, h0_hat, n):
        if value < 1:
            raise ValidationError("orders must be positive")
    first = ker_j * prod(int(e) for e in e_list) == h1_units * coker_jprime
    second = n * h0_hat == h1_units * prod(int(x) for x in local_degrees_S)
    return first, second


def delta_index(n: int, ram) -> int:
    """The index invariant: gcd of n with the (n/e_i) deg P_i over the
    ramified primes; n itself when nothing ramifies."""
    delta = n
    for e, deg in ram:
        e, deg = int(e), int(deg)
        if e < 1 or deg < 1:
            raise ValidationError("ramification data must be positive")
        if n % e:
            raise ValidationError(f"e={e} does not divide n={n}")
        delta = gcd(delta, (n // e) * deg)
    return delta


def m_invariant(q: int, ram) -> int:
    """The gcd of the local constants m(P_i) = gcd((q^deg-1)/gcd(q^deg-1, e), q-1)."""
    ram = list(ram)
    if not ram:
        raise ValidationError("m is undefined without ramified primes")
    m = 0
    for e, deg in ram:
        e, deg = int(e), int(deg)
        qd = q**deg - 1
        local = gcd(qd // gcd(qd, e), q - 1)
        m = gcd(m, local)
    return m


def prop86_check(q: int, n: int, ram) -> bool:
    """Realizability constraint on cyclic ramification data:
    (prod e_i)/lcm(e_i) must vanish mod (q-1)/m.  False means no cyclic
    extension of F_q(t) has this ramification."""
    ram = list(ram)
    if not ram:
        return True
    es = [int(e) for e, _ in ram]
    ratio = prod(es) // lcm_list(es)
    modulus = (q - 1) // m_invariant(q, ram)
    if modulus == 1:
        return True
    return ratio % modulus == 0


def chevalley_ff(jf_order: int, h1_kmod_order: int, e_list, n: int,
                 delta_prime: int, h1_const_order: int) -> int:
    """Ambiguous class number formula for divisor class groups:

        |J_K^G| = |J_F| * |H^1(G, K*/k'*)| * prod e_i / ((n/delta') * |H^1(G, k'*)|).

    Raises when the result is not an integer, which signals inconsistent
    inputs rather than a borderline case.
    """
    for value in (jf_order, h1_kmod_order, n, delta_prime, h1_const_order):
        if value < 1:
            raise ValidationError("orders must be positive")
    if n % delta_prime:
        raise ValidationError(f"delta'={delta_prime} must divide n={n}")
    numerator = jf_order * h1_kmod_order * prod(int(e) for e in e_list)
    denominator = (n // delta_prime) * h1_const_order
    if numerator % denominator:
        raise InconsistencyError(
            f"ambiguous class number {numerator}/{denominator} is not an integer"
        )
    return numerator // denominator


def rank_bound_87(s: int, ell: int, r: int) -> int:
    """Rank bound for elementary abelian covers with constants preserved:
    rank_ell(J_K^G) >= s(s+1)/2 - r, clamped at zero."""
    if not is_prime(ell):
        raise ValidationError(f"{ell} is not prime")
    if s < 1:
        raise ValidationError("s must be at least 1")
    if r < 0:
        raise ValidationError("r must be non-negative")
    return max(0, s * (s + 1) // 2 - r)


# ---------------------------------------------------------------------------
# aggregated report

@dataclass(frozen=True)
class Bound:
    value: int
    kind: str  # "lower_bound" | "divisor" | "exact"

    def to_json(self):
        return {"value": self.value, "kind": self.kind}


@dataclass
class FormulaReport:
    d_map: dict
    big_d: int | None
    n0: int | None
    b_group: FinAbGroup
    bounds: dict[str, Bound] = field(default_factory=dict)
    structures: dict[str, FinAbGroup] = field(default_factory=dict)
    ff_invariants: dict = field(default_factory=dict)
    flags: dict[str, bool] = field(default_factory=dict)


def analyze_profile(profile: ExtensionProfile, *, units_are_norms: bool = False,
                    h2_units_trivial: bool = False,
                    genus_field_condition: bool = False,
                    class_exponent_condition: bool = False) -> FormulaReport:
    """Run every calculator whose hypotheses hold on this profile.

    Data-derivable hypotheses (cyclicity, coprimality, S containing R,
    one place above S) are checked here; the rest come in as keyword
    assertions and default to off.
    """
    d_map = profile.d_map.copy()
    flags = {"cyclic": profile.group.is_cyclic}
    n0 = profile.n0 if profile.group.is_cyclic else None
    report = FormulaReport(
        d_map=d_map, big_d=profile.big_d, n0=n0, b_group=b_group(profile), flags=flags
    )
    flags["d_pairwise_coprime"] = profile.d_pairwise_coprime
    flags["large_S"] = not profile.ramified_outside_s

    if profile.group.is_cyclic:
        report.bounds["hilbert94"] = Bound(hilbert94_lower_bound(profile), "divisor")
        nir = norm_index_report(profile)
        report.bounds["norm_index_divisor"] = Bound(nir.divisor_bound, "divisor")
        flags["all_units_norms"] = nir.all_units_norms
        if units_are_norms or nir.all_units_norms:
            report.bounds["coker_lower"] = Bound(
                coker_lower_bound(profile, True), "lower_bound")
    if h2_units_trivial:
        report.bounds["h1_class_lower"] = Bound(
            h1_class_lower_bound(profile, True), "lower_bound")

    if profile.h_KS is not None:
        flags["semisimple"] = gcd(profile.n, profile.h_KS) == 1
        if flags["semisimple"]:
            semi = semisimple_report(profile, profile.h_KS)
            report.structures["semisimple_h2"] = semi.h2_units
            if semi.ker_j_order is not None:
                report.bounds["ker_j_exact"] = Bound(semi.ker_j_order, "exact")

    if flags["large_S"]:
        ls = large_s_report(profile)
        flags["cor72"] = ls.cor72_applies
        report.bounds["b_order"] = Bound(ls.b_order, "exact")

    if profile.is_function_field and profile.q_prime is not None:
        try:
            imaginary = profile.s_k_count() == 1 and gcd(profile.n, profile.q_prime - 1) == 1
        except ValidationError:
            imaginary = False
        flags["imaginary"] = imaginary
        if imaginary and profile.h_FS is not None:
            rep = imaginary_report(profile, profile.h_FS)
            report.bounds["ambiguous_order"] = Bound(rep.ckg_order, "exact")
            report.structures["h1_class"] = rep.h1_class
            if rep.cor62_structure is not None:
                report.structures["imaginary_CKG"] = rep.cor62_structure

    if genus_field_condition:
        # with S minimal (archimedean resp. one infinite place) h_FS is h_F
        h = profile.h_FS
        if h is not None:
            order, structure = genus_field_h1(
                h, [p.e for p in profile.ramified_outside_s], class_exponent_condition)
            report.bounds["genus_h1_order"] = Bound(order, "exact")
            if structure is not None:
                report.structures["genus_h1"] = structure

    if profile.is_function_field:
        ram = [(p.e, p.deg) for p in profile.places if p.ramified and p.deg is not None]
        all_deg_known = all(p.deg is not None for p in profile.places if p.ramified)
        if all_deg_known:
            q = profile.base.q
            report.ff_invariants["delta"] = delta_index(profile.n, ram)
            report.ff_invariants["m"] = m_invariant(q, ram) if ram else None
            # the period and the quotient of index by period need divisor
            # class data; only the oracle can fill them in
            report.ff_invariants["delta_prime"] = None
            report.ff_invariants["gamma_order"] = None
            if profile.group.is_cyclic:
                flags["prop86"] = prop86_check(q, profile.n, ram)
        constants_preserved = profile.q_prime == profile.base.q
        shape = profile.group
        if (constants_preserved and shape.kind == "abelian" and shape.orders
                and len(set(shape.orders)) == 1 and is_prime(shape.orders[0])
                and (profile.base.q - 1) % shape.orders[0] == 0):
            s = len(shape.orders)
            r = sum(1 for p in profile.places if p.ramified)
            report.bounds["rank87"] = Bound(
                rank_bound_87(s, shape.orders[0], r), "lower_bound")

    return report
