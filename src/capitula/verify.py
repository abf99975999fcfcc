"""Cross-verification suites: every formula calculator is replayed against
the brute-force oracle, and the exact-arithmetic layers against exhaustive
or randomized independent computations.

Each check produces a verdict naming the identity it tests (by its
classical description), the expected and actual values, and an exact
pass/fail.  The three suites back the `capitula verify` command:

  abelian     exhaustive order law for the local sum-map kernel, and its
              structure by the elements each m | D kills
  cohomology  Herbrand quotients, H^1 and H^0-hat structures counted
              over the module, Hilbert 90; H^1 over non-cyclic groups by
              crossed homomorphisms and equivariant Homs by enumeration
  corpus      the full oracle pipeline on every shipped curve, for three
              S sets each
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from math import gcd, lcm, prod

from .abelian import FinAbGroup, sum_map_kernel
from .cohomology import (
    AbelianGroup,
    Cyclic,
    GModule,
    h1_cyclic,
    h_general,
    herbrand_quotient,
    hom_g_dual,
    multiplicative_group_module,
    tate_h0,
)
from .errors import CapitulaError, ValidationError
from .formulas import analyze_profile, chevalley_ff, order_relation_check
from .fforacle import (
    BasePlace,
    INFINITE,
    OracleConfig,
    Poly,
    capitulation_kernel_order,
    check_s_bases,
    corpus,
    delta_prime,
    galois_invariants,
    invariants_of,
    monic_irreducibles,
    picard_group,
    profile_and_s_classes,
    ramification_data,
    strongly_ambiguous_order,
    zeta_functional_equation_holds,
)
from .profile import ExtensionProfile


@dataclass(frozen=True)
class Verdict:
    check: str
    anchor: str
    expected: object
    actual: object
    passed: bool

    def to_json(self):
        return {
            "check": self.check,
            "anchor": self.anchor,
            "expected": self.expected,
            "actual": self.actual,
            "pass": self.passed,
        }


def _verdict(check, anchor, expected, actual):
    return Verdict(check, anchor, expected, actual, expected == actual)


def _factors(group: FinAbGroup | None):
    return None if group is None else list(group.invariant_factors)


def _bound(analysis, key: str):
    """The value of an analyze_profile bound, None where the analysis left
    it out, so that a verdict whose case verify decides reads FAIL."""
    bound = analysis.bounds.get(key)
    return None if bound is None else bound.value


# ---------------------------------------------------------------------------
# oracle pipeline on one curve

@dataclass
class OracleReport:
    curve_json: dict
    q: int
    n: int
    kind: str
    genus: int
    ramification: list
    l_polynomial: list
    class_number: int
    pic0: list
    sigma: list
    jg_invariants: list
    s_ids: list
    s_k_count: int
    s_class_group: list
    s_class_invariants: list
    h_KS: int
    h_FS: int
    delta: int
    delta_prime: int
    m_invariant: int | None
    gamma_order: int
    profile: ExtensionProfile
    verdicts: list[Verdict]

    @property
    def all_passed(self):
        return all(v.passed for v in self.verdicts)


def splitting_degree_sum_holds(arith, base) -> bool:
    """Sum of e_w * f_w over the places the oracle builds above base is n.

    The places are the ones every divisor is computed on, so a local
    engine that misses places of a decomposition fails this check.
    """
    return sum(w.e * w.f for w in arith.engine(base).places) == arith.curve.n


def oracle_report(curve, s_bases=(INFINITE,), degree_bound=None,
                  config: OracleConfig = OracleConfig()) -> OracleReport:
    """Run the full oracle pipeline and every applicable cross-check.

    The calculators' side of every verdict comes from one
    analyze_profile of the realized profile, the run that `capitula
    analyze` makes, so d_v, D, n0 and |B| are derived on that profile
    (ExtensionProfile) and nowhere here; the oracle's side is read off the
    certified Pic^0 and the one S-class group built for S.  Whether the
    imaginary and semisimple cases apply is decided here, from q, n and
    h_KS, so a case the analysis leaves out reads FAIL.
    """
    from .fforacle.curves import curve_to_json

    s_bases = list(s_bases)
    check_s_bases(s_bases)
    ram, g = ramification_data(curve)
    pd = picard_group(curve, degree_bound, extra_base_places=s_bases, config=config)
    profile, cks = profile_and_s_classes(curve, s_bases, pd)
    analysis = analyze_profile(profile)
    q = curve.field.order
    n = curve.n

    verdicts: list[Verdict] = []
    verdicts.append(_verdict(
        "zeta_functional_equation", "functional equation of the zeta numerator",
        True, zeta_functional_equation_holds(pd.l_poly, g, q)))
    verdicts.append(_verdict(
        "class_number_certificate", "presented class group order equals L(1)",
        pd.h, pd.group.order))

    sample_bases = {INFINITE} | {r.place for r in ram} | set(s_bases)
    split_ok = all(splitting_degree_sum_holds(pd._arith, b) for b in sample_bases)
    verdicts.append(_verdict(
        "splitting_degree_sum", "sum of e*f over places above v equals n",
        True, split_ok))

    cks_invariants = invariants_of(cks.group, cks.action)
    jg = galois_invariants(pd)
    h_fs = profile.h_FS

    dlt = analysis.ff_invariants["delta"]
    dp = delta_prime(pd)
    verdicts.append(_verdict(
        "period_index_chain", "period divides index divides degree",
        True, dlt % dp == 0 and n % dlt == 0))

    m_inv = analysis.ff_invariants["m"]
    verdicts.append(_verdict(
        "ramification_congruence",
        "cyclic constraint on ramification degrees and indices",
        True, analysis.flags.get("prop86")))

    # ambiguous class number formula, both sides computed independently
    unit_module = GModule.trivial_action(Cyclic(n), FinAbGroup.of(q - 1))
    h1_const = h1_cyclic(unit_module).order
    h2_const = tate_h0(unit_module).order
    if ram:
        if (h2_const * m_inv) % (q - 1):
            raise CapitulaError("constant-field cohomology identity broke")
        h1_kmod = (h2_const * m_inv) // (q - 1)
        predicted = chevalley_ff(1, h1_kmod, [r.e for r in ram], n, dp, h1_const)
        verdicts.append(_verdict(
            "ambiguous_class_number_formula",
            "invariant classes from the class-number formula vs the group computation",
            predicted, jg.order))

    one_place_above_s = profile.s_k_count() == 1
    ram_outside = [p for p in profile.places if p.ramified and not p.in_S]
    if one_place_above_s and gcd(n, q - 1) == 1:
        # the imaginary case, decided here so that an analysis that skips
        # it reads FAIL; a Kummer cover never gets here (n | q - 1), so an
        # elementary abelian structure is the Artin-Schreier one
        verdicts.append(_verdict(
            "ambiguous_class_order",
            "imaginary case: ambiguous classes count h_FS * prod e_v",
            _bound(analysis, "ambiguous_order"), cks_invariants.order))
        class_module = GModule.cyclic(n, cks.group, cks.action.matrix)
        verdicts.append(_verdict(
            "class_h1_is_sum_map_kernel",
            "imaginary case: H^1 of S-classes vs the local sum-map kernel",
            _factors(analysis.structures.get("h1_class")),
            _factors(h1_cyclic(class_module))))
        if h_fs == 1:
            # an Artin-Schreier cover has prime degree p and e_v = p at
            # every ramified place, the shape of the elementary abelian case
            verdicts.append(_verdict(
                "artin_schreier_ambiguous_structure",
                "imaginary Artin-Schreier: ambiguous classes are elementary abelian",
                _factors(analysis.structures.get("imaginary_CKG")), _factors(cks_invariants)))

    if one_place_above_s:
        # with one place above S the S-units are the constants, so the
        # exact order identities tying capitulation to unit cohomology
        # are fully computable
        ker_j = capitulation_kernel_order(cks)
        trans = strongly_ambiguous_order(cks)
        image_j = h_fs // ker_j
        coker_jprime = trans // image_j
        first, second = order_relation_check(
            ker_j, h1_const, coker_jprime,
            [p.e for p in ram_outside], h2_const,
            [p.local_degree for p in profile.places if p.in_S], n)
        verdicts.append(_verdict(
            "capitulation_order_relation",
            "kernel times ramified product equals unit H^1 times coker",
            True, first))
        verdicts.append(_verdict(
            "unit_herbrand_relation",
            "n times unit H^0-hat equals unit H^1 times local S-degrees",
            True, second))

    verdicts.append(_verdict(
        "hilbert94_consistency",
        "the Hilbert 94 lower bound n0/gcd(n0, prod d_v/D) is 1",
        1, _bound(analysis, "hilbert94")))
    if gcd(n, profile.h_KS) == 1:
        verdicts.append(_verdict(
            "semisimple_kernel_order",
            "coprime-degree case: kernel order is exactly n0, here 1",
            [1, 1], [_bound(analysis, "ker_j_exact"), analysis.n0]))

    return OracleReport(
        curve_json=curve_to_json(curve),
        q=q, n=n, kind=curve.kind, genus=g,
        ramification=[{"place": r.place.id, "e": r.e,
                       "different_exponent": r.different_exponent,
                       "degree": r.place.degree} for r in ram],
        l_polynomial=list(pd.l_poly),
        class_number=pd.h,
        pic0=_factors(pd.group),
        sigma=[list(r) for r in pd.sigma_action.matrix],
        jg_invariants=_factors(jg),
        s_ids=[b.id for b in s_bases],
        s_k_count=profile.s_k_count(),
        s_class_group=_factors(cks.group),
        s_class_invariants=_factors(cks_invariants),
        h_KS=profile.h_KS,
        h_FS=h_fs,
        delta=dlt,
        delta_prime=dp,
        m_invariant=m_inv,
        gamma_order=dlt // dp,
        profile=profile,
        verdicts=verdicts,
    )


# ---------------------------------------------------------------------------
# suites

def verify_abelian() -> list[Verdict]:
    """Exhaustive order and structure law for the local sum-map kernel.

    A group of exponent dividing D is determined by how many of its
    elements each m | D kills, so the structure verdict compares those
    counts over the enumerated kernel with prod gcd(m, e_i) over the
    invariant factors e_i of the returned group.
    """
    verdicts = []
    order_ok = True
    structure_ok = True
    checked = 0
    for r in range(1, 5):
        for d in product(range(1, 7), repeat=r):
            big_d = lcm(*d)
            group = sum_map_kernel(list(d), big_d)
            checked += 1
            if group.order != prod(d) // big_d:
                order_ok = False
            elements = [x for x in product(*map(range, d))
                        if sum(xv * (big_d // dv) for xv, dv in zip(x, d)) % big_d == 0]
            for m in range(1, big_d + 1):
                if big_d % m:
                    continue
                killed = sum(all(m * xv % dv == 0 for xv, dv in zip(x, d)) for x in elements)
                if killed != prod(gcd(m, e) for e in group.invariant_factors):
                    structure_ok = False
    verdicts.append(_verdict(
        "sum_map_kernel_order_law",
        f"kernel order is (prod d)/lcm(d) on {checked} vectors",
        True, order_ok))
    verdicts.append(_verdict(
        "sum_map_kernel_enumeration",
        "for every m | D, the kernel elements killed by m, counted by enumeration,"
        " number prod gcd(m, e_i) over the invariant factors e_i",
        True, structure_ok))
    return verdicts


def verify_cohomology(samples: int = 200, seed: int = 20260810) -> list[Verdict]:
    """Herbrand quotient, Tate groups by enumeration, and Hilbert 90 checks."""
    verdicts = []
    rng = random.Random(seed)
    # Z/8 on Z/2 x Z/4 by [[1, 1], [0, 1]]: H^1 = Z/4 but H^0-hat = (Z/2)^2,
    # so only a comparison of structures tells the two degrees apart
    modules = [GModule.cyclic(8, FinAbGroup((2, 4)), ((1, 1), (0, 1)))]
    modules += [_random_cyclic_module(rng) for _ in range(samples)]
    hq_ok = all(herbrand_quotient(m) == 1 for m in modules)
    h1_ok = True
    h0_ok = True
    for m in modules:
        h1, h0 = _cyclic_tate_by_enumeration(m)
        h1_ok = h1_ok and h1_cyclic(m) == h1
        h0_ok = h0_ok and tate_h0(m) == h0
    verdicts.append(_verdict(
        "herbrand_quotient_one",
        f"Herbrand quotient equals 1 on {len(modules)} finite modules",
        True, hq_ok))
    verdicts.append(_verdict(
        "h1_structure",
        "H^1 has the invariant factors of ker N / (sigma - 1) M, counted over M",
        True, h1_ok))
    verdicts.append(_verdict(
        "tate_periodicity",
        "H^2 = H^0-hat has the invariant factors of M^G / N M, counted over M",
        True, h0_ok))
    h90_ok = True
    for q in (2, 3, 4):
        for n in (2, 3):
            if not h1_cyclic(multiplicative_group_module(q, n)).is_trivial():
                h90_ok = False
    verdicts.append(_verdict(
        "hilbert_90",
        "H^1 of the multiplicative group under Frobenius vanishes",
        True, h90_ok))
    gcd_ok = all(
        h1_cyclic(GModule.trivial_action(Cyclic(n), FinAbGroup.of(m))).order == gcd(n, m)
        for n in range(1, 13) for m in range(2, 13)
    )
    verdicts.append(_verdict(
        "trivial_action_h1_gcd",
        "H^1 with trivial action on Z/m has order gcd(n, m)",
        True, gcd_ok))
    verdicts += _noncyclic_verdicts(rng)
    return verdicts


NONCYCLIC_GROUPS = ((2, 2), (2, 4), (2, 2, 2), (3, 3))


def _noncyclic_verdicts(rng) -> list[Verdict]:
    """h_general H^1 and hom_g_dual over non-cyclic G against enumeration."""
    h1_ok = True
    hom_ok = True
    for orders in NONCYCLIC_GROUPS:
        modules = [_random_module(rng, orders) for _ in range(12)]
        for m in modules:
            h1_ok = h1_ok and h_general(m, 1) == _crossed_h1_by_enumeration(m)
        # neighbours, often of coprime orders, and each module with itself
        for a, mu in list(zip(modules, modules[1:])) + [(m, m) for m in modules]:
            hom_ok = hom_ok and hom_g_dual(a, mu) == _equivariant_homs_by_enumeration(a, mu)
    groups = ", ".join(" x ".join(f"Z/{n}" for n in orders) for orders in NONCYCLIC_GROUPS)
    return [
        _verdict("noncyclic_h1_structure",
                 f"H^1 over {groups} has the invariant factors of crossed "
                 "homomorphisms on the generators modulo principal ones, counted over M",
                 True, h1_ok),
        _verdict("equivariant_hom_structure",
                 "Hom_G(A, mu) has the invariant factors of the equivariant maps, "
                 "counted over all maps A -> mu",
                 True, hom_ok),
    ]


def _module_elements(m: GModule):
    """The elements of M and, per generator s_i, the dict x -> s_i x."""
    fs = m.module.invariant_factors
    elements = list(product(*(range(f) for f in fs)))
    acts = [{x: tuple(sum(a * b for a, b in zip(row, x)) % f for row, f in zip(mat, fs))
             for x in elements} for mat in m.action]
    return elements, acts


def _crossed_h1_by_enumeration(m: GModule) -> FinAbGroup:
    """H^1 for G = <s_i | s_i^(n_i), [s_i, s_j]>, over the elements of M.

    A crossed homomorphism f is fixed by m_i = f(s_i), and the relators
    ask N_i m_i = 0 and m_i + s_i m_j = m_j + s_j m_i; the principal ones
    are m_i = (s_i - 1) x.  Each tuple (m_1, ..., m_r) is one element of M^r.
    """
    fs = m.module.invariant_factors
    elements, acts = _module_elements(m)

    def add(x, y):
        return tuple((a + b) % f for a, b, f in zip(x, y, fs))

    def norm_kills(x, act, n):
        total, cur = x, act[x]
        for _ in range(n - 1):
            total, cur = add(total, cur), act[cur]
        return not any(total)

    choices = [[x for x in elements if norm_kills(x, act, n)]
               for act, n in zip(acts, m.group.generator_orders)]
    r = len(acts)
    cocycles = [
        sum(ms, ()) for ms in product(*choices)
        if all(add(ms[i], acts[i][ms[j]]) == add(ms[j], acts[j][ms[i]])
               for i in range(r) for j in range(i + 1, r))]
    principal = {sum((tuple((a - b) % f for a, b, f in zip(act[x], x, fs)) for act in acts), ())
                 for x in elements}
    return _subquotient_by_enumeration(cocycles, principal, fs * r)


def _equivariant_homs_by_enumeration(a: GModule, mu: GModule) -> FinAbGroup:
    """Hom_G(A, mu) by trying every map on the generators of A: the images
    h(e_j) in mu with afs[j] h(e_j) = 0, kept when h(s e_j) = s h(e_j) for
    every generator s."""
    afs, mfs = a.module.invariant_factors, mu.module.invariant_factors
    mu_elements, mu_acts = _module_elements(mu)
    images = [[y for y in mu_elements if not any(af * c % f for c, f in zip(y, mfs))]
              for af in afs]

    def apply(h, x):
        return tuple(sum(h[j][i] * c for j, c in enumerate(x)) % f for i, f in enumerate(mfs))

    homs = [
        sum(h, ()) for h in product(*images)
        if all(apply(h, [row[j] for row in p]) == q[h[j]]
               for p, q in zip(a.action, mu_acts) for j in range(len(afs)))]
    zero = tuple(0 for _ in afs for _ in mfs)
    return _subquotient_by_enumeration(homs, {zero}, mfs * len(afs))


def _cyclic_tate_by_enumeration(m: GModule) -> tuple[FinAbGroup, FinAbGroup]:
    """(ker N / (sigma - 1) M, M^G / N M) for cyclic G, over the elements of M."""
    fs, sigma = m.module.invariant_factors, m.action[0]
    elements = list(product(*(range(f) for f in fs)))
    act = {x: tuple(sum(a * b for a, b in zip(row, x)) % f for row, f in zip(sigma, fs))
           for x in elements}
    norm = {}
    for x in elements:
        total, cur = [0] * len(fs), x
        for _ in range(m.group.order):
            total, cur = [(t + c) % f for t, c, f in zip(total, cur, fs)], act[cur]
        norm[x] = tuple(total)
    zero = tuple(0 for _ in fs)
    norm_kernel = [x for x in elements if norm[x] == zero]
    sigma_minus_one = {tuple((a - b) % f for a, b, f in zip(act[x], x, fs)) for x in elements}
    fixed = [x for x in elements if act[x] == x]
    return (_subquotient_by_enumeration(norm_kernel, sigma_minus_one, fs),
            _subquotient_by_enumeration(fixed, set(norm.values()), fs))


def _subquotient_by_enumeration(num, den, fs) -> FinAbGroup:
    """num / den for subgroups den <= num of Z/f_1 x ... x Z/f_k.

    The p-part of the structure is read off the counts |(num/den)[p^j]|:
    the number of cyclic pieces of order at least p^j is the base-p
    logarithm of |(num/den)[p^j]| / |(num/den)[p^(j-1)]|.
    """
    order = len(num) // len(den)
    pieces = []
    p = 2
    while order > 1:
        if order % p:
            p += 1
            continue
        while order % p == 0:
            order //= p
        at_least = []  # at_least[j-1]: pieces of order >= p^j
        below, step = 1, p
        while True:
            count = sum(tuple(step * a % f for a, f in zip(x, fs)) in den
                        for x in num) // len(den)
            if count == below:
                break
            ratio, rank = count // below, 0
            while ratio > 1:
                ratio //= p
                rank += 1
            at_least.append(rank)
            below, step = count, step * p
        pieces += [p ** sum(r > i for r in at_least) for i in range(at_least[0])]
    return FinAbGroup.of(*pieces)


def _random_module(rng, orders) -> GModule:
    """A module of order at most 16 over Z/n_1 x ... x Z/n_r: one unit of
    order dividing n_i per coordinate, now and then one entry off the
    diagonal; trivial when forty draws fail the GModule checks."""
    group = AbelianGroup(orders)
    module = FinAbGroup(rng.choice(((2,), (3,), (4,), (5,), (7,), (8,), (9,),
                                    (2, 2), (2, 4), (3, 3), (2, 6), (4, 4))))
    fs = module.invariant_factors
    k = len(fs)
    for _ in range(40):
        action = []
        for n in orders:
            mat = [[0] * k for _ in range(k)]
            for i, f in enumerate(fs):
                mat[i][i] = rng.choice([u for u in range(1, f)
                                        if gcd(u, f) == 1 and pow(u, n, f) == 1])
            i, j = rng.randrange(k), rng.randrange(k)
            if i != j and rng.random() < 0.5:
                mat[i][j] = rng.randrange(fs[i])
            action.append(tuple(map(tuple, mat)))
        try:
            return GModule(group, module, tuple(action))
        except ValidationError:
            continue
    return GModule.trivial_action(group, module)


def _random_cyclic_module(rng) -> GModule:
    n = rng.randint(1, 12)
    factors = []
    d = rng.choice([2, 2, 2, 3, 3, 4, 5, 6])
    order = d
    factors.append(d)
    while rng.random() < 0.55:
        nxt = factors[-1] * rng.choice([1, 1, 2, 2, 3, 4])
        if order * nxt > 100:
            break
        factors.append(nxt)
        order *= nxt
    module = FinAbGroup(tuple(factors))
    k = len(factors)
    for _ in range(40):
        mat = [[0] * k for _ in range(k)]
        for i in range(k):
            units = [u for u in range(1, factors[i])
                     if gcd(u, factors[i]) == 1 and pow(u, n, factors[i]) == 1]
            mat[i][i] = rng.choice(units)
        i, j = rng.randrange(k), rng.randrange(k)
        if i < j and factors[i] == factors[j] and n % 2 == 0 and rng.random() < 0.5:
            mat[i][i] = mat[j][j] = 0
            mat[i][j] = mat[j][i] = 1
        elif i != j and rng.random() < 0.5:
            mat[i][j] = rng.randrange(factors[i])
        try:
            return GModule.cyclic(n, module, tuple(tuple(r) for r in mat))
        except ValidationError:
            continue
    return GModule.trivial_action(Cyclic(n), module)


def verify_corpus(config: OracleConfig = OracleConfig()) -> list[Verdict]:
    """The full oracle pipeline with every cross-check on each shipped curve.

    Each curve runs with S = {inf}, S = {inf, t} and S = {the first
    quadratic place}; the last has h_FS = 2, so the S-class quantities
    leave the case of a trivial base class group.
    """
    verdicts = []
    for entry in corpus():
        field = entry.curve.field
        s_sets = ([INFINITE], [INFINITE, BasePlace(Poly.x(field))],
                  [BasePlace(monic_irreducibles(field, 2)[0])])
        for s_bases in s_sets:
            report = oracle_report(entry.curve, s_bases, config=config)
            s_ids = ",".join(report.s_ids)
            for v in report.verdicts:
                verdicts.append(Verdict(f"{entry.name}[S={s_ids}]:{v.check}",
                                        v.anchor, v.expected, v.actual, v.passed))
    return verdicts


SUITES = {
    "abelian": verify_abelian,
    "cohomology": verify_cohomology,
    "corpus": verify_corpus,
}
