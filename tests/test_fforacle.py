import pytest

from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from capitula.abelian import AbHom, FinAbGroup, HermiteModD, QuotientPresentation, \
    finite_quotient, identity_matrix, mat_mul, preimage_generators
from capitula.cohomology import Cyclic, GModule, h1_cyclic
from capitula.errors import (
    DegenerateExtensionError,
    InconsistencyError,
    ResourceError,
    UnsupportedError,
    ValidationError,
)
from capitula.fforacle import (
    BasePlace,
    Cover,
    GF,
    INFINITE,
    Poly,
    RationalFunc,
    as_reduce,
    base_change,
    capitulation_kernel_order,
    corpus,
    corpus_entry,
    count_points,
    curve_from_json,
    curve_to_json,
    delta_prime,
    extension,
    galois_invariants,
    invariants_of,
    l_polynomial,
    local_invariants,
    monic_irreducibles,
    parse_base_place,
    parse_poly,
    picard_group,
    ramification_data,
    realize_profile,
    render_poly,
    s_class_group,
    splitting,
    strongly_ambiguous_order,
    zeta_functional_equation_holds,
)
from capitula.fforacle import zeta
from capitula.fforacle.curves import LocalData, ResiduePoint
from capitula.fforacle.gf import (
    IRREDUCIBLE_TABLE,
    MAX_FIELD_SIZE,
    ExtField,
    PrimeField,
    _prime_component,
    absolute_trace,
    multiplicative_order,
    pth_root,
)
from capitula.fforacle.picard import _sigma_permutation
from capitula.fforacle.poly import (
    _irreducibles_in_order,
    _is_irreducible,
    first_monic_irreducible,
)


F2, F3, F4 = GF(2), GF(3), GF(4)
T2, T3, T4 = Poly.x(F2), Poly.x(F3), Poly.x(F4)
ONE2, ONE3 = Poly.one(F2), Poly.one(F3)


def _valuation_at(rat, pi):
    """Order of a nonzero rational function at the finite place pi."""
    return rat.num.valuation(pi) or -rat.den.valuation(pi)


def _identity(group):
    return AbHom(group, group, tuple(map(tuple, identity_matrix(group.rank))))


def _tower(field):
    """The tuple tower over GF(p) whose element indices GF(q) tabulates."""
    p, k = field.char, field.degree_over_prime
    return ExtField(PrimeField(p), IRREDUCIBLE_TABLE[(p, k)])


def _over_tower(curve):
    """The same cover with its constants moved to the tower, index for index."""
    tower = _tower(curve.field)

    def move(rat):
        return RationalFunc(*(Poly(tower, map(tower.element_from_index, poly.coeffs))
                              for poly in (rat.num, rat.den)))

    if curve.kind == "artin_schreier":
        return Cover.artin_schreier(tower, move(curve.defining))
    return Cover.kummer(tower, curve.n, move(curve.defining))


class TestFiniteFields:
    def test_shipped_table_entries_are_irreducible(self):
        for (p, k), coeffs in IRREDUCIBLE_TABLE.items():
            base = PrimeField(p)
            poly = Poly(base, [base.from_int(c) for c in coeffs])
            assert poly.degree == k
            assert _is_irreducible(poly)

    def test_shipped_table_follows_the_first_irreducible_rule(self):
        for (p, k), coeffs in IRREDUCIBLE_TABLE.items():
            assert first_monic_irreducible(PrimeField(p), k).coeffs == coeffs, (p, k)

    def test_field_orders_and_arithmetic(self):
        for q in (2, 3, 4, 5, 8, 9):
            field = GF(q)
            assert field.order == q
            elems = field.elements()
            assert len(elems) == q
            for a in elems:
                if not field.is_zero(a):
                    assert field.mul(a, field.inv(a)) == field.one()

    def test_tower_extension(self):
        f16 = extension(F4, 2)
        assert f16.order == 16
        a = f16.generator()
        assert f16.mul(a, f16.inv(a)) == f16.one()
        assert all(f16.pow(pth_root(f16, e), 2) == e for e in f16.elements())

    def test_trace_is_additive_and_onto(self):
        for field in (F4, GF(8), GF(9)):
            values = {absolute_trace(field, e) for e in field.elements()}
            assert values == set(range(field.char))

    def test_multiplicative_order(self):
        f8 = GF(8)
        orders = sorted({multiplicative_order(f8, e)
                         for e in f8.elements() if not f8.is_zero(e)})
        assert orders == [1, 7]

    @pytest.mark.parametrize("p, k", sorted(pk for pk in IRREDUCIBLE_TABLE
                                            if pk[0]**pk[1] <= 256))
    def test_table_field_matches_the_tower(self, p, k):
        flat = GF(p**k)
        tower = _tower(flat)
        elems = tower.elements()
        index = tower.element_index
        for a, x in zip(flat.elements(), elems):
            assert flat.element_index(a) == a == index(x)
            assert flat.neg(a) == index(tower.neg(x))
            for e in (-3, -1, 0, 1, 2, 7, flat.order):
                if a or e >= 0:
                    assert flat.pow(a, e) == index(tower.pow(x, e)), (a, e)
            if a:
                assert flat.inv(a) == index(tower.inv(x))
            for op in ("add", "sub", "mul"):
                table_op, tower_op = getattr(flat, op), getattr(tower, op)
                assert [table_op(a, b) for b in flat.elements()] \
                    == [index(tower_op(x, y)) for y in elems], (op, a)

    @pytest.mark.parametrize("field", [extension(F3, 3), extension(F4, 2), extension(GF(9), 2)],
                             ids=["F3^3", "F4^2", "F9^2"])
    def test_extension_elements_and_inverses(self, field):
        from itertools import product

        # elements(): the product of the base's elements, sorted by index
        # (the most significant coordinate is the last)
        base_index = field.base.element_index
        tuples = [tuple(reversed(e)) for e in product(field.base.elements(), repeat=field.degree)]
        assert field.elements() == sorted(
            tuples, key=lambda a: tuple(base_index(c) for c in reversed(a)))
        # inv: the one b with a b = 1, found by brute force
        one = field.one()
        for a in field.elements()[1:]:
            assert field.inv(a) == next(b for b in field.elements() if field.mul(a, b) == one)
        with pytest.raises(ZeroDivisionError):
            field.inv(field.zero())

    def test_exp_table_hits_every_nonzero_index_once(self):
        for p, k in IRREDUCIBLE_TABLE:
            q = p**k
            if q <= MAX_FIELD_SIZE:
                assert sorted(GF(q)._exp[:q - 1]) == list(range(1, q)), q

    def test_prime_component_of_a_table_field(self):
        f9 = GF(9)
        assert [_prime_component(f9, a) for a in range(3)] == [0, 1, 2]
        with pytest.raises(ValidationError):
            _prime_component(f9, 3)

    def test_cap_applies_to_a_cached_field(self):
        assert GF(8).order == 8
        with pytest.raises(ResourceError):
            GF(8, max_size=4)


class TestPolyLayer:
    def test_irreducible_counts(self):
        # number of monic irreducibles of degree d over F_q
        assert len(monic_irreducibles(F2, 1)) == 2
        assert len(monic_irreducibles(F2, 2)) == 1
        assert len(monic_irreducibles(F2, 3)) == 2
        assert len(monic_irreducibles(F2, 4)) == 3
        assert len(monic_irreducibles(F3, 2)) == 3
        assert len(monic_irreducibles(F4, 2)) == 6

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_sieve_matches_rabin_filter(self, q):
        field = GF(q)
        for d in (1, 2, 3):
            assert monic_irreducibles(field, d) == list(_irreducibles_in_order(field, d)), d

    def test_render_parse_roundtrip(self):
        for text in ("t", "t+1", "t^2+t+1", "t^3+2*t+1"):
            poly = parse_poly(F3, text)
            assert render_poly(poly) == text

    @pytest.mark.parametrize("q, text, term", [(9, "t+12", "'12'"), (9, "t^2+10*t", "'10*t'"),
                                               (5, "t+5", "'5'")])
    def test_parse_rejects_indices_outside_the_field(self, q, text, term):
        import re

        with pytest.raises(ValidationError, match=re.escape(term)):
            parse_poly(GF(q), text)
        with pytest.raises(ValidationError, match=re.escape(term)):
            parse_base_place(GF(q), text)

    @pytest.mark.parametrize("text, term", [("t+a", "'a'"), ("t^x", "'t^x'"),
                                            ("2*s+1", "'2*s'"), ("t^", "'t^'"),
                                            ("t^-1", "'t^'")])
    def test_parse_rejects_malformed_terms(self, text, term):
        import re

        with pytest.raises(ValidationError, match=f"cannot parse term {re.escape(term)}"):
            parse_poly(GF(5), text)

    def test_parse_reads_negative_indices_below_q(self):
        field = GF(9)
        assert parse_poly(field, "t-1") == Poly(field, [field.neg(1), 1])
        assert parse_poly(F3, "t^2-2*t-1") == parse_poly(F3, "t^2+t+2")

    def test_parse_adds_terms_of_one_degree_in_the_field(self):
        # over GF(9) the indices 1 and 2 are the prime-field 1 and 2, and 1 + 2 = 0
        field = GF(9)
        assert parse_poly(field, "t+1+2") == Poly.x(field)
        assert parse_poly(field, "t+8+8") == Poly(field, [field.add(8, 8), 1])
        assert parse_poly(field, "t+3-3") == Poly.x(field)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3, 4, 5, 9, "tower9"]), st.data())
    def test_valuation_at_a_linear_place_matches_division(self, q, data):
        field = _tower(GF(9)) if q == "tower9" else GF(q)
        element = st.integers(min_value=0, max_value=field.order - 1).map(
            field.element_from_index)
        root = data.draw(element)
        lead = data.draw(element.filter(lambda c: not field.is_zero(c)))
        pi = Poly(field, [field.neg(field.mul(lead, root)), lead])  # lead * (t - root)
        cofactor = Poly(field, data.draw(st.lists(element, min_size=1, max_size=6)))
        if cofactor.is_zero():
            cofactor = Poly.one(field)
        poly = cofactor * pi**data.draw(st.integers(min_value=0, max_value=3))
        by_division, rest = 0, poly
        while True:
            quotient, remainder = rest.divmod(pi)
            if not remainder.is_zero():
                break
            by_division, rest = by_division + 1, quotient
        assert poly.valuation(pi) == by_division

    def test_rational_reciprocal_matches_infinity(self):
        rat = RationalFunc(T3**3 + ONE3, T3**2 + T3)
        assert _valuation_at(rat.reciprocal_substitution(), Poly.x(F3)) \
            == rat.valuation_at_infinity()

    @pytest.mark.parametrize("q", [2, 4, 5, 9])
    def test_reciprocal_substitution_matches_gcd_construction(self, q):
        import random

        field = GF(q)
        u = Poly.x(field)
        rng = random.Random(q)
        cases, seen = set(), 0
        for _ in range(150):
            coeffs = [[field.element_from_index(rng.randrange(q))
                       for _ in range(rng.randrange(1, 7))] for _ in range(2)]
            for cs in coeffs:
                if rng.random() < 0.4:
                    cs[0] = field.zero()  # t divides it
            num, den = (Poly(field, cs) for cs in coeffs)
            if den.is_zero():
                continue
            rat = RationalFunc(num, den)  # den need not be monic here
            dn, dd = rat.num.degree, rat.den.degree
            num_u, den_u = rat.num.reversed_coeffs(), rat.den.reversed_coeffs()
            expected = (RationalFunc(num_u * u**(dd - dn), den_u) if dd >= dn
                        else RationalFunc(num_u, den_u * u**(dn - dd)))
            got = rat.reciprocal_substitution()
            assert (got.num, got.den) == (expected.num, expected.den), rat
            assert got.reciprocal_substitution() == rat
            seen += 1
            cases.add("deg num > deg den" if dn > dd
                      else "deg num < deg den" if 0 <= dn < dd else "other")
            if den.leading() != field.one():
                cases.add("non-monic den")
            if not rat.is_zero() and field.is_zero(rat.num.constant_term()):
                cases.add("t | num")
            if field.is_zero(rat.den.constant_term()):
                cases.add("t | den")
        # over F_2 every nonzero leading coefficient is 1
        assert seen > 100 and cases >= {"deg num > deg den", "deg num < deg den", "t | num",
                                        "t | den"} | ({"non-monic den"} if q > 2 else set())


class TestReduction:
    def test_odd_pole_untouched(self):
        assert as_reduce(RationalFunc.of(T2**3), F2) == RationalFunc.of(T2**3)

    def test_even_pole_reduced(self):
        assert as_reduce(RationalFunc.of(T2**2), F2) == RationalFunc.of(T2)

    def test_wirtinger_trick_finite_pole(self):
        # 1/t^2 reduces to 1/t via h = 1/t
        reduced = as_reduce(RationalFunc(ONE2, T2**2), F2)
        poles = reduced.den
        assert poles.degree == 1
        assert _valuation_at(reduced, T2) == -1

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateExtensionError):
            as_reduce(RationalFunc.of(T2**2 + T2), F2)
        with pytest.raises(DegenerateExtensionError):
            as_reduce(RationalFunc.of(Poly.zero(F2)), F2)

    def test_constant_extension_flagged(self):
        curve = Cover.artin_schreier(F2, RationalFunc.of(ONE2))
        assert curve.constant_ext
        with pytest.raises(UnsupportedError):
            ramification_data(curve)

    def test_kummer_normalization(self):
        curve = Cover.kummer(F3, 2, RationalFunc.of(T3**3))
        # multiplicity 3 reduces to 1
        assert curve.defining == RationalFunc.of(T3)
        with pytest.raises(DegenerateExtensionError):
            Cover.kummer(F3, 2, RationalFunc.of(T3**2))
        nonsquare = Poly(F3, [F3.from_int(-1)])
        assert Cover.kummer(F3, 2, RationalFunc.of(nonsquare)).constant_ext

    def test_kummer_needs_roots_of_unity(self):
        with pytest.raises(ValidationError):
            Cover.kummer(F2, 2, RationalFunc.of(T2))


class TestRamification:
    def test_elliptic_as(self):
        curve = Cover.artin_schreier(F2, RationalFunc.of(T2**3))
        ram, genus = ramification_data(curve)
        assert genus == 1
        assert [(r.place.id, r.e, r.different_exponent) for r in ram] == [("inf", 2, 4)]

    def test_genus_two_as(self):
        curve = Cover.artin_schreier(F2, RationalFunc(T2**4 + ONE2, T2))
        ram, genus = ramification_data(curve)
        assert genus == 2
        assert {(r.place.id, r.different_exponent) for r in ram} == {("inf", 4), ("t", 2)}

    def test_kummer_genus_zero(self):
        curve = Cover.kummer(F3, 2, RationalFunc.of(T3))
        ram, genus = ramification_data(curve)
        assert genus == 0
        assert {r.place.id for r in ram} == {"inf", "t"}
        assert all(r.different_exponent == 1 for r in ram)

    def test_splitting_examples(self):
        curve = Cover.artin_schreier(F2, RationalFunc.of(T2**3))
        assert splitting(curve, BasePlace(T2)).kind == "split"
        assert splitting(curve, BasePlace(T2**2 + T2 + ONE2)).kind == "split"
        assert splitting(curve, BasePlace(T2 + ONE2)).kind == "inert"
        assert splitting(curve, INFINITE).kind == "ramified"
        kummer = Cover.kummer(F3, 2, RationalFunc.of(T3))
        assert splitting(kummer, BasePlace(parse_poly(F3, "t+2"))).kind == "split"

    def test_splitting_consistency_efg(self):
        for entry in corpus():
            curve = entry.curve
            bases = [INFINITE] + [BasePlace(pi) for pi in monic_irreducibles(curve.field, 1)]
            for base in bases:
                data = local_invariants(curve, base)
                assert data.e * data.f * data.g == curve.n


    def test_splitting_degree_sum_counts_the_engine_places(self):
        from capitula.fforacle.picard import CurveArithmetic
        from capitula.verify import splitting_degree_sum_holds

        # y^4 = (4t^2+2t+2)/(t+2) over F_5: at t^2+4t+2 the type is
        # (e, f, g) = (1, 2, 2), but the engine builds one inert place
        curve = curve_from_json({"kind": "kummer", "q": 5, "p_or_l": 4,
                                 "Q_or_f": {"num": [2, 2, 4], "den": [2, 1]}})
        arith = CurveArithmetic(curve)
        base = BasePlace(parse_poly(curve.field, "t^2+4*t+2"))
        data = local_invariants(curve, base)
        assert data.e * data.f * data.g == curve.n
        assert not splitting_degree_sum_holds(arith, base)
        assert splitting_degree_sum_holds(arith, INFINITE)


def _kummer(q, ell, num, den="1"):
    field = GF(q)
    return Cover.kummer(field, ell, RationalFunc(parse_poly(field, num),
                                                 parse_poly(field, den)))


# ---------------------------------------------------------------------------
# the per-cover table of base places against per-family reference formulas

def _reference_ramification(curve):
    """Ramified places and genus by each family's own formulas, from fresh
    factorizations of the defining function: different exponent (p-1)(m+1)
    at an Artin-Schreier pole of order m, e-1 at a Kummer place."""
    from capitula.fforacle.poly import factor_with_bounded_degree

    def factored(poly):
        return factor_with_bounded_degree(poly, max(poly.degree, 1))[1]

    if curve.kind == "artin_schreier":
        p = curve.n
        places = [(BasePlace(pi), m) for pi, m in factored(curve.defining.den).items()]
        v_inf = curve.defining.valuation_at_infinity()
        if v_inf < 0:
            places.append((INFINITE, -v_inf))
        ram, deg_sum = [], 0
        for place, m in sorted(places, key=lambda pm: pm[0].sort_key()):
            if m % p == 0:
                raise InconsistencyError("unreduced Artin-Schreier data")
            ram.append((place, p, (p - 1) * (m + 1)))
            deg_sum += (p - 1) * (m + 1) * place.degree
        two_g_minus_2 = -2 * p + deg_sum
    else:
        ell = curve.n
        mults = {BasePlace(pi): m for pi, m in factored(curve.defining.num).items()}
        for pi, m in factored(curve.defining.den).items():
            mults[BasePlace(pi)] = mults.get(BasePlace(pi), 0) - m
        v_inf = curve.defining.valuation_at_infinity()
        if v_inf % ell:
            mults[INFINITE] = v_inf
        ram, two_g_minus_2 = [], -2 * ell
        for place in sorted(mults, key=lambda pl: pl.sort_key()):
            a = mults[place]
            if a % ell:
                e = ell // gcd(ell, a % ell)
                ram.append((place, e, e - 1))
                two_g_minus_2 += (ell // e) * (e - 1) * place.degree
    if two_g_minus_2 % 2 or two_g_minus_2 < -2:
        raise InconsistencyError(f"Riemann-Hurwitz gave 2g-2 = {two_g_minus_2}")
    return ram, (two_g_minus_2 + 2) // 2


def _infinity_in_t(curve):
    """(e, f, g) at infinity read in t: the value there of a function regular
    at infinity is the ratio of the leading coefficients, or 0."""
    field = curve.field

    def value_at_infinity(rat):
        assert rat.num.degree <= rat.den.degree
        if rat.num.degree < rat.den.degree:
            return field.zero()
        return field.div(rat.num.leading(), rat.den.leading())

    if curve.kind == "artin_schreier":
        v = curve.defining.valuation_at_infinity()
        if v < 0:
            return curve.n, 1, 1
        if absolute_trace(field, value_at_infinity(curve.defining)) == 0:
            return 1, 1, curve.n
        return 1, curve.n, 1
    ell = curve.n
    a = curve.defining.valuation_at_infinity()
    d = gcd(ell, a % ell)
    e = ell // d
    ubar = value_at_infinity(curve.defining * RationalFunc.of(Poly.x(field))**a)  # f t^a
    h = field.pow(ubar, (field.order - 1) // d)
    f_w = next(k for k in range(1, d + 1) if d % k == 0 and field.pow(h, k) == field.one())
    return e, f_w, ell // (e * f_w)


def _seeded_covers():
    """Artin-Schreier covers over F_2..F_9 and Kummer covers of every degree
    ell | q - 1, from random fractions; degenerate and constant-field
    covers are dropped."""
    import random

    rng = random.Random(7)
    out = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        field = GF(q)
        ells = [ell for ell in range(2, q) if (q - 1) % ell == 0]

        def random_poly(degree, monic):
            coeffs = [field.element_from_index(rng.randrange(q)) for _ in range(degree)]
            return Poly(field, coeffs + [field.one() if monic
                                         else field.element_from_index(rng.randrange(1, q))])

        for i in range(12):
            rat = RationalFunc(random_poly(rng.randrange(0, 5), False),
                               random_poly(rng.randrange(0, 4), True))
            try:
                if i % 2 == 0 or not ells:
                    curve = Cover.artin_schreier(field, rat)
                else:
                    curve = Cover.kummer(field, ells[i // 2 % len(ells)], rat)
            except DegenerateExtensionError:
                continue
            if not curve.constant_ext:
                out.append((f"{curve.kind}_f{q}_{i}", curve))
    # y^8 = (t+2)^2 = t^2+t+1 over F_9 is a degree-4 cover in disguise:
    # Riemann-Hurwitz fails
    out.append(("kummer8_f9_square", _kummer(9, 8, "t^2+t+1")))
    return out


TABLE_CURVES = [(e.name, e.curve) for e in corpus() if not e.curve.constant_ext]
TABLE_CURVES += _seeded_covers()


def _outcome(compute):
    try:
        return compute()
    except InconsistencyError as exc:
        return f"InconsistencyError: {exc}"


class TestCoverTable:
    @pytest.mark.parametrize("name, curve", TABLE_CURVES, ids=[n for n, _ in TABLE_CURVES])
    def test_ramification_matches_the_family_formulas(self, name, curve):
        def table():
            ram, genus = ramification_data(curve)
            return [(r.place, r.e, r.different_exponent) for r in ram], genus

        assert _outcome(table) == _outcome(lambda: _reference_ramification(curve))

    def test_seeded_covers_reach_every_field_and_both_outcomes(self):
        kinds = {(c.kind, c.field.order) for _, c in TABLE_CURVES}
        assert {q for _, q in kinds} == {2, 3, 4, 5, 7, 8, 9}
        assert {("kummer", q) for q in (3, 4, 5, 7, 8, 9)} <= kinds
        failing = dict(TABLE_CURVES)["kummer8_f9_square"]
        with pytest.raises(InconsistencyError, match=r"^Riemann-Hurwitz gave 2g-2 = -4$"):
            ramification_data(failing)

    @pytest.mark.parametrize("name, curve", TABLE_CURVES, ids=[n for n, _ in TABLE_CURVES])
    def test_defining_valuation_reads_the_divisor(self, name, curve):
        from capitula.fforacle.curves import defining_valuation

        rat = curve.defining

        def exact(place):
            return (rat.valuation_at_infinity() if place.is_infinite
                    else _valuation_at(rat, place.pi))

        with_zeros = curve.field.is_zero(curve.model.c)
        for place, v in curve.divisor.items():
            assert v == exact(place) != 0
            assert v < 0 or with_zeros
        census = [INFINITE] + [BasePlace(pi) for d in (1, 2)
                               for pi in monic_irreducibles(curve.field, d)]
        for place in census:
            expected = exact(place) if with_zeros else min(exact(place), 0)
            assert defining_valuation(curve, place) == expected, place

    @pytest.mark.parametrize("name, curve", TABLE_CURVES, ids=[n for n, _ in TABLE_CURVES])
    def test_infinity_in_the_u_model_matches_the_t_model(self, name, curve):
        data = local_invariants(curve, INFINITE)
        assert (data.e, data.f, data.g) == _infinity_in_t(curve)

    def test_oracle_report_decomposes_each_base_place_once(self, monkeypatch):
        from capitula.fforacle import curves
        from capitula.verify import oracle_report

        decomposed = []
        real = curves._decompose

        def counting(curve, place):
            decomposed.append((curve, place))
            return real(curve, place)

        monkeypatch.setattr(curves, "_decompose", counting)
        for entry in corpus():
            if entry.curve.constant_ext:
                continue
            decomposed.clear()
            curve = curve_from_json(curve_to_json(entry.curve))
            oracle_report(curve)
            assert decomposed, entry.name
            assert len(decomposed) == len(set(decomposed)), entry.name

    def test_critical_bases_follow_the_denominator_factorization(self):
        from capitula.fforacle.picard import CurveArithmetic
        from capitula.fforacle.poly import factor_with_bounded_degree

        for _, curve in TABLE_CURVES:
            den = curve.defining.den
            order = (list(factor_with_bounded_degree(den, den.degree)[1])
                     if den.degree else [])
            bases = CurveArithmetic(curve)._critical_bases()
            assert bases == [INFINITE] + [BasePlace(pi) for pi in order]


def _census_curves():
    """Positive-genus corpus curves plus composite-degree Kummer covers,
    each with q^(g+1) within the field-size cap."""
    cases = [(e.name, e.curve) for e in corpus() if ramification_data(e.curve)[1] > 0]
    cases += [
        # y^4 = (4t^2+2t+2)/(t+2), the known failing cover: (e, f, g) =
        # (1, 2, 2) at t^2+4t+2
        ("kummer4_f5_known_failing",
         curve_from_json({"kind": "kummer", "q": 5, "p_or_l": 4,
                          "Q_or_f": {"num": [2, 2, 4], "den": [2, 1]}})),
        ("kummer4_f5_g1", _kummer(5, 4, "t^3+4*t^2")),  # y^4 = t^2(t+4)
        ("kummer4_f5_quadratic", _kummer(5, 4, "t^2+2", "t^2")),
        ("kummer6_f7_g1", _kummer(7, 6, "t^5+4*t^4+3*t^3+6*t^2")),  # y^6 = t^2(t+6)^3
        ("kummer6_f7_g2", _kummer(7, 6, "t^2+6*t")),
        ("kummer4_f9_g1", _kummer(9, 4, "t^3+2*t^2")),  # y^4 = t^2(t+2)
        ("kummer8_f9_g2", _kummer(9, 8, "t^5+2*t^4")),  # y^8 = t^4(t+2)
    ]
    return cases


CENSUS_CURVES = _census_curves()


class TestZeta:
    @pytest.mark.parametrize("name, curve", CENSUS_CURVES, ids=[n for n, _ in CENSUS_CURVES])
    def test_census_matches_base_change(self, name, curve):
        _, g = ramification_data(curve)
        assert g > 0
        for m in range(1, g + 2):
            assert count_points(curve, m) == count_points(base_change(curve, m), 1), m

    def test_recount_catches_a_wrong_residue_degree(self, monkeypatch):
        curve = corpus_entry("as_f2_r1").curve
        q, g = 2, 2
        honest = l_polynomial(curve)
        visited = []

        def swap_f_and_g_once(curve, place):
            # one unramified place of degree g+1 reports (1, g, f) for (1, f, g)
            data = local_invariants(curve, place)
            visited.append(place.degree)
            if place.degree == g + 1 and data.e == 1 and visited.count(g + 1) == 1:
                return LocalData(place, 1, data.g, data.f)
            return data

        monkeypatch.setattr(zeta, "local_invariants", swap_f_and_g_once)
        with pytest.raises(InconsistencyError, match=f"N_{g + 1} "):
            l_polynomial(curve)
        # below q^(g+1) the recount is skipped, so the census never reaches
        # degree g+1 and the same L(T) comes back
        visited.clear()
        assert l_polynomial(curve, max_field_size=q**g) == honest
        assert max(visited) == g

    def test_field_size_cap(self):
        curve = corpus_entry("as_f3_g3").curve
        q, g = 3, 3
        with pytest.raises(ResourceError):
            l_polynomial(curve, max_field_size=q**g - 1)
        with pytest.raises(ResourceError):
            count_points(curve, g, max_field_size=q**g - 1)
        assert l_polynomial(curve, max_field_size=q**g) == l_polynomial(curve)

    def test_elliptic_count_and_l(self):
        curve = Cover.artin_schreier(F2, RationalFunc.of(T2**3))
        assert count_points(curve, 1) == 3
        coeffs, h = l_polynomial(curve)
        assert coeffs == [1, 0, 2]
        assert h == 3

    def test_genus_zero(self):
        curve = Cover.kummer(F3, 2, RationalFunc.of(T3))
        assert l_polynomial(curve) == ([1], 1)

    def test_genus_two_regression(self):
        # recorded oracle value for y^2+y = t^3 + 1/t over F_2
        curve = Cover.artin_schreier(F2, RationalFunc(T2**4 + ONE2, T2))
        coeffs, h = l_polynomial(curve)
        assert h == 8
        assert coeffs == [1, 1, 0, 2, 4]

    def test_functional_equation_all_corpus(self):
        for entry in corpus():
            coeffs, _ = l_polynomial(entry.curve)
            _, genus = ramification_data(entry.curve)
            assert zeta_functional_equation_holds(coeffs, genus, entry.curve.field.order)

    def test_base_change_preserves_counts(self):
        curve = Cover.artin_schreier(F2, RationalFunc.of(T2**3))
        assert count_points(curve, 2) == count_points(base_change(curve, 2), 1)


def _table_field_covers():
    f8, f9 = GF(8), GF(9)
    t8, t9 = Poly.x(f8), Poly.x(f9)
    # 2 and 5 index elements outside the prime fields of F_8 and F_9
    return {
        "as_f4_g1": corpus_entry("as_f4_g1").curve,
        "kummer_f4_g1": corpus_entry("kummer_f4_g1").curve,
        "as_f8_g1": Cover.artin_schreier(f8, RationalFunc.of(t8**3 + t8.scale(2))),
        "kummer_f9_g1": Cover.kummer(f9, 2, RationalFunc.of(t9**3 + t9.scale(5))),
    }


class TestTableFieldOracle:
    """The oracle gives the same answers over GF(q) and over the tower it tabulates."""

    @pytest.mark.parametrize("name", sorted(_table_field_covers()))
    def test_same_presentation_over_both_fields(self, name):
        curve = _table_field_covers()[name]
        tower_curve = _over_tower(curve)
        assert isinstance(tower_curve.field, ExtField)

        def summary(pd):
            return ([w.id for w in pd.factor_base], pd.l_poly,
                    pd.group.invariant_factors, pd.sigma_action.matrix)

        flat = summary(picard_group(curve))
        assert any("#" in place_id for place_id in flat[0])
        assert flat == summary(picard_group(tower_curve))


class TestPicard:
    def test_elliptic_certified(self):
        pd = picard_group(corpus_entry("as_f2_r0").curve)
        assert pd.group.invariant_factors == (3,)
        assert pd.group.order == pd.h

    def test_one_presentation_per_certified_group(self, monkeypatch):
        # the Hermite index modulo 2h certifies the group, and only its rows
        # reach a QuotientPresentation, once per certified group
        from capitula.fforacle import picard

        builds = []
        real = picard.QuotientPresentation

        def counting(*args, **kwargs):
            builds.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(picard, "QuotientPresentation", counting)
        pic0 = {
            "as_f2_r0": (3,), "as_f2_r1": (8,), "as_f2_r2": (2, 2),
            "as_f3_r0": (2, 2), "as_f3_r1": (), "as_f4_g1": (3, 3),
            "kummer_f3_g0": (), "kummer_f3_g1": (2, 2), "kummer_f4_g1": (3, 3),
            "kummer_f3_dp2": (2, 2), "as_f3_g3": (3, 9),
        }
        for entry in corpus():
            builds.clear()
            pd = picard_group(entry.curve)
            assert len(builds) == 1, entry.name
            assert pd.group.invariant_factors == pic0[entry.name]
            assert pd.group.order == pd.h

    def test_relations_are_hermite_rows_of_index_h(self):
        for entry in corpus():
            pd = picard_group(entry.curve)
            fb = pd.factor_base
            p0_at = fb.index(pd._p0)
            form = HermiteModD(len(fb) - 1, 2 * pd.h)
            for row in pd._relations:
                assert sum(v * w.deg for v, w in zip(row, fb)) == 0, entry.name
                form.add(row[:p0_at] + row[p0_at + 1:])
            assert form.index == pd.h, entry.name

    def test_relations_are_the_same_rows_in_any_order(self):
        # at index h the rows span the principal divisors P, and their
        # reduced Hermite form depends on P alone: another basis of P, the
        # rows shuffled and each added to a multiple of the next, gives the
        # same rows
        import random

        rng = random.Random(7)
        for entry in corpus():
            pd = picard_group(entry.curve)
            m, p0_at = len(pd.factor_base) - 1, pd.factor_base.index(pd._p0)
            rows = [row[:p0_at] + row[p0_at + 1:] for row in pd._relations]
            shuffled = list(rows)
            rng.shuffle(shuffled)
            mixed = [[x + c * y for x, y in zip(row, after)]
                     for row, after, c in zip(shuffled, shuffled[1:] + [[0] * m],
                                              [rng.randrange(1, 5) for _ in rows])]
            form = HermiteModD(m, 2 * pd.h)
            for row in mixed:
                form.add(row)
            assert form.rows == rows, entry.name

    def test_genus_zero_trivial(self):
        pd = picard_group(corpus_entry("kummer_f3_g0").curve)
        assert pd.group.is_trivial()

    def test_r1_invariants(self):
        pd = picard_group(corpus_entry("as_f2_r1").curve)
        assert pd.group.invariant_factors == (8,)
        assert galois_invariants(pd).invariant_factors == (2,)

    def test_cover_model(self):
        from capitula.fforacle.gf import multiplicative_order

        for entry in corpus():
            curve, field = entry.curve, entry.curve.field
            c, zeta, beta = curve.model
            if curve.kind == "artin_schreier":
                assert (c, zeta, beta) == (field.one(),) * 3
            else:
                assert c == beta == field.zero()
                assert multiplicative_order(field, zeta) == curve.n

    def test_sigma_cycles_the_places_above_a_split_base(self):
        for entry in corpus():
            pd = picard_group(entry.curve)
            perm = _sigma_permutation(pd._arith, pd.factor_base)
            for i, w in enumerate(pd.factor_base):
                orbit = [i]
                while perm[orbit[-1]] != i:
                    orbit.append(perm[orbit[-1]])
                assert {pd.factor_base[j].base for j in orbit} == {w.base}
                assert len(orbit) == (entry.curve.n if w.label_index >= 0 else 1)

    def test_sigma_has_order_dividing_n(self):
        for entry in corpus():
            pd = picard_group(entry.curve)
            identity = _identity(pd.group)
            power = identity
            for _ in range(entry.curve.n):
                power = AbHom(pd.group, pd.group, tuple(map(tuple, mat_mul(
                    pd.sigma_action.matrix_rows(), power.matrix_rows()))))
            assert power.matrix == identity.matrix

    def test_invariants_examples(self):
        # sigma = -1 on Z/3: no invariants
        g3 = FinAbGroup.of(3)
        minus = AbHom(g3, g3, ((-1,),))
        assert invariants_of(g3, minus).is_trivial()
        # trivial action: everything
        assert invariants_of(g3, _identity(g3)).invariant_factors == (3,)
        # swap on (Z/2)^2: the diagonal
        klein = FinAbGroup((2, 2))
        swap = AbHom(klein, klein, ((0, 1), (1, 0)))
        assert invariants_of(klein, swap).invariant_factors == (2,)

    def test_s_class_group_imaginary_equals_pic0(self):
        pd = picard_group(corpus_entry("as_f2_r1").curve)
        cks = s_class_group(pd, [INFINITE])
        assert cks.group.invariant_factors == pd.group.invariant_factors

    def test_s_class_group_all_rational_places_of_p1_cover(self):
        # genus 0: killing the classes of both degree-one ramified places
        pd = picard_group(corpus_entry("kummer_f3_g0").curve)
        assert s_class_group(pd, [INFINITE, BasePlace(Poly.x(F3))]).group.is_trivial()

    def test_s_class_group_with_split_place(self):
        # genus 1, S = {inf, t}: t splits on y^2+y=t^3, its classes generate
        pd = picard_group(corpus_entry("as_f2_r0").curve,
                          extra_base_places=[BasePlace(T2)])
        cks = s_class_group(pd, [INFINITE, BasePlace(T2)])
        assert cks.group.is_trivial()  # order h / ord(class difference) = 3/3

    def test_delta_prime_examples(self):
        assert delta_prime(picard_group(corpus_entry("kummer_f3_g0").curve)) == 1
        assert delta_prime(picard_group(corpus_entry("as_f2_r0").curve)) == 1
        # regression: quartic Kummer cover with no odd-degree invariant class
        assert delta_prime(picard_group(corpus_entry("kummer_f3_dp2").curve)) == 2

    def test_degree_map_is_galois_invariant(self):
        pd = picard_group(corpus_entry("as_f4_g1").curve)
        perm = _sigma_permutation(pd._arith, pd.factor_base)
        for i, w in enumerate(pd.factor_base):
            assert pd.factor_base[perm[i]].deg == w.deg

    def test_realize_profile_examples(self):
        profile, pd = realize_profile(corpus_entry("as_f2_r0").curve, [INFINITE])
        assert profile.n == 2
        assert profile.h_KS == 3
        inf = profile.place("inf")
        assert (inf.e, inf.f, inf.in_S) == (2, 1, True)
        assert not profile.ramified_outside_s

        profile2, _ = realize_profile(corpus_entry("as_f2_r1").curve, [INFINITE])
        ram = profile2.ramified_outside_s
        assert [(p.id, p.e) for p in ram] == [("t", 2)]

        profile3, _ = realize_profile(corpus_entry("kummer_f3_g0").curve, [INFINITE])
        assert profile3.place("inf").e == 2
        assert [(p.id, p.e) for p in profile3.ramified_outside_s] == [("t", 2)]

    def test_unsupported_without_rational_place_is_an_error_path(self):
        # quadratic base place S: h_FS = gcd of S-degrees = 2
        curve = corpus_entry("as_f2_r0").curve
        pi = T2**2 + T2 + ONE2
        profile, pd = realize_profile(curve, [BasePlace(pi)])
        assert profile.h_FS == 2

    @pytest.mark.parametrize("tokens, message", [
        (("inf", "inf"), "S lists the place inf twice"),
        (("t", "t+0"), "S lists the place t twice"),
        (("inf", "t", "inf"), "S lists the place inf twice"),
        ((), "S must be nonempty"),
    ])
    def test_an_empty_or_repeated_s_is_refused_before_the_presentation(
            self, monkeypatch, tokens, message):
        # t and t+0 parse to one place; a repeated place used to count twice
        # in s and s_k_count and give the profile two places with one id.
        # An empty S used to be refused only after Pic^0 was certified
        from capitula import verify
        from capitula.fforacle import picard

        def unreachable(*args, **kwargs):
            raise AssertionError("picard_group ran on an inadmissible S")

        monkeypatch.setattr(verify, "picard_group", unreachable)
        monkeypatch.setattr(picard, "picard_group", unreachable)
        curve = corpus_entry("as_f2_r0").curve
        s_bases = [parse_base_place(curve.field, token) for token in tokens]
        with pytest.raises(ValidationError, match=message):
            verify.oracle_report(curve, s_bases)
        with pytest.raises(ValidationError, match=message):
            realize_profile(curve, s_bases)


# ---------------------------------------------------------------------------
# S-class quantities against quotients of the whole factor-base lattice

# the last set is the first quadratic place alone, so that h_FS = 2
S_SETS = (("inf",), ("inf", "t"), ("inf", "t", "t+2"), ("quadratic",))


def _s_bases(field, s_ids):
    """The base places of an S set.  The index 2 of "t+2" is read modulo q,
    so over F_2 that set is {inf, t}."""
    return list(dict.fromkeys(
        BasePlace(monic_irreducibles(field, 2)[0]) if x == "quadratic"
        else parse_base_place(field, f"t+{2 % field.order}" if x == "t+2" else x)
        for x in s_ids))


def _genus3_cover():
    """y^2 = 2t^7 + t^6 + 3t^5 + 3t^3 + 4t^2 + 2t over F_5: g = 3, h = 160."""
    import json
    from pathlib import Path

    return curve_from_json(json.loads(
        (Path(__file__).parent / "data" / "kummer_f5_g3.json").read_text()))


def _reference_s_quantities(pd, s_bases, s_k):
    """C_{K,S}, its invariants, the strongly ambiguous order, |ker j| and
    delta', all computed on Z^k modulo the relations R of the factor base."""
    fb = pd.factor_base
    k = len(fb)
    unit = [[int(i == j) for i in range(k)] for j in range(k)]
    rel = [list(r) for r in pd._relations] + [unit[fb.index(w)] for w in s_k]
    perm = _sigma_permutation(pd._arith, fb)
    perm_rows = [[int(perm[j] == i) for j in range(k)] for i in range(k)]
    pres = QuotientPresentation(rel, k)
    action = AbHom(pres.group, pres.group, pres.induced_matrix(perm_rows))
    order = pres.group.order

    orbit_cols, seen = [], set()
    for start in range(k):
        if start in seen:
            continue
        orbit, j = {start}, perm[start]
        while j != start:
            orbit.add(j)
            j = perm[j]
        seen |= orbit
        orbit_cols.append([int(i in orbit) for i in range(k)])
    ambiguous = order // finite_quotient(unit, rel + orbit_cols, k).order

    # C_{F,S} = Z / h_FS, generated by the class of the place at infinity
    h_fs = 0
    for base in s_bases:
        h_fs = gcd(h_fs, base.degree)
    con_inf = [w.e if w.base == INFINITE else 0 for w in fb]
    image = order // finite_quotient(unit, rel + [con_inf], k).order
    ker_j = h_fs // image

    sigma_minus_1 = [[perm_rows[i][j] - int(i == j) for j in range(k)] for i in range(k)]
    invariant = preimage_generators(sigma_minus_1, [list(r) for r in pd._relations], k)
    dp = 0
    for vec in invariant:
        dp = gcd(dp, sum(v * w.deg for v, w in zip(vec, fb)))
    return pres.group, invariants_of(pres.group, action), ambiguous, ker_j, dp


class TestSClassQuantities:
    @pytest.mark.parametrize("s_ids", S_SETS, ids=",".join)
    @pytest.mark.parametrize("name", [e.name for e in corpus()])
    def test_against_the_factor_base_lattice(self, name, s_ids):
        curve = corpus_entry(name).curve
        s_bases = _s_bases(curve.field, s_ids)
        pd = picard_group(curve, extra_base_places=s_bases)
        s_k = [w for w in pd.factor_base if w.base in s_bases]
        cks = s_class_group(pd, s_bases)
        got = (cks.group, invariants_of(cks.group, cks.action), strongly_ambiguous_order(cks),
               capitulation_kernel_order(cks), delta_prime(pd))
        assert got == _reference_s_quantities(pd, s_bases, s_k)

    def test_a_wrong_conorm_of_infinity_is_caught(self, monkeypatch):
        # mutation: every e_w in the conorm of infinity read as 1, with
        # h_FS = 2.  Where twice the wrong class is not zero, building j
        # refuses it; where it is, |ker j| leaves the reference; where every
        # e_w is 1 already, nothing changes
        from capitula.fforacle import picard

        cases = [(e.name, e.curve) for e in corpus()] + [("kummer_f5_g3", _genus3_cover())]
        outcome = {}
        for name, curve in cases:
            s_bases = _s_bases(curve.field, ("quadratic",))
            pd = picard_group(curve, extra_base_places=s_bases)
            cks = s_class_group(pd, s_bases)
            s_k = [w for w in pd.factor_base if w.base in s_bases]
            expected = _reference_s_quantities(pd, s_bases, s_k)[3]
            assert capitulation_kernel_order(cks) == expected
            real = picard.CurveArithmetic.conorm
            monkeypatch.setattr(picard.CurveArithmetic, "conorm", lambda arith, base: (
                dict.fromkeys(real(arith, base), 1) if base == INFINITE else real(arith, base)))
            try:
                got = capitulation_kernel_order(cks)
            except InconsistencyError as exc:
                assert str(exc).startswith("j: C_F,S -> C_K,S is not well defined"), name
                outcome[name] = "refused"
            else:
                outcome[name] = "unchanged" if got == expected else f"{expected} -> {got}"
            monkeypatch.undo()
        assert outcome == {
            "as_f2_r0": "2 -> 1", "kummer_f3_g0": "2 -> 1",
            "as_f3_r1": "unchanged", "kummer_f3_dp2": "unchanged",
            **{name: "refused" for name in ("as_f2_r1", "as_f2_r2", "as_f3_r0", "as_f4_g1",
                                            "kummer_f3_g1", "kummer_f4_g1", "as_f3_g3",
                                            "kummer_f5_g3")}}

    def test_capitulation_is_injective_for_odd_degree(self):
        # the norm of the extended class is n times the class, and n is
        # prime to h_FS = 2 for S = {one quadratic place}
        checked = 0
        for entry in corpus():
            curve = entry.curve
            if curve.n % 2 == 0:
                continue
            s_bases = _s_bases(curve.field, ("quadratic",))
            pd = picard_group(curve, extra_base_places=s_bases)
            assert capitulation_kernel_order(s_class_group(pd, s_bases)) == 1, entry.name
            checked += 1
        assert checked == 4

    @pytest.mark.parametrize("degrees", [(1, 4), (4, 6)], ids=["inf,deg4", "deg4,deg6"])
    def test_s_class_group_names_a_place_outside(self, degrees):
        # y^2+y = t^3 over F_2 presented without S: no place above a base of
        # degree 4 or 6 is in the presentation (degree 1 stands for inf)
        pd = picard_group(corpus_entry("as_f2_r0").curve)
        s_bases = [INFINITE if d == 1 else BasePlace(monic_irreducibles(F2, d)[0])
                   for d in degrees]
        with pytest.raises(UnsupportedError, match="outside the presentation"):
            s_class_group(pd, s_bases)

    def test_imaginary_verdicts_compare_the_calculator(self, monkeypatch):
        # y^2+y = t^3 over F_2, S = {inf}: one place above S and gcd(2, q-1) = 1,
        # so the imaginary-case verdicts read formulas.imaginary_report
        from dataclasses import replace

        from capitula import formulas, verify

        curve = corpus_entry("as_f2_r0").curve
        verdicts = {v.check: v for v in verify.oracle_report(curve).verdicts}
        assert verdicts["ambiguous_class_order"].passed
        assert verdicts["artin_schreier_ambiguous_structure"].passed
        real = formulas.imaginary_report

        def off_by_one(profile, h_fs):
            report = real(profile, h_fs)
            return replace(report, ckg_order=report.ckg_order + 1)

        monkeypatch.setattr(formulas, "imaginary_report", off_by_one)
        failed = [v for v in verify.oracle_report(curve).verdicts if not v.passed]
        assert [v.check for v in failed] == ["ambiguous_class_order"]
        assert failed[0].expected == verdicts["ambiguous_class_order"].expected + 1

    @pytest.mark.parametrize("calculator, verdict", [
        ("prop86_check", "ramification_congruence"),
        ("hilbert94_lower_bound", "hilbert94_consistency"),
        ("semisimple_report", "semisimple_kernel_order"),
    ])
    def test_verdicts_read_the_calculators_through_analyze_profile(
            self, monkeypatch, calculator, verdict):
        # y^2+y = t^3 over F_2, S = {inf}: h_KS = 3 is prime to n = 2, so
        # the semisimple verdict runs; a wrong calculator in formulas turns
        # exactly its verdict to FAIL
        from dataclasses import replace

        from capitula import formulas, verify

        curve = corpus_entry("as_f2_r0").curve
        verdicts = {v.check: v for v in verify.oracle_report(curve).verdicts}
        assert verdicts[verdict].passed
        real = getattr(formulas, calculator)
        wrong = {
            "prop86_check": lambda q, n, ram: False,
            "hilbert94_lower_bound": lambda profile: 2,
            "semisimple_report": lambda profile, h_ks: replace(
                real(profile, h_ks), ker_j_order=2),
        }[calculator]
        monkeypatch.setattr(formulas, calculator, wrong)
        failed = [v.check for v in verify.oracle_report(curve).verdicts if not v.passed]
        assert failed == [verdict]

    @pytest.mark.parametrize("left_out, verdicts", [
        (("ambiguous_order", "h1_class", "imaginary_CKG"),
         ["ambiguous_class_order", "class_h1_is_sum_map_kernel",
          "artin_schreier_ambiguous_structure"]),
        (("ker_j_exact",), ["semisimple_kernel_order"]),
    ])
    def test_a_case_the_analysis_leaves_out_reads_fail(self, monkeypatch, left_out, verdicts):
        # y^2+y = t^3 over F_2, S = {inf} is imaginary and semisimple; verify
        # decides both cases itself, so an analyze_profile with a wrong
        # gate turns their verdicts to FAIL rather than dropping them
        from capitula import verify

        curve = corpus_entry("as_f2_r0").curve
        names = [v.check for v in verify.oracle_report(curve).verdicts]
        assert set(verdicts) <= set(names)
        real = verify.analyze_profile

        def without_case(profile):
            report = real(profile)
            for key in left_out:
                report.bounds.pop(key, None)
                report.structures.pop(key, None)
            return report

        monkeypatch.setattr(verify, "analyze_profile", without_case)
        report = verify.oracle_report(curve)
        assert [v.check for v in report.verdicts] == names
        assert [v.check for v in report.verdicts if not v.passed] == verdicts

    def test_class_h1_verdict_compares_the_sum_map_kernel(self, monkeypatch):
        # the closed form for H^1 of S-classes (formulas.b_group, through
        # ExtensionProfile.b_group and sum_map_kernel) against h1_cyclic on
        # the realized class group
        from capitula import profile, verify

        curve = corpus_entry("as_f2_r0").curve
        verdicts = {v.check: v for v in verify.oracle_report(curve).verdicts}
        assert verdicts["class_h1_is_sum_map_kernel"].passed
        real = profile.sum_map_kernel
        monkeypatch.setattr(profile, "sum_map_kernel",
                            lambda d, big_d: real(d, big_d).direct_sum(FinAbGroup.of(2)))
        failed = [v.check for v in verify.oracle_report(curve).verdicts if not v.passed]
        assert failed == ["class_h1_is_sum_map_kernel"]

    def test_the_corpus_reports_build_one_b_group_per_profile(self, monkeypatch):
        # analyze_profile, semisimple_report and imaginary_report all read
        # the one b-group of the realized profile: 11 covers x 3 S sets
        from capitula import verify
        from capitula.profile import ExtensionProfile

        derivation = ExtensionProfile.__dict__["b_group"]
        real = derivation.func
        calls = []

        def counting(profile):
            calls.append(profile)
            return real(profile)

        monkeypatch.setattr(derivation, "func", counting)
        assert all(v.passed for v in verify.verify_corpus())
        assert len(calls) == 33
        assert len(set(map(id, calls))) == 33

    def test_period_index_verdict_reads_a_broken_delta_prime(self, monkeypatch):
        # y^2+y = t^3 + 1/t over F_2: delta = 1 and the coinvariants are Z/2,
        # so doubling the subgroup order that delta_prime reads makes
        # delta' = 2, which does not divide delta; delta_prime returns it
        # and the verdict reads FAIL
        import sys

        from capitula import verify
        from capitula.fforacle import picard

        curve = corpus_entry("as_f2_r1").curve
        verdicts = {v.check: v for v in verify.oracle_report(curve).verdicts}
        assert verdicts["period_index_chain"].passed
        real = picard.subgroup_order

        def doubled_for_delta_prime(den_cols, gen_cols, rank):
            order = real(den_cols, gen_cols, rank)
            return 2 * order if sys._getframe(1).f_code.co_name == "delta_prime" else order

        monkeypatch.setattr(picard, "subgroup_order", doubled_for_delta_prime)
        report = verify.oracle_report(curve)
        assert (report.delta, report.delta_prime) == (1, 2)
        verdicts = {v.check: v for v in report.verdicts}
        assert not verdicts["period_index_chain"].passed


# ---------------------------------------------------------------------------
# split-place valuations against a per-label Hensel oracle

ORACLE_PRECISION = 32


def _valuation_curves():
    """The corpus (bases of degree <= 2) and a cubic Kummer cover over F_7
    (bases of degree 1), whose Galois orbits do not run in label order."""
    f7 = GF(7)
    t7 = Poly.x(f7)
    cubic = Cover.kummer(f7, 3, RationalFunc.of(t7**2 + t7))
    return [(e.name, e.curve, 2) for e in corpus()] + [("kummer_f7_cubic", cubic, 1)]


def _split_bases(curve, max_degree):
    bases = [INFINITE] + [BasePlace(pi) for d in range(1, max_degree + 1)
                          for pi in monic_irreducibles(curve.field, d)]
    return [b for b in bases if local_invariants(curve, b).kind == "split"]


def _model(curve, base):
    """(pi, residue point, t -> model map): at infinity the model is u = 1/t."""
    field = curve.field
    if base.is_infinite:
        pi = Poly.x(field)
        return pi, ResiduePoint(field, BasePlace(pi)), lambda rat: rat.reciprocal_substitution()
    return base.pi, ResiduePoint(field, base), lambda rat: rat


def _local_equation(curve, base):
    """(s, G): y = pi^s Y and G(Y) = 0 is the local equation with unit data."""
    pi, _, to_model = _model(curve, base)
    if curve.kind == "artin_schreier":
        u = to_model(curve.defining)
        return 0, lambda r, m: (r**curve.n - r - _mod(u, m)) % m
    f = to_model(curve.defining)
    a = _valuation_at(f, pi)
    u = f * RationalFunc.of(pi)**(-a)
    return a // curve.n, lambda r, m: (r**curve.n - _mod(u, m)) % m


def _mod(rat, modulus):
    return (rat.num * rat.den.invmod(modulus)) % modulus


def _oracle_roots(curve, base, labels, precision=ORACLE_PRECISION):
    """Each label's root of the local equation, Newton-lifted on its own."""
    pi, point, _ = _model(curve, base)
    field = curve.field
    modulus = pi**precision
    shift, equation = _local_equation(curve, base)
    if curve.kind == "artin_schreier":
        derivative = lambda r: Poly.constant(field, field.neg(field.one()))
    else:
        ell = curve.n
        derivative = lambda r: (r**(ell - 1)).scale(field.from_int(ell)) % modulus
    roots = []
    for label in labels:
        r = point.lift(label)
        for _ in range(precision):
            g = equation(r, modulus)
            if g.is_zero():
                break
            r = (r - g * derivative(r).invmod(modulus)) % modulus
        assert equation(r, modulus).is_zero()
        roots.append(r)
    return shift, roots


def _oracle_valuation(curve, base, shift, root, function, precision=ORACLE_PRECISION):
    """v_pi of sum c_i (pi^s root)^i, c_i = A_i / H for function = (A, H),
    read modulo pi^precision."""
    pi, _, to_model = _model(curve, base)
    pi_rat = RationalFunc.of(pi)
    coeffs = [RationalFunc(a, function[1]) for a in function[0]]
    terms = [(i, to_model(c) * pi_rat**(i * shift))
             for i, c in enumerate(coeffs) if not c.is_zero()]
    low = min(_valuation_at(term, pi) for _, term in terms)
    modulus = pi**precision
    total = Poly.zero(curve.field)
    for i, term in terms:
        total = (total + _mod(term * pi_rat**(-low), modulus) * root**i) % modulus
    assert not total.is_zero()
    v = total.valuation(pi)
    assert v < precision
    return low + v


def _vanishing_function(curve, base, shift, root, k):
    """y - pi^s (root mod pi^k) in the t coordinate: order >= k at one place.
    Returned as (A, H), the function sum A_i y^i / H."""
    pi, _, to_model = _model(curve, base)
    approx = -to_model(RationalFunc.of(pi)**shift * RationalFunc.of(root % pi**k))
    zero = Poly.zero(curve.field)
    return [approx.num, approx.den] + [zero] * (curve.n - 2), approx.den


def _polynomial(curve, a):
    """The function a in F_q[t] as (A, H)."""
    zero, one = Poly.zero(curve.field), Poly.one(curve.field)
    return [a] + [zero] * (curve.n - 1), one


def _norm_val(arith, eng, coeffs, den_val):
    """v_P(N z) at the engine's base for z = sum coeffs[i] y^i / H with
    v_P(H) = den_val: N z = P / (Dd^k H^n), as divisor_of reads it."""
    nrm, k = arith.norm(coeffs)
    return (eng.base_valuation(nrm) - k * eng.base_valuation(arith.d_den)
            - arith.curve.n * den_val)


def _engine_valuations(arith, eng, function, norm_offset=0):
    """eng.valuations of function = (A, H), with v_P(N z) shifted by norm_offset."""
    coeffs, den = function
    den_val = eng.base_valuation(den)
    return eng.valuations(coeffs, _norm_val(arith, eng, coeffs, den_val) + norm_offset,
                          den_val)


def _rr_functions(arith, genus):
    from capitula.fforacle.picard import riemann_roch_basis

    p0 = next(w for base in [INFINITE] + [BasePlace(pi) for pi in
                                          monic_irreducibles(arith.curve.field, 1)]
              for w in arith.places_above(base) if w.deg == 1)
    basis, den = riemann_roch_basis(arith, p0, 2 * genus + 2, genus)
    h = Poly.one(arith.curve.field)
    for base, mult in den.items():
        h = h * base.pi**mult
    sums = [[a + b for a, b in zip(u, v)] for u, v in zip(basis, basis[1:])]
    return [(z, h) for z in basis + [z for z in sums if not all(c.is_zero() for c in z)]]


class TestSplitValuations:
    def test_valuations_match_per_label_oracle(self):
        from capitula.fforacle.picard import CurveArithmetic

        compared = vanishing = 0
        for name, curve, max_degree in _valuation_curves():
            field = curve.field
            arith = CurveArithmetic(curve)
            _, genus = ramification_data(curve)
            rr = _rr_functions(arith, genus)
            for base in _split_bases(curve, max_degree):
                eng = arith.engine(base)
                shift, roots = _oracle_roots(curve, base, eng.labels)
                functions = [_polynomial(curve, pi) for pi in monic_irreducibles(field, 1)]
                if not base.is_infinite:
                    functions.append(_polynomial(curve, base.pi**2))
                functions += rr
                for root in roots:
                    for k in (1, 10):  # 10 needs a precision well past the least, 2
                        functions.append(_vanishing_function(curve, base, shift, root, k))
                for function in functions:
                    expected = [_oracle_valuation(curve, base, shift, r, function)
                                for r in roots]
                    assert _engine_valuations(arith, eng, function) == expected, \
                        (name, base.id)
                    compared += 1
                for j, root in enumerate(roots):
                    function = _vanishing_function(curve, base, shift, root, 10)
                    vals = _engine_valuations(arith, eng, function)
                    assert vals[j] >= 10 + shift, (name, base.id)
                    assert all(v == shift for i, v in enumerate(vals) if i != j)
                    vanishing += 1
        assert compared >= 300 and vanishing >= 50

    def test_roots_solve_the_local_equation_above_their_labels(self):
        from capitula.fforacle.picard import CurveArithmetic

        checked = 0
        for name, curve, max_degree in _valuation_curves():
            arith = CurveArithmetic(curve)
            n, c = curve.n, Poly.constant(curve.field, curve.model.c)
            for base in _split_bases(curve, max_degree):
                eng = arith.engine(base)
                pi, point, to_model = _model(curve, base)
                shift, equation = _local_equation(curve, base)
                # the engine's polynomial data is D pi^(-ns) as a RationalFunc
                unit = to_model(curve.defining) * RationalFunc.of(pi)**(-n * shift)
                assert (eng.unit_num, eng.unit_den) == (unit.num, unit.den), (name, base.id)
                _, roots = _oracle_roots(curve, base, eng.labels)
                # orbit order: labels[k] = zeta labels[k-1] + beta = zeta_k labels[0] + beta_k,
                # from the first residual root in index order
                kappa, (_, zeta, beta) = point.kappa, curve.model
                orbit = [eng.labels[0]]
                for _ in range(n - 1):
                    orbit.append(kappa.add(kappa.mul(point.embed(zeta), orbit[-1]),
                                           point.embed(beta)))
                assert eng.labels == orbit, (name, base.id)
                indices = [kappa.element_index(label) for label in eng.labels]
                assert [w.label_index for w in eng.places] == indices
                assert indices[0] == min(indices)
                for precision in (1, 8, 20, 5):
                    modulus = pi**precision
                    for j, label in enumerate(eng.labels):
                        r = eng.root_mod(j, precision)
                        assert equation(r, modulus).is_zero()
                        assert ((eng.unit_den * (r**n - r * c) - eng.unit_num) % modulus).is_zero()
                        assert point.reduce_poly(r) == label
                        assert r == roots[j] % modulus
                        checked += 1
        assert checked > 100

    def test_sigma_is_the_orbit_shift(self):
        from capitula.fforacle.picard import CurveArithmetic, _sigma_permutation

        moved = 0
        for name, curve, max_degree in _valuation_curves():
            arith = CurveArithmetic(curve)
            _, zeta, beta = curve.model
            fb = [w for base in [INFINITE] + [BasePlace(pi) for d in range(1, max_degree + 1)
                                              for pi in monic_irreducibles(curve.field, d)]
                  for w in arith.places_above(base)]
            at = {(w.base, w.label_index): i for i, w in enumerate(fb)}
            expected = []
            for i, w in enumerate(fb):
                if w.label_index < 0:
                    expected.append(i)
                    continue
                # the label r moves to (r - beta) / zeta in the residue field
                _, point, _ = _model(curve, w.base)
                kappa = point.kappa
                r = kappa.element_from_index(w.label_index)
                image = kappa.div(kappa.sub(r, point.embed(beta)), point.embed(zeta))
                expected.append(at[(w.base, kappa.element_index(image))])
                moved += expected[i] != i
            assert _sigma_permutation(arith, fb) == expected, name
        assert moved > 50

    def test_one_hensel_lift_per_split_base_and_precision(self, monkeypatch):
        from collections import Counter

        from capitula.fforacle.picard import LocalEngine

        lifts = Counter()

        class Counted(Poly):
            # every Newton level reduces unit_num modulo pi^level once
            __slots__ = ("engine",)

            def __mod__(self, modulus):
                lifts[(self.engine, modulus.degree // self.engine.pi.degree)] += 1
                return Poly(self.field, self.coeffs) % modulus

        real = LocalEngine.__init__

        def counting(self, arith, base):
            real(self, arith, base)
            if self.data.kind == "split":
                self.unit_num = Counted(self.field, self.unit_num.coeffs)
                self.unit_num.engine = self

        monkeypatch.setattr(LocalEngine, "__init__", counting)
        for entry in corpus():
            picard_group(entry.curve)
        assert lifts, "no split place was lifted"
        assert all(eng.data.kind == "split" for eng, _ in lifts)
        assert set(lifts.values()) == {1}

    def test_split_evaluations_run_at_the_precision_the_norm_names(self, monkeypatch):
        from collections import Counter

        from capitula.fforacle.picard import LocalEngine

        real_valuations, real_split = LocalEngine.valuations, LocalEngine._split_val
        used, runs = [], Counter()

        def split_val(self, reduced, index, precision):
            used.append(precision)
            return real_split(self, reduced, index, precision)

        def valuations(self, coeffs, norm_val, den_val):
            used.clear()
            out = real_valuations(self, coeffs, norm_val, den_val)
            if self.data.kind == "split":
                w0 = min(self.base_valuation(c) + i * self.s_y
                         for i, c in enumerate(coeffs) if not c.is_zero()) - den_val
                pending = sum(v > w0 for v in out)
                # one evaluation per pending place, all at the one precision
                assert used == [max(2, norm_val - len(out) * w0 - pending + 2)] * pending
                runs.update(used[:1])
            return out

        monkeypatch.setattr(LocalEngine, "_split_val", split_val)
        monkeypatch.setattr(LocalEngine, "valuations", valuations)
        for entry in corpus():
            picard_group(entry.curve)
        # most pending places have valuation w0 + 1, read at the least precision
        assert runs[2] > sum(runs.values()) / 2, runs

    def test_norm_valuation_too_small_is_an_inconsistency(self):
        import re

        from capitula.fforacle.picard import CurveArithmetic

        checked = 0
        for _, curve, _ in _valuation_curves():
            arith = CurveArithmetic(curve)
            for base in _split_bases(curve, 1):
                eng = arith.engine(base)
                shift, roots = _oracle_roots(curve, base, eng.labels)
                # order >= 10 at the place of roots[0] and w0 at the others
                function = _vanishing_function(curve, base, shift, roots[0], 10)
                d = eng.data
                with pytest.raises(InconsistencyError,
                                   match=rf"above {re.escape(base.id)} vanishes modulo "
                                         rf"pi\^\d+.*\(e, f, g\) = \(1, 1, {d.g}\)"):
                    _engine_valuations(arith, eng, function, norm_offset=-9)
                checked += 1
        assert checked >= 10

    def test_precision_above_the_cap_is_a_resource_error(self):
        from capitula.fforacle.picard import CurveArithmetic, OracleConfig

        _, curve, _ = _valuation_curves()[0]
        arith = CurveArithmetic(curve, OracleConfig(max_precision=4))
        base = _split_bases(curve, 1)[0]
        eng = arith.engine(base)
        shift, roots = _oracle_roots(curve, base, eng.labels)
        function = _vanishing_function(curve, base, shift, roots[0], 10)
        with pytest.raises(ResourceError, match="exceeds the cap 4"):
            _engine_valuations(arith, eng, function)

    def test_lift_that_is_not_a_root_raises(self):
        from capitula.fforacle.picard import CurveArithmetic

        checked = 0
        for _, curve, _ in _valuation_curves():
            arith = CurveArithmetic(curve)
            for base in _split_bases(curve, 1):
                eng = arith.engine(base)
                eng.root_mod(0, 4)
                eng._root = eng._root + eng.pi  # still a root modulo pi, not modulo pi^2
                with pytest.raises(InconsistencyError, match=r"not a root modulo pi\^8"):
                    eng.root_mod(0, 8)
                checked += 1
        assert checked >= 10

    def test_norm_mismatch_names_the_decomposition_type(self):
        from capitula.errors import InconsistencyError
        from capitula.fforacle.picard import CurveArithmetic

        # the known failing cover: (e, f, g) = (1, 2, 2) at t^2+4t+2, one place built
        curve = curve_from_json({"kind": "kummer", "q": 5, "p_or_l": 4,
                                 "Q_or_f": {"num": [2, 2, 4], "den": [2, 1]}})
        arith = CurveArithmetic(curve)
        pi = parse_poly(curve.field, "t^2+4*t+2")
        coeffs, _ = _polynomial(curve, pi)
        with pytest.raises(InconsistencyError, match=r"\(1, 2, 2\), 1 place"):
            arith.divisor_of(coeffs, None)


class TestRelationSearch:
    def test_base_relation_is_the_norm_checked_divisor(self):
        # div(pi) read off the conorms, e-weights and the infinite term
        # included, against the divisor computed and checked through the norm
        from capitula.fforacle.picard import CurveArithmetic

        checked = 0
        for entry in corpus():
            arith = CurveArithmetic(entry.curve)
            field = entry.curve.field
            for d in range(1, 4):
                for pi in monic_irreducibles(field, d):
                    coeffs, _ = _polynomial(entry.curve, pi)
                    expected = arith.divisor_of(coeffs, None)
                    assert arith.base_divisor(pi) == expected, (entry.name, render_poly(pi))
                    checked += 1
        assert checked > 100

    def test_genus_zero_certifies_in_one_try(self, monkeypatch):
        # y^2 = t over F_3, S = {inf, t}, b = 2: L(m P0) reaches the places
        # of degree 2 from m = 2 on, so the first try certifies Pic^0 = 0
        from capitula.fforacle import picard

        tries, divisors = [], []
        real_try = picard._try_presentation
        real_divisor_of = picard.CurveArithmetic.divisor_of

        def counting_try(*args):
            tries.append(args[5])
            return real_try(*args)

        def counting_divisor_of(self, *args, **kwargs):
            divisors.append(1)
            return real_divisor_of(self, *args, **kwargs)

        monkeypatch.setattr(picard, "_try_presentation", counting_try)
        monkeypatch.setattr(picard.CurveArithmetic, "divisor_of", counting_divisor_of)
        curve = corpus_entry("kummer_f3_g0").curve
        pd = picard_group(curve, 2, extra_base_places=[INFINITE, parse_base_place(curve.field, "t")])
        assert pd.group.is_trivial()
        assert len(tries) == 1
        assert len(divisors) <= 9

    def test_picard_group_names_a_type_the_engine_cannot_build(self):
        # the known failing cover: (e, f, g) = (1, 2, 2) at t+1 and t^2+4t+2
        curve = curve_from_json({"kind": "kummer", "q": 5, "p_or_l": 4,
                                 "Q_or_f": {"num": [2, 2, 4], "den": [2, 1]}})
        with pytest.raises(InconsistencyError,
                           match=r"cannot build the places above t\+1: "
                                 r"\(e, f, g\) = \(1, 2, 2\), 1 place"):
            picard_group(curve)

    def test_the_type_guard_covers_ramified_places_above_the_bound(self):
        # y^4 = t (t^2+4t+1)^2 over F_5: every place of degree 1 and
        # infinity have types the engine builds, but the ramified quadratic
        # place has (2, 1, 2), which the Riemann-Roch constraints would read
        # as one place
        curve = curve_from_json({"kind": "kummer", "q": 5, "p_or_l": 4,
                                 "Q_or_f": {"num": [0, 1, 3, 3, 3, 1], "den": [1]}})
        with pytest.raises(InconsistencyError,
                           match=r"above t\^2\+4\*t\+1: \(e, f, g\) = \(2, 1, 2\)"):
            picard_group(curve)

    def test_genus_three_certifies_at_b_equal_to_g(self):
        # the genus-3 cover: the first try, at (b, m) = (3, 7), certifies
        import signal

        from capitula.verify import oracle_report

        def timeout(signum, frame):
            raise TimeoutError("the genus-3 Kummer cover over F_5 took over 10 s")

        curve = _genus3_cover()
        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(10)
        try:
            report = oracle_report(curve)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert (report.genus, report.class_number) == (3, 160)
        assert report.pic0 == [2, 2, 2, 2, 10]
        assert report.all_passed, [v.check for v in report.verdicts if not v.passed]

    def test_conjugate_relations_shorten_the_cubic_search(self, monkeypatch):
        # y^3 = t^5+2t^3+2t^2+2t+2 over F_4 (g = 3, h = 183): each smooth
        # divisor also gives its sigma-conjugate, so the search computes
        # fewer divisors than the 64 it took with one relation per divisor
        import json
        from pathlib import Path

        from capitula.fforacle import picard
        from capitula.verify import oracle_report

        calls = []
        real = picard.CurveArithmetic.divisor_of

        def counting(self, *args, **kwargs):
            calls.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(picard.CurveArithmetic, "divisor_of", counting)
        curve = curve_from_json(json.loads(
            (Path(__file__).parent / "data" / "kummer_f4_l3_g3.json").read_text()))
        report = oracle_report(curve, [parse_base_place(curve.field, "t^2+t+2")])
        assert (report.n, report.genus, report.class_number) == (3, 3, 183)
        assert report.all_passed, [v.check for v in report.verdicts if not v.passed]
        assert len(calls) < 64

    def test_the_first_try_takes_b_at_least_g(self, monkeypatch):
        # y^2 = t^5 + t^2 + 1 over F_3 has genus 2: a request at b = 1 tries
        # b = 2 first, so its factor base holds the places of degree 2
        from capitula.fforacle import picard

        tries = []
        real_try = picard._try_presentation

        def counting_try(*args):
            tries.append(args[5])
            return real_try(*args)

        monkeypatch.setattr(picard, "_try_presentation", counting_try)
        curve = curve_from_json({"kind": "kummer", "q": 3, "p_or_l": 2,
                                 "Q_or_f": {"num": [1, 0, 1, 0, 0, 1], "den": [1]}})
        assert ramification_data(curve)[1] == 2
        pd = picard_group(curve, 1)
        assert tries == [2]
        assert pd.group.order == pd.h
        assert 2 in {w.deg for w in pd.factor_base}

    def test_exhausted_escalation_names_its_last_try(self):
        from capitula.fforacle.picard import OracleConfig

        # one try at b = 1, m = 2g + 1 = 3 and one candidate function: no
        # bound may grow, and the index stays at 2h; L(3 P0) has dimension 3
        # over F_2, so 7 candidates
        config = OracleConfig(max_degree_bound=1, max_rr_degree=3, max_candidates=1)
        with pytest.raises(ResourceError, match=r"\(b, m\) = \(1, 3\) with k = 3 "
                                                r"factor-base places, reached Hermite "
                                                r"index 6 against h = 3 after 1 of 7 "
                                                r"candidate functions, stopped by "
                                                r"max_candidates = 1$"):
            picard_group(corpus_entry("as_f2_r0").curve, config=config)

    def test_a_try_that_runs_out_of_candidates_says_so(self, monkeypatch):
        from capitula.fforacle import picard

        # every candidate is tried and none is smooth: the space ran out
        monkeypatch.setattr(picard.CurveArithmetic, "divisor_of", lambda *args, **kw: None)
        config = picard.OracleConfig(max_degree_bound=1, max_rr_degree=3)
        with pytest.raises(ResourceError, match=r"index 6 against h = 3 after all 7 "
                                                r"candidate functions$"):
            picard_group(corpus_entry("as_f2_r0").curve, config=config)

    def test_no_riemann_roch_space_above_the_cap(self, monkeypatch):
        from capitula.fforacle import picard

        # as_f2_r0 has g = 1, so the first try needs m = 2g + 1 = 3 > 2: it is
        # refused before L(3 P0) is built
        built = []
        real = picard.riemann_roch_basis
        monkeypatch.setattr(picard, "riemann_roch_basis",
                            lambda *args: built.append(args[2]) or real(*args))
        config = picard.OracleConfig(max_degree_bound=1, max_rr_degree=2)
        with pytest.raises(ResourceError, match=r"the try at \(b, m\) = \(1, 3\) needs "
                                                r"L\(m P0\) above the cap "
                                                r"max_rr_degree = 2"):
            picard_group(corpus_entry("as_f2_r0").curve, config=config)
        assert built == []


# covers of genus 1 over F_3 whose type at infinity no corpus entry has:
# totally split with s = 0, split with s = -2 and inert with s = -2
WINDOW_COVERS = {
    "as_f3_inf_split": {"kind": "artin_schreier", "q": 3, "p_or_l": 3,
                        "Q_or_f": {"num": [1], "den": [0, 0, 1]}},
    "kummer_f3_inf_split_s-2": {"kind": "kummer", "q": 3, "p_or_l": 2,
                                "Q_or_f": {"num": [0, 1, 1, 1, 1], "den": [1]}},
    "kummer_f3_inf_inert_s-2": {"kind": "kummer", "q": 3, "p_or_l": 2,
                                "Q_or_f": {"num": [1, 1, 0, 0, 2], "den": [1]}},
}


class TestRiemannRoch:
    @staticmethod
    def _rational_places(arith):
        """A degree-one place above infinity and one above a finite
        rational base, where such places exist."""
        field = arith.curve.field
        finite = [BasePlace(pi) for pi in monic_irreducibles(field, 1)]
        out = []
        for bases in ([INFINITE], finite):
            out += [w for base in bases for w in arith.places_above(base) if w.deg == 1][:1]
        return out

    @pytest.mark.parametrize("name", [e.name for e in corpus()] + list(WINDOW_COVERS))
    def test_basis_lies_in_l_of_m_p0(self, name):
        from capitula.fforacle.picard import CurveArithmetic, riemann_roch_basis

        curve = (curve_from_json(WINDOW_COVERS[name]) if name in WINDOW_COVERS
                 else corpus_entry(name).curve)
        arith = CurveArithmetic(curve)
        _, genus = ramification_data(curve)
        m = 2 * genus + 1
        p0s = self._rational_places(arith)
        assert p0s
        for p0 in p0s:
            basis, den = riemann_roch_basis(arith, p0, m, genus)
            assert len(basis) == m + 1 - genus
            for coeffs in basis:
                div = arith.divisor_of(coeffs, None, extra_bases=[p0.base], den=den)
                assert div.get(p0, 0) >= -m, (name, p0.id)
                assert all(v >= 0 for w, v in div.items() if w != p0), (name, p0.id, div)

    def test_window_covers_reach_their_types_at_infinity_and_certify(self):
        from capitula.fforacle.picard import CurveArithmetic

        types = {}
        for name, raw in WINDOW_COVERS.items():
            curve = curve_from_json(raw)
            eng = CurveArithmetic(curve).engine(INFINITE)
            d = eng.data
            types[name] = (ramification_data(curve)[1], (d.e, d.f, d.g), eng.s_y)
            pd = picard_group(curve)
            assert pd.group.order == pd.h, name
        assert types == {"as_f3_inf_split": (1, (1, 1, 3), 0),
                         "kummer_f3_inf_split_s-2": (1, (1, 1, 2), -2),
                         "kummer_f3_inf_inert_s-2": (1, (1, 2, 1), -2)}

    def test_a_short_basis_names_its_dimension(self, monkeypatch):
        # the window holds all of L(m P0) and is solved once, so a lost
        # basis vector is an inconsistency that names the dimension
        from capitula.fforacle import picard

        real = picard._nullspace
        monkeypatch.setattr(picard, "_nullspace", lambda *args: real(*args)[:-1])
        curve = corpus_entry("as_f2_r0").curve
        arith = picard.CurveArithmetic(curve)
        _, genus = ramification_data(curve)
        p0 = self._rational_places(arith)[0]
        m = 2 * genus + 1
        with pytest.raises(InconsistencyError,
                           match=rf"L\({m} P0\) has dimension {m - genus}, "
                                 rf"not m \+ 1 - g = {m + 1 - genus}"):
            picard.riemann_roch_basis(arith, p0, m, genus)

    def test_a_double_ramified_zero_enters_the_denominator(self):
        # y^3 = t^2 (t+1)(t+2) over F_7: at t, y^2 / t is integral, so the
        # basis needs t in its denominator H and the per-i multipliers E_i
        from capitula.fforacle.picard import CurveArithmetic, riemann_roch_basis
        from capitula.verify import oracle_report

        curve = curve_from_json({"kind": "kummer", "q": 7, "p_or_l": 3,
                                 "Q_or_f": {"num": [0, 0, 2, 3, 1]}})
        _, genus = ramification_data(curve)
        assert genus == 2
        pd = picard_group(curve)
        assert pd.group.invariant_factors == (3, 3, 9)
        assert pd.group.order == pd.h == 81
        report = oracle_report(curve)
        assert report.verdicts and all(v.passed for v in report.verdicts)
        arith = CurveArithmetic(curve)
        [p0] = arith.places_above(INFINITE)
        for m in range(3, 9):
            basis, den = riemann_roch_basis(arith, p0, m, genus)
            assert len(basis) == m + 1 - genus, m
            assert den == {BasePlace(Poly.x(curve.field)): 1}


def _rational_det(mat):
    """Determinant over F_q(t) by Gaussian elimination."""
    mat = [list(row) for row in mat]
    n = len(mat)
    det = RationalFunc.of(Poly.one(mat[0][0].field))
    for col in range(n):
        pivot = next((r for r in range(col, n) if not mat[r][col].is_zero()), None)
        if pivot is None:
            return RationalFunc.of(Poly.zero(mat[0][0].field))
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det = det * mat[col][col]
        for r in range(col + 1, n):
            if not mat[r][col].is_zero():
                factor = mat[r][col] / mat[col][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[col])]
    return det


def _multiplication_matrix(curve, coeffs):
    """Columns z y^j in the basis 1, y, ..., y^(n-1) of F_q(t)(y), reduced by
    y^n = c y + D over F_q(t)."""
    n, c = curve.n, curve.model.c
    column = [RationalFunc.of(a) for a in coeffs]
    columns = []
    for _ in range(n):
        columns.append(column)
        top = column[-1]
        column = [RationalFunc.of(Poly.zero(curve.field))] + column[:-1]
        column[1] = column[1] + top * RationalFunc.of(Poly.constant(curve.field, c))
        column[0] = column[0] + top * curve.defining
    return [[columns[j][i] for j in range(n)] for i in range(n)]


def _add_divisors(*divisors):
    out = {}
    for div in divisors:
        for w, v in div.items():
            out[w] = out.get(w, 0) + v
    return {w: v for w, v in out.items() if v}


class TestPolynomialArithmetic:
    @pytest.mark.parametrize("q", [3, 4, 5, 9])
    def test_norm_and_trace_to_the_constants_match_the_residue_field(self, q):
        import random

        from capitula.fforacle.poly import norm_mod, trace_mod

        field = GF(q)
        rng = random.Random(q)
        checked = 0
        for d in (2, 3):
            for pi in monic_irreducibles(field, d):
                kappa = ExtField(field, pi.coeffs)
                for _ in range(4):
                    a = Poly(field, [rng.randrange(q) for _ in range(rng.randrange(1, 2 * d + 1))])
                    u = kappa.element_from_index(sum(
                        field.element_index(c) * q**i for i, c in enumerate((a % pi).coeffs)))
                    norm = (kappa.pow(u, (kappa.order - 1) // (q - 1)) if not kappa.is_zero(u)
                            else kappa.zero())
                    assert kappa.embed(norm_mod(pi, a)) == norm, (q, render_poly(pi), a)
                    assert absolute_trace(field, trace_mod(pi, a)) == absolute_trace(kappa, u)
                    checked += 1
        assert checked >= 4 * 8

    @pytest.mark.parametrize("raw", [
        {"kind": "artin_schreier", "q": 2, "p_or_l": 2, "Q_or_f": {"num": [1, 1, 0, 1], "den": [1, 1]}},
        {"kind": "kummer", "q": 5, "p_or_l": 2, "Q_or_f": {"num": [2, 0, 1, 1], "den": [3, 1]}},
        {"kind": "artin_schreier", "q": 3, "p_or_l": 3, "Q_or_f": {"num": [1, 0, 0, 1], "den": [0, 1]}},
        {"kind": "kummer", "q": 7, "p_or_l": 3, "Q_or_f": {"num": [1, 2, 1], "den": [0, 0, 1]}},
        {"kind": "kummer", "q": 5, "p_or_l": 4, "Q_or_f": {"num": [2, 2, 4], "den": [2, 1]}},
        {"kind": "artin_schreier", "q": 7, "p_or_l": 7, "Q_or_f": {"num": [1, 0, 1, 1], "den": [0, 1]}},
        {"kind": "kummer", "q": 8, "p_or_l": 7, "Q_or_f": {"num": [3, 1, 1], "den": [1, 1]}},
    ])
    def test_polynomial_norm_is_the_determinant_over_the_rational_functions(self, raw):
        import random

        from capitula.fforacle.picard import CurveArithmetic

        # Kummer data is normalized to a polynomial; the Artin-Schreier covers
        # keep a pole, so Dd != 1 there
        curve = curve_from_json(raw)
        arith = CurveArithmetic(curve)
        field = curve.field
        assert (arith.d_den.degree >= 1) == (curve.kind == "artin_schreier")
        rng = random.Random(curve.n)
        for trial in range(6):
            coeffs = [Poly(field, [rng.randrange(field.order) for _ in range(rng.randrange(4))])
                      for _ in range(curve.n)]
            if trial == 0:
                coeffs[1:] = [Poly.zero(field)] * (curve.n - 1)
            if all(a.is_zero() for a in coeffs):
                coeffs[0] = Poly.one(field)
            nrm, k = arith.norm(coeffs)
            assert k == (1 if curve.n == 2 else curve.n)
            expected = _rational_det(_multiplication_matrix(curve, coeffs))
            assert RationalFunc(nrm, arith.d_den**k) == expected, (raw, trial)

    def test_divisor_of_a_base_multiple_adds_the_base_divisor(self):
        from capitula.fforacle.picard import CurveArithmetic, riemann_roch_basis

        checked = 0
        for entry in corpus():
            curve = entry.curve
            arith = CurveArithmetic(curve)
            _, genus = ramification_data(curve)
            p0 = next(w for w in arith.places_above(INFINITE) + [
                w for pi in monic_irreducibles(curve.field, 1)
                for w in arith.places_above(BasePlace(pi))] if w.deg == 1)
            basis, den = riemann_roch_basis(arith, p0, 2 * genus + 1, genus)
            sums = [[a + b for a, b in zip(u, v)] for u, v in zip(basis, basis[1:])]
            for coeffs in basis + sums:
                if all(a.is_zero() for a in coeffs):
                    continue
                div = arith.divisor_of(coeffs, None, extra_bases=[p0.base], den=den)
                for pi in monic_irreducibles(curve.field, 1)[:2] + monic_irreducibles(curve.field, 2)[:1]:
                    for k in (1, 2):
                        multiple = [a * pi**k for a in coeffs]
                        base_div = {w: k * v for w, v in arith.base_divisor(pi).items()}
                        assert arith.divisor_of(multiple, None, extra_bases=[p0.base], den=den) \
                            == _add_divisors(div, base_div), (entry.name, render_poly(pi), k)
                        checked += 1
        assert checked > 200


class TestCurveJson:
    def test_roundtrip(self):
        raw = {"kind": "artin_schreier", "q": 2, "p_or_l": 2,
               "Q_or_f": {"num": [0, 0, 0, 1], "den": [1]}}
        curve = curve_from_json(raw)
        assert curve_to_json(curve) == raw

    @pytest.mark.parametrize("raw", [
        {"kind": "artin_schreier", "q": 4, "p_or_l": 2,
         "Q_or_f": {"num": [1, 0, 0, 0, 1], "den": [0, 1]}},
        {"kind": "kummer", "q": 4, "p_or_l": 3, "Q_or_f": {"num": [0, 1, 1], "den": [1]}},
        {"kind": "artin_schreier", "q": 8, "p_or_l": 2,
         "Q_or_f": {"num": [1, 1, 1], "den": [1, 1]}},
        {"kind": "kummer", "q": 8, "p_or_l": 7,
         "Q_or_f": {"num": [0, 0, 0, 0, 0, 0, 1, 1], "den": [1]}},
        {"kind": "artin_schreier", "q": 9, "p_or_l": 3,
         "Q_or_f": {"num": [1, 0, 1, 2], "den": [1, 0, 1]}},
        {"kind": "kummer", "q": 9, "p_or_l": 4, "Q_or_f": {"num": [0, 0, 2, 0, 1], "den": [1]}},
    ])
    def test_roundtrip_over_table_fields(self, raw):
        curve = curve_from_json(raw)
        assert curve_to_json(curve) == raw
        assert curve_to_json(_over_tower(curve)) == raw

    @pytest.mark.parametrize("raw, defining", [
        ({"kind": "artin_schreier", "q": 4, "p_or_l": 2,
          "Q_or_f": {"num": [0, 0, 0, 2], "den": [1]}}, "2*t^3"),
        ({"kind": "artin_schreier", "q": 8, "p_or_l": 2,
          "Q_or_f": {"num": [0, 2, 0, 1], "den": [1]}}, "t^3+2*t"),
        ({"kind": "kummer", "q": 4, "p_or_l": 3,
          "Q_or_f": {"num": [0, 3, 2], "den": [1]}}, "2*t^2+3*t"),
        ({"kind": "kummer", "q": 8, "p_or_l": 7,
          "Q_or_f": {"num": [0, 5, 6, 1], "den": [1]}}, "t^3+6*t^2+5*t"),
        ({"kind": "artin_schreier", "q": 9, "p_or_l": 3,
          "Q_or_f": {"num": [7, 0, 0, 0, 4], "den": [1]}}, "4*t^4+7"),
        ({"kind": "kummer", "q": 9, "p_or_l": 4,
          "Q_or_f": {"num": [5, 7, 1], "den": [1]}}, "t^2+7*t+5"),
    ])
    def test_coefficients_are_element_indices(self, raw, defining):
        curve = curve_from_json(raw)
        assert render_poly(curve.defining.num) == defining
        assert curve_to_json(curve) == raw

    @pytest.mark.parametrize("q, coeffs", [(4, [0, 0, 0, 4]), (8, [1, 8]), (9, [9, 1]),
                                           (3, [0, 1, 3]), (5, [-1, 1])])
    def test_index_outside_the_field_rejected(self, q, coeffs):
        with pytest.raises(ValidationError, match="not an element index"):
            curve_from_json({"kind": "kummer", "q": q, "p_or_l": 2,
                             "Q_or_f": {"num": coeffs, "den": [1]}})
        with pytest.raises(ValidationError, match="not an element index"):
            curve_from_json({"kind": "kummer", "q": q, "p_or_l": 2,
                             "Q_or_f": {"num": [0, 1], "den": coeffs}})

    @pytest.mark.parametrize("q, p_or_l, fraction, key", [
        (5, 2, {"num": [0.5, 1]}, "num coefficient"),  # was read as y^2 = t
        (5, 2, {"num": ["a", 1]}, "num coefficient"),
        (5, "x", {"num": [0, 1]}, "p_or_l"),
        (5, 2, {"num": [0, 1], "den": [True]}, "den coefficient"),
        (5.0, 2, {"num": [0, 1]}, "q"),
        (True, 2, {"num": [0, 1]}, "q"),
        (5, 2, {"num": "01"}, "Q_or_f num"),
    ])
    def test_non_integer_rejected(self, q, p_or_l, fraction, key):
        with pytest.raises(ValidationError, match=f"^{key} must be"):
            curve_from_json({"kind": "kummer", "q": q, "p_or_l": p_or_l, "Q_or_f": fraction})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError):
            curve_from_json({"kind": "kummer", "q": 3, "p_or_l": 2,
                             "Q_or_f": {"num": [0, 1]}, "extra": 1})

    def test_wrong_characteristic_rejected(self):
        with pytest.raises(ValidationError):
            curve_from_json({"kind": "artin_schreier", "q": 3, "p_or_l": 2,
                             "Q_or_f": {"num": [0, 1]}})

    def test_parse_base_place(self):
        assert parse_base_place(F3, "inf").is_infinite
        place = parse_base_place(F3, "t^2+1")
        assert place.degree == 2
        for q, text in [(5, "t^2+2"), (2, "t^4+t+1")]:
            assert parse_base_place(GF(q), text).pi == parse_poly(GF(q), text)
        with pytest.raises(ValidationError):
            parse_base_place(F3, "2*t+1")

    @pytest.mark.parametrize("q, text", [(5, "t^2+4"), (5, "t^2+1"), (3, "t^2+2"),
                                         (2, "t^4+t^2+1"), (4, "t^2+t+1")])
    def test_parse_base_place_rejects_a_reducible_polynomial(self, q, text):
        import re

        with pytest.raises(ValidationError,
                           match=re.escape(f"'{text}' is reducible over GF({q})")):
            parse_base_place(GF(q), text)
