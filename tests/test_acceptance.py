"""Acceptance suite: each test enforces one exit criterion exactly
(tolerance zero throughout) and prints a single pass/fail line with its
timing.  Run with -s to see the lines."""

import random
import time
from fractions import Fraction
from itertools import product as iproduct
from math import gcd, lcm, prod

import pytest

from capitula.abelian import FinAbGroup, sum_map_kernel
from capitula.cohomology import (
    Cyclic,
    GModule,
    h1_cyclic,
    h2_cyclic,
    herbrand_quotient,
    multiplicative_group_module,
    tate_h0,
)
from capitula.formulas import (
    chevalley_ff,
    hilbert94_lower_bound,
    m_invariant,
    order_relation_check,
    prop86_check,
    semisimple_report,
)
from capitula.fforacle import (
    INFINITE,
    capitulation_kernel_order,
    corpus,
    corpus_entry,
    delta_prime,
    galois_invariants,
    invariants_of,
    picard_group,
    ramification_data,
    realize_profile,
    s_class_group,
    strongly_ambiguous_order,
)
from capitula.profile import (
    CYCLIC,
    ExtensionProfile,
    GENERAL,
    NumberField,
    PlaceProfile,
    validate,
)

from enum_oracle import structure_by_enumeration, sum_map_kernel_elements, tuple_adder
from module_factory import random_cyclic_gmodule


def stamp(tag, started, limit):
    elapsed = time.monotonic() - started
    print(f"[{tag}] PASS ({elapsed:.2f}s, limit {limit}s)")
    assert elapsed < limit


IMAGINARY_AS = ["as_f2_r0", "as_f2_r1", "as_f2_r2", "as_f3_r0", "as_f3_r1",
                "as_f4_g1", "as_f3_g3"]
THM85_SET = ["kummer_f3_g0", "kummer_f3_g1", "as_f4_g1", "kummer_f4_g1"]


def test_ac1_sum_map_kernel_exhaustive():
    t0 = time.monotonic()
    for r in range(1, 5):
        for d in iproduct(range(1, 7), repeat=r):
            big_d = lcm(*d)
            group = sum_map_kernel(list(d), big_d)
            assert group.order == prod(d) // big_d
            elems = sum_map_kernel_elements(d, big_d)
            assert group.invariant_factors == structure_by_enumeration(
                elems, tuple_adder(d), tuple([0] * r))
    stamp("AC1 sum-map kernel order and structure, all d-vectors", t0, 5)


def test_ac2_herbrand_and_periodicity():
    t0 = time.monotonic()
    rng = random.Random(20260810)
    for _ in range(200):
        module = random_cyclic_gmodule(rng, max_n=12, max_order=100)
        assert herbrand_quotient(module) == Fraction(1)
        assert h2_cyclic(module).invariant_factors == tate_h0(module).invariant_factors
    stamp("AC2 Herbrand quotient 1 and periodicity, 200 modules", t0, 10)


def test_ac3_hilbert_90():
    t0 = time.monotonic()
    for q in (2, 3, 4):
        for n in (2, 3):
            assert h1_cyclic(multiplicative_group_module(q, n)).is_trivial()
    stamp("AC3 Hilbert 90 for q in {2,3,4}, n in {2,3}", t0, 1)


@pytest.mark.parametrize("name", IMAGINARY_AS)
def test_ac4_elementary_abelian_ambiguous_classes(name):
    t0 = time.monotonic()
    entry = corpus_entry(name)
    pd = picard_group(entry.curve)
    assert pd.group.order == pd.h  # certified by L(1)
    cks = s_class_group(pd, [INFINITE])
    ambiguous = invariants_of(cks.group, cks.action)
    p = entry.curve.n
    expected = FinAbGroup.of(*([p] * entry.finite_ramified))
    assert ambiguous.invariant_factors == expected.invariant_factors
    stamp(f"AC4 ambiguous classes (Z/{p})^{entry.finite_ramified} on {name}", t0, 60)


def test_ac5_ambiguous_order_identity():
    t0 = time.monotonic()
    for name in IMAGINARY_AS:
        entry = corpus_entry(name)
        pd = picard_group(entry.curve)
        profile, _ = realize_profile(entry.curve, [INFINITE], pd=pd)
        cks = s_class_group(pd, [INFINITE])
        ambiguous = invariants_of(cks.group, cks.action)
        expected = prod(p.e for p in profile.ramified_outside_s)
        assert ambiguous.order == expected
    stamp("AC5 |C_KS^G| equals the product of outside-S ramification indices", t0, 60)


def test_ac6_ambiguous_class_number_formula_both_sides():
    t0 = time.monotonic()
    for name in THM85_SET:
        entry = corpus_entry(name)
        curve = entry.curve
        q, n = curve.field.order, curve.n
        ram, genus = ramification_data(curve)
        assert genus <= 2
        pd = picard_group(curve)
        left = galois_invariants(pd).order
        unit_module = GModule.trivial_action(Cyclic(n), FinAbGroup.of(q - 1))
        h1_const = h1_cyclic(unit_module).order
        h2_const = tate_h0(unit_module).order
        m_inv = m_invariant(q, [(r.e, r.place.degree) for r in ram])
        assert (h2_const * m_inv) % (q - 1) == 0
        h1_kmod = (h2_const * m_inv) // (q - 1)
        right = chevalley_ff(1, h1_kmod, [r.e for r in ram], n, delta_prime(pd), h1_const)
        assert left == right
    stamp(f"AC6 class number formula on {len(THM85_SET)} cyclic covers", t0, 120)


def test_ac7_ramification_congruence():
    t0 = time.monotonic()
    for entry in corpus():
        ram, _ = ramification_data(entry.curve)
        assert prop86_check(entry.curve.field.order, entry.curve.n,
                            [(r.e, r.place.degree) for r in ram])
    # one ramified degree-one prime over F_3 in degree 2 is unrealizable
    assert prop86_check(3, 2, [(2, 1)]) is False
    stamp("AC7 ramification congruence on corpus; lone F_3 prime rejected", t0, 60)


def test_ac8_capitulation_bound_consistency():
    t0 = time.monotonic()
    for entry in corpus():
        pd = picard_group(entry.curve)
        profile, _ = realize_profile(entry.curve, [INFINITE], pd=pd)
        assert hilbert94_lower_bound(profile) == 1
        if gcd(profile.n, profile.h_KS) == 1:
            report = semisimple_report(profile, profile.h_KS)
            assert report.ker_j_order == 1
    stamp("AC8 Hilbert 94 bound and coprime-case kernel order collapse to 1", t0, 60)


def test_ac9_order_relations_from_oracle_values():
    t0 = time.monotonic()
    checked = 0
    for entry in corpus():
        curve = entry.curve
        pd = picard_group(curve)
        profile, _ = realize_profile(curve, [INFINITE], pd=pd)
        if profile.s_k_count() != 1:
            continue
        q, n = curve.field.order, curve.n
        cks = s_class_group(pd, [INFINITE])
        ker_j = capitulation_kernel_order(cks)
        trans = strongly_ambiguous_order(cks)
        coker_jprime = trans // (profile.h_FS // ker_j)
        unit_module = GModule.trivial_action(Cyclic(n), FinAbGroup.of(q - 1))
        first, second = order_relation_check(
            ker_j,
            h1_cyclic(unit_module).order,
            coker_jprime,
            [p.e for p in profile.ramified_outside_s],
            tate_h0(unit_module).order,
            [p.local_degree for p in profile.places if p.in_S],
            n,
        )
        assert first and second
        checked += 1
    assert checked >= 6
    stamp(f"AC9 unit-cohomology order relations on {checked} imaginary covers", t0, 60)


def test_ac10_local_h2_validator_and_coprimality():
    t0 = time.monotonic()
    bad_upper = ExtensionProfile(NumberField(), 8, GENERAL, (
        PlaceProfile("s", True, 1, 1),
        PlaceProfile("v", False, 2, 2, h2_local_order=8),
    ))
    assert any(v.rule == "local-h2-upper" for v in validate(bad_upper).violations)
    bad_lower = ExtensionProfile(NumberField(), 8, GENERAL, (
        PlaceProfile("s", True, 1, 1),
        PlaceProfile("v", False, 2, 2, h2_local_order=3),
    ))
    assert any(v.rule == "local-h2-lower" for v in validate(bad_lower).violations)

    rng = random.Random(11)
    implication_checked = 0
    for _ in range(1000):
        n = rng.choice([2, 3, 4, 6, 8, 12])
        places = [PlaceProfile("s0", True, 1, 1)]
        for i in range(rng.randint(1, 4)):
            e = rng.choice([d for d in range(2, n + 1) if n % d == 0])
            f = rng.choice([d for d in range(1, n + 1) if n % (e * d) == 0] or [1])
            g = gcd(e, f)
            valid_h2 = [h for h in range(1, e * e + 1)
                        if h % g == 0 and (e * e) % h == 0]
            places.append(PlaceProfile(
                f"v{i}", False, e, f, h2_local_order=rng.choice(valid_h2)))
        profile = ExtensionProfile(NumberField(), n, GENERAL, tuple(places))
        report = validate(profile)
        assert not any(v.rule.startswith("local-h2") for v in report.violations)
        if report.d_prime_pairwise_coprime and report.d_pairwise_coprime is not None:
            assert report.d_pairwise_coprime
            implication_checked += 1
    assert implication_checked > 0
    stamp(f"AC10 local H^2 validator; coprimality implication on 1000 profiles "
          f"({implication_checked} with coprime d')", t0, 5)
