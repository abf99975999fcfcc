import random
from math import gcd, lcm, prod

import pytest

from capitula.abelian import FinAbGroup
from capitula.errors import HypothesisError, InconsistencyError, ValidationError
from capitula.formulas import (
    analyze_profile,
    b_group,
    chevalley_ff,
    coker_lower_bound,
    delta_index,
    genus_field_h1,
    h1_class_lower_bound,
    hilbert94_lower_bound,
    imaginary_report,
    large_s_report,
    m_invariant,
    norm_index_report,
    order_relation_check,
    prop86_check,
    rank_bound_87,
    semisimple_report,
)
from capitula.profile import (
    CYCLIC,
    ExtensionProfile,
    FunctionField,
    NumberField,
    PlaceProfile,
    abelian_shape,
    compute_dv,
    profile_from_json,
    profile_to_json,
    validate,
)


def cyclic_profile(n, places, base=None, **kw):
    return ExtensionProfile(base=base or NumberField(), n=n, group=CYCLIC,
                            places=tuple(places), **kw)


class TestHilbert94:
    def test_d_equal_n_forces_one(self):
        p = cyclic_profile(2, [PlaceProfile("v", True, 2, 1)])
        assert hilbert94_lower_bound(p) == 1

    def test_nine_with_one_tame_prime(self):
        p = cyclic_profile(9, [
            PlaceProfile("s0", True, 1, 1),
            PlaceProfile("v", False, 3, 1),
        ])
        # D = 3, n0 = 3, prod d / D = 1 -> bound 3
        assert hilbert94_lower_bound(p) == 3

    def test_unramified_split_classical_shape(self):
        p = cyclic_profile(5, [
            PlaceProfile("a", True, 1, 1),
            PlaceProfile("b", True, 1, 1),
        ])
        assert hilbert94_lower_bound(p) == 5

    def test_random_profiles_with_full_d(self):
        # whenever some d_v = n the bound collapses to 1
        rng = random.Random(3)
        for _ in range(50):
            n = rng.choice([2, 3, 4, 6, 8, 12])
            divisors = [d for d in range(1, n + 1) if n % d == 0]
            ds = [rng.choice(divisors) for _ in range(rng.randint(1, 4))] + [n]
            places = [PlaceProfile(f"v{i}", True, 1, d) for i, d in enumerate(ds)]
            p = cyclic_profile(n, places)
            assert hilbert94_lower_bound(p) == 1
            assert coker_lower_bound(p, True) >= 1


class TestBGroup:
    def test_pairwise_coprime_trivial(self):
        p = cyclic_profile(6, [
            PlaceProfile("a", True, 1, 2),
            PlaceProfile("b", True, 1, 3),
        ])
        assert b_group(p).is_trivial()

    def test_two_twos(self):
        p = cyclic_profile(2, [
            PlaceProfile("a", True, 2, 1),
            PlaceProfile("b", True, 1, 2),
        ])
        assert b_group(p).invariant_factors == (2,)

    def test_order_times_d_is_product(self):
        rng = random.Random(11)
        for _ in range(40):
            n = 12
            divisors = [1, 2, 3, 4, 6, 12]
            ds = [rng.choice(divisors) for _ in range(rng.randint(1, 4))]
            places = [PlaceProfile(f"v{i}", True, 1, d) for i, d in enumerate(ds)]
            p = cyclic_profile(n, places)
            g = b_group(p)
            assert g.order * lcm(*ds, 1) == prod(ds)


class TestSemisimple:
    def test_cyclic_three(self):
        p = cyclic_profile(3, [
            PlaceProfile("a", True, 3, 1),
            PlaceProfile("b", True, 1, 1),
        ])
        rep = semisimple_report(p, 2)
        assert rep.h2_units.is_trivial()
        assert rep.ker_j_order == 1

    def test_cyclic_four(self):
        p = cyclic_profile(4, [
            PlaceProfile("a", True, 2, 1),
            PlaceProfile("b", True, 1, 2),
        ])
        rep = semisimple_report(p, 3)
        assert rep.h2_units.invariant_factors == (2,)
        assert rep.ker_j_order == 2

    def test_gcd_guard(self):
        p = cyclic_profile(4, [PlaceProfile("a", True, 2, 1)])
        with pytest.raises(HypothesisError):
            semisimple_report(p, 6)

    def test_remark38_pair_consistency(self):
        # ker_j = n0 and |H^2| = prod d / D must hold simultaneously
        p = cyclic_profile(4, [
            PlaceProfile("a", True, 2, 1),
            PlaceProfile("b", True, 1, 2),
        ])
        rep = semisimple_report(p, 3)
        assert rep.ker_j_order == 4 // 2
        assert rep.h2_units.order == (2 * 2) // 2


class TestCokerLower:
    def test_pairwise_coprime(self):
        p = cyclic_profile(6, [
            PlaceProfile("a", True, 1, 2),
            PlaceProfile("b", True, 1, 3),
        ])
        assert coker_lower_bound(p, True) == 1

    def test_two_twos_n4(self):
        p = cyclic_profile(4, [
            PlaceProfile("a", True, 2, 1),
            PlaceProfile("b", True, 1, 2),
        ])
        assert coker_lower_bound(p, True) == 1

    def test_flag_required(self):
        p = cyclic_profile(4, [PlaceProfile("a", True, 2, 1)])
        with pytest.raises(HypothesisError):
            coker_lower_bound(p, False)

    def test_matches_example53(self):
        # degree l^m cyclic with split S and ramification indices l^{t_i}
        ell, m, ts = 2, 1, [1, 1, 2]
        places = [PlaceProfile("s", True, 1, 1)]
        places += [PlaceProfile(f"p{i}", False, ell**t, 1) for i, t in enumerate(ts)]
        p = cyclic_profile(ell**sum(ts), places)
        # here D = l^max(t), n0 = n/D and the bound is l^t with t = sum - m
        # when n = l^m; rebuild with n = l^m
        p = cyclic_profile(ell**m, [PlaceProfile("s", True, 1, 1)] + [
            PlaceProfile(f"p{i}", False, ell**min(t, m), 1) for i, t in enumerate(ts)
        ])
        # the exponent of Example 5.3: t = sum t_i - m
        t = sum(min(t, m) for t in ts) - m
        assert coker_lower_bound(p, True) == ell**t


class TestNormIndex:
    def test_pairwise_coprime(self):
        p = cyclic_profile(6, [
            PlaceProfile("a", True, 1, 2),
            PlaceProfile("b", True, 1, 3),
        ])
        assert norm_index_report(p) == norm_index_report(p)
        rep = norm_index_report(p)
        assert rep.divisor_bound == 1 and rep.all_units_norms

    def test_two_twos(self):
        p = cyclic_profile(2, [
            PlaceProfile("a", True, 2, 1),
            PlaceProfile("b", True, 1, 2),
        ])
        rep = norm_index_report(p)
        assert rep.divisor_bound == 2 and not rep.all_units_norms

    def test_643(self):
        p = cyclic_profile(12, [
            PlaceProfile("a", True, 1, 6),
            PlaceProfile("b", True, 4, 1),
            PlaceProfile("c", True, 1, 3),
        ])
        rep = norm_index_report(p)
        assert rep.divisor_bound == (6 * 4 * 3) // 12 == 6
        assert not rep.all_units_norms


class TestGenusField:
    def test_class_number_one(self):
        order, structure = genus_field_h1(1, [2, 3], False)
        assert order == 6
        assert structure == FinAbGroup.of(6)

    def test_no_ramification(self):
        order, structure = genus_field_h1(4, [], False)
        assert order == 4 and structure is None

    def test_footnote_formula(self):
        order, structure = genus_field_h1(3, [2], True)
        assert order == 6
        assert structure == FinAbGroup.of(3, 2)

    def test_supplied_class_group(self):
        order, structure = genus_field_h1(4, [3], True, c_f=FinAbGroup((2, 2)))
        assert order == 12
        assert structure == FinAbGroup.of(2, 2, 3)

    def test_ambiguous_structure_suppressed(self):
        order, structure = genus_field_h1(4, [3], True)
        assert order == 12 and structure is None


def imaginary_profile(n, q, places, h_FS=1, q_prime=None):
    return ExtensionProfile(
        base=FunctionField(q), n=n, group=CYCLIC, places=tuple(places),
        h_FS=h_FS, q_prime=q_prime or q,
    )


class TestImaginary:
    def test_r0(self):
        p = imaginary_profile(2, 2, [PlaceProfile("inf", True, 2, 1, deg=1)])
        rep = imaginary_report(p, 1)
        assert rep.ckg_order == 1
        assert rep.cor62_structure == FinAbGroup.trivial()

    def test_r2(self):
        p = imaginary_profile(2, 2, [
            PlaceProfile("inf", True, 2, 1, deg=1),
            PlaceProfile("t", False, 2, 1, deg=1),
            PlaceProfile("t+1", False, 2, 1, deg=1),
        ])
        rep = imaginary_report(p, 1)
        assert rep.ckg_order == 4
        assert rep.cor62_structure == FinAbGroup((2, 2))

    def test_nontrivial_base_class_number(self):
        p = imaginary_profile(3, 3, [
            PlaceProfile("inf", True, 3, 1, deg=1),
            PlaceProfile("v", False, 3, 1, deg=1),
        ], h_FS=5)
        rep = imaginary_report(p, 5)
        assert rep.ckg_order == 15
        assert rep.cor62_structure is None

    def test_hypothesis_guards(self):
        p = imaginary_profile(2, 3, [PlaceProfile("inf", True, 1, 1, deg=1)])
        with pytest.raises(HypothesisError):
            imaginary_report(p, 1)  # two places above S
        p2 = imaginary_profile(2, 3, [PlaceProfile("inf", True, 2, 1, deg=1)])
        with pytest.raises(HypothesisError):
            imaginary_report(p2, 1)  # gcd(2, q'-1) = 2


class TestLargeS:
    def test_single_ramified_prime(self):
        p = cyclic_profile(4, [
            PlaceProfile("v0", True, 4, 1),
            PlaceProfile("s1", True, 1, 1),
        ])
        rep = large_s_report(p)
        assert rep.b_order == 1
        assert rep.cor72_applies and rep.coker_j_is_full_h2

    def test_all_split_no_ramification(self):
        p = cyclic_profile(3, [PlaceProfile("a", True, 1, 1)])
        rep = large_s_report(p)
        assert rep.b_order == 1 and not rep.cor72_applies

    def test_two_ramified(self):
        p = cyclic_profile(2, [
            PlaceProfile("a", True, 2, 1),
            PlaceProfile("b", True, 2, 1),
        ])
        rep = large_s_report(p)
        assert rep.b_order == 2 and not rep.cor72_applies

    def test_ramified_outside_s_rejected(self):
        p = cyclic_profile(2, [
            PlaceProfile("a", True, 1, 1),
            PlaceProfile("b", False, 2, 1),
        ])
        with pytest.raises(HypothesisError):
            large_s_report(p)


class TestOrderRelations:
    def test_totally_ramified_trivial_case(self):
        assert order_relation_check(1, 1, 1, [], 1, [4], 4) == (True, True)

    def test_arithmetic_case(self):
        # first identity: 2*2 == 2*2; second: 2*1 == 2*2 fails
        assert order_relation_check(2, 2, 2, [2], 1, [2], 2) == (True, False)
        assert order_relation_check(2, 2, 2, [2], 2, [2], 2) == (True, True)

    def test_h1_class_lower(self):
        p = cyclic_profile(2, [
            PlaceProfile("a", True, 2, 1),
            PlaceProfile("b", True, 1, 2),
        ])
        assert h1_class_lower_bound(p, True) == 2
        p2 = cyclic_profile(4, [
            PlaceProfile("a", True, 4, 1),
            PlaceProfile("b", True, 2, 1),
        ])
        assert h1_class_lower_bound(p2, True) == 2
        with pytest.raises(HypothesisError):
            h1_class_lower_bound(p, False)


class TestFfInvariants:
    def test_delta(self):
        assert delta_index(2, [(2, 1)]) == 1
        assert delta_index(6, []) == 6
        assert delta_index(4, [(2, 2)]) == 4
        with pytest.raises(ValidationError):
            delta_index(4, [(3, 1)])

    def test_m_invariant(self):
        assert m_invariant(3, [(2, 1)]) == 1
        assert m_invariant(3, [(2, 2)]) == 2
        assert m_invariant(2, [(2, 5), (2, 7)]) == 1
        with pytest.raises(ValidationError):
            m_invariant(3, [])

    def test_prop86(self):
        assert prop86_check(3, 2, [(2, 1), (2, 1)])
        assert not prop86_check(3, 2, [(2, 1)])
        assert prop86_check(2, 2, [(2, 3)])
        assert prop86_check(5, 2, [])

    def test_chevalley(self):
        assert chevalley_ff(1, 1, [2, 2], 2, 1, 2) == 1
        assert chevalley_ff(1, 1, [2], 2, 2, 1) == 2
        # unramified with delta' = n and matching H^1 orders: both sides equal
        assert chevalley_ff(7, 3, [], 4, 4, 3) == 7
        with pytest.raises(InconsistencyError):
            chevalley_ff(1, 1, [3], 2, 1, 4)

    def test_chevalley_permutation_invariant(self):
        a = chevalley_ff(1, 2, [2, 4, 3], 4, 2, 1)
        b = chevalley_ff(1, 2, [3, 2, 4], 4, 2, 1)
        assert a == b

    def test_rank87(self):
        assert rank_bound_87(1, 2, 1) == 0
        assert rank_bound_87(2, 3, 2) == 1
        assert rank_bound_87(3, 2, 3) == 3
        assert rank_bound_87(2, 2, 9) == 0


class TestAnalyze:
    def test_flags_and_bounds(self):
        p = cyclic_profile(9, [
            PlaceProfile("s0", True, 1, 1),
            PlaceProfile("v", False, 3, 1),
        ], h_KS=2)
        report = analyze_profile(p)
        assert report.bounds["hilbert94"].value == 3
        assert report.flags["semisimple"]
        assert report.structures["semisimple_h2"].is_trivial()
        assert report.bounds["ker_j_exact"].value == 3

    @pytest.mark.parametrize("class_exponent", [False, True])
    def test_genus_field_condition_reads_genus_field_h1(self, class_exponent):
        p = cyclic_profile(6, [
            PlaceProfile("s0", True, 1, 1),
            PlaceProfile("u", False, 2, 1),
            PlaceProfile("v", False, 3, 1),
        ], h_FS=6)
        report = analyze_profile(p, genus_field_condition=True,
                                 class_exponent_condition=class_exponent)
        order, structure = genus_field_h1(6, [2, 3], class_exponent)
        assert order == 36 and (structure is not None) == class_exponent
        assert report.bounds["genus_h1_order"].value == order
        assert report.bounds["genus_h1_order"].kind == "exact"
        assert report.structures.get("genus_h1") == structure
        assert "genus_h1_order" not in analyze_profile(p).bounds

    def test_rank87_in_report(self):
        p = ExtensionProfile(
            base=FunctionField(3), n=4, group=abelian_shape(2, 2),
            places=(
                PlaceProfile("s", True, 1, 1, deg=1),
                PlaceProfile("a", False, 2, 1, deg=1, h2_local_order=2),
            ),
            q_prime=3,
        )
        report = analyze_profile(p)
        assert report.bounds["rank87"].value == max(0, 3 - 1)


class TestLocalIntegersOncePerProfile:
    """d_v, D, n0 and |B| are derived on the profile, once."""

    def _profile(self, t_in_s=False):
        # imaginary and semisimple: one place above S, gcd(2, q' - 1) = 1
        # and gcd(2, h_KS) = 1; with t in S instead, S holds every ramified
        # place and the large-S report runs
        return ExtensionProfile(
            base=FunctionField(2), n=2, group=CYCLIC,
            places=(PlaceProfile("inf", True, 2, 1, deg=1),
                    PlaceProfile("t", t_in_s, 2, 1, deg=1)),
            h_FS=1, h_KS=3, q_prime=2)

    @pytest.mark.parametrize("t_in_s, runs", [
        (False, {"hilbert94", "coker_lower", "ker_j_exact", "ambiguous_order",
                 "h1_class_lower", "norm_index_divisor"}),
        (True, {"hilbert94", "coker_lower", "ker_j_exact", "b_order",
                "h1_class_lower", "norm_index_divisor"}),
    ])
    def test_validate_then_analyze_derives_the_d_map_once(self, monkeypatch, t_in_s, runs):
        derivation = ExtensionProfile.__dict__["d_map"]
        real = derivation.func
        calls = []

        def counting(profile):
            calls.append(profile)
            return real(profile)

        monkeypatch.setattr(derivation, "func", counting)
        p = self._profile(t_in_s)
        assert validate(p).ok
        report = analyze_profile(p, units_are_norms=True, h2_units_trivial=True)
        assert runs <= set(report.bounds)
        assert len(calls) == 1

    def test_returned_maps_are_copies(self):
        p = self._profile()
        expected = analyze_profile(profile_from_json(profile_to_json(p)))
        d = compute_dv(p)
        d["inf"] = 7
        d["extra"] = 3
        validate(p).d_map["t"] = 5
        analyze_profile(p).d_map["inf"] = 11
        assert analyze_profile(p) == expected
        assert compute_dv(p) == {"inf": 2, "t": 2}
        with pytest.raises(TypeError):
            p.d_map["inf"] = 7
