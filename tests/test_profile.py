import ast
import inspect
import json
import re

import pytest

from capitula.arith import is_prime_power
from capitula.errors import HypothesisError, ValidationError
from capitula.profile import (
    CYCLIC,
    GENERAL,
    ExtensionProfile,
    FunctionField,
    NumberField,
    PlaceProfile,
    abelian_shape,
    compute_D_n0,
    compute_dv,
    d_prime_values,
    profile_from_json,
    profile_to_json,
    validate,
)


def cyclic_profile(n, places, **kw):
    return ExtensionProfile(base=NumberField(), n=n, group=CYCLIC, places=tuple(places), **kw)


class TestComputeDv:
    def test_ramified_outside_s_cyclic(self):
        p = cyclic_profile(4, [
            PlaceProfile("s0", True, 1, 1),
            PlaceProfile("v", False, 2, 1),
        ])
        assert compute_dv(p)["v"] == 2

    def test_s_place_uses_local_degree(self):
        p = cyclic_profile(4, [PlaceProfile("v", True, 2, 2)])
        assert compute_dv(p)["v"] == 4

    def test_ramified_s_place_uses_s_branch(self):
        p = cyclic_profile(4, [PlaceProfile("v", True, 2, 2)])
        # in R ∩ S the S-branch wins: local degree, not e
        assert compute_dv(p)["v"] == 4

    def test_general_group_needs_h2(self):
        p = ExtensionProfile(NumberField(), 4, GENERAL, (
            PlaceProfile("s0", True, 1, 1),
            PlaceProfile("v", False, 2, 2),
        ))
        with pytest.raises(ValidationError):
            compute_dv(p)
        p2 = ExtensionProfile(NumberField(), 4, GENERAL, (
            PlaceProfile("s0", True, 1, 1),
            PlaceProfile("v", False, 2, 2, h2_local_order=4),
        ))
        assert compute_dv(p2)["v"] == 4

    def test_order_independent(self):
        places = [
            PlaceProfile("a", True, 1, 2),
            PlaceProfile("b", False, 3, 1),
            PlaceProfile("c", True, 1, 1),
        ]
        p1 = cyclic_profile(6, places)
        p2 = cyclic_profile(6, list(reversed(places)))
        assert compute_dv(p1) == compute_dv(p2)

    def test_dv_divides_n_enforced(self):
        p = cyclic_profile(5, [PlaceProfile("v", True, 2, 1)])
        with pytest.raises(ValidationError):
            compute_dv(p)


class TestDn0:
    def test_basic(self):
        p = cyclic_profile(6, [
            PlaceProfile("a", True, 1, 2),
            PlaceProfile("b", True, 3, 1),
        ])
        assert compute_D_n0(p) == (6, 1)

    def test_all_split(self):
        p = cyclic_profile(5, [PlaceProfile("a", True, 1, 1)])
        assert compute_D_n0(p) == (1, 5)

    def test_three_one_one(self):
        p = cyclic_profile(9, [
            PlaceProfile("a", True, 3, 1),
            PlaceProfile("b", True, 1, 1),
            PlaceProfile("c", True, 1, 1),
        ])
        assert compute_D_n0(p) == (3, 3)

    def test_non_cyclic_rejected(self):
        p = ExtensionProfile(NumberField(), 4, abelian_shape(2, 2),
                             (PlaceProfile("a", True, 1, 1),))
        with pytest.raises(HypothesisError):
            compute_D_n0(p)


def general_profile(n, places, **kw):
    return ExtensionProfile(base=NumberField(), n=n, group=GENERAL, places=tuple(places), **kw)


# one profile per validate rule, each violating that rule
TRIPPING = {
    "unique-ids": cyclic_profile(2, [PlaceProfile("v", True, 1, 1),
                                     PlaceProfile("v", True, 2, 1)]),
    "nonempty-S": cyclic_profile(2, [PlaceProfile("v", False, 2, 1)]),
    "group-order": ExtensionProfile(NumberField(), 6, abelian_shape(2, 2),
                                    (PlaceProfile("s0", True, 1, 1),)),
    "q-prime-base": cyclic_profile(2, [PlaceProfile("s0", True, 2, 1)], q_prime=4),
    "q-prime-power": ExtensionProfile(FunctionField(3), 2, CYCLIC, (
        PlaceProfile("inf", True, 2, 1, deg=1),), q_prime=6),
    "outside-S-prime": cyclic_profile(2, [PlaceProfile("s0", True, 1, 1),
                                          PlaceProfile("v", False, 1, 2)]),
    "local-degree": cyclic_profile(4, [PlaceProfile("s0", True, 3, 1)]),
    "local-h2-lower": general_profile(8, [PlaceProfile("s0", True, 1, 1),
                                          PlaceProfile("v", False, 2, 2, h2_local_order=3)]),
    "local-h2-upper": general_profile(8, [PlaceProfile("s0", True, 1, 1),
                                          PlaceProfile("v", False, 2, 2, h2_local_order=8)]),
    "local-h2-cyclic": cyclic_profile(4, [PlaceProfile("s0", True, 1, 1),
                                          PlaceProfile("v", False, 4, 1, h2_local_order=2)]),
    # d' = (1, 2, 3) is pairwise coprime, d = (1, 3, 3) is not; h2 = 3
    # also fails to divide e^2 = 4 at v
    "coprime-implication": general_profile(6, [
        PlaceProfile("s0", True, 1, 1),
        PlaceProfile("v", False, 2, 1, h2_local_order=3),
        PlaceProfile("w", False, 3, 1, h2_local_order=3)]),
}


class TestValidate:
    def test_well_formed(self):
        p = cyclic_profile(4, [
            PlaceProfile("s0", True, 1, 2),
            PlaceProfile("v", False, 2, 1, h2_local_order=2),
        ])
        report = validate(p)
        assert report.ok
        assert report.d_map == {"s0": 2, "v": 2}

    def test_h2_exceeding_e_squared(self):
        p = ExtensionProfile(NumberField(), 8, GENERAL, (
            PlaceProfile("s0", True, 1, 1),
            PlaceProfile("v", False, 2, 2, h2_local_order=8),
        ))
        report = validate(p)
        assert any(v.rule == "local-h2-upper" for v in report.violations)

    def test_h2_missing_gcd_factor(self):
        p = ExtensionProfile(NumberField(), 8, GENERAL, (
            PlaceProfile("s0", True, 1, 1),
            PlaceProfile("v", False, 2, 2, h2_local_order=3),
        ))
        report = validate(p)
        assert any(v.rule == "local-h2-lower" for v in report.violations)

    def test_cyclic_h2_must_equal_e(self):
        p = cyclic_profile(4, [
            PlaceProfile("s0", True, 1, 1),
            PlaceProfile("v", False, 4, 1, h2_local_order=2),
        ])
        report = validate(p)
        assert any(v.rule == "local-h2-cyclic" for v in report.violations)

    def test_empty_s_flagged(self):
        p = cyclic_profile(2, [PlaceProfile("v", False, 2, 1)])
        report = validate(p)
        assert any(v.rule == "nonempty-S" for v in report.violations)

    def test_duplicate_ids(self):
        p = cyclic_profile(2, [
            PlaceProfile("v", True, 1, 1),
            PlaceProfile("v", True, 2, 1),
        ])
        assert any(v.rule == "unique-ids" for v in validate(p).violations)

    def test_inert_nonsplit_outside_s(self):
        p = cyclic_profile(2, [
            PlaceProfile("s0", True, 1, 1),
            PlaceProfile("v", False, 1, 2),
        ])
        assert any(v.rule == "outside-S-prime" for v in validate(p).violations)

    @pytest.mark.parametrize("q_prime,ok", [(3, True), (27, True), (1, False), (6, False),
                                            (12, False), (2, False)])
    def test_q_prime_is_a_power_of_q(self, q_prime, ok):
        p = ExtensionProfile(FunctionField(3), 2, CYCLIC, (
            PlaceProfile("inf", True, 2, 1, deg=1),), q_prime=q_prime)
        rules = [v.rule for v in validate(p).violations]
        assert rules == ([] if ok else ["q-prime-power"])

    @pytest.mark.parametrize("rule", sorted(TRIPPING))
    def test_every_rule_has_a_profile_that_trips_it(self, rule):
        assert rule in [v.rule for v in validate(TRIPPING[rule]).violations]

    def test_the_tripping_profiles_name_every_rule(self):
        # each Violation that validate builds names its rule as a constant
        tree = ast.parse(inspect.getsource(validate))
        rules = {node.args[1].value for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "Violation"}
        assert rules == set(TRIPPING)

    def test_d_prime_report(self):
        p = cyclic_profile(6, [
            PlaceProfile("a", True, 1, 2),
            PlaceProfile("b", False, 3, 1),
        ])
        report = validate(p)
        assert report.d_prime == {"a": 2, "b": 3}
        assert report.d_prime_pairwise_coprime
        assert report.d_pairwise_coprime


class TestFunctionField:
    @pytest.mark.parametrize("q", [6, 10, 12, 15, 100])
    def test_q_must_be_a_prime_power(self, q):
        with pytest.raises(ValidationError, match=f"no finite field has {q} elements"):
            FunctionField(q)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 25, 27, 49, 1024, 10007])
    def test_prime_powers_are_accepted(self, q):
        assert FunctionField(q).q == q

    def test_prime_power_test_matches_trial_division(self):
        def by_trial_division(n):
            p = next((d for d in range(2, n + 1) if n % d == 0), None)
            while p and n % p == 0:
                n //= p
            return p is not None and n == 1

        assert [n for n in range(-2, 5000) if is_prime_power(n) != by_trial_division(n)] == []
        # sizes that trial division cannot reach: Mersenne primes, their
        # powers, and a product of two primes near 10^9
        for p in (2**61 - 1, 2**127 - 1):
            assert is_prime_power(p) and is_prime_power(p**3)
            assert not is_prime_power(3 * p) and not is_prime_power(p * (p + 2))
        assert not is_prime_power((10**9 + 7) * (10**9 + 9))
        # strong pseudoprimes to the bases 2, 3, 5, 7 and to the first 12
        # primes: composite, and no prime powers
        assert not is_prime_power(3215031751)
        assert not is_prime_power(318665857834031151167461)
        assert is_prime_power(2**4096)

    def test_profile_json_over_six_elements_is_refused(self):
        raw = {"base": {"function": {"q": 6}}, "n": 2, "group": "cyclic",
               "places": [{"id": "inf", "in_S": True, "e": 2, "f": 1}]}
        with pytest.raises(ValidationError, match="no finite field has 6 elements"):
            profile_from_json(raw)


class TestJson:
    def test_roundtrip(self):
        raw = {
            "base": {"function": {"q": 3}},
            "n": 2,
            "group": "cyclic",
            "q_prime": 3,
            "h_KS": 1,
            "places": [
                {"id": "inf", "in_S": True, "e": 2, "f": 1, "deg": 1},
                {"id": "t", "in_S": False, "e": 2, "f": 1, "deg": 1},
            ],
        }
        p = profile_from_json(raw)
        assert p.base == FunctionField(3)
        assert p.place("t").ramified
        again = profile_from_json(profile_to_json(p))
        assert again == p

    def test_unknown_top_key_rejected(self):
        with pytest.raises(ValidationError):
            profile_from_json({"base": "number", "n": 2, "group": "cyclic", "extra": 1})

    def test_unknown_place_key_rejected(self):
        with pytest.raises(ValidationError):
            profile_from_json({
                "base": "number", "n": 2, "group": "cyclic",
                "places": [{"id": "v", "in_S": True, "e": 1, "f": 1, "bogus": 2}],
            })

    def test_abelian_group_parse(self):
        p = profile_from_json({
            "base": "number", "n": 4, "group": {"abelian": [2, 2]},
            "places": [{"id": "v", "in_S": True, "e": 1, "f": 1}],
        })
        assert p.group == abelian_shape(2, 2)

    def test_parse_from_string(self):
        text = json.dumps({"base": "number", "n": 2, "group": "cyclic", "places": []})
        assert profile_from_json(text).n == 2

    def test_malformed_base(self):
        with pytest.raises(ValidationError):
            profile_from_json({"base": "padic", "n": 2, "group": "cyclic"})

    @pytest.mark.parametrize("path, value, named", [
        (("base", "function", "q"), 3.9, "q"),
        (("n",), "4", "n"),
        (("h_KS",), 2.5, "h_KS"),
        (("q_prime",), "3", "q_prime"),
        (("places", 0, "e"), 2.9, "place inf: e"),
        (("places", 1, "f"), True, "place t: f"),
        (("places", 1, "deg"), 1.0, "place t: deg"),
        (("places", 0, "in_S"), "false", "place inf: in_S"),
        (("places", 1, "in_S"), 0, "place t: in_S"),
    ])
    def test_values_are_read_as_they_stand(self, path, value, named):
        # integers are JSON integers and in_S a JSON boolean: a float, a
        # string or a bool in their place is rejected by name, not converted
        raw = {
            "base": {"function": {"q": 3}}, "n": 2, "group": "cyclic",
            "q_prime": 3, "h_KS": 1,
            "places": [
                {"id": "inf", "in_S": True, "e": 2, "f": 1, "deg": 1},
                {"id": "t", "in_S": False, "e": 2, "f": 1, "deg": 1},
            ],
        }
        assert profile_from_json(raw).n == 2
        target = raw
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ValidationError, match=f"^{re.escape(named)} must be"):
            profile_from_json(raw)

    @pytest.mark.parametrize("raw, message", [
        ({"base": "number", "n": 2, "group": {"abelian": 5}},
         "abelian must be a JSON list, got 5"),
        ({"base": "number", "n": 2, "group": "cyclic", "places": 5},
         "places must be a JSON list, got 5"),
        ({"base": "number", "n": 2, "group": "cyclic",
          "places": [{"id": 5, "in_S": True, "e": 1, "f": 2}]},
         "place id must be a JSON string, got 5"),
    ])
    def test_lists_and_ids_are_read_as_they_stand(self, raw, message):
        # no bare TypeError from iterating a number, and no id converted by str()
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            profile_from_json(raw)

    def test_abelian_orders_are_read_as_they_stand(self):
        with pytest.raises(ValidationError, match="^abelian order must be an integer"):
            profile_from_json({
                "base": "number", "n": 4, "group": {"abelian": [2, 2.0]},
                "places": [{"id": "v", "in_S": True, "e": 1, "f": 1}],
            })
