import random
from fractions import Fraction
from math import gcd

import pytest

from capitula.abelian import FinAbGroup
from capitula.cohomology import (
    AbelianGroup,
    Cyclic,
    GModule,
    h1_cyclic,
    h2_cyclic,
    h_general,
    herbrand_quotient,
    hom_g_dual,
    multiplicative_group_module,
    tate_h0,
)
from capitula.errors import ResourceError, UnsupportedError, ValidationError

from cohomology_oracle import (
    all_tuples,
    bar_h1_by_enumeration,
    bar_h2_by_enumeration,
    cyclic_tate_by_enumeration,
    equivariant_homs_by_enumeration,
    matrix_action,
)
from module_factory import random_cyclic_gmodule


def bar_inputs(m):
    """Group elements, product and action of a GModule for the bar oracles."""
    orders = m.group.generator_orders
    fs = m.module.invariant_factors
    gens = [matrix_action([list(r) for r in mat], fs) for mat in m.action]

    def mul(g, h):
        return tuple((a + b) % n for a, b, n in zip(g, h, orders))

    def act_of(g):
        def act(x):
            for gen, e in zip(gens, g):
                for _ in range(e):
                    x = gen(x)
            return x
        return act

    return all_tuples(orders), mul, act_of, fs


def minus_one(module):
    k = module.rank
    return tuple(tuple(-1 if i == j else 0 for j in range(k)) for i in range(k))


class TestGModuleValidation:
    def test_wrong_order_rejected(self):
        with pytest.raises(ValidationError):
            GModule.cyclic(3, FinAbGroup.of(4), ((-1,),))  # (-1)^3 = -1 != 1

    def test_non_well_defined_rejected(self):
        with pytest.raises(ValidationError):
            GModule(Cyclic(2), FinAbGroup((2, 4)), (((1, 1), (1, 1)),))

    def test_noncommuting_rejected(self):
        swap = ((0, 1), (1, 0))
        unit = ((1, 0), (0, 3))
        with pytest.raises(ValidationError):
            GModule(AbelianGroup((2, 4)), FinAbGroup((4, 4)), (swap, unit))

    # over (Z/2)^3 on Z/2 x Z/2: swap and shear each have order 2 but do not
    # commute, and the rotation has order 3
    IDENT = ((1, 0), (0, 1))
    SWAP = ((0, 1), (1, 0))
    SHEAR = ((1, 1), (0, 1))
    ROTATION = ((0, 1), (1, 1))

    def test_first_and_third_generators_must_commute(self):
        with pytest.raises(ValidationError, match="generator actions do not commute"):
            GModule(AbelianGroup((2, 2, 2)), FinAbGroup((2, 2)),
                    (self.SWAP, self.IDENT, self.SHEAR))

    def test_last_generator_must_satisfy_its_order(self):
        with pytest.raises(ValidationError,
                           match="action matrix does not satisfy its generator order"):
            GModule(AbelianGroup((2, 2, 2)), FinAbGroup((2, 2)),
                    (self.IDENT, self.IDENT, self.ROTATION))

    def test_cyclic_only_guards(self):
        m = GModule.trivial_action(AbelianGroup((2, 2)), FinAbGroup.of(2))
        with pytest.raises(UnsupportedError):
            tate_h0(m)

    # every text GModule validation can raise, one input each
    @pytest.mark.parametrize("group, module, action, text", [
        (AbelianGroup((2, 2)), FinAbGroup((2,)), (((1,),),),
         "need exactly one action matrix per group generator"),
        (Cyclic(2), FinAbGroup((2, 4)), (((1,),),), "action matrix has wrong shape"),
        (Cyclic(2), FinAbGroup((2, 4)), (((1, 1), (1, 1)),),
         "action matrix is not well-defined on the module"),
        (Cyclic(3), FinAbGroup((7,)), (((0,),),),
         "action matrix does not satisfy its generator order"),
        # 2 has order 3 modulo 7, too high for Z/2
        (Cyclic(2), FinAbGroup((7,)), (((2,),),),
         "action matrix does not satisfy its generator order"),
        (AbelianGroup((2, 2)), FinAbGroup((2, 2)), (SWAP, SHEAR),
         "generator actions do not commute"),
    ], ids=["count", "shape", "well_defined", "sigma_zero", "order_too_high", "commute"])
    def test_error_texts(self, group, module, action, text):
        with pytest.raises(ValidationError) as err:
            GModule(group, module, action)
        assert str(err.value) == text


def _naive_norm(sigma, n, fs):
    """1 + sigma + ... + sigma^(n-1) summed power by power, row i mod fs[i]."""
    k = len(fs)
    power = [[int(i == j) for j in range(k)] for i in range(k)]
    total = [[0] * k for _ in range(k)]
    for _ in range(n):
        total = [[a + b for a, b in zip(r, p)] for r, p in zip(total, power)]
        power = [[sum(sigma[i][t] * power[t][j] for t in range(k)) for j in range(k)]
                 for i in range(k)]
    return tuple(tuple(x % f for x in row) for row, f in zip(total, fs))


class TestStoredNorms:
    """Validation stores (s_i - 1, N_i); N_i must be the plain sum of powers."""

    @staticmethod
    def _check(m):
        fs = m.module.invariant_factors
        assert len(m.blocks) == len(m.action)
        for (smo, norm), sigma, n in zip(m.blocks, m.action, m.group.generator_orders):
            assert norm == _naive_norm(sigma, n, fs)
            assert smo == tuple(tuple(x - (i == j) for j, x in enumerate(row))
                                for i, row in enumerate(sigma))

    def test_random_cyclic_modules(self):
        rng = random.Random(18)
        for _ in range(150):
            self._check(random_cyclic_gmodule(rng, max_n=12))

    def test_noncyclic_groups(self):
        from capitula.verify import NONCYCLIC_GROUPS, _random_module

        rng = random.Random(19)
        for orders in NONCYCLIC_GROUPS:
            for _ in range(12):
                self._check(_random_module(rng, orders))


class TestCyclicTate:
    def test_large_cyclic_group(self):
        # N = 1 + s + ... + s^(n-1) by doubling: O(log n) products, not n - 1
        import signal

        def timeout(signum, frame):
            raise TimeoutError("cyclic cohomology of Z/10^12 took over 5 s")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(5)
        try:
            m = GModule.trivial_action(Cyclic(10**12), FinAbGroup((6,)))
            assert h1_cyclic(m) == FinAbGroup((2,))
            assert tate_h0(m) == FinAbGroup((2,))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_trivial_action_z4_on_z6(self):
        m = GModule.trivial_action(Cyclic(4), FinAbGroup.of(6))
        assert tate_h0(m).invariant_factors == (2,)
        assert tate_h0(m).invariant_factors == cyclic_tate_by_enumeration((6,), [[1]], 4, 0)

    def test_n_equals_one(self):
        m = GModule.trivial_action(Cyclic(1), FinAbGroup.of(12))
        assert tate_h0(m).is_trivial()
        assert h1_cyclic(m).is_trivial()

    def test_minus_one_on_z4(self):
        m = GModule.cyclic(2, FinAbGroup.of(4), ((-1,),))
        assert tate_h0(m).invariant_factors == (2,)
        assert h1_cyclic(m).invariant_factors == (2,)
        assert cyclic_tate_by_enumeration((4,), [[-1]], 2, 0) == (2,)
        assert cyclic_tate_by_enumeration((4,), [[-1]], 2, 1) == (2,)

    def test_h1_trivial_action_z3_on_z3(self):
        m = GModule.trivial_action(Cyclic(3), FinAbGroup.of(3))
        assert h1_cyclic(m).invariant_factors == (3,)

    def test_h1_trivial_module(self):
        m = GModule.trivial_action(Cyclic(5), FinAbGroup.trivial())
        assert h1_cyclic(m).is_trivial()

    def test_h1_gcd_closed_form(self):
        # trivial action of Z/n on Z/m has |H^1| = gcd(n, m)
        for n in range(1, 13):
            for m in range(2, 13):
                mod = GModule.trivial_action(Cyclic(n), FinAbGroup.of(m))
                assert h1_cyclic(mod).order == gcd(n, m)
                assert tate_h0(mod).order == gcd(n, m)

    def test_herbrand_examples(self):
        m = GModule.cyclic(2, FinAbGroup.of(4), ((-1,),))
        assert herbrand_quotient(m) == Fraction(1)
        triv = GModule.trivial_action(Cyclic(7), FinAbGroup.trivial())
        assert herbrand_quotient(triv) == 1
        m2 = GModule.trivial_action(Cyclic(4), FinAbGroup.of(6))
        assert herbrand_quotient(m2) == 1

    def test_structure_matches_enumeration_on_random_modules(self):
        rng = random.Random(20260810)
        for _ in range(40):
            m = random_cyclic_gmodule(rng, max_n=6, max_order=40)
            rows = [list(r) for r in m.action[0]]
            fs = m.module.invariant_factors
            n = m.group.order
            assert tate_h0(m).invariant_factors == cyclic_tate_by_enumeration(fs, rows, n, 0)
            assert h1_cyclic(m).invariant_factors == cyclic_tate_by_enumeration(fs, rows, n, 1)

    def test_verify_suite_enumeration_matches_oracle(self):
        # the structures `capitula verify cohomology` compares against
        from capitula.verify import _cyclic_tate_by_enumeration

        rng = random.Random(7)
        modules = [GModule.cyclic(8, FinAbGroup((2, 4)), ((1, 1), (0, 1)))]
        modules += [random_cyclic_gmodule(rng, max_n=6, max_order=40) for _ in range(60)]
        for m in modules:
            rows = [list(r) for r in m.action[0]]
            fs = m.module.invariant_factors
            n = m.group.order
            h1, h0 = _cyclic_tate_by_enumeration(m)
            assert h1.invariant_factors == cyclic_tate_by_enumeration(fs, rows, n, 1)
            assert h0.invariant_factors == cyclic_tate_by_enumeration(fs, rows, n, 0)
        assert _cyclic_tate_by_enumeration(modules[0]) == (FinAbGroup((4,)), FinAbGroup((2, 2)))

    def test_herbrand_is_one_randomized(self):
        rng = random.Random(42)
        for _ in range(60):
            m = random_cyclic_gmodule(rng)
            assert herbrand_quotient(m) == 1
            assert h2_cyclic(m).invariant_factors == tate_h0(m).invariant_factors


class TestHilbert90:
    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3])
    def test_h1_of_multiplicative_group_vanishes(self, q, n):
        m = multiplicative_group_module(q, n)
        assert h1_cyclic(m).is_trivial()

    def test_frobenius_module_shape(self):
        m = multiplicative_group_module(3, 2)
        assert m.module.order == 8
        assert m.action[0][0][0] == 3


class TestHGeneral:
    def test_klein_four_on_z2(self):
        m = GModule.trivial_action(AbelianGroup((2, 2)), FinAbGroup.of(2))
        assert h_general(m, 1).invariant_factors == (2, 2)
        # classical: the degree-2 part of the F_2 cohomology ring of the
        # Klein four group has dimension 3
        assert h_general(m, 2).invariant_factors == (2, 2, 2)

    def test_trivial_group(self):
        m = GModule.trivial_action(Cyclic(1), FinAbGroup.of(6))
        assert h_general(m, 1).is_trivial()
        assert h_general(m, 2).is_trivial()

    def test_degree_guard(self):
        m = GModule.trivial_action(Cyclic(2), FinAbGroup.of(2))
        with pytest.raises(ValidationError):
            h_general(m, 3)

    def test_group_bound(self):
        # a cochain's size depends on the rank of G, not its order, so the
        # bound is on the rank: (Z/2)^7 is refused and the message says why
        m = GModule.trivial_action(AbelianGroup((2,) * 7), FinAbGroup.of(2))
        with pytest.raises(ResourceError, match="rank 7"):
            h_general(m, 1)

    def test_large_cyclic_group_accepted(self):
        module, action = FinAbGroup((2, 4)), ((1, 1), (0, 1))
        general = GModule(AbelianGroup((1024,)), module, (action,))
        cyclic = GModule.cyclic(1024, module, action)
        assert h_general(general, 1) == h1_cyclic(cyclic)
        assert h_general(general, 2) == tate_h0(cyclic)

    @pytest.mark.parametrize("orders, factors", [
        ((2, 64), (2, 8)),
        ((3, 5, 7), (3, 105)),
        # generators of order 1 do not count towards the rank
        ((1,) * 7 + (4,), (2, 4)),
    ], ids=str)
    def test_large_and_padded_groups_match_kunneth(self, orders, factors):
        m = GModule.trivial_action(AbelianGroup(orders), FinAbGroup(factors))
        for degree in (1, 2):
            assert h_general(m, degree) == kunneth_trivial(orders, factors, degree)

    def test_matches_cyclic_methods(self):
        # against the cyclic Tate groups by enumeration, modules of order <= 16
        cases = []
        for n in (2, 3, 4):
            for ord_ in range(2, 17):
                cases.append(GModule.trivial_action(Cyclic(n), FinAbGroup.of(ord_)))
        cases.append(GModule.cyclic(2, FinAbGroup.of(8), ((-1,),)))
        cases.append(GModule.cyclic(4, FinAbGroup.of(16), ((3,),)))
        cases.append(GModule.cyclic(2, FinAbGroup((2, 4)), ((1, 0), (0, -1))))
        cases.append(GModule(Cyclic(2), FinAbGroup((4, 4)), (((0, 1), (1, 0)),)))
        # H^1 = Z/4 but H^2 = H^0_hat = (Z/2)^2: tells the two degrees apart
        cases.append(GModule.cyclic(8, FinAbGroup((2, 4)), ((1, 1), (0, 1))))
        for m in cases:
            fs = m.module.invariant_factors
            rows = [list(r) for r in m.action[0]]
            n = m.group.order
            assert h_general(m, 1).invariant_factors == cyclic_tate_by_enumeration(fs, rows, n, 1)
            assert h_general(m, 2).invariant_factors == cyclic_tate_by_enumeration(fs, rows, n, 0)

    def test_matches_bar_enumeration(self):
        klein, nine = AbelianGroup((2, 2)), AbelianGroup((3, 3))
        swap, rot = ((0, 1), (1, 0)), ((0, 1), (1, 1))
        one = ((1,),)
        cases = [
            GModule.cyclic(2, FinAbGroup.of(4), ((-1,),)),
            GModule(klein, FinAbGroup.of(4), (((-1,),), one)),
            GModule(klein, FinAbGroup.of(3), (((-1,),), ((-1,),))),
            GModule(klein, FinAbGroup((2, 2)), (swap, swap)),
            GModule(klein, FinAbGroup((2, 4)), (((1, 0), (0, -1)), ((1, 0), (2, 1)))),
            GModule(nine, FinAbGroup.of(7), (((2,),), ((4,),))),
            GModule(nine, FinAbGroup((3, 3)), (((1, 1), (0, 1)), ((1, 0), (0, 1)))),
            GModule(nine, FinAbGroup((3, 3)), (((1, 1), (0, 1)), ((1, 2), (0, 1)))),
            GModule(nine, FinAbGroup((2, 2)), (rot, ((1, 0), (0, 1)))),
        ]
        for m in cases:
            assert h_general(m, 1).invariant_factors == bar_h1_by_enumeration(*bar_inputs(m))

    def test_h2_matches_normalized_cocycle_enumeration(self):
        klein = AbelianGroup((2, 2))
        swap, ident = ((0, 1), (1, 0)), ((1, 0), (0, 1))
        one, neg = ((1,),), ((-1,),)
        cases = [
            GModule(klein, FinAbGroup.of(2), (one, one)),
            GModule(klein, FinAbGroup.of(3), (neg, one)),
            GModule(klein, FinAbGroup.of(3), (neg, neg)),
            GModule(klein, FinAbGroup.of(4), (one, one)),
            GModule(klein, FinAbGroup.of(4), (neg, one)),
            GModule(klein, FinAbGroup.of(4), (neg, neg)),
            GModule(klein, FinAbGroup((2, 2)), (ident, ident)),
            GModule(klein, FinAbGroup((2, 2)), (swap, ident)),
            GModule(klein, FinAbGroup((2, 2)), (swap, swap)),
            # a group of order 8
            GModule.trivial_action(AbelianGroup((2, 4)), FinAbGroup.of(2)),
        ]
        for m in cases:
            assert h_general(m, 2).invariant_factors == bar_h2_by_enumeration(*bar_inputs(m))


class TestEachGroupComputedOnce:
    """A GModule computes H^1 and H^2 once, and every entry point reads them."""

    @staticmethod
    def _module():
        # H^1 = Z/4 but H^0_hat = (Z/2)^2
        return GModule.cyclic(8, FinAbGroup((2, 4)), ((1, 1), (0, 1)))

    @staticmethod
    def _count_groups(monkeypatch):
        import capitula.cohomology as cohomology

        degrees = []
        real = cohomology._cohomology

        def counted(m, degree):
            degrees.append(degree)
            return real(m, degree)

        monkeypatch.setattr(cohomology, "_cohomology", counted)
        return degrees

    def test_either_group_first(self):
        h1_first, h0_first = self._module(), self._module()
        assert h1_cyclic(h1_first).invariant_factors == (4,)
        assert tate_h0(h1_first).invariant_factors == (2, 2)
        assert tate_h0(h0_first).invariant_factors == (2, 2)
        assert h1_cyclic(h0_first).invariant_factors == (4,)

    def test_h_general_agrees_with_the_cyclic_functions(self):
        rng = random.Random(23)
        for m in [self._module()] + [random_cyclic_gmodule(rng, max_n=12) for _ in range(40)]:
            twin = GModule(m.group, m.module, m.action)
            assert h_general(m, 1) == h1_cyclic(twin)
            assert h_general(m, 2) == tate_h0(twin)

    def test_herbrand_quotient_alone_computes_both_groups(self, monkeypatch):
        degrees = self._count_groups(monkeypatch)
        assert herbrand_quotient(self._module()) == 1
        assert sorted(degrees) == [1, 2]

    def test_a_cyclic_request_computes_each_group_once(self, monkeypatch):
        # the calculators request: h1_cyclic, tate_h0, herbrand_quotient
        degrees = self._count_groups(monkeypatch)
        m = self._module()
        h1, h0, hq = h1_cyclic(m), tate_h0(m), herbrand_quotient(m)
        assert (h1.order, h0.order, hq) == (4, 4, 1)
        assert h2_cyclic(m) == h0 and h_general(m, 1) == h1 and h_general(m, 2) == h0
        assert degrees == [1, 2]

    def test_queried_modules_stay_equal(self):
        queried, fresh = self._module(), self._module()
        herbrand_quotient(queried)
        assert queried == fresh and hash(queried) == hash(fresh)
        assert repr(queried) == repr(fresh)
        assert len({queried, fresh}) == 1


ORDER_8_AND_9 = [Cyclic(8), AbelianGroup((2, 4)), AbelianGroup((2, 2, 2)),
                 Cyclic(9), AbelianGroup((3, 3))]


def kunneth_trivial(orders, factors, degree):
    """H^degree(G, M) for G = sum Z/n_i acting trivially on M = sum Z/m:
    Hom(G, M), plus Ext(G, M) + Hom(G ^ G, M) in degree 2 (Kunneth and
    universal coefficients; H_1 G = G and H_2 G = G ^ G)."""
    pieces = []
    for m in factors:
        pieces += [gcd(n, m) for n in orders]
        if degree == 2:
            pieces += [gcd(gcd(orders[i], orders[j]), m)
                       for i in range(len(orders)) for j in range(i + 1, len(orders))]
    return FinAbGroup.of(*pieces)


class TestOrderEightAndNine:
    @pytest.mark.parametrize("group", ORDER_8_AND_9, ids=str)
    def test_trivial_actions_match_kunneth(self, group):
        orders = group.generator_orders
        modules = [FinAbGroup.of(m) for m in range(2, 13)]
        modules += [FinAbGroup(fs) for fs in ((2, 2), (2, 4), (3, 3), (2, 6), (4, 8))]
        for module in modules:
            m = GModule.trivial_action(group, module)
            for degree in (1, 2):
                assert h_general(m, degree) == kunneth_trivial(
                    orders, module.invariant_factors, degree), (module, degree)

    def test_h1_matches_bar_enumeration(self):
        swap, ident = ((0, 1), (1, 0)), ((1, 0), (0, 1))
        unipotent = ((1, 1), (0, 1))
        neg, one = ((-1,),), ((1,),)
        z248, z9 = AbelianGroup((2, 2, 2)), AbelianGroup((3, 3))
        cases = [
            GModule.cyclic(8, FinAbGroup.of(5), ((2,),)),
            GModule.cyclic(8, FinAbGroup.of(3), neg),
            GModule.cyclic(8, FinAbGroup((2, 2)), unipotent),
            GModule(AbelianGroup((2, 4)), FinAbGroup.of(5), (neg, ((2,),))),
            GModule(AbelianGroup((2, 4)), FinAbGroup.of(4), (neg, neg)),
            GModule(AbelianGroup((2, 4)), FinAbGroup((2, 2)), (swap, swap)),
            GModule(AbelianGroup((2, 4)), FinAbGroup((2, 4)), (((1, 0), (0, -1)), ((1, 0), (2, 1)))),
            GModule(z248, FinAbGroup.of(3), (neg, one, neg)),
            GModule(z248, FinAbGroup.of(4), (neg, neg, one)),
            GModule(z248, FinAbGroup((2, 2)), (swap, ident, swap)),
            GModule.cyclic(9, FinAbGroup.of(7), ((2,),)),
            GModule.cyclic(9, FinAbGroup((3, 3)), unipotent),
            GModule(z9, FinAbGroup.of(7), (((2,),), ((4,),))),
            GModule(z9, FinAbGroup((3, 3)), (unipotent, ((1, 2), (0, 1)))),
        ]
        for m in cases:
            assert h_general(m, 1).invariant_factors == bar_h1_by_enumeration(*bar_inputs(m))


class TestHomGDual:
    def test_no_nonzero_homs(self):
        a = GModule.trivial_action(Cyclic(2), FinAbGroup.of(2))
        mu = GModule.trivial_action(Cyclic(2), FinAbGroup.of(3))
        assert hom_g_dual(a, mu).is_trivial()

    def test_equivariance_forces_zero(self):
        a = GModule.trivial_action(Cyclic(2), FinAbGroup.of(3))
        mu = GModule.cyclic(2, FinAbGroup.of(3), ((-1,),))
        assert hom_g_dual(a, mu).is_trivial()
        assert equivariant_homs_by_enumeration((3,), (3,), [[[1]]], [[[-1]]]) == ()

    def test_all_homs_equivariant(self):
        a = GModule.cyclic(2, FinAbGroup.of(3), ((-1,),))
        mu = GModule.cyclic(2, FinAbGroup.of(3), ((-1,),))
        assert hom_g_dual(a, mu).invariant_factors == (3,)
        assert equivariant_homs_by_enumeration((3,), (3,), [[[-1]]], [[[-1]]]) == (3,)

    def test_mismatched_groups_rejected(self):
        a = GModule.trivial_action(Cyclic(2), FinAbGroup.of(2))
        mu = GModule.trivial_action(Cyclic(3), FinAbGroup.of(2))
        with pytest.raises(ValidationError):
            hom_g_dual(a, mu)

    def test_matrix_case_against_enumeration(self):
        swap = ((0, 1), (1, 0))
        a = GModule(Cyclic(2), FinAbGroup((2, 2)), (swap,))
        mu = GModule.trivial_action(Cyclic(2), FinAbGroup.of(4))
        ours = hom_g_dual(a, mu).invariant_factors
        theirs = equivariant_homs_by_enumeration(
            (2, 2), (4,), [[[0, 1], [1, 0]]], [[[1]]]
        )
        assert ours == theirs


class TestNoncyclicVerdictsCanFail:
    """`capitula verify cohomology` compares h_general and hom_g_dual with
    enumeration over non-cyclic G; a wrong group must turn the verdict."""

    @staticmethod
    def _verdicts():
        from capitula.verify import verify_cohomology
        return {v.check: v.passed for v in verify_cohomology(samples=0)}

    def test_enumerations_match_the_test_oracles(self):
        from capitula.verify import (
            NONCYCLIC_GROUPS,
            _crossed_h1_by_enumeration,
            _equivariant_homs_by_enumeration,
            _random_module,
        )

        rng = random.Random(11)
        for orders in NONCYCLIC_GROUPS:
            modules = [_random_module(rng, orders) for _ in range(4)]
            for m in modules:
                assert _crossed_h1_by_enumeration(m).invariant_factors == \
                    bar_h1_by_enumeration(*bar_inputs(m))
            for a, mu in zip(modules, modules[::-1]):
                theirs = equivariant_homs_by_enumeration(
                    a.module.invariant_factors, mu.module.invariant_factors,
                    [[list(r) for r in p] for p in a.action],
                    [[list(r) for r in q] for q in mu.action])
                assert _equivariant_homs_by_enumeration(a, mu).invariant_factors == theirs

    def test_unpatched_verdicts_pass(self):
        verdicts = self._verdicts()
        assert verdicts["noncyclic_h1_structure"] and verdicts["equivariant_hom_structure"]

    @pytest.mark.parametrize("wrong", [
        lambda real, m, d: real(m, d).direct_sum(FinAbGroup.of(2)),
        lambda real, m, d: real(m, 3 - d),  # H^2 in place of H^1
    ], ids=["extra_summand", "other_degree"])
    def test_wrong_h_general_fails(self, monkeypatch, wrong):
        import capitula.verify as verify
        real = verify.h_general
        monkeypatch.setattr(verify, "h_general", lambda m, d: wrong(real, m, d))
        verdicts = self._verdicts()
        assert verdicts["noncyclic_h1_structure"] is False
        assert verdicts["equivariant_hom_structure"] is True

    def test_wrong_hom_g_dual_fails(self, monkeypatch):
        import capitula.verify as verify
        real = verify.hom_g_dual
        monkeypatch.setattr(verify, "hom_g_dual",
                            lambda a, mu: real(a, mu).direct_sum(FinAbGroup.of(3)))
        verdicts = self._verdicts()
        assert verdicts["equivariant_hom_structure"] is False
        assert verdicts["noncyclic_h1_structure"] is True


class TestCyclicVerdictsCanFail:
    """`capitula verify cohomology` checks the cyclic groups against
    enumeration and closed forms.  Every group is computed by
    cohomology._cohomology, so a wrong group there must turn each verdict
    that reads it, and only those."""

    @staticmethod
    def _failing(monkeypatch, wrong):
        import capitula.cohomology as cohomology
        from capitula.verify import verify_cohomology

        real = cohomology._cohomology
        monkeypatch.setattr(cohomology, "_cohomology", lambda m, d: wrong(real, m, d))
        return {v.check for v in verify_cohomology(samples=20) if not v.passed}

    def test_unpatched_verdicts_pass(self, monkeypatch):
        assert self._failing(monkeypatch, lambda real, m, d: real(m, d)) == set()

    @pytest.mark.parametrize("wrong, failing", [
        (lambda real, m, d: real(m, d).direct_sum(FinAbGroup.of(2)) if d == 2 else real(m, d),
         {"herbrand_quotient_one", "tate_periodicity"}),
        # the orders agree, so the Herbrand quotient is still 1
        (lambda real, m, d: real(m, 3 - d),
         {"h1_structure", "tate_periodicity", "noncyclic_h1_structure"}),
        (lambda real, m, d: real(m, d).direct_sum(FinAbGroup.of(3)) if d == 1 else real(m, d),
         {"herbrand_quotient_one", "h1_structure", "hilbert_90", "trivial_action_h1_gcd",
          "noncyclic_h1_structure"}),
    ], ids=["extra_z2_in_degree_2", "degrees_swapped", "extra_z3_in_degree_1"])
    def test_wrong_group_fails(self, monkeypatch, wrong, failing):
        assert self._failing(monkeypatch, wrong) == failing


def test_indices_are_the_compositions_in_product_order():
    from itertools import product

    from capitula.cohomology import _indices

    for r in range(1, 7):
        for d in range(4):
            assert _indices(r, d) == [alpha for alpha in product(range(d + 1), repeat=r)
                                      if sum(alpha) == d], (r, d)
