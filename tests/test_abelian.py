import random
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capitula.abelian import (
    AbHom,
    FinAbGroup,
    HermiteModD,
    cokernel,
    diagonal_columns,
    ell_rank,
    QuotientPresentation,
    finite_quotient,
    from_columns,
    identity_matrix,
    image_order,
    invert_unimodular,
    kernel,
    kernel_basis,
    mat_mul,
    mat_vec,
    preimage_generators,
    preimage_staircase,
    preimage_system,
    smith_normal_form,
    snf_diagonal,
    solve_integer,
    staircase_quotient,
    subgroup_order,
    sum_map_kernel,
)
from capitula.errors import ValidationError

from enum_oracle import (
    det_bareiss,
    hom_images,
    preimage_elements_mod,
    span_mod,
    structure_by_enumeration,
    sum_map_kernel_elements,
    tuple_adder,
)


def snf_is_valid(m, u, s, v):
    assert mat_mul(mat_mul(u, m), v) == s
    assert det_bareiss(u) in (1, -1)
    assert det_bareiss(v) in (1, -1)
    rows, cols = len(s), len(s[0]) if s else 0
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert s[i][j] == 0
    diag = [s[i][i] for i in range(min(rows, cols))]
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0


class TestSmithNormalForm:
    def test_diag_2_3_normalizes_to_1_6(self):
        _, s, _ = smith_normal_form([[2, 0], [0, 3]])
        assert [s[0][0], s[1][1]] == [1, 6]

    def test_zero_matrix(self):
        u, s, v = smith_normal_form([[0, 0], [0, 0]])
        assert s == [[0, 0], [0, 0]]

    def test_hand_reduced_example(self):
        # gcd of entries 2, |det| = 8, so the form is diag(2, 4)
        m = [[2, 4], [6, 8]]
        u, s, v = smith_normal_form(m)
        assert [s[0][0], s[1][1]] == [2, 4]
        snf_is_valid(m, u, s, v)

    def test_idempotent_on_normal_forms(self):
        s0 = [[2, 0, 0], [0, 4, 0], [0, 0, 0]]
        _, s, _ = smith_normal_form(s0)
        assert s == s0

    def test_rectangular_and_empty(self):
        u, s, v = smith_normal_form([[3, 6, 9]])
        snf_is_valid([[3, 6, 9]], u, s, v)
        assert s[0][0] == 3
        u, s, v = smith_normal_form([])
        assert s == []

    @settings(max_examples=150, deadline=None)
    @given(st.lists(
        st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=4),
        min_size=1, max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1))
    def test_transforms_commute_with_reduction(self, rows):
        u, s, v = smith_normal_form(rows)
        snf_is_valid(rows, u, s, v)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(
        st.lists(st.integers(min_value=-20, max_value=20), min_size=2, max_size=3),
        min_size=2, max_size=3,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1))
    def test_matches_sympy_diagonal(self, rows):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf
        _, s, _ = smith_normal_form(rows)
        ours = [abs(s[i][i]) for i in range(min(len(s), len(s[0])))]
        assert snf_diagonal(rows) == [s[i][i] for i in range(min(len(s), len(s[0])))]
        theirs_m = sympy_snf(sympy.Matrix(rows))
        theirs = [abs(int(theirs_m[i, i])) for i in range(min(theirs_m.rows, theirs_m.cols))]
        assert sorted(d for d in ours if d) == sorted(d for d in theirs if d)

    def test_kernel_and_solve(self):
        m = [[2, 4, 6], [1, 2, 3]]
        for col in kernel_basis(m):
            assert mat_vec(m, col) == [0, 0]
        assert solve_integer(m, [2, 1]) is not None
        assert solve_integer(m, [1, 1]) is None

    def test_invert_unimodular(self):
        u = [[1, 2], [0, 1]]
        assert mat_mul(u, invert_unimodular(u)) == [[1, 0], [0, 1]]
        with pytest.raises(ValidationError):
            invert_unimodular([[2, 0], [0, 1]])


@st.composite
def preimage_problems(draw):
    """(M, moduli, E): M up to 4 x 4 with entries in [-6, 6], and a diagonal
    lattice diag(moduli) Z^m whose moduli divide E <= 6."""
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.lists(st.lists(st.integers(min_value=-6, max_value=6),
                                  min_size=n, max_size=n), min_size=m, max_size=m))
    big_e = draw(st.integers(min_value=1, max_value=6))
    divisors = [d for d in range(1, big_e + 1) if big_e % d == 0]
    moduli = draw(st.lists(st.sampled_from(divisors), min_size=m, max_size=m))
    return rows, moduli, big_e


class TestPreimageStaircase:
    @settings(max_examples=200, deadline=None)
    @given(preimage_problems())
    def test_matches_enumeration_modulo_e(self, problem):
        # {x : M x in diag(moduli) Z^m} contains E Z^N, so it is known from
        # its residues modulo E, which enumeration over (Z/E)^N finds
        rows, moduli, big_e = problem
        n = len(rows[0])
        system = preimage_system(n, moduli)
        for row, target in zip(rows, system):
            target[:n] = row
        basis, pivots = preimage_staircase(system, len(rows))
        assert span_mod(basis, big_e, n) == set(preimage_elements_mod(rows, moduli, big_e, n))
        assert len(basis) == n
        assert pivots == sorted(set(pivots))
        for vec, r in zip(basis, pivots):
            assert not any(vec[:r]) and vec[r] > 0
        assert preimage_generators(rows, diagonal_columns(moduli), n) == basis

    def test_kernel_is_the_preimage_of_zero(self):
        m = [[2, 4, 6], [1, 2, 3]]
        basis = kernel_basis(m)
        assert len(basis) == 2
        assert all(mat_vec(m, col) == [0, 0] for col in basis)
        assert kernel_basis([[1, 0], [0, 1]]) == []
        assert kernel_basis([]) == []

    def test_denominator_outside_the_numerator_is_refused(self):
        with pytest.raises(ValidationError, match="denominator lattice not contained"):
            staircase_quotient([[2, 0], [0, 1]], [0, 1], [[1, 0]])

    def test_infinite_quotient_is_refused(self):
        with pytest.raises(ValidationError, match="quotient is infinite"):
            staircase_quotient([[1, 0], [0, 1]], [0, 1], [[2, 0]])
        assert staircase_quotient([[1, 0], [0, 1]], [0, 1], [[2, 0], [0, 3]]) == FinAbGroup((6,))


# up to 6 vectors of Z^m, m <= 5, entries in [-6, 6]
small_vector_lists = st.integers(min_value=1, max_value=5).flatmap(
    lambda m: st.tuples(st.just(m), st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=m, max_size=m),
        max_size=6)))


def hermite_of(m, modulus, vecs):
    form = HermiteModD(m, modulus)
    for v in vecs:
        form.add(v)
    return form


class TestHermiteModD:
    @settings(max_examples=200, deadline=None)
    @given(small_vector_lists, st.integers(min_value=1, max_value=40))
    def test_index_is_order_of_quotient_by_r_plus_d_zm(self, shape, modulus):
        # the rows are a basis of R + D Z^m: same quotient, not only same order
        m, vecs = shape
        scaled = [[modulus if i == j else 0 for i in range(m)] for j in range(m)]
        quotient = finite_quotient(identity_matrix(m), vecs + scaled, m)
        form = hermite_of(m, modulus, vecs)
        assert form.index == quotient.order
        assert finite_quotient(identity_matrix(m), form.rows, m) == quotient

    @settings(max_examples=200, deadline=None)
    @given(small_vector_lists, st.integers(min_value=1, max_value=40))
    def test_index_modulo_2h_is_necessary_for_index_h(self, shape, h):
        # [Z^m : R] = h gives index h modulo 2h, and then the rows present
        # Z^m / R itself; lower rank gives index >= 2h
        m, vecs = shape
        try:
            quotient = finite_quotient(identity_matrix(m), vecs, m)
        except ValidationError:
            assert hermite_of(m, 2 * h, vecs).index >= 2 * h
            return
        form = hermite_of(m, 2 * quotient.order, vecs)
        assert form.index == quotient.order
        assert finite_quotient(identity_matrix(m), form.rows, m) == quotient

    @settings(max_examples=200, deadline=None)
    @given(small_vector_lists, st.integers(min_value=1, max_value=40), st.randoms())
    def test_rows_do_not_depend_on_the_order_of_the_vectors(self, shape, modulus, rng):
        # the rows are the reduced Hermite form of R + D Z^m, which the
        # lattice alone determines
        m, vecs = shape
        shuffled = list(vecs)
        rng.shuffle(shuffled)
        rows = hermite_of(m, modulus, vecs).rows
        assert hermite_of(m, modulus, shuffled).rows == rows
        for i, row in enumerate(rows):
            assert not any(row[:i]) and row[i] > 0
            assert all(0 <= above[i] < row[i] for above in rows[:i])

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            HermiteModD(2, 0)
        with pytest.raises(ValidationError):
            HermiteModD(2, 4).add([1, 2, 3])


class TestQuotientPresentation:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_lifts_are_the_columns_of_u_inverse(self, data):
        # Z^m / L for a full-rank L: multiples of the unit vectors, then
        # random columns
        m = data.draw(st.integers(min_value=0, max_value=4))
        vectors = st.lists(st.integers(min_value=-6, max_value=6), min_size=m, max_size=m)
        multiples = data.draw(st.lists(st.integers(min_value=1, max_value=6),
                                       min_size=m, max_size=m))
        den = [[c * int(i == j) for i in range(m)] for j, c in enumerate(multiples)]
        den += data.draw(st.lists(vectors, max_size=3))
        pres = QuotientPresentation(den, m)
        rank = pres.group.rank
        for i, lift in enumerate(pres.lifts):
            assert pres.coords(lift) == tuple(int(i == j) for j in range(rank))
        assert all(pres.coords(col) == (0,) * rank for col in den)
        u_inv = invert_unimodular(pres._u) if m else []
        assert pres.lifts == [[row[i] for row in u_inv] for i in pres._kept]

    def test_finite_quotient_reads_the_presented_group(self):
        # finite_quotient(I, den, m) is Z^m / L: an empty denominator, rank
        # zero, a lattice of lower rank, then seeded lattices
        cases = [([], 3), ([[0, 0]], 2), ([], 0), ([[2, 0]], 2), ([[2, 0], [0, 3]], 2)]
        rng = random.Random(15)
        for _ in range(300):
            m = rng.randint(1, 4)
            cases.append(([[rng.randint(-6, 6) for _ in range(m)]
                           for _ in range(rng.randint(0, m + 2))], m))
        outcomes = set()
        for den, m in cases:
            try:
                expected = QuotientPresentation(den, m).group
            except ValidationError as exc:
                outcomes.add(str(exc))
                with pytest.raises(ValidationError) as caught:
                    finite_quotient(identity_matrix(m), den, m)
                assert str(caught.value) == str(exc)
                continue
            outcomes.add("trivial" if expected.is_trivial() else "finite")
            assert finite_quotient(identity_matrix(m), den, m) == expected
        assert outcomes == {"trivial", "finite", "quotient is infinite"}

    def test_only_finite_quotient_has_a_numerator_to_leave(self):
        # a presentation is of Z^m, so only a quotient of two lattices can
        # have a denominator outside its numerator
        with pytest.raises(ValidationError, match="denominator lattice not contained"):
            finite_quotient([[2, 0]], [[1, 0]], 2)
        assert finite_quotient([[2, 0], [0, 1]], [[4, 0], [0, 3]], 2) == FinAbGroup((6,))


class TestSubgroupOrder:
    def test_matches_enumeration(self):
        # L holds r columns of determinant D != 0 and up to two more, so it
        # contains D Z^r and Z^r / L = (Z/D)^r / (L mod D); the subgroup
        # generated by gens has order |L + <gens> mod D| / |L mod D|
        rng = random.Random(25)
        checked = 0
        while checked < 150:
            r = rng.randint(1, 3)
            square = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(r)]
            big_d = abs(det_bareiss(from_columns(square, r)))
            if not 0 < big_d <= 12:
                continue
            den = square + [[rng.randint(-3, 3) for _ in range(r)]
                            for _ in range(rng.randint(0, 2))]
            rng.shuffle(den)
            gens = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(rng.randint(0, 3))]
            expected = len(span_mod(den + gens, big_d, r)) // len(span_mod(den, big_d, r))
            assert subgroup_order(den, gens, r) == expected
            checked += 1

    def test_rank_zero_and_infinite_quotients(self):
        assert subgroup_order([], [], 0) == 1
        assert subgroup_order([[]], [[], []], 0) == 1
        assert subgroup_order([[4]], [[2]], 1) == 2
        with pytest.raises(ValidationError, match="quotient is infinite"):
            subgroup_order([[2, 0]], [[0, 1]], 2)


class TestFinAbGroup:
    def test_normalization(self):
        assert FinAbGroup.of(2, 3).invariant_factors == (6,)
        assert FinAbGroup.of(4, 6).invariant_factors == (2, 12)
        assert FinAbGroup.of(1, 1).is_trivial()
        assert FinAbGroup.trivial().order == 1

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=60), max_size=6))
    def test_of_matches_the_smith_form_of_the_diagonal(self, orders):
        k = len(orders)
        diag = snf_diagonal([[orders[i] if i == j else 0 for j in range(k)] for i in range(k)])
        assert FinAbGroup.of(*orders).invariant_factors == tuple(d for d in diag if d > 1)

    def test_invariants_enforced(self):
        with pytest.raises(ValidationError):
            FinAbGroup((1, 2))
        with pytest.raises(ValidationError):
            FinAbGroup((4, 6))

    def test_order_and_exponent(self):
        g = FinAbGroup((2, 4))
        assert g.order == 8
        assert g.exponent == 4

    def test_ell_rank(self):
        assert ell_rank(FinAbGroup((2, 2, 2)), 2) == 3
        assert ell_rank(FinAbGroup.of(6), 5) == 0
        assert ell_rank(FinAbGroup.of(2, 4, 3), 2) == 2
        with pytest.raises(ValidationError):
            ell_rank(FinAbGroup.of(6), 4)


class TestHoms:
    def test_mult_by_two_on_z4(self):
        h = AbHom(FinAbGroup.of(4), FinAbGroup.of(4), ((2,),))
        k, incl = kernel(h)
        assert k.invariant_factors == (2,)
        assert cokernel(h).invariant_factors == (2,)
        # the kernel generator really maps to an order-2 element killed by h
        gen = tuple(col for col in zip(*incl.matrix))[0]
        assert h(gen) == (0,)

    def test_identity_on_z6(self):
        h = AbHom(FinAbGroup.of(6), FinAbGroup.of(6), ((1,),))
        k, _ = kernel(h)
        assert k.is_trivial()
        assert cokernel(h).is_trivial()

    def test_mixed_source_example(self):
        # (a, b) -> 4a + 2b from Z/2 + Z/4 into Z/8: kernel order 2, coker Z/2
        src = FinAbGroup((2, 4))
        tgt = FinAbGroup((8,))
        h = AbHom(src, tgt, ((4, 2),))
        k, _ = kernel(h)
        assert k.order == 2
        assert cokernel(h).invariant_factors == (2,)
        assert image_order(h) == len(hom_images((2, 4), (8,), [[4, 2]]))

    def test_malformed_hom_rejected(self):
        with pytest.raises(ValidationError):
            AbHom(FinAbGroup.of(2), FinAbGroup.of(4), ((1,),))
        with pytest.raises(ValidationError):
            AbHom(FinAbGroup.of(2), FinAbGroup.of(4), ((1, 1),))

    def test_order_bookkeeping_random_homs(self):
        rng = random.Random(7)
        for _ in range(60):
            sf = FinAbGroup.of(*[rng.choice([1, 2, 3, 4, 6, 8, 12]) for _ in range(rng.randint(0, 3))])
            tf = FinAbGroup.of(*[rng.choice([1, 2, 3, 4, 6, 9]) for _ in range(rng.randint(0, 3))])
            rows = []
            for i in range(tf.rank):
                row = []
                for j in range(sf.rank):
                    step = tf.invariant_factors[i] // gcd(tf.invariant_factors[i], sf.invariant_factors[j])
                    row.append(step * rng.randrange(0, tf.invariant_factors[i] // step + 1))
                rows.append(tuple(row))
            h = AbHom(sf, tf, tuple(rows))
            k, incl = kernel(h)
            cok = cokernel(h)
            # the inclusion is injective and lands in the kernel
            assert image_order(incl) == k.order
            product = mat_mul(h.matrix_rows(), incl.matrix_rows())
            composite = AbHom(k, tf, tuple(map(tuple, product)))
            assert not any(any(row) for row in composite.matrix)
            # |ker h| * |target| == |coker h| * |source|, asserted exactly
            assert k.order * tf.order == cok.order * sf.order
            assert k.order * image_order(h) == sf.order
            assert cok.order * image_order(h) == tf.order


class TestSumMapKernel:
    def test_coprime_pair_is_trivial(self):
        assert sum_map_kernel([2, 3], 6).is_trivial()

    def test_two_twos(self):
        assert sum_map_kernel([2, 2], 2).invariant_factors == (2,)

    def test_442(self):
        g = sum_map_kernel([4, 4, 2], 4)
        assert g.order == 8
        elems = sum_map_kernel_elements([4, 4, 2], 4)
        assert g.invariant_factors == structure_by_enumeration(
            elems, tuple_adder([4, 4, 2]), (0, 0, 0)
        )

    def test_rejects_wrong_lcm(self):
        with pytest.raises(ValidationError):
            sum_map_kernel([2, 3], 12)
        with pytest.raises(ValidationError):
            sum_map_kernel([], 1)

    def test_exhaustive_small_vectors(self):
        # order law and structure match enumeration for all short d-vectors
        for r in range(1, 4):
            vectors = [[]]
            for _ in range(r):
                vectors = [v + [d] for v in vectors for d in range(1, 7)]
            for d in vectors:
                big_d = lcm(*d) if len(d) > 1 else d[0]
                g = sum_map_kernel(d, big_d)
                assert g.order == prod(d) // big_d
                elems = sum_map_kernel_elements(d, big_d)
                assert len(elems) == g.order
                assert g.invariant_factors == structure_by_enumeration(
                    elems, tuple_adder(d), tuple([0] * r)
                )

    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=4)
           .filter(lambda d: prod(d) <= 2000))
    def test_closed_form_matches_enumeration(self, d):
        # the invariant factors of ⊕ Z/d_v without the last one, D
        big_d = lcm(*d)
        elems = sum_map_kernel_elements(d, big_d)
        assert sum_map_kernel(d, big_d).invariant_factors == structure_by_enumeration(
            elems, tuple_adder(d), tuple([0] * len(d))
        )


class TestVerifyAbelianCanFail:
    """`capitula verify abelian` compares structure, not only size."""

    def test_unpatched_verdicts_pass(self):
        from capitula.verify import verify_abelian

        assert all(v.passed for v in verify_abelian())

    def test_right_order_wrong_structure_fails(self, monkeypatch):
        import capitula.verify as verify

        real = verify.sum_map_kernel

        def cyclic_442(d, big_d):
            # (4, 4, 2) has kernel Z/2 x Z/4; Z/8 has the same order
            if tuple(d) == (4, 4, 2):
                return FinAbGroup((8,))
            return real(d, big_d)

        monkeypatch.setattr(verify, "sum_map_kernel", cyclic_442)
        verdicts = {v.check: v.passed for v in verify.verify_abelian()}
        assert verdicts["sum_map_kernel_order_law"] is True
        assert verdicts["sum_map_kernel_enumeration"] is False
