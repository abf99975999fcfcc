"""The coefficient-vector kernels of the field classes against schoolbook
loops written on the field's own add, sub and mul, the loops Poly ran
itself before the kernels moved into the fields."""

import random

import pytest

from capitula.errors import ValidationError
from capitula.fforacle import GF, Poly, extension
from capitula.fforacle.gf import ExtField


def _trimmed(field, coeffs):
    cs = list(coeffs)
    while cs and field.is_zero(cs[-1]):
        cs.pop()
    return cs


def ref_add(field, a, b, op=None):
    op = op or field.add
    n = max(len(a), len(b))
    a = list(a) + [field.zero()] * (n - len(a))
    b = list(b) + [field.zero()] * (n - len(b))
    return _trimmed(field, [op(x, y) for x, y in zip(a, b)])


def ref_sub(field, a, b):
    return ref_add(field, a, b, field.sub)


def ref_scale(field, a, c):
    return _trimmed(field, [field.mul(c, x) for x in a])


def ref_mul(field, a, b):
    if not a or not b:
        return []
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if field.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return _trimmed(field, out)


def ref_divmod(field, a, b):
    rem = list(a)
    dq = len(rem) - len(b)
    if dq < 0:
        return [], _trimmed(field, rem)
    quo = [field.zero()] * (dq + 1)
    inv_lead = field.inv(b[-1])
    for shift in range(dq, -1, -1):
        top = shift + len(b) - 1
        if field.is_zero(rem[top]):
            continue
        c = field.mul(rem[top], inv_lead)
        quo[shift] = c
        for i, bc in enumerate(b):
            rem[shift + i] = field.sub(rem[shift + i], field.mul(c, bc))
    return _trimmed(field, quo), _trimmed(field, rem)


def ref_eval(field, a, x):
    acc = field.zero()
    for c in reversed(a):
        acc = field.add(field.mul(acc, x), c)
    return acc


def ref_ext_mul(field, a, b):
    """The residue-field product as a double loop and a reduction by the
    monic modulus on the base field's methods."""
    base, d = field.base, field.degree
    prod = [base.zero()] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = base.add(prod[i + j], base.mul(x, y))
    for k in range(2 * d - 2, d - 1, -1):
        c = prod[k]
        prod[k] = base.zero()
        for j in range(d):
            prod[k - d + j] = base.sub(prod[k - d + j], base.mul(c, field.modulus[j]))
    return tuple(prod[:d])


# GF(16) as a tower over the table field GF(4): its product runs on GF(4)'s
# kernels, and its polynomials on the generic loops
FIELDS = {f"GF({q})": GF(q) for q in (2, 3, 5, 7, 4, 8, 9)}
FIELDS["GF(4)[x]/m2"] = extension(GF(4), 2)


def _vectors(field, rng, count=120):
    """Coefficient vectors: empty, constant, zero constant, sparse, dense,
    some with trailing zeros, as the residue-field product passes them."""
    def element(zero_share):
        return (field.zero() if rng.random() < zero_share
                else field.element_from_index(rng.randrange(field.order)))

    out = [(), (field.zero(),), (field.one(),), (element(0.0),)]
    while len(out) < count:
        share = rng.choice((0.0, 0.3, 0.7))
        out.append(tuple(element(share) for _ in range(rng.randrange(1, 9))))
    return out


@pytest.fixture(params=sorted(FIELDS))
def field_and_vectors(request):
    field = FIELDS[request.param]
    return field, _vectors(field, random.Random(request.param))


class TestFieldKernels:
    def test_add_and_sub(self, field_and_vectors):
        field, vecs = field_and_vectors
        for a, b in zip(vecs, reversed(vecs)):
            assert list(field.trim(field.poly_add(a, b))) == ref_add(field, a, b), (a, b)
            assert list(field.trim(field.poly_sub(a, b))) == ref_sub(field, a, b), (a, b)

    def test_mul(self, field_and_vectors):
        field, vecs = field_and_vectors
        for a, b in zip(vecs, vecs[1:] + vecs[:1]):
            assert list(field.trim(field.poly_mul(a, b))) == ref_mul(field, a, b), (a, b)

    def test_scale_and_evaluate(self, field_and_vectors):
        field, vecs = field_and_vectors
        points = [field.zero(), field.one()] + [v[0] for v in vecs if v][:6]
        for a in vecs:
            for c in points:
                assert list(field.trim(field.poly_scale(a, c))) == ref_scale(field, a, c)
                assert field.poly_eval(a, c) == ref_eval(field, a, c), (a, c)

    def test_divmod_by_non_monic_divisors(self, field_and_vectors):
        field, vecs = field_and_vectors
        divisors = [field.trim(b) for b in vecs if field.trim(b)]
        if field.order > 2:
            assert any(b[-1] != field.one() for b in divisors)
        for a, b in zip(vecs, divisors[::-1]):
            quo, rem = field.poly_divmod(a, b)
            quo, rem = list(field.trim(quo)), list(field.trim(rem))
            assert (quo, rem) == ref_divmod(field, a, b), (a, b)
            # q b + r = a with deg r < deg b
            assert len(rem) < len(b)
            back = field.poly_add(field.poly_mul(quo, b), rem)
            assert list(field.trim(back)) == _trimmed(field, a), (a, b)

    def test_poly_methods_agree_with_the_reference(self, field_and_vectors):
        field, vecs = field_and_vectors
        for a, b in zip(vecs, vecs[2:]):
            pa, pb = Poly(field, a), Poly(field, b)
            assert list((pa + pb).coeffs) == ref_add(field, a, b)
            assert list((pa - pb).coeffs) == ref_sub(field, a, b)
            assert list((-pb).coeffs) == ref_sub(field, (), b)
            assert list((pa * pb).coeffs) == ref_mul(field, a, b)
            if not pb.is_zero():
                quo, rem = pa.divmod(pb)
                assert (list(quo.coeffs), list(rem.coeffs)) == \
                    ref_divmod(field, pa.coeffs, pb.coeffs)

    def test_residue_field_product(self):
        checked = 0
        for field in list(FIELDS.values()) + [extension(GF(3), 3), extension(GF(9), 2)]:
            if not isinstance(field, ExtField):
                continue
            rng = random.Random(field.order)
            elements = [field.zero(), field.one()] + [
                field.element_from_index(rng.randrange(field.order)) for _ in range(40)]
            for a, b in zip(elements, elements[1:] + elements[:1]):
                assert field.mul(a, b) == ref_ext_mul(field, a, b), (field, a, b)
                checked += 1
        assert checked == 3 * 42


class TestPolyPowers:
    def test_a_negative_exponent_raises(self):
        field = GF(5)
        poly = Poly(field, [1, 1])
        with pytest.raises(ValidationError, match="nonnegative exponent"):
            poly ** -1
        with pytest.raises(ValidationError, match="nonnegative exponent"):
            poly.powmod(-1, Poly(field, [2, 0, 1]))
