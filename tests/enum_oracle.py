"""Brute-force reference computations used by the test suite.

These deliberately avoid the lattice machinery in capitula.abelian: group
structures are recovered from element-order statistics so that tests check
the SNF pipeline against something independent.
"""

from itertools import product
from math import gcd, prod


def factorize(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def smul(k, x, add, zero):
    acc = zero
    cur = x
    while k:
        if k & 1:
            acc = add(acc, cur)
        cur = add(cur, cur)
        k >>= 1
    return acc


def structure_by_enumeration(elements, add, zero):
    """Invariant factors of a finite abelian group given by its elements.

    For each prime p dividing the order, the partition of the p-part is
    read off from the counts #{x : p^k x = 0}; the invariant factors are
    then assembled by aligning the largest prime-power pieces.
    """
    n = len(elements)
    if n == 1:
        return ()
    parts = {}
    for p, e in factorize(n).items():
        counts = [1]
        k = 1
        while counts[-1] < p ** (e * 2) and True:
            c = sum(1 for x in elements if smul(p**k, x, add, zero) == zero)
            counts.append(c)
            if c == counts[-2]:
                break
            k += 1
        # m_k = number of cyclic pieces of order >= p^k
        ms = []
        for k in range(1, len(counts)):
            ratio = counts[k] // counts[k - 1]
            mk = 0
            while ratio > 1:
                ratio //= p
                mk += 1
            ms.append(mk)
        lam = []
        for k, mk in enumerate(ms, start=1):
            while len(lam) < mk:
                lam.append(0)
            for i in range(mk):
                lam[i] = k
        parts[p] = sorted(lam, reverse=True)
    width = max(len(v) for v in parts.values())
    factors = []
    for i in range(width):
        d = 1
        for p, lam in parts.items():
            if i < len(lam):
                d *= p ** lam[i]
        factors.append(d)
    factors = [d for d in sorted(factors) if d > 1]
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0, "enumeration oracle produced a non-chain"
    assert prod(factors) == n
    return tuple(factors)


def sum_map_kernel_elements(d_values, big_d):
    """All tuples of ⊕ Z/d_v killed by the summation map into Z/D."""
    elems = [()]
    for dv in d_values:
        elems = [e + (x,) for e in elems for x in range(dv)]
    out = []
    for e in elems:
        if sum(x * (big_d // dv) for x, dv in zip(e, d_values)) % big_d == 0:
            out.append(e)
    return out


def tuple_adder(moduli):
    def add(a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, moduli))
    return add


def det_bareiss(m):
    """Exact determinant by fraction-free elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(r) for r in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def hom_images(source_factors, target_factors, matrix):
    """All images of a hom given by a matrix, by enumerating the source."""
    elems = [()]
    for dv in source_factors:
        elems = [e + (x,) for e in elems for x in range(dv)]
    images = set()
    for e in elems:
        img = tuple(
            sum(matrix[i][j] * e[j] for j in range(len(e))) % target_factors[i]
            for i in range(len(target_factors))
        )
        images.add(img)
    return images


def preimage_elements_mod(matrix, moduli, modulus, n):
    """All x in (Z/modulus)^n with (M x)_i = 0 mod moduli[i] for every row i.

    Each moduli[i] must divide modulus, so that the condition is well
    defined on residues."""
    out = []
    for x in product(range(modulus), repeat=n):
        if all(sum(a * b for a, b in zip(row, x)) % f == 0 for row, f in zip(matrix, moduli)):
            out.append(x)
    return out


def span_mod(vectors, modulus, n):
    """All integer combinations of the vectors, reduced modulo modulus."""
    span = {tuple([0] * n)}
    for v in vectors:
        step = tuple(x % modulus for x in v)
        grown = set(span)
        frontier = list(span)
        while frontier:
            nxt = []
            for s in frontier:
                t = tuple((a + b) % modulus for a, b in zip(s, step))
                if t not in grown:
                    grown.add(t)
                    nxt.append(t)
            frontier = nxt
        span = grown
    return span
