"""Group cohomology of finite abelian groups acting on finite abelian groups.

Every cohomology group here comes from one free resolution.  For
G = Z/n_1 x ... x Z/n_r with generators s_i and norms
N_i = 1 + s_i + ... + s_i^(n_i - 1), it is the tensor product of the
factors' two-periodic resolutions (Brown, Cohomology of Groups, I.6, V.1):
the degree-d term is free on the multi-indices alpha with |alpha| = d, and

    d e_alpha = sum_i (-1)^(alpha_1 + ... + alpha_(i-1)) tau_i(alpha_i) e_(alpha - eps_i)

with tau_i(a) = s_i - 1 for odd a and N_i for even a.  Validating a GModule
builds these blocks once, N_i by binary doubling alongside the check
s_i^(n_i) = 1, so no cohomology call rebuilds them.  A d-cochain is one
element of M per multi-index, so cocycles and coboundaries are integer
lattices of a size independent of |G|, and H^d is one lattice quotient,
never an enumeration of maps.  For cyclic G this is the periodic
resolution itself:

    H^1 = ker N / (s - 1) M,      H^2 = ker(s - 1) / N M = H^0_hat.

Each group costs one column echelon, one forward solve and one Smith
diagonal.  The cocycles {x : delta_d x in diag(fs) Z} come out in
staircase form from one echelon of the stacked system
[[delta_d, diag(fs)], [I, 0]] (abelian.preimage_staircase).  The
coboundaries, the columns of delta_(d-1) and diag(fs), are solved against
that staircase, and H^d is read off the Smith diagonal of their
coordinates (abelian.staircase_quotient).  hom_g_dual does the same with
the well-definedness and equivariance conditions in place of delta_d.

A GModule computes each group once: H^1 and H^2 are cached properties, and
h1_cyclic, tate_h0, h2_cyclic, herbrand_quotient and h_general read them, so
a Herbrand quotient after h1_cyclic and tate_h0 computes nothing more.
h_general bounds the rank of G (the generators of order > 1), which is what
a cochain's size depends on, not the order of G.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import prod
from operator import mul

from .abelian import (
    FinAbGroup,
    diagonal_columns,
    preimage_staircase,
    preimage_system,
    staircase_quotient,
)
from .errors import ResourceError, UnsupportedError, ValidationError

RANK_BOUND = 6  # most generators of order > 1 that h_general accepts


@dataclass(frozen=True)
class Cyclic:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("cyclic group order must be positive")

    @property
    def order(self):
        return self.n

    @property
    def generator_orders(self):
        return (self.n,)


@dataclass(frozen=True)
class AbelianGroup:
    orders: tuple[int, ...]

    def __post_init__(self):
        orders = tuple(int(x) for x in self.orders)
        if any(x < 1 for x in orders):
            raise ValidationError("generator orders must be positive")
        object.__setattr__(self, "orders", orders)

    @property
    def order(self):
        return prod(self.orders)

    @property
    def generator_orders(self):
        return self.orders


def _identity(k):
    return tuple(tuple(int(i == j) for j in range(k)) for i in range(k))


def _mul_mod(a, b, factors):
    """The product a*b with row i reduced modulo factors[i], as a tuple of rows."""
    cols = list(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) % f for col in cols])
                  for row, f in zip(a, factors)])


def _norm_and_power(sigma, n, factors):
    """(N, sigma^n) with N = 1 + sigma + ... + sigma^(n-1), reduced like _mul_mod.

    Binary doubling over the bits of n, O(log n) products: with P = sigma^a,
    N_2a = [P | 1] [N; N] and P_2a = P^2, and a step of one takes
    N_(a+1) = [sigma | 1] [N; 1] and P_(a+1) = sigma P.
    """
    ident = _identity(len(factors))
    step = tuple(row + irow for row, irow in zip(sigma, ident))
    norm, power = ident, sigma
    for bit in bin(n)[3:]:
        norm = _mul_mod(tuple(row + irow for row, irow in zip(power, ident)),
                        norm + norm, factors)
        power = _mul_mod(power, power, factors)
        if bit == "1":
            norm = _mul_mod(step, norm + ident, factors)
            power = _mul_mod(sigma, power, factors)
    return norm, power


@dataclass(frozen=True)
class GModule:
    """A finite abelian group with an action of a finite abelian group.

    action holds one integer matrix per group generator, acting on the
    module presentation Z^k / diag(d).  Each matrix must define an
    automorphism, the matrices must commute, and each must satisfy its
    generator order.

    blocks holds (s_i - 1, N_i) for each generator s_i, with N_i the sum of
    its powers; validation builds N_i together with s_i^(n_i).

    h1 and h2 are computed once per module, on first use.  They are cached
    properties, not fields, so equality, hashing and repr ignore them.
    """

    group: Cyclic | AbelianGroup
    module: FinAbGroup
    action: tuple[tuple[tuple[int, ...], ...], ...]
    blocks: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        gens = self.group.generator_orders
        k = self.module.rank
        fs = self.module.invariant_factors
        mats = tuple(
            tuple(tuple(int(x) for x in row) for row in m) for m in self.action
        )
        if len(mats) != len(gens):
            raise ValidationError("need exactly one action matrix per group generator")
        reduced = []
        for m in mats:
            if len(m) != k or any(len(r) != k for r in m):
                raise ValidationError("action matrix has wrong shape")
            for i in range(k):
                for j in range(k):
                    if (fs[j] * m[i][j]) % fs[i]:
                        raise ValidationError("action matrix is not well-defined on the module")
            reduced.append(tuple(tuple(x % f for x in row) for row, f in zip(m, fs)))
        ident = _identity(k)
        blocks = []
        for m, order in zip(reduced, gens):
            norm, power = _norm_and_power(m, order, fs)
            # satisfying the generator order forces invertibility: the
            # inverse automorphism is the (order-1)-th power
            if power != ident:
                raise ValidationError("action matrix does not satisfy its generator order")
            smo = tuple(tuple(x - (i == j) for j, x in enumerate(row))
                        for i, row in enumerate(m))
            blocks.append((smo, norm))
        # [a, b] = 1 exactly when [b, a] = 1, and a commutes with itself
        for i, a in enumerate(reduced):
            for b in reduced[i + 1:]:
                if _mul_mod(a, b, fs) != _mul_mod(b, a, fs):
                    raise ValidationError("generator actions do not commute")
        object.__setattr__(self, "action", tuple(reduced))
        object.__setattr__(self, "blocks", tuple(blocks))

    @classmethod
    def trivial_action(cls, group, module: FinAbGroup) -> "GModule":
        ident = _identity(module.rank)
        return cls(group, module, tuple(ident for _ in group.generator_orders))

    @classmethod
    def cyclic(cls, n: int, module: FinAbGroup, matrix) -> "GModule":
        return cls(Cyclic(n), module, (tuple(tuple(r) for r in matrix),))

    @cached_property
    def h1(self) -> FinAbGroup:
        """H^1(G, M), computed on first use."""
        return _cohomology(self, 1)

    @cached_property
    def h2(self) -> FinAbGroup:
        """H^2(G, M), computed on first use; H^0_hat for cyclic G."""
        return _cohomology(self, 2)

    def sigma(self):
        if not isinstance(self.group, Cyclic):
            raise UnsupportedError("cyclic-only operation; use h_general")
        return [list(r) for r in self.action[0]]


def multiplicative_group_module(q: int, n: int) -> GModule:
    """The multiplicative group of F_{q^n} as a module over Gal = Z/n.

    Constructed as the cyclic group of order q^n - 1 with the Frobenius
    acting by multiplication by q; exact, no discrete logs involved.
    """
    order = q**n - 1
    module = FinAbGroup.of(order)
    if module.is_trivial():
        return GModule.trivial_action(Cyclic(n), module)
    return GModule.cyclic(n, module, ((q % order,),))


def _indices(r, d):
    """The multi-indices alpha in N^r (r >= 1) with |alpha| = d, in
    lexicographic order: each prefix carries what is left of d, and the
    last coordinate takes the rest."""
    out = [((), d)]
    for _ in range(r - 1):
        out = [(head + (a,), left - a) for head, left in out for a in range(left + 1)]
    return [head + (left,) for head, left in out]


def _coboundary(blocks, src, tgt, k):
    """The nonzero entries (row, column, value) of delta: C^d -> C^(d+1),
    k coordinates per index; each position comes up at most once.

    src and tgt are the multi-indices of degrees d and d + 1."""
    pos = {alpha: t for t, alpha in enumerate(src)}
    for b, beta in enumerate(tgt):
        sign = 1
        for i, a in enumerate(beta):
            if a:
                # tau_i(a) = s_i - 1 for odd a, N_i for even a
                block = blocks[i][a % 2 == 0]
                base = pos[beta[:i] + (a - 1,) + beta[i + 1:]] * k
                for x in range(k):
                    for y, v in enumerate(block[x]):
                        if v:
                            yield b * k + x, base + y, sign * v
            if a % 2:
                sign = -sign


def _cohomology(m: GModule, degree: int) -> FinAbGroup:
    """H^degree(G, M) = ker delta_d / im delta_(d-1) for degree >= 1."""
    if m.module.is_trivial() or m.group.order == 1:
        return FinAbGroup.trivial()
    fs = list(m.module.invariant_factors)
    k = len(fs)
    # a generator of order 1 acts as the identity and adds nothing to G
    blocks = [b for b, n in zip(m.blocks, m.group.generator_orders) if n > 1]
    below, cochains, above = (_indices(len(blocks), d) for d in (degree - 1, degree, degree + 1))
    nvars = len(cochains) * k
    # the cocycles, {x : delta_d x in diag(fs) Z^(above)}, in staircase form
    system = preimage_system(nvars, fs * len(above))
    for r, c, v in _coboundary(blocks, cochains, above, k):
        system[r][c] = v
    cocycles, pivots = preimage_staircase(system, len(above) * k)
    # the coboundaries: the columns of delta_(d-1), then diag(fs) Z^(cochains)
    den = [[0] * nvars for _ in range(len(below) * k)]
    for r, c, v in _coboundary(blocks, below, cochains, k):
        den[c][r] = v
    return staircase_quotient(cocycles, pivots, den + diagonal_columns(fs * len(cochains)))


def tate_h0(m: GModule) -> FinAbGroup:
    """H^0_hat(G, M) = M^G / N M for cyclic G, the resolution's H^2."""
    m.sigma()  # raises UnsupportedError unless G is cyclic
    return m.h2


def h1_cyclic(m: GModule) -> FinAbGroup:
    """H^1(G, M) = ker N / (sigma - 1) M for cyclic G."""
    m.sigma()
    return m.h1


def h2_cyclic(m: GModule) -> FinAbGroup:
    """H^2(G, M) for cyclic G, via two-periodicity: same group as H^0_hat."""
    return tate_h0(m)


def herbrand_quotient(m: GModule) -> Fraction:
    """|H^0_hat| / |H^1| as an exact rational; 1 for every finite module."""
    return Fraction(tate_h0(m).order, h1_cyclic(m).order)


def h_general(m: GModule, degree: int) -> FinAbGroup:
    """H^degree(G, M) for degree 1 or 2 and any finite abelian G.

    One lattice quotient of cocycles by coboundaries in the tensor-product
    resolution.  For G with r generators of order > 1 and M of rank k a
    d-cochain has C(d + r - 1, r - 1) * k integer coordinates, whatever the
    order of G, so the bound is on r: at most RANK_BOUND.
    """
    if degree not in (1, 2):
        raise ValidationError("only degrees 1 and 2 are supported")
    rank = sum(n > 1 for n in m.group.generator_orders)
    if rank > RANK_BOUND:
        raise ResourceError(f"group rank {rank} exceeds the bound {RANK_BOUND}")
    return m.h1 if degree == 1 else m.h2


def hom_g_dual(a: GModule, mu: GModule) -> FinAbGroup:
    """The group of g-equivariant homomorphisms A -> mu.

    Both modules must carry an action of the same acting group.  A map is
    an integer matrix f, one entry per pair of generators; the result is
    the lattice of matrices meeting the conditions, one staircase echelon,
    modulo the matrices that are zero in Hom(A, mu).
    """
    if a.group != mu.group:
        raise ValidationError("mismatched acting groups")
    ka = a.module.rank
    km = mu.module.rank
    if ka == 0 or km == 0:
        return FinAbGroup.trivial()
    afs = a.module.invariant_factors
    mfs = mu.module.invariant_factors
    nvars = km * ka

    def vidx(i, j):
        return i * ka + j

    # f is well defined (afs[j] f_ij = 0 in Z/mfs[i]) and f(g.x) = g.f(x) for
    # each generator, one block of nvars conditions each, all modulo mfs[i]
    lam = [mfs[i] for i in range(km) for _ in range(ka)]
    system = preimage_system(nvars, lam * (1 + len(a.action)))
    for i in range(km):
        for j in range(ka):
            system[vidx(i, j)][vidx(i, j)] = afs[j]
    for block, (p_mat, q_mat) in enumerate(zip(a.action, mu.action), start=1):
        for i in range(km):
            for j in range(ka):
                row = system[block * nvars + vidx(i, j)]
                for t in range(ka):
                    row[vidx(i, t)] += p_mat[t][j]
                for t in range(km):
                    row[vidx(t, j)] -= q_mat[i][t]
    valid, pivots = preimage_staircase(system, len(system) - nvars)
    return staircase_quotient(valid, pivots, diagonal_columns(lam))
