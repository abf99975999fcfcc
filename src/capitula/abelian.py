"""Exact arithmetic on finitely generated abelian groups.

Everything here is integer linear algebra: Smith normal form with its
unimodular transforms, kernels/cokernels of maps between finite abelian
groups, and quotients of integer lattices.  Lattices are kept as staircase
bases from one untracked column echelon: a preimage {x : M x in L} comes
from one echelon of [[M, L], [I, 0]], and a finite quotient L1/L2 is the
Smith diagonal of L2's coordinates in the staircase of L1.

Transforms are formed only where coordinates are read.  A presented
quotient (QuotientPresentation) is always Z^r / L, so its one SNF with
transforms maps vectors of Z^r to quotient coordinates; a quotient of
lattices L1 / L2 is presented as Z^r / X, X the coordinates of L2 in the
staircase of L1 (kernel).  A subgroup that is only counted
(subgroup_order) is [Z^r : L] / [Z^r : L + <gens>], two Smith diagonals
with no transforms (Cohen, GTM 138, section 2.4).

A finite abelian group is always carried around in invariant-factor
normal form d1 | d2 | ... | dk (each factor at least 2, the empty list
being the trivial group); the relation lattice of that presentation is
diag(d1, ..., dk) Z^k.

All arithmetic is arbitrary precision: class numbers and L-polynomial
coefficients overflow fixed width quickly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod

from .arith import ext_gcd, is_prime, lcm_list
from .errors import ValidationError


# ---------------------------------------------------------------------------
# integer matrix helpers (dense lists of lists, arbitrary precision)

def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    if a and b and len(a[0]) != len(b):
        raise ValidationError("matrix dimension mismatch in product")
    cols = len(b[0]) if b else 0
    return [
        [sum(arow[t] * b[t][j] for t in range(len(b))) for j in range(cols)]
        for arow in a
    ]


def mat_vec(a, v):
    if a and len(a[0]) != len(v):
        raise ValidationError("matrix/vector dimension mismatch")
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


def transpose(a):
    if not a:
        return []
    return [[a[i][j] for i in range(len(a))] for j in range(len(a[0]))]


def columns(a):
    return transpose(a)


def from_columns(cols, nrows=None):
    if not cols:
        return [[] for _ in range(nrows or 0)]
    return [[col[i] for col in cols] for i in range(len(cols[0]))]


def _swap_rows(a, u, i, j):
    a[i], a[j] = a[j], a[i]
    u[i], u[j] = u[j], u[i]


def _swap_cols(a, v, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]
    for row in v:
        row[i], row[j] = row[j], row[i]


def _addmul_row(a, u, i, j, c):
    """row_i += c * row_j on a, mirrored on u."""
    ai, aj = a[i], a[j]
    for t in range(len(ai)):
        ai[t] += c * aj[t]
    ui, uj = u[i], u[j]
    for t in range(len(ui)):
        ui[t] += c * uj[t]


def _addmul_col(a, v, j, i, c):
    """col_j += c * col_i on a, mirrored on v."""
    for row in a:
        row[j] += c * row[i]
    for row in v:
        row[j] += c * row[i]


def _negate_row(a, u, i):
    a[i] = [-x for x in a[i]]
    u[i] = [-x for x in u[i]]


def smith_normal_form(matrix, transforms=True):
    """Smith normal form with transforms: returns (U, S, V) with U*M*V = S.

    U and V are unimodular; S is diagonal with non-negative entries forming
    a divisibility chain s1 | s2 | ...  Total on integer matrices, including
    empty and rectangular ones.  With transforms false, U and V are not
    formed and come back as None.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    for r in matrix:
        if len(r) != cols:
            raise ValidationError("ragged matrix")
    a = [[int(x) for x in r] for r in matrix]
    # untracked, U has empty rows and V no rows, so mirroring a row or
    # column operation on them costs nothing
    u = identity_matrix(rows) if transforms else [[] for _ in range(rows)]
    v = identity_matrix(cols) if transforms else []

    t = 0
    while t < min(rows, cols):
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            _swap_rows(a, u, t, piv[0])
        if piv[1] != t:
            _swap_cols(a, v, t, piv[1])

        while True:
            clean = True
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    _addmul_row(a, u, i, t, -q)
                    if a[i][t]:
                        _swap_rows(a, u, t, i)
                        clean = False
            if not clean:
                continue
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    _addmul_col(a, v, j, t, -q)
                    if a[t][j]:
                        _swap_cols(a, v, t, j)
                        clean = False
            if not clean:
                continue
            if any(a[i][t] for i in range(t + 1, rows)):
                continue
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            _addmul_row(a, u, t, offender, 1)
        if a[t][t] < 0:
            _negate_row(a, u, t)
        t += 1
    if not transforms:
        return None, a, None
    return u, a, v


def snf_diagonal(matrix):
    """Just the diagonal of the Smith form, as a list of length min(m, n)."""
    _, s, _ = smith_normal_form(matrix, transforms=False)
    return [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0))]


def invert_unimodular(u):
    """Exact inverse of a unimodular integer matrix."""
    u1, s, v1 = smith_normal_form(u)
    n = len(u)
    if any(s[i][i] != 1 for i in range(n)):
        raise ValidationError("matrix is not unimodular")
    return mat_mul(v1, u1)


def _column_echelon(a):
    """Bring a to integer column echelon form in place, by gcd elimination.

    Returns the pivot rows, one per leading column: column j is zero above
    row pivots[j] and positive there, and the columns beyond the last
    pivot are identically zero.  Column operations keep the lattice the
    columns span.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    pc = 0
    for r in range(rows):
        if pc >= cols:
            break
        # the rows above r are zero from column pc on, so they never change
        below = a[r:]
        row_r = a[r]
        while True:
            best = None
            for j in range(pc, cols):
                x = row_r[j]
                if x != 0 and (best is None or abs(x) < abs(row_r[best])):
                    best = j
            if best is None:
                break
            if best != pc:
                for row in below:
                    row[pc], row[best] = row[best], row[pc]
            done = True
            p = row_r[pc]
            for j in range(pc + 1, cols):
                if row_r[j]:
                    q = row_r[j] // p
                    for row in below:
                        row[j] -= q * row[pc]
                    if row_r[j]:
                        done = False
            if done:
                break
        if pc < cols and row_r[pc] != 0:
            if row_r[pc] < 0:
                for row in below:
                    row[pc] = -row[pc]
            pivots.append(r)
            pc += 1
    return pivots


def preimage_system(nvars, moduli):
    """The stacked system [[M, diag(moduli)], [I_nvars, 0]] with M = 0.

    The caller writes M (len(moduli) rows over nvars columns) into the
    top-left block and passes the result to preimage_staircase.
    """
    m = len(moduli)
    width = nvars + m
    system = [[0] * width for _ in range(m + nvars)]
    for i, f in enumerate(moduli):
        system[i][nvars + i] = f
    for i in range(nvars):
        system[m + i][i] = 1
    return system


def preimage_staircase(system, m):
    """Staircase basis of {x : M x in L}, from one column echelon of
    [[M, L], [I, 0]] with M the first m rows (Cohen, GTM 138, section 2.4).

    The columns span {(M x + L z, x)}.  Once the first m rows are done, the
    columns left are zero on top, so their lower parts span the preimage,
    and the echelon of the I rows puts that preimage in staircase form.
    Returns (basis, pivots) as column_lattice_basis does, with the pivot
    rows counted in Z^N; the system is overwritten.
    """
    pivots = _column_echelon(system)
    top = sum(r < m for r in pivots)
    rows = system[m:]
    return ([[row[j] for row in rows] for j in range(top, len(pivots))],
            [r - m for r in pivots[top:]])


def kernel_basis(matrix):
    """Staircase basis (as column vectors) of the integer kernel of M."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    return preimage_generators(matrix, [], cols)


def solve_integer(matrix, rhs):
    """One integer solution x of M x = rhs, or None if none exists."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    u, s, v = smith_normal_form(matrix)
    ub = mat_vec(u, rhs)
    y = [0] * cols
    for i in range(rows):
        si = s[i][i] if i < min(rows, cols) else 0
        if si == 0:
            if ub[i] != 0:
                return None
        else:
            if ub[i] % si:
                return None
            y[i] = ub[i] // si
    return mat_vec(v, y)


def column_lattice_basis(gen_cols, ambient_dim):
    """Basis of the lattice spanned by the given columns of Z^ambient_dim.

    The basis comes back in staircase form: the j-th basis vector is zero
    at the pivot rows of the earlier ones, which makes membership solvable
    by forward substitution (see solve_staircase).
    """
    cols = [c for c in gen_cols if any(c)]
    if not cols:
        return [], []
    m = from_columns(cols, ambient_dim)
    pivots = _column_echelon(m)
    return [[row[j] for row in m] for j in range(len(pivots))], pivots


def solve_staircase(basis, pivots, rhs):
    """Coordinates of rhs in a staircase lattice basis, or None."""
    coords = [0] * len(basis)
    residual = list(rhs)
    for idx, r in enumerate(pivots):
        p = basis[idx][r]
        if residual[r] % p:
            return None
        c = residual[r] // p
        coords[idx] = c
        if c:
            col = basis[idx]
            for i in range(len(residual)):
                residual[i] -= c * col[i]
    if any(residual):
        return None
    return coords


def preimage_generators(matrix, lattice_cols, domain_dim=None):
    """Staircase basis of {x : M x lies in the lattice spanned by lattice_cols}.

    The target lattice lives in Z^m where m is the row count of M.  For a
    map into Z^0 the matrix carries no column count, so domain_dim must be
    supplied whenever it can be zero-row.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else domain_dim
    if cols is None:
        raise ValidationError("domain dimension of an empty matrix is unknown")
    system = [list(row) + [col[i] for col in lattice_cols] for i, row in enumerate(matrix)]
    system += [[int(i == j) for j in range(cols)] + [0] * len(lattice_cols)
               for i in range(cols)]
    return preimage_staircase(system, rows)[0]


class HermiteModD:
    """Incremental Hermite form of R + D Z^m, for the index of R modulo D.

    Row i of the basis is zero before column i, its pivot is a positive
    divisor of D, and every other entry is reduced into [0, D).  The basis
    starts as D times the identity; add(vec) sweeps a vector of R down the
    rows with one extended-gcd step per nonzero pivot column, a unimodular
    2x2 change that keeps the span, so an addition costs O(m^2) operations
    on integers below D (Domich-Kannan-Trotter 1987; Cohen, GTM 138,
    Alg. 2.4.8).  index = [Z^m : R + D Z^m] is the product of the pivots.
    It equals [Z^m : R] when D Z^m lies in R, and is at least D when R
    has rank below m.
    """

    def __init__(self, m: int, modulus: int):
        if modulus < 1:
            raise ValidationError("the modulus of a Hermite form must be positive")
        self.modulus = modulus
        self._rows = [[modulus if i == j else 0 for j in range(m)] for i in range(m)]

    @property
    def index(self) -> int:
        return prod(row[i] for i, row in enumerate(self._rows))

    @property
    def rows(self) -> list[list[int]]:
        """The Hermite normal form of R + D Z^m: the triangular basis with
        the entries above each pivot reduced into [0, pivot), pivot by
        pivot.  It is unique for the lattice, so it does not depend on the
        order in which the vectors were added."""
        rows = [list(row) for row in self._rows]
        for i, pivot_row in enumerate(rows):
            pivot = pivot_row[i]
            for row in rows[:i]:
                f = row[i] // pivot
                if f:
                    row[i:] = [x - f * y for x, y in zip(row[i:], pivot_row[i:])]
        return rows

    def add(self, vec) -> None:
        d = self.modulus
        m = len(self._rows)
        if len(vec) != m:
            raise ValidationError("vector has wrong length for the Hermite form")
        v = [x % d for x in vec]
        for i, row in enumerate(self._rows):
            a, b = row[i], v[i]
            if b == 0:
                continue
            g, s, t = ext_gcd(a, b)
            ag, bg = a // g, b // g
            for j in range(i + 1, m):
                rj, vj = row[j], v[j]
                row[j] = (s * rj + t * vj) % d
                v[j] = (bg * rj - ag * vj) % d
            row[i] = g


def diagonal_columns(diag):
    return [[diag[i] if r == i else 0 for r in range(len(diag))] for i in range(len(diag))]


def _staircase_coordinates(basis, pivots, den_cols):
    """The coordinates of each den column in a staircase basis of L1, so
    that L1/L2 = Z^rank / <coordinates>."""
    x_cols = []
    for d in den_cols:
        sol = solve_staircase(basis, pivots, d)
        if sol is None:
            raise ValidationError("denominator lattice not contained in numerator lattice")
        x_cols.append(sol)
    return x_cols


def _finite_diagonal(cols, rank):
    """The Smith diagonal of Z^rank / <cols>, with no transforms; the
    quotient must be finite."""
    diag = snf_diagonal(from_columns(cols, rank))
    if len(diag) < rank or 0 in diag:
        raise ValidationError("quotient is infinite")
    return diag


class QuotientPresentation:
    """The finite group Z^rank / L, L spanned by den_cols, with generator lifts.

    Carries the SNF transform that expresses any vector of Z^rank in
    quotient coordinates, which is what lets Galois actions and subgroup
    inclusions descend to computed quotients.  One SNF U X V = S of the
    relation matrix X gives both: U maps vectors to the quotient, and the
    generator lifts are the columns of U^-1, read off X V = U^-1 S column
    by column (every s_i is nonzero on a finite quotient), so no second
    SNF inverts U.
    """

    def __init__(self, den_cols, rank):
        x = from_columns(den_cols, rank)
        u, s, v = smith_normal_form(x)
        factors = [s[i][i] if i < len(s[i]) else 0 for i in range(rank)]
        if 0 in factors:
            raise ValidationError("quotient is infinite")
        self._u = u
        self._all_factors = factors
        self._kept = [i for i, f in enumerate(factors) if f != 1]
        self.group = FinAbGroup(tuple(factors[i] for i in self._kept))
        # X V = U^-1 S and no s_i is 0, so column i of U^-1 is (X V)[:, i] / s_i
        self.lifts = [[c // factors[i] for c in mat_vec(x, [row[i] for row in v])]
                      for i in self._kept]

    def coords(self, vec):
        """Quotient coordinates of a vector of Z^rank, one per invariant factor."""
        y = mat_vec(self._u, vec)
        return tuple(y[i] % self._all_factors[i] for i in self._kept)

    def induced_matrix(self, endo_rows):
        """Matrix of an endomorphism of Z^rank on the quotient generators.

        The endomorphism must map L into itself.
        """
        cols = [self.coords(mat_vec(endo_rows, lift)) for lift in self.lifts]
        k = len(self._kept)
        return tuple(tuple(cols[j][i] for j in range(k)) for i in range(k))


def subgroup_order(den_cols, gen_cols, rank) -> int:
    """Order of the subgroup that gen_cols generate in the finite group
    Z^rank / L, L spanned by den_cols: [Z^rank : L] / [Z^rank : L + <gens>],
    read off two Smith diagonals with no transforms."""
    whole = prod(_finite_diagonal(den_cols, rank))
    return whole // prod(_finite_diagonal(den_cols + gen_cols, rank))


def staircase_quotient(basis, pivots, den_cols) -> FinAbGroup:
    """The finite group L1/L2 for L1 in staircase form (basis, pivots) and L2
    spanned by den_cols: one forward solve per den column, then the Smith
    diagonal of the coordinates alone."""
    diag = _finite_diagonal(_staircase_coordinates(basis, pivots, den_cols), len(basis))
    return FinAbGroup(tuple(d for d in diag if d != 1))


def finite_quotient(num_cols, den_cols, ambient_dim) -> FinAbGroup:
    """The finite group L1/L2, read off the Smith diagonal alone."""
    return staircase_quotient(*column_lattice_basis(num_cols, ambient_dim), den_cols)


# ---------------------------------------------------------------------------
# finite abelian groups and their homomorphisms

@dataclass(frozen=True)
class FinAbGroup:
    """A finite abelian group in invariant-factor normal form.

    invariant_factors is a tuple d1 | d2 | ... | dk with every di >= 2;
    the empty tuple is the trivial group.  The group is presented as
    Z^k / diag(d) Z^k throughout the package.
    """

    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        fs = tuple(int(d) for d in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", fs)
        for d in fs:
            if d < 2:
                raise ValidationError(f"invariant factor {d} is < 2")
        for a, b in zip(fs, fs[1:]):
            if b % a:
                raise ValidationError(f"invariant factors {a}, {b} violate divisibility")

    @classmethod
    def of(cls, *cyclic_orders) -> "FinAbGroup":
        """The direct sum of Z/m for the given orders, normalized."""
        orders = [int(m) for m in cyclic_orders]
        for m in orders:
            if m < 1:
                raise ValidationError("cyclic orders must be positive")
        orders = [m for m in orders if m > 1]
        # Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b); after the pass for position
        # i, orders[i] divides every later entry
        for i in range(len(orders)):
            for j in range(i + 1, len(orders)):
                a, b = orders[i], orders[j]
                orders[i], orders[j] = gcd(a, b), lcm(a, b)
        return cls(tuple(d for d in orders if d > 1))

    @classmethod
    def trivial(cls) -> "FinAbGroup":
        return cls()

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def relation_columns(self):
        return diagonal_columns(list(self.invariant_factors))

    def direct_sum(self, other: "FinAbGroup") -> "FinAbGroup":
        return FinAbGroup.of(*(self.invariant_factors + other.invariant_factors))

    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def __str__(self):
        if not self.invariant_factors:
            return "trivial"
        return " x ".join(f"Z/{d}" for d in self.invariant_factors)


def ell_rank(group: FinAbGroup, ell: int) -> int:
    """Number of invariant factors divisible by the prime ell."""
    if not is_prime(ell):
        raise ValidationError(f"{ell} is not prime")
    return sum(1 for d in group.invariant_factors if d % ell == 0)


@dataclass(frozen=True)
class AbHom:
    """A homomorphism between finite abelian groups as an integer matrix.

    matrix[i][j] is the coefficient of the i-th target generator in the
    image of the j-th source generator.  Well-definedness means every
    column j is annihilated by the j-th source invariant factor modulo the
    target relation lattice.
    """

    source: FinAbGroup
    target: FinAbGroup
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        m = self.target.rank
        k = self.source.rank
        rows = tuple(tuple(int(x) for x in r) for r in self.matrix)
        if len(rows) != m or any(len(r) != k for r in rows):
            raise ValidationError(
                f"malformed hom: matrix must be {m}x{k}, got "
                f"{len(rows)}x{len(rows[0]) if rows else 0}"
            )
        tf = self.target.invariant_factors
        sf = self.source.invariant_factors
        reduced = tuple(
            tuple(rows[i][j] % tf[i] for j in range(k)) for i in range(m)
        )
        for i in range(m):
            for j in range(k):
                if (sf[j] * reduced[i][j]) % tf[i]:
                    raise ValidationError(
                        f"malformed hom: column {j} is not annihilated by {sf[j]}"
                    )
        object.__setattr__(self, "matrix", reduced)

    def matrix_rows(self):
        return [list(r) for r in self.matrix]

    def __call__(self, element):
        """Image of an element given in source coordinates."""
        if len(element) != self.source.rank:
            raise ValidationError("element has wrong length")
        img = mat_vec(self.matrix_rows(), list(element))
        tf = self.target.invariant_factors
        return tuple(img[i] % tf[i] for i in range(self.target.rank))


def kernel(h: AbHom) -> tuple[FinAbGroup, AbHom]:
    """Kernel of a hom, with its inclusion back into the source."""
    k = h.source.rank
    system = preimage_system(k, h.target.invariant_factors)
    for target, row in zip(system, h.matrix):
        target[:k] = row
    basis, pivots = preimage_staircase(system, h.target.rank)
    # ker h = preimage / source relations, presented in the preimage's
    # staircase coordinates; the lifts map back through the basis
    pres = QuotientPresentation(
        _staircase_coordinates(basis, pivots, h.source.relation_columns()), len(basis))
    incl = mat_mul(from_columns(basis, k), from_columns(pres.lifts, len(basis)))
    return pres.group, AbHom(pres.group, h.source, incl)


def cokernel(h: AbHom) -> FinAbGroup:
    m = h.target.rank
    num = [[1 if r == i else 0 for r in range(m)] for i in range(m)]
    den = columns(h.matrix_rows()) + h.target.relation_columns()
    return finite_quotient(num, den, m)


def image_order(h: AbHom) -> int:
    return h.target.order // cokernel(h).order


def sum_map_kernel(d_values, big_d: int) -> FinAbGroup:
    """Kernel of the summation map on A = ⊕ Z/d_v into Z/D.

    The v-th generator is sent to D/d_v mod D, which is the additive model
    of (x_v) -> sum x_v on the union of the d_v-torsion subgroups of Q/Z.
    Requires D = lcm(d_v); entries equal to 1 contribute trivial summands.

    No lattice is built.  A is a Z/D-module and the map is onto Z/D (the
    D/d_v have gcd 1), which is free over Z/D, so the map splits:
    A ≅ ker ⊕ Z/D.  By cancellation for finite abelian groups the kernel
    has every invariant factor of A but the last, which is D.  Its order is
    (prod d_v)/D.
    """
    d = [int(x) for x in d_values]
    if not d:
        raise ValidationError("empty d-vector")
    if any(x < 1 for x in d):
        raise ValidationError("d-values must be positive")
    if big_d != lcm_list(d):
        raise ValidationError(f"D={big_d} is not lcm{tuple(d)}")
    group = FinAbGroup(FinAbGroup.of(*d).invariant_factors[:-1])
    if group.order != prod(d) // big_d:
        raise ValidationError("internal error: kernel order does not match (prod d)/D")
    return group
