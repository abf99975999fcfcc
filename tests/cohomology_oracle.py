"""Brute-force cohomology references: everything here enumerates elements
or maps directly, so it is independent of the lattice implementation."""

from itertools import product

from enum_oracle import structure_by_enumeration


def all_tuples(factors):
    return [tuple(t) for t in product(*[range(d) for d in factors])]


def matrix_action(rows, factors):
    def act(x):
        return tuple(
            sum(rows[i][j] * x[j] for j in range(len(x))) % factors[i]
            for i in range(len(factors))
        )
    return act


def quotient_structure(numerator, denominator_subgroup, factors):
    """Invariant factors of num/den, both given as element lists."""
    den = set(denominator_subgroup)

    def add(a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, factors))

    canon = {}
    for x in numerator:
        coset = frozenset(add(x, s) for s in den)
        canon[x] = min(coset)
    reps = sorted(set(canon.values()))

    def add_q(a, b):
        return canon[add(a, b)]

    zero = canon[tuple([0] * len(factors))]
    return structure_by_enumeration(reps, add_q, zero)


def cyclic_tate_by_enumeration(factors, sigma_rows, n, degree):
    """H^0_hat or H^1 of a cyclic group acting through sigma, by enumeration."""
    elements = all_tuples(factors)
    act = matrix_action(sigma_rows, factors)

    def norm(x):
        acc = tuple([0] * len(factors))
        cur = x
        for _ in range(n):
            acc = tuple((a + c) % d for a, c, d in zip(acc, cur, factors))
            cur = act(cur)
        return acc

    zero = tuple([0] * len(factors))
    if degree == 0:
        num = [x for x in elements if act(x) == x]
        den = {norm(x) for x in elements}
    elif degree == 1:
        num = [x for x in elements if norm(x) == zero]
        den = {
            tuple((a - b) % d for a, b, d in zip(act(x), x, factors))
            for x in elements
        }
    else:
        raise ValueError(degree)
    return quotient_structure(num, den, factors)


def equivariant_homs_by_enumeration(a_factors, m_factors, a_actions, m_actions):
    """Structure of Hom_g(A, mu) by enumerating all matrices."""
    ka, km = len(a_factors), len(m_factors)
    entry_choices = []
    for i in range(km):
        for j in range(ka):
            step = m_factors[i] // _gcd(m_factors[i], a_factors[j])
            entry_choices.append([step * t for t in range(m_factors[i] // step)])
    homs = []
    for flat in product(*entry_choices):
        h = [[flat[i * ka + j] for j in range(ka)] for i in range(km)]
        if all(_equivariant(h, p, q, m_factors) for p, q in zip(a_actions, m_actions)):
            homs.append(tuple(flat))
    flat_mods = [m_factors[i] for i in range(km) for _ in range(ka)]

    def add(x, y):
        return tuple((u + v) % d for u, v, d in zip(x, y, flat_mods))

    zero = tuple([0] * (ka * km))
    return structure_by_enumeration(homs, add, zero)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _equivariant(h, p, q, m_factors):
    km = len(h)
    ka = len(h[0]) if h else 0
    for i in range(km):
        for j in range(ka):
            left = sum(h[i][t] * p[t][j] for t in range(ka))
            right = sum(q[i][t] * h[t][j] for t in range(km))
            if (left - right) % m_factors[i]:
                return False
    return True


def _all_solutions(unknowns, elements, conditions):
    """Every assignment of elements to the unknowns meeting all conditions.

    A condition is (unknowns it reads, predicate on the assignment).  The
    search is depth-first and tests each condition as soon as the unknowns
    it reads are set, so it returns exactly what trying every assignment
    would, without visiting the ones an early condition already rules out.
    """
    position = {u: i for i, u in enumerate(unknowns)}
    due = [[] for _ in unknowns]
    for reads, test in conditions:
        due[max(position[u] for u in reads)].append(test)
    found = []
    f = {}

    def extend(i):
        if i == len(unknowns):
            found.append(tuple(f[u] for u in unknowns))
            return
        for x in elements:
            f[unknowns[i]] = x
            if all(test(f) for test in due[i]):
                extend(i + 1)
        del f[unknowns[i]]

    extend(0)
    return found


def _module_ops(m_factors):
    def madd(a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, m_factors))

    def msub(a, b):
        return tuple((x - y) % d for x, y, d in zip(a, b, m_factors))

    return madd, msub


def _structure(cocycles, coboundaries, copies, m_factors):
    flat_mods = [d for _ in range(copies) for d in m_factors]
    flat_cocycles = [tuple(x for v in vals for x in v) for vals in cocycles]
    flat_cob = [tuple(x for v in vals for x in v) for vals in coboundaries]
    return quotient_structure(flat_cocycles, flat_cob, flat_mods)


def bar_h1_by_enumeration(group_elems, mul, act_of, m_factors):
    """H^1 from all functions f: G -> M with f(gh) = f(g) + g f(h)."""
    elements = all_tuples(m_factors)
    madd, msub = _module_ops(m_factors)
    conditions = [
        ((g, h, mul(g, h)),
         lambda f, g=g, h=h: f[mul(g, h)] == madd(f[g], act_of(g)(f[h])))
        for g in group_elems for h in group_elems
    ]
    cocycles = _all_solutions(group_elems, elements, conditions)
    coboundaries = {tuple(msub(act_of(g)(x), x) for g in group_elems) for x in elements}
    return _structure(cocycles, coboundaries, len(group_elems), m_factors)


def bar_h2_by_enumeration(group_elems, mul, act_of, m_factors):
    """H^2 from normalized 2-cochains: functions f: G x G -> M that vanish
    when either argument is the identity.  The cocycles are those with
    g f(h, l) - f(gh, l) + f(g, hl) - f(g, h) = 0; modulo coboundaries of
    normalized 1-cochains they give all of H^2."""
    elements = all_tuples(m_factors)
    madd, msub = _module_ops(m_factors)
    zero = tuple([0] * len(m_factors))
    one = next(e for e in group_elems if all(mul(e, g) == g for g in group_elems))
    rest = [g for g in group_elems if g != one]
    pairs = [(g, h) for g in rest for h in rest]

    def at(f, g, h):
        return f.get((g, h), zero)  # absent exactly when g or h is the identity

    def cocycle(f, g, h, l):
        return (madd(act_of(g)(at(f, h, l)), at(f, g, mul(h, l)))
                == madd(at(f, mul(g, h), l), at(f, g, h)))

    conditions = [
        ([p for p in ((h, l), (g, mul(h, l)), (mul(g, h), l), (g, h)) if p in pairs],
         lambda f, g=g, h=h, l=l: cocycle(f, g, h, l))
        for g in rest for h in rest for l in rest
    ]
    cocycles = _all_solutions(pairs, elements, conditions)
    coboundaries = set()
    for values in product(elements, repeat=len(rest)):
        c = dict(zip(rest, values))
        coboundaries.add(tuple(
            msub(madd(act_of(g)(c[h]), c[g]), c.get(mul(g, h), zero)) for g, h in pairs))
    return _structure(cocycles, coboundaries, len(pairs), m_factors)
