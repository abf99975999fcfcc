"""The four workloads: seeded request generators, the call each request
makes into capitula, the answer it yields, and the identities every answer
must satisfy on any seed.

A request is plain JSON (curve JSON, profile JSON or a module spec), as a
user would send it; the program receives nothing else.  Generators reject
a request only by the program's own admissibility: the oracle's genus and
field caps, `DegenerateExtensionError`, a constant-field extension, or a
`ValidationError` from `GModule` for an action that is not a module.  They
never look at running time, and the requests that the program gets wrong
stay in the stream and are counted as failures.

Requests come in rounds: every round holds a fixed list of request
families in a fixed order (some families more than once, plus fixed
requests such as the shipped corpus), each drawn with fresh random
coefficients.  The mix of a run is therefore the same on every seed, and
only the coefficients vary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import count
from math import gcd, lcm, prod
from typing import Callable

# q -> characteristic
CHAR = {2: 2, 3: 3, 4: 2, 5: 5, 7: 7, 8: 2, 9: 3}


class WrongAnswer(Exception):
    """An answer breaks an identity that holds on every input."""


class VerdictFailure(Exception):
    """The oracle's own cross-checks rejected its answer."""


# ---------------------------------------------------------------------------
# curves
#
# A curve family fixes the ramification: the pole orders of Q (Artin-Schreier)
# or the multiplicities of f (Kummer) at random places of given degrees.
# Curve JSON takes prime-field coefficients, so the places are drawn among
# the monic irreducibles over F_p; the seed picks the places and constants.

def _pmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _padd(a, b, p):
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
           for i in range(n)]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _ppow(a, e, p):
    out = [1]
    for _ in range(e):
        out = _pmul(out, a, p)
    return out


def _irreducibles(p, degree):
    """Monic irreducibles over F_p of degree 1..3 (no roots suffices)."""
    out = []
    for idx in range(p ** degree):
        coeffs = [(idx // p ** i) % p for i in range(degree)] + [1]
        if degree == 1 or all(sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p
                              for x in range(p)):
            out.append(coeffs)
    return out


def _distinct_places(rng, p, degrees):
    chosen = []
    for d in degrees:
        pool = [f for f in _irreducibles(p, d) if f not in chosen]
        chosen.append(rng.choice(pool))
    return chosen


def _as_curve(rng, q, m_inf, poles):
    """y^p - y = P(t) + sum c_i / pi_i^o_i with deg P = m_inf."""
    p = CHAR[q]
    places = _distinct_places(rng, p, [d for d, _ in poles])
    den = [1]
    for pi, (_, order) in zip(places, poles):
        den = _pmul(den, _ppow(pi, order, p), p)
    poly = [rng.randrange(p) for _ in range(m_inf)] + [rng.randrange(1, p)]
    num = _pmul(poly, den, p)
    for i, pi in enumerate(places):
        term = [rng.randrange(1, p)]
        for j, (pj, (_, order)) in enumerate(zip(places, poles)):
            if j != i:
                term = _pmul(term, _ppow(pj, order, p), p)
        num = _padd(num, term, p)
    return {"kind": "artin_schreier", "q": q, "p_or_l": p,
            "Q_or_f": {"num": num, "den": den}}


def _kummer_curve(rng, q, ell, factors):
    """y^ell = u * prod pi_i^m_i for places pi_i of the given degrees."""
    p = CHAR[q]
    places = _distinct_places(rng, p, [d for d, _ in factors])
    num, den = [rng.randrange(1, p)], [1]
    for pi, (_, mult) in zip(places, factors):
        if mult > 0:
            num = _pmul(num, _ppow(pi, mult, p), p)
        else:
            den = _pmul(den, _ppow(pi, -mult, p), p)
    return {"kind": "kummer", "q": q, "p_or_l": ell, "Q_or_f": {"num": num, "den": den}}


def _admissible(api, raw, max_genus=None):
    """True unless the program itself refuses the curve as input."""
    errors = api.errors
    config = api.picard.OracleConfig()
    try:
        curve = api.curves.curve_from_json(raw)
        if curve.constant_ext:
            return False
        _, g = api.curves.ramification_data(curve)
    except (errors.DegenerateExtensionError, errors.UnsupportedError):
        return False
    except errors.CapitulaError:
        # the program cannot even compute the genus: keep it, it fails as an op
        return True
    cap = config.max_genus if max_genus is None else max_genus
    return g <= cap and raw["q"] ** g <= config.max_field_size


def _curve_from_family(api, rng, family, max_genus=None):
    kind, *shape = family
    make = _as_curve if kind == "as" else _kummer_curve
    for _ in range(1000):
        raw = make(rng, *shape)
        if _admissible(api, raw, max_genus):
            return raw
    raise RuntimeError(f"family {family} yields no admissible curve")


# ("as", q, degree of P, [(place degree, pole order)]) and
# ("ku", q, ell, [(place degree, multiplicity)]).  The composite Kummer
# degrees (4 over F_5 and F_9, 6 over F_7, 8 over F_9) are in the mix
# because the program fails on such covers.  Three families appear more
# than once: these weights put the median and the 90th percentile of a
# round's latencies inside one family's costs, so that neither jumps
# between families from one seed to the next.
ORACLE_CURVE_FAMILIES = [
    ("as", 2, 3, []), ("as", 2, 3, [(1, 1)]), ("as", 2, 1, [(2, 1)]),
    ("as", 3, 2, []), ("as", 3, 1, [(1, 1)]), ("as", 4, 3, []), ("as", 4, 5, []),
    ("as", 5, 0, [(1, 1)]), ("as", 7, 0, [(1, 1)]), ("as", 7, 0, [(1, 1)]),
    ("as", 7, 0, [(1, 1)]), ("as", 8, 3, []), ("as", 9, 2, []),
    ("ku", 3, 2, [(1, 1)] * 3), ("ku", 4, 3, [(1, 1), (1, 2)]),
    ("ku", 4, 3, [(2, 1), (1, 1)]), ("ku", 4, 3, [(2, 1), (1, 1)]),
    ("ku", 5, 2, [(1, 1)] * 3), ("ku", 5, 2, [(1, 1)] * 5), ("ku", 5, 4, [(1, 1), (1, 1)]),
    ("ku", 7, 2, [(1, 1)] * 3), ("ku", 7, 3, [(1, 1)] * 3), ("ku", 7, 3, [(1, 1)] * 3),
    ("ku", 7, 6, [(1, 1), (1, 2)]), ("ku", 8, 7, [(1, 1)]), ("ku", 9, 2, [(1, 1)] * 3),
    ("ku", 9, 4, [(1, 1), (1, -1)]), ("ku", 9, 8, [(1, 2)]),
]
# the known failing cover y^4 = (4t^2+2t+2)/(t+2) over F_5, sent in every round
KNOWN_FAILING_CURVE = {"kind": "kummer", "q": 5, "p_or_l": 4,
                       "Q_or_f": {"num": [2, 2, 4], "den": [2, 1]}}

# generated covers of genus <= 3 for the wide S / degree bound path:
# (family, degree bound, rational places in S besides infinity, copies per
# round); the copies put the median of a round inside one family's costs
ORACLE_WIDE_FAMILIES = [
    (("as", 2, 5, []), 3, 2, 1), (("as", 2, 3, [(1, 1)]), 2, 1, 1),
    (("as", 3, 2, []), 2, 2, 2), (("as", 4, 3, []), 2, 1, 2),
    (("ku", 3, 2, [(1, 1)] * 3), 2, 1, 1), (("ku", 5, 2, [(1, 1)] * 3), 2, 1, 6),
    (("ku", 7, 2, [(1, 1)] * 3), 2, 2, 2),
]


def oracle_curves_requests(api, seed):
    """Rounds of one curve per family and the known failing cover; S = {inf},
    default bounds."""
    rng = random.Random(seed)
    while True:
        batch = [{"op": "oracle", "curve": _curve_from_family(api, rng, family)}
                 for family in ORACLE_CURVE_FAMILIES]
        batch.append({"op": "oracle", "curve": KNOWN_FAILING_CURVE})
        yield batch


def _s_ids(places):
    return ["inf"] + ["t" if a == 0 else f"t+{a}" for a in sorted(places)]


def oracle_wide_requests(api, seed):
    """Rounds of the whole shipped corpus (b = 3 over F_2, 2 otherwise), the
    corpus covers of positive genus over F_3 again at b = 3, and curves of
    the generated families.  S is infinity plus rational places: in turn
    for the corpus, at random for the generated covers."""
    rng = random.Random(seed)
    entries = [e.curve for e in api.corpus.corpus()]
    wide = [c for c in entries if c.field.order == 3 and api.curves.genus(c) > 0]
    for turn in count():
        batch = []
        for curve, bound in [(c, 3 if c.field.order == 2 else 2) for c in entries] \
                + [(c, 3) for c in wide]:
            batch.append({"op": "oracle", "curve": api.curves.curve_to_json(curve),
                          "s": _s_ids([turn % curve.field.char]), "degree_bound": bound})
        for family, bound, extra, copies in ORACLE_WIDE_FAMILIES:
            for _ in range(copies):
                raw = _curve_from_family(api, rng, family, max_genus=3)
                places = rng.sample(range(CHAR[raw["q"]]), extra)
                batch.append({"op": "oracle", "curve": raw, "s": _s_ids(places),
                              "degree_bound": bound})
        yield batch


def run_oracle(api, req):
    curve = api.curves.curve_from_json(req["curve"])
    if "s" in req:
        s_bases = [api.curves.parse_base_place(curve.field, t) for t in req["s"]]
        report = api.verify.oracle_report(curve, s_bases,
                                          degree_bound=req["degree_bound"])
    else:
        report = api.verify.oracle_report(curve)
    return report


def oracle_answer(api, req, report):
    failed = [v.check for v in report.verdicts if not v.passed]
    if failed:
        raise VerdictFailure(",".join(failed))
    return {
        "genus": report.genus,
        "l_poly": report.l_polynomial,
        "h": report.class_number,
        "pic0": report.pic0,
        "jg": report.jg_invariants,
        "s_class_group": report.s_class_group,
        "ambiguous": report.s_class_invariants,
        "delta_prime": report.delta_prime,
    }


def oracle_identities(api, req, answer):
    # the oracle certifies |Pic0| = L(1) itself; recheck the reported numbers
    if prod(answer["pic0"]) != answer["h"] or sum(answer["l_poly"]) != answer["h"]:
        raise WrongAnswer("class number and Pic0 disagree")
    if len(answer["l_poly"]) != 2 * answer["genus"] + 1:
        raise WrongAnswer("L-polynomial degree is not 2g")


# ---------------------------------------------------------------------------
# profiles, sum-map kernels, cyclic modules

FUNCTION_QS = [2, 3, 4, 5, 7, 8, 9]
ABELIAN_SHAPES = [(2, 2), (2, 4), (3, 3), (2, 2, 2), (2, 6)]


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _random_profile(rng):
    """A profile that satisfies every constraint of the validator."""
    shape = rng.choice(["cyclic", "cyclic", "abelian", "general"])
    if shape == "abelian":
        orders = rng.choice(ABELIAN_SHAPES)
        n = prod(orders)
        group = {"abelian": list(orders)}
    else:
        n = rng.randint(2, 12)
        group = shape
    function = rng.random() < 0.6
    data = {"base": {"function": {"q": rng.choice(FUNCTION_QS)}} if function else "number",
            "n": n, "group": group, "places": []}
    for i in range(rng.randint(1, 4)):
        in_s = i == 0 or rng.random() < 0.4
        local = rng.choice(_divisors(n) if in_s else [d for d in _divisors(n) if d > 1])
        e = rng.choice([d for d in _divisors(local) if in_s or d > 1])
        place = {"id": f"v{i}", "in_S": in_s, "e": e, "f": local // e}
        if function:
            place["deg"] = rng.randint(1, 3)
        if not in_s and shape != "cyclic":
            g = gcd(e, local // e)
            place["h2_local_order"] = rng.choice(
                [d for d in _divisors(e * e) if d % g == 0 and d % e == 0])
        data["places"].append(place)
    if rng.random() < 0.5:
        data["h_FS"] = rng.randint(1, 6)
        data["h_KS"] = rng.randint(1, 30)
    if function and rng.random() < 0.7:
        data["q_prime"] = data["base"]["function"]["q"]
    return data


def _corrupt_profile(rng, data):
    """Break exactly one validator rule; returns the rule name."""
    rule = rng.choice(["unique-ids", "nonempty-S", "group-order", "q-prime-base",
                       "outside-S-prime", "local-degree", "local-h2-upper"])
    places = data["places"]
    if rule == "unique-ids":
        places.append(dict(places[0]))
    elif rule == "nonempty-S":
        for p in places:
            p["in_S"] = False
            p["e"] = max(p["e"], 2) if data["n"] % max(p["e"], 2) == 0 else data["n"]
            p["f"] = 1
            p.pop("h2_local_order", None)
        data["group"] = "cyclic"
    elif rule == "group-order":
        data["group"] = {"abelian": [2, 3]}
        data["n"] = 12
        for p in places:
            p["e"], p["f"] = 2, 1
            if not p["in_S"]:
                p["h2_local_order"] = 2
    elif rule == "q-prime-base":
        data["base"] = "number"
        data["q_prime"] = 4
        for p in places:
            p.pop("deg", None)
    elif rule == "outside-S-prime":
        places.append({"id": "w", "in_S": False, "e": 1, "f": 1})
    elif rule == "local-degree":
        places.append({"id": "w", "in_S": True, "e": data["n"] + 1, "f": 1})
    elif rule == "local-h2-upper":
        e = data["n"] if data["n"] > 1 else 2
        data["group"] = "general"
        places.append({"id": "w", "in_S": False, "e": e, "f": 1,
                       "h2_local_order": e * e * 2 + 1})
    return rule


def _units(d, n):
    return [u for u in range(1, d) if gcd(u, d) == 1 and pow(u, n, d) == 1] or [1]


def _random_cyclic_module(rng):
    """A module spec over Z/n: invariant factors and one action matrix
    (diagonal units, a swap of equal factors, or a unipotent twist)."""
    n = rng.randint(1, 12)
    factors = [rng.choice([2, 2, 2, 3, 3, 4, 5, 6])]
    while rng.random() < 0.55:
        nxt = factors[-1] * rng.choice([1, 1, 2, 2, 3, 4])
        if prod(factors) * nxt > 100:
            break
        factors.append(nxt)
    k = len(factors)
    mat = [[0] * k for _ in range(k)]
    for i in range(k):
        mat[i][i] = rng.choice(_units(factors[i], n))
    i, j = rng.randrange(k), rng.randrange(k)
    if i < j and factors[i] == factors[j] and n % 2 == 0 and rng.random() < 0.5:
        mat[i][i] = mat[j][j] = 0
        mat[i][j] = mat[j][i] = 1
    elif i != j and rng.random() < 0.5:
        mat[i][j] = rng.randrange(factors[i])
    return {"group": [n], "module": factors, "action": [mat]}


def calculators_requests(api, seed):
    """Rounds of two valid profiles, one broken profile, one d-list and one
    cyclic module."""
    rng = random.Random(seed)
    while True:
        bad = _random_profile(rng)
        rule = _corrupt_profile(rng, bad)
        yield [
            {"op": "profile", "profile": _random_profile(rng)},
            {"op": "profile", "profile": _random_profile(rng)},
            {"op": "profile", "profile": bad, "broken_rule": rule},
            {"op": "kernel_sum", "d": [rng.randint(1, 12) for _ in range(rng.randint(1, 5))]},
            {"op": "cyclic_module", "module": _valid(api, _random_cyclic_module, rng)},
        ]


def _factors(group):
    return list(group.invariant_factors)


def _analysis_json(report):
    return {
        "d_map": dict(sorted(report.d_map.items())),
        "D": report.big_d,
        "n0": report.n0,
        "b_group": _factors(report.b_group),
        "bounds": {k: [v.value, v.kind] for k, v in sorted(report.bounds.items())},
        "structures": {k: _factors(v) for k, v in sorted(report.structures.items())},
        "ff_invariants": dict(sorted(report.ff_invariants.items())),
        "flags": dict(sorted(report.flags.items())),
    }


def _gmodule(api, spec):
    coh = api.cohomology
    orders = spec["group"]
    group = coh.Cyclic(orders[0]) if len(orders) == 1 else coh.AbelianGroup(tuple(orders))
    module = api.abelian.FinAbGroup(tuple(spec["module"]))
    action = tuple(tuple(tuple(r) for r in m) for m in spec["action"])
    return coh.GModule(group, module, action)


def run_calculator(api, req):
    op = req["op"]
    if op == "profile":
        profile = api.profile.profile_from_json(req["profile"])
        report = api.profile.validate(profile)
        analysis = api.formulas.analyze_profile(profile) if report.ok else None
        return report, analysis
    if op == "kernel_sum":
        return api.abelian.sum_map_kernel(req["d"], lcm(*req["d"]))
    m = _gmodule(api, req["module"])
    coh = api.cohomology
    return coh.h1_cyclic(m), coh.tate_h0(m), coh.herbrand_quotient(m)


def calculator_answer(api, req, result):
    op = req["op"]
    if op == "profile":
        report, analysis = result
        return {"violations": sorted({v.rule for v in report.violations}),
                "analysis": None if analysis is None else _analysis_json(analysis)}
    if op == "kernel_sum":
        return {"kernel": _factors(result)}
    h1, h0, hq = result
    return {"h1": _factors(h1), "h0": _factors(h0), "herbrand": [hq.numerator, hq.denominator]}


def calculator_identities(api, req, answer):
    op = req["op"]
    if op == "profile":
        broken = req.get("broken_rule")
        if broken is None and answer["violations"]:
            raise WrongAnswer(f"valid profile rejected: {answer['violations']}")
        if broken is not None and broken not in answer["violations"]:
            raise WrongAnswer(f"rule {broken} not reported: {answer['violations']}")
        if answer["analysis"] is not None:
            b = prod(answer["analysis"]["b_group"])
            d = list(answer["analysis"]["d_map"].values())
            if b != prod(d) // lcm(*d):
                raise WrongAnswer("sum-map kernel order is not prod(d)/lcm(d)")
    elif op == "kernel_sum":
        if prod(answer["kernel"]) != prod(req["d"]) // lcm(*req["d"]):
            raise WrongAnswer("sum-map kernel order is not prod(d)/lcm(d)")
    else:
        if answer["herbrand"] != [1, 1]:
            raise WrongAnswer("Herbrand quotient of a finite module is not 1")
        m = _gmodule(api, req["module"])
        if _factors(api.cohomology.h2_cyclic(m)) != answer["h0"]:
            raise WrongAnswer("H^2 differs from H^0-hat for a cyclic group")


# ---------------------------------------------------------------------------
# bar-resolution cohomology

NONCYCLIC_GROUPS = [(2, 2), (2, 4), (2, 2, 2), (3, 3)]
RANK1_FACTORS = [(2,), (3,), (4,), (6,)]
RANK2_FACTORS = [(2, 2), (2, 4), (3, 3), (2, 6)]
MODULE_FACTORS = RANK1_FACTORS + RANK2_FACTORS
# (order, degree) of the cyclic cross-check, one per round in turn
CYCLIC_CHECKS = [(n, d) for d in (1, 2) for n in (2, 3, 4)]


def _random_module(rng, orders, factors, trivial):
    """A module spec with the given invariant factors over the abelian
    group with generator orders `orders`.

    Actions are diagonal units of order dividing each generator order,
    optionally with one swap of two equal factors on an even-order
    generator; `GModule` validation decides admissibility."""
    factors = list(factors)
    k = len(factors)
    action = []
    for o in orders:
        mat = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
        if not trivial:
            for i in range(k):
                mat[i][i] = rng.choice(_units(factors[i], o))
            if k == 2 and factors[0] == factors[1] and o % 2 == 0 and rng.random() < 0.3:
                mat = [[0, 1], [1, 0]]
        action.append(mat)
    return {"group": list(orders), "module": factors, "action": action}


def _valid(api, make, rng, *args):
    """The first spec from `make` that GModule accepts as a module."""
    for _ in range(1000):
        spec = make(rng, *args)
        try:
            _gmodule(api, spec)
        except api.errors.ValidationError:
            continue
        return spec
    raise RuntimeError(f"{make.__name__}{args} yields no module")


def _valid_module(api, rng, orders, factors):
    return _valid(api, _random_module, rng, orders, factors, rng.random() < 0.3)


def group_cohomology_requests(api, seed):
    """Rounds of twenty requests in three cost classes, at 4 : 12 : 4.

    * light: one equivariant Hom, one cyclic-group cross-check, H^1 over
      (Z/2)^2, and H^1 on a rank-1 module over one of the other three groups;
    * medium: H^1 on rank-2 modules, three over each of Z/2 x Z/4, (Z/2)^3
      and (Z/3)^2, and three H^2 over (Z/2)^2 on rank-1 modules;
    * heavy: four H^2 over (Z/2)^2 on rank-2 modules.

    At these weights the median falls in the middle of the medium class and
    the 90th percentile in the middle of the heavy one, away from the gaps
    between classes, where a small change in the mix would move them by a
    lot.  Module shapes, groups and the cyclic order and degree go through
    their lists in turn from round to round; the seed draws the actions
    and which modules are trivial."""
    rng = random.Random(seed)
    others = NONCYCLIC_GROUPS[1:]
    for turn in count():
        orders = NONCYCLIC_GROUPS[turn % len(NONCYCLIC_GROUPS)]
        trivial = rng.random() < 0.3
        batch = [{"op": "hom_g_dual",
                  "a": _valid(api, _random_module, rng, orders,
                              MODULE_FACTORS[turn % 8], trivial),
                  "mu": _valid(api, _random_module, rng, orders,
                               MODULE_FACTORS[(turn + 3) % 8], trivial)}]
        # cyclic G, where the bar resolution must agree with the periodic one
        n, degree = CYCLIC_CHECKS[turn % len(CYCLIC_CHECKS)]
        batch.append({"op": "h_general", "degree": degree,
                      "module": _valid_module(api, rng, (n,), MODULE_FACTORS[turn % 8])})
        h1 = [((2, 2), MODULE_FACTORS[turn % 8]),
              (others[turn % 3], RANK1_FACTORS[(turn // 3) % 4])]
        h1 += [(orders, RANK2_FACTORS[(turn + j + k) % 4])
               for k, orders in enumerate(others) for j in range(3)]
        batch += [{"op": "h_general", "degree": 1,
                   "module": _valid_module(api, rng, orders, factors)}
                  for orders, factors in h1]
        # H^2 at |G| = 4 only: at |G| = 8 or 9 one H^2 takes 0.5-23 s
        h2 = [RANK1_FACTORS[(turn + j) % 4] for j in range(3)]
        h2 += [RANK2_FACTORS[(turn + j) % 4] for j in range(4)]
        batch += [{"op": "h_general", "degree": 2,
                   "module": _valid_module(api, rng, (2, 2), factors)}
                  for factors in h2]
        yield batch


def run_cohomology(api, req):
    coh = api.cohomology
    if req["op"] == "hom_g_dual":
        return coh.hom_g_dual(_gmodule(api, req["a"]), _gmodule(api, req["mu"]))
    return coh.h_general(_gmodule(api, req["module"]), req["degree"])


def cohomology_answer(api, req, result):
    return {"factors": _factors(result)}


def _trivial_action(spec):
    k = len(spec["module"])
    ident = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    return all(m == ident for m in spec["action"])


def _closed_form(req):
    """Cyclic pieces of the answer for trivial actions: Hom(G, M), plus
    Ext(G, M) + Hom(G ^ G, M) in degree 2; FinAbGroup.of normalizes them."""
    if req["op"] == "hom_g_dual":
        return [gcd(a, m) for a in req["a"]["module"] for m in req["mu"]["module"]]
    orders = req["module"]["group"]
    pieces = []
    for m in req["module"]["module"]:
        pieces += [gcd(a, m) for a in orders]
        if req["degree"] == 2:
            pieces += [gcd(orders[i], orders[j], m)
                       for i in range(len(orders)) for j in range(i + 1, len(orders))]
    return pieces


def cohomology_identities(api, req, answer):
    factors = answer["factors"]
    if req["op"] == "hom_g_dual":
        trivial = _trivial_action(req["a"]) and _trivial_action(req["mu"])
        bound = prod(gcd(a, m) for a in req["a"]["module"] for m in req["mu"]["module"])
        if bound % max(prod(factors), 1):
            raise WrongAnswer("equivariant homs exceed Hom(A, mu)")
    else:
        spec = req["module"]
        trivial = _trivial_action(spec)
        killer = gcd(prod(spec["group"]), lcm(*spec["module"]))
        if any(killer % f for f in factors):
            raise WrongAnswer("cohomology not killed by gcd(|G|, exp M)")
        if len(spec["group"]) == 1:
            m = _gmodule(api, spec)
            coh = api.cohomology
            periodic = coh.h1_cyclic(m) if req["degree"] == 1 else coh.tate_h0(m)
            if _factors(periodic) != factors:
                raise WrongAnswer("bar resolution disagrees with the cyclic resolution")
    if trivial:
        expected = api.abelian.FinAbGroup.of(*_closed_form(req))
        if _factors(expected) != factors:
            raise WrongAnswer("trivial-action cohomology differs from its closed form")


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    requests: Callable  # (api, seed) -> iterator over rounds of requests
    run: Callable  # (api, request) -> program result; the timed call
    answer: Callable  # (api, request, result) -> JSON answer
    identities: Callable  # (api, request, answer) -> None or WrongAnswer
    deadline_s: float
    fields: list  # constant fields F_q built during set-up


WORKLOADS = {
    "oracle_curves": Workload("oracle_curves", oracle_curves_requests, run_oracle,
                              oracle_answer, oracle_identities, 2.0,
                              sorted({f[1] for f in ORACLE_CURVE_FAMILIES})),
    "oracle_wide": Workload("oracle_wide", oracle_wide_requests, run_oracle,
                            oracle_answer, oracle_identities, 5.0, [2, 3, 4, 5, 7]),
    "calculators": Workload("calculators", calculators_requests, run_calculator,
                            calculator_answer, calculator_identities, 1.0, []),
    "group_cohomology": Workload("group_cohomology", group_cohomology_requests,
                                 run_cohomology, cohomology_answer,
                                 cohomology_identities, 5.0, []),
}
