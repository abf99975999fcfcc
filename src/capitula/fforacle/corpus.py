"""The shipped curve corpus: small covers whose class groups are cheap to
certify and which between them exercise every oracle cross-check.

The Artin-Schreier entries are all imaginary (one place above infinity)
with 0, 1 or 2 ramified finite primes; the Kummer entries realize cyclic
tame covers over F_3 and F_4 of genus at most 2.  Constants are preserved
for every entry.
"""

from dataclasses import dataclass

from .curves import Cover
from .gf import GF
from .poly import Poly, RationalFunc


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    description: str
    curve: Cover
    finite_ramified: int  # ramified primes away from infinity


def corpus() -> list[CorpusEntry]:
    f2, f3, f4 = GF(2), GF(3), GF(4)
    t2, t3, t4 = Poly.x(f2), Poly.x(f3), Poly.x(f4)
    one2, one3 = Poly.one(f2), Poly.one(f3)
    entries = [
        CorpusEntry(
            "as_f2_r0", "y^2+y = t^3 over F_2 (genus 1, ramified only at infinity)",
            Cover.artin_schreier(f2, RationalFunc.of(t2**3)), 0),
        CorpusEntry(
            "as_f2_r1", "y^2+y = t^3 + 1/t over F_2 (genus 2, one finite ramified prime)",
            Cover.artin_schreier(f2, RationalFunc(t2**4 + one2, t2)), 1),
        CorpusEntry(
            "as_f2_r2", "y^2+y = t + 1/t + 1/(t+1) over F_2 (genus 2, two finite ramified primes)",
            Cover.artin_schreier(f2, RationalFunc.of(t2) + RationalFunc(one2, t2)
                                 + RationalFunc(one2, t2 + one2)), 2),
        CorpusEntry(
            "as_f3_r0", "y^3-y = t^2 over F_3 (genus 1, ramified only at infinity)",
            Cover.artin_schreier(f3, RationalFunc.of(t3**2)), 0),
        CorpusEntry(
            "as_f3_r1", "y^3-y = 1/t + 1 over F_3 (genus 0, inert at infinity)",
            Cover.artin_schreier(f3, RationalFunc(one3 + t3, t3)), 1),
        CorpusEntry(
            "as_f4_g1", "y^2+y = t^3 over F_4 (genus 1, full 3-torsion class group)",
            Cover.artin_schreier(f4, RationalFunc.of(t4**3)), 0),
        CorpusEntry(
            "kummer_f3_g0", "y^2 = t over F_3 (genus 0)",
            Cover.kummer(f3, 2, RationalFunc.of(t3)), 1),
        CorpusEntry(
            "kummer_f3_g1", "y^2 = t^3 - t over F_3 (genus 1, full 2-torsion)",
            Cover.kummer(f3, 2, RationalFunc.of(t3**3 - t3)), 3),
        CorpusEntry(
            "kummer_f4_g1", "y^3 = t^2 + t over F_4 (genus 1, tame cyclic cubic)",
            Cover.kummer(f4, 3, RationalFunc.of(t4 * t4 + t4)), 2),
        CorpusEntry(
            "kummer_f3_dp2",
            "y^2 = (t^2+1)(t^2+t+2) over F_3 (genus 1, no invariant class of odd degree)",
            Cover.kummer(f3, 2, RationalFunc.of(
                (t3 * t3 + one3) * (t3 * t3 + t3 + one3 + one3))), 2),
        CorpusEntry(
            "as_f3_g3", "y^3-y = t^2 + 1/t over F_3 (genus 3, class number 27)",
            Cover.artin_schreier(f3, RationalFunc(t3**3 + one3, t3)), 1),
    ]
    return entries


def corpus_entry(name: str) -> CorpusEntry:
    for entry in corpus():
        if entry.name == name:
            return entry
    raise KeyError(name)
