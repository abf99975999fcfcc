"""Local data of a finite Galois extension of global fields.

An ExtensionProfile records the degree, the shape of the Galois group, and
per-place ramification data (e, f, degree over the constant field, optional
order of the local H^2 of units) for the places in S' = S ∪ R.  Places
that are neither in S nor ramified contribute nothing to any formula and
are rejected, so S' is exactly the index set of every lcm and product.

The local integers d_v drive everything downstream:

    d_v = [K_w : F_v]           for v in S,
    d_v = e_v                   for v in R \\ S when the group is cyclic,
    d_v = |H^2(G_w, U_w)|       for v in R \\ S in general,

with D = lcm of the d_v and n0 = n / D in the cyclic case.  For cyclic
extensions the general-case integers agree with e_v, so a supplied
h2_local_order must equal e_v there.  In every case the local H^2 order
sits in an exact sequence between Z/(e,f) and Z/e, hence is a multiple of
gcd(e_v, f_v) dividing e_v^2; the validator enforces exactly that.

ExtensionProfile derives these integers once per profile, as
functools.cached_property: d_map, big_d = D, n0, b_order = |B| = (prod d_v)/D,
the b-group B itself and d_pairwise_coprime.  compute_dv and compute_D_n0
return fresh copies of them, and the validator and every calculator in
formulas read them there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import gcd, prod
from types import MappingProxyType

from .abelian import FinAbGroup, sum_map_kernel
from .arith import is_prime_power, json_int, lcm_list
from .errors import HypothesisError, ValidationError


@dataclass(frozen=True)
class NumberField:
    kind: str = "number"


@dataclass(frozen=True)
class FunctionField:
    q: int = 0
    kind: str = "function"

    def __post_init__(self):
        if self.q < 2:
            raise ValidationError("constant field cardinality must be at least 2")
        if not is_prime_power(self.q):
            raise ValidationError(
                f"no finite field has {self.q} elements: q must be a prime power")


@dataclass(frozen=True)
class GroupShape:
    """Shape of the Galois group: cyclic, abelian with known generator
    orders, or general (order only)."""

    kind: str
    orders: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ("cyclic", "abelian", "general"):
            raise ValidationError(f"unknown group kind {self.kind!r}")
        object.__setattr__(self, "orders", tuple(int(x) for x in self.orders))

    @property
    def is_cyclic(self):
        return self.kind == "cyclic"


CYCLIC = GroupShape("cyclic")
GENERAL = GroupShape("general")


def abelian_shape(*orders) -> GroupShape:
    return GroupShape("abelian", tuple(orders))


@dataclass(frozen=True)
class PlaceProfile:
    """Local data at one place v of the base field.

    e and f are the ramification index and residue degree of the chosen
    place w above v; the local degree [K_w : F_v] is e*f.  deg is the
    degree of v over the constant field (function fields only).
    h2_local_order is |H^2(G_w, U_w)|, needed for the ramified-outside-S
    branch when the group is not cyclic.
    """

    id: str
    in_S: bool
    e: int
    f: int
    deg: int | None = None
    h2_local_order: int | None = None

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValidationError("place id must be a nonempty string")
        if self.e < 1 or self.f < 1:
            raise ValidationError(f"place {self.id}: e and f must be positive")
        if self.deg is not None and self.deg < 1:
            raise ValidationError(f"place {self.id}: deg must be positive")
        if self.h2_local_order is not None and self.h2_local_order < 1:
            raise ValidationError(f"place {self.id}: h2_local_order must be positive")

    @property
    def local_degree(self) -> int:
        return self.e * self.f

    @property
    def ramified(self) -> bool:
        return self.e > 1


@dataclass(frozen=True)
class ExtensionProfile:
    base: NumberField | FunctionField
    n: int
    group: GroupShape
    places: tuple[PlaceProfile, ...]
    h_FS: int | None = None
    h_KS: int | None = None
    q_prime: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("extension degree must be positive")
        object.__setattr__(self, "places", tuple(self.places))

    @property
    def s_places(self):
        return [p for p in self.places if p.in_S]

    @property
    def ramified_outside_s(self):
        return [p for p in self.places if p.ramified and not p.in_S]

    @property
    def is_function_field(self):
        return isinstance(self.base, FunctionField)

    def place(self, place_id: str) -> PlaceProfile:
        for p in self.places:
            if p.id == place_id:
                return p
        raise ValidationError(f"no place with id {place_id!r}")

    def s_k_count(self) -> int:
        """Number of places of K above S: sum over S of n/(e*f)."""
        total = 0
        for p in self.s_places:
            if self.n % p.local_degree:
                raise ValidationError(
                    f"place {p.id}: local degree {p.local_degree} does not divide n={self.n}"
                )
            total += self.n // p.local_degree
        return total

    @cached_property
    def d_map(self) -> MappingProxyType:
        """The local integers d_v for every v in S' = S ∪ R, read-only.

        S-places always take the local degree branch, even when also ramified.
        Outside S the cyclic case uses e_v and the general case needs the
        supplied local H^2 order.
        """
        out: dict[str, int] = {}
        for p in self.places:
            if p.in_S:
                out[p.id] = p.local_degree
            elif p.ramified:
                if self.group.is_cyclic:
                    out[p.id] = p.e
                else:
                    if p.h2_local_order is None:
                        raise ValidationError(
                            f"incomplete profile: place {p.id} is ramified outside S and the "
                            "group is not cyclic, so h2_local_order is required"
                        )
                    out[p.id] = p.h2_local_order
            else:
                raise ValidationError(
                    f"place {p.id} is neither in S nor ramified and does not belong in S'"
                )
            if self.group.is_cyclic and self.n % out[p.id]:
                raise ValidationError(
                    f"place {p.id}: d_v={out[p.id]} does not divide n={self.n} "
                    "in a cyclic extension"
                )
        return MappingProxyType(out)

    @cached_property
    def big_d(self) -> int:
        """D = lcm of the d_v over S'."""
        return lcm_list(self.d_map.values())

    @cached_property
    def n0(self) -> int:
        """n0 = n / D (cyclic extensions only)."""
        if not self.group.is_cyclic:
            raise HypothesisError("n0 = n/D is defined for cyclic extensions only")
        if self.n % self.big_d:
            raise ValidationError(f"D={self.big_d} does not divide n={self.n}")
        return self.n // self.big_d

    @cached_property
    def b_order(self) -> int:
        """|B| = (prod d_v)/D, the order of the kernel of ⊕ Z/d_v -> Z/D."""
        return prod(self.d_map.values()) // self.big_d

    @cached_property
    def b_group(self) -> FinAbGroup:
        """B, the kernel of ⊕ Z/d_v -> Z/D, of order b_order
        (abelian.sum_map_kernel)."""
        return sum_map_kernel(list(self.d_map.values()), self.big_d)

    @cached_property
    def d_pairwise_coprime(self) -> bool:
        """Whether the d_v are pairwise coprime."""
        return _pairwise_coprime(self.d_map.values())


def compute_dv(profile: ExtensionProfile) -> dict[str, int]:
    """The local integers d_v for every v in S' = S ∪ R, as a fresh dict
    (ExtensionProfile.d_map)."""
    return profile.d_map.copy()


def compute_D_n0(profile: ExtensionProfile) -> tuple[int, int]:
    """D = lcm of the d_v over S', and n0 = n / D (cyclic extensions only)."""
    n0 = profile.n0  # first: a non-cyclic profile raises HypothesisError before d_v is read
    return profile.big_d, n0


def d_prime_values(profile: ExtensionProfile) -> dict[str, int]:
    """The easily computed integers d'_v: local degree inside S, e_v outside."""
    out = {}
    for p in profile.places:
        out[p.id] = p.local_degree if p.in_S else p.e
    return out


def _pairwise_coprime(values) -> bool:
    vals = list(values)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if gcd(vals[i], vals[j]) != 1:
                return False
    return True


@dataclass(frozen=True)
class Violation:
    place_id: str | None
    rule: str
    message: str

    def to_json(self):
        return {"place": self.place_id, "rule": self.rule, "message": self.message}


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]
    d_prime: dict[str, int]
    d_prime_pairwise_coprime: bool
    d_map: dict[str, int] | None
    d_pairwise_coprime: bool | None

    @property
    def ok(self):
        return not self.violations


def validate(profile: ExtensionProfile) -> ValidationReport:
    """Check every arithmetic consistency constraint; total on profiles.

    Returns all violations (empty means valid) together with the d'_v data
    and the two pairwise-coprimality flags.  Coprimality of the d'_v must
    imply coprimality of the d_v; a profile violating that implication
    carries impossible local H^2 orders.
    """
    violations: list[Violation] = []

    seen = set()
    for p in profile.places:
        if p.id in seen:
            violations.append(Violation(p.id, "unique-ids", f"duplicate place id {p.id!r}"))
        seen.add(p.id)

    if not any(p.in_S for p in profile.places):
        violations.append(Violation(None, "nonempty-S", "S must contain at least one place"))

    if profile.group.kind == "abelian" and profile.group.orders:
        if prod(profile.group.orders) != profile.n:
            violations.append(Violation(
                None, "group-order",
                f"abelian generator orders {profile.group.orders} do not multiply to n={profile.n}"
            ))

    if profile.q_prime is not None and not profile.is_function_field:
        violations.append(Violation(
            None, "q-prime-base", "q_prime is only meaningful for function fields"))
    if profile.q_prime is not None and profile.is_function_field:
        # the constant field of K contains F_q, so q' = q^k with k >= 1
        q, power = profile.base.q, profile.q_prime
        while power > q and power % q == 0:
            power //= q
        if power != q:
            violations.append(Violation(
                None, "q-prime-power",
                f"q_prime = {profile.q_prime} is not a power of q = {q}"))

    for p in profile.places:
        if not p.in_S and not p.ramified:
            violations.append(Violation(
                p.id, "outside-S-prime",
                "place is neither in S nor ramified; it does not belong in the profile"))
        if profile.n % p.local_degree:
            violations.append(Violation(
                p.id, "local-degree",
                f"[K_w:F_v] = {p.local_degree} does not divide n = {profile.n}"))
        if p.h2_local_order is not None:
            h2 = p.h2_local_order
            g = gcd(p.e, p.f)
            if h2 % g:
                violations.append(Violation(
                    p.id, "local-h2-lower",
                    f"h2_local_order={h2} is not a multiple of gcd(e,f)={g}"))
            if (p.e * p.e) % h2:
                violations.append(Violation(
                    p.id, "local-h2-upper",
                    f"h2_local_order={h2} does not divide e^2={p.e * p.e}"))
            if profile.group.is_cyclic and h2 != p.e:
                violations.append(Violation(
                    p.id, "local-h2-cyclic",
                    f"cyclic extension forces h2_local_order=e={p.e}, got {h2}"))

    d_prime = d_prime_values(profile)
    dpc = _pairwise_coprime(d_prime.values())

    d_map = None
    d_coprime = None
    try:
        d_map = compute_dv(profile)
        d_coprime = profile.d_pairwise_coprime
    except ValidationError:
        pass

    if dpc and d_coprime is False:
        violations.append(Violation(
            None, "coprime-implication",
            "d'_v pairwise coprime must force d_v pairwise coprime; "
            "the supplied local H^2 orders are impossible"))

    return ValidationReport(tuple(violations), d_prime, dpc, d_map, d_coprime)


# ---------------------------------------------------------------------------
# JSON interface

_TOP_KEYS = {"base", "n", "group", "h_FS", "h_KS", "q_prime", "places"}
_PLACE_KEYS = {"id", "in_S", "e", "f", "deg", "h2_local_order"}


def _optional_int(raw: dict, key: str, where: str = ""):
    return None if raw.get(key) is None else json_int(raw[key], where + key)


def _json_list(raw: dict, key: str) -> list:
    """raw[key] as a JSON list (empty when absent), else a ValidationError."""
    value = raw.get(key, [])
    if not isinstance(value, list):
        raise ValidationError(f"{key} must be a JSON list, got {value!r}")
    return value


def profile_from_json(data) -> ExtensionProfile:
    """Parse the profile JSON schema; unknown keys are rejected.

    Integers are read as they stand (arith.json_int), places and the
    abelian orders must be JSON lists, a place id a JSON string and in_S a
    JSON boolean; anything else is a ValidationError naming the key.
    """
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValidationError("profile JSON must be an object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ValidationError(f"unknown profile keys: {sorted(unknown)}")
    if "base" not in data or "n" not in data or "group" not in data:
        raise ValidationError("profile needs base, n and group")

    base_raw = data["base"]
    if base_raw == "number":
        base = NumberField()
    elif isinstance(base_raw, dict) and set(base_raw) == {"function"}:
        fn = base_raw["function"]
        if not isinstance(fn, dict) or set(fn) != {"q"}:
            raise ValidationError('function base must be {"function": {"q": ...}}')
        base = FunctionField(json_int(fn["q"], "q"))
    else:
        raise ValidationError(f"unrecognized base {base_raw!r}")

    group_raw = data["group"]
    if group_raw == "cyclic":
        group = CYCLIC
    elif group_raw == "general":
        group = GENERAL
    elif isinstance(group_raw, dict) and set(group_raw) == {"abelian"}:
        group = abelian_shape(*[json_int(x, "abelian order")
                                for x in _json_list(group_raw, "abelian")])
    else:
        raise ValidationError(f"unrecognized group {group_raw!r}")

    places = []
    for praw in _json_list(data, "places"):
        if not isinstance(praw, dict):
            raise ValidationError("each place must be an object")
        unknown = set(praw) - _PLACE_KEYS
        if unknown:
            raise ValidationError(f"unknown place keys: {sorted(unknown)}")
        for key in ("id", "in_S", "e", "f"):
            if key not in praw:
                raise ValidationError(f"place is missing required key {key!r}")
        pid = praw["id"]
        if not isinstance(pid, str):
            raise ValidationError(f"place id must be a JSON string, got {pid!r}")
        where = f"place {pid}: "
        if not isinstance(praw["in_S"], bool):
            raise ValidationError(f"{where}in_S must be a JSON boolean, got {praw['in_S']!r}")
        places.append(PlaceProfile(
            id=pid,
            in_S=praw["in_S"],
            e=json_int(praw["e"], where + "e"),
            f=json_int(praw["f"], where + "f"),
            deg=_optional_int(praw, "deg", where),
            h2_local_order=_optional_int(praw, "h2_local_order", where),
        ))

    return ExtensionProfile(
        base=base,
        n=json_int(data["n"], "n"),
        group=group,
        places=tuple(places),
        h_FS=_optional_int(data, "h_FS"),
        h_KS=_optional_int(data, "h_KS"),
        q_prime=_optional_int(data, "q_prime"),
    )


def profile_to_json(profile: ExtensionProfile) -> dict:
    if isinstance(profile.base, NumberField):
        base = "number"
    else:
        base = {"function": {"q": profile.base.q}}
    if profile.group.kind == "cyclic":
        group = "cyclic"
    elif profile.group.kind == "general":
        group = "general"
    else:
        group = {"abelian": list(profile.group.orders)}
    out = {"base": base, "n": profile.n, "group": group, "places": []}
    for p in profile.places:
        praw = {"id": p.id, "in_S": p.in_S, "e": p.e, "f": p.f}
        if p.deg is not None:
            praw["deg"] = p.deg
        if p.h2_local_order is not None:
            praw["h2_local_order"] = p.h2_local_order
        out["places"].append(praw)
    for key in ("h_FS", "h_KS", "q_prime"):
        val = getattr(profile, key)
        if val is not None:
            out[key] = val
    return out
