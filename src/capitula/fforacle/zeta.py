"""Point counting and L-polynomials of the oracle curves.

N_m, the number of degree-one places after extending constants to
F_{q^m}, is read off the places of the base: a base place P of degree
deg P with decomposition type (e_P, f_P, g_P) has g_P places above it,
each of degree f_P deg P, and such a place splits into f_P deg P
degree-one places over F_{q^m} when f_P deg P divides m and yields none
otherwise (Rosen, Number Theory in Function Fields, ch. 5).  So

    N_m = sum of g_P f_P deg P over the places P with f_P deg P | m,

and one census of infinity and the monic irreducibles of degree <= top
gives N_1..N_top with one `local_invariants` call per base place.  Each
type comes from a norm or a trace from the residue field down to F_q
(curves module docstring), computed on F_q's own elements.  The
numerator L(T) of the zeta function is then recovered from N_1..N_g by
Newton's identities plus the functional equation, and the divisor class
number is h = L(1).

Integrality of every Newton step and a recount of N_{g+1}, taken from the
same census and compared with the value L(T) predicts, act as internal
consistency checks on the whole splitting machinery.  The recount runs
whenever q^(g+1) is within the field-size cap.  `base_change` builds the
cover over F_{q^m} itself; it is the independent check of the census.
"""

from __future__ import annotations

from ..errors import InconsistencyError, ResourceError
from .curves import (
    BasePlace,
    INFINITE,
    _reject_constant_ext,
    local_invariants,
    ramification_data,
)
from .gf import MAX_FIELD_SIZE, extension
from .poly import monic_irreducibles_up_to

DEFAULT_MAX_POINT_DEGREE = 12


def base_change(curve, m: int, max_field_size: int = MAX_FIELD_SIZE):
    """The same cover over the degree-m constant extension."""
    _reject_constant_ext(curve)
    if m == 1:
        return curve
    return curve.over(extension(curve.field, m, max_field_size))


def _check_field_size(q: int, m: int, max_field_size: int):
    if q**m > max_field_size:
        raise ResourceError(f"field size {q}^{m} exceeds the cap {max_field_size}")


def _census(curve, top: int) -> list[int]:
    """[0, N_1, ..., N_top] from one pass over the base places of degree <= top."""
    counts = [0] * (top + 1)
    places = [INFINITE] + [BasePlace(pi) for pi in monic_irreducibles_up_to(curve.field, top)]
    for place in places:
        data = local_invariants(curve, place)
        step = data.f * place.degree
        for m in range(step, top + 1, step):
            counts[m] += data.g * step
    return counts


def count_points(curve, m: int, max_degree: int = DEFAULT_MAX_POINT_DEGREE,
                 max_field_size: int = MAX_FIELD_SIZE) -> int:
    """N_m: degree-one places of the cover over F_{q^m}."""
    if m < 1 or m > max_degree:
        raise ResourceError(f"point count degree {m} outside 1..{max_degree}")
    _reject_constant_ext(curve)
    _check_field_size(curve.field.order, m, max_field_size)
    return _census(curve, m)[m]


def l_polynomial(curve, max_field_size: int = MAX_FIELD_SIZE) -> tuple[list[int], int]:
    """Coefficients [c_0..c_{2g}] of L(T) and the class number h = L(1)."""
    _reject_constant_ext(curve)
    _, g = ramification_data(curve)
    q = curve.field.order
    if g == 0:
        return [1], 1
    _check_field_size(q, g, max_field_size)
    recount = q ** (g + 1) <= max_field_size
    counts = _census(curve, g + 1 if recount else g)
    power_sums = [0] + [q**m + 1 - counts[m] for m in range(1, g + 1)]  # p_0 unused
    e = [1] + [0] * g
    for k in range(1, g + 1):
        acc = 0
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * e[k - i] * power_sums[i]
        if acc % k:
            raise InconsistencyError("Newton's identities produced a non-integer")
        e[k] = acc // k
    coeffs = [0] * (2 * g + 1)
    for i in range(g + 1):
        coeffs[i] = (-1) ** i * e[i]
    for i in range(g):
        coeffs[2 * g - i] = q ** (g - i) * coeffs[i]
    h = sum(coeffs)
    if h < 1:
        raise InconsistencyError(f"class number L(1) = {h} is not positive")
    if recount:
        _self_check(coeffs, g, q, counts[g + 1])
    return coeffs, h


def _self_check(coeffs, g, q, counted):
    """Compare the counted N_{g+1} with the prediction from L(T)."""
    full_e = [(-1) ** i * coeffs[i] for i in range(2 * g + 1)]
    ps = [0] * (2 * g + 2)
    for k in range(1, g + 2):
        acc = 0
        for i in range(1, min(k - 1, 2 * g) + 1):
            acc += (-1) ** (i - 1) * full_e[i] * ps[k - i]
        if k <= 2 * g:
            acc += (-1) ** (k - 1) * k * full_e[k]
        ps[k] = acc
    predicted = q ** (g + 1) + 1 - ps[g + 1]
    if predicted != counted:
        raise InconsistencyError(
            f"L-polynomial predicts N_{g + 1} = {predicted}, counting gives {counted}")


def zeta_functional_equation_holds(coeffs, g: int, q: int) -> bool:
    """Check q^(g-i) c_i = c_{2g-i} coefficientwise."""
    if len(coeffs) != 2 * g + 1:
        return False
    return all(coeffs[2 * g - i] == q ** (g - i) * coeffs[i] for i in range(g + 1))
