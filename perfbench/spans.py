"""In-memory spans around the public entry points of each capitula layer.

The wrappers live here, not in the program: `Tracer.install` replaces each
listed function (or method) by a wrapper, patching the name in every
loaded `capitula` module that imported it, so a call such as
`QuotientPresentation(...)` inside `capitula.fforacle.picard` is recorded
like a call from outside.  Each span has a name, start, end, parent span
and request id; a layer's self time is its spans' durations minus the part
covered by their direct children.  Counters (matrix cells, places scanned,
smooth divisors) are taken from the arguments and results at the same
boundaries.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

# layer -> (module, [public names]); "Class.method" wraps a method in place
LAYERS = {
    "verify": ("capitula.verify", ["oracle_report"]),
    "zeta": ("capitula.fforacle.zeta", [
        "base_change", "count_points", "l_polynomial", "zeta_functional_equation_holds"]),
    "curves": ("capitula.fforacle.curves", [
        "curve_from_json", "curve_to_json", "as_reduce", "local_invariants",
        "ramification_data", "splitting", "genus", "parse_base_place"]),
    "picard": ("capitula.fforacle.picard", [
        "picard_group", "riemann_roch_basis", "CurveArithmetic.divisor_of",
        "galois_invariants", "invariants_of", "s_class_group", "delta_prime",
        "strongly_ambiguous_order", "capitulation_kernel_order", "realize_profile",
        "base_class_number"]),
    "poly": ("capitula.fforacle.poly", [
        "factor_with_bounded_degree", "monic_irreducibles", "monic_irreducibles_up_to"]),
    "abelian": ("capitula.abelian", [
        "smith_normal_form", "snf_diagonal", "invert_unimodular", "kernel_basis",
        "solve_integer", "column_lattice_basis", "preimage_generators",
        "QuotientPresentation.__init__", "finite_quotient", "kernel", "cokernel",
        "image_order", "sum_map_kernel"]),
    "cohomology": ("capitula.cohomology", [
        "GModule.__post_init__", "multiplicative_group_module", "tate_h0",
        "h1_cyclic", "h2_cyclic", "herbrand_quotient", "h_general", "hom_g_dual"]),
    "profile": ("capitula.profile", [
        "profile_from_json", "profile_to_json", "validate", "compute_dv", "compute_D_n0"]),
    "formulas": ("capitula.formulas", [
        "analyze_profile", "hilbert94_lower_bound", "b_group", "semisimple_report",
        "coker_lower_bound", "norm_index_report", "genus_field_h1", "imaginary_report",
        "large_s_report", "h1_class_lower_bound", "order_relation_check", "delta_index",
        "m_invariant", "prop86_check", "chevalley_ff", "rank_bound_87"]),
}


class Tracer:
    """Span recorder; counts are kept where the spans are taken."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, request, name, start, end)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.max_bits = 0
        self.enabled = False
        self.request = -1
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self._patched: list[tuple] = []

    # -- request boundaries ---------------------------------------------------

    def begin(self, request: int):
        self.request = request
        self._stack.clear()
        self.enabled = True

    def end(self):
        self.enabled = False
        self._stack.clear()

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, counter):
        tracer = self
        span_name = f"{layer}.{name}"

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                duration = end - start
                if stack and stack[-1] is frame:
                    stack.pop()
                if stack:
                    stack[-1][1] += duration
                tracer.self_time[layer] += duration - frame[1]
                tracer.spans.append((span_id, parent, tracer.request, span_name, start, end))
                if counter is not None:
                    counter(tracer, args, kwargs, result, duration)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    def install(self):
        """Patch every listed entry point in every loaded capitula module."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "capitula" or n.startswith("capitula."))]
        for layer, (module_name, names) in LAYERS.items():
            module = sys.modules[module_name]
            for name in names:
                counter = COUNTERS.get(f"{layer}.{name}")
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(layer, name, original, counter))
                    self._patched.append((cls, meth, original))
                    continue
                original = getattr(module, name)
                wrapped = self._wrap(layer, name, original, counter)
                for mod in modules:
                    if mod.__dict__.get(name) is original:
                        setattr(mod, name, wrapped)
                        self._patched.append((mod, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- output ---------------------------------------------------------------

    def write(self, path):
        """One JSON array per span after a header line naming the fields."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(["id", "parent", "request", "name", "start", "end"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# counters, keyed by span name; each gets (tracer, args, kwargs, result, seconds)

def _count(key):
    def counter(tracer, args, kwargs, result, duration):
        tracer.counts[key] += 1
    return counter


def _snf(tracer, args, kwargs, result, duration):
    matrix = args[0]
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    tracer.counts["snf_calls"] += 1
    tracer.counts["snf_s"] += duration
    tracer.counts["snf_cells"] += rows * cols
    bits = max((abs(x).bit_length() for row in matrix for x in row), default=0)
    if result is not None:
        diag = result[1]
        bits = max([bits] + [abs(diag[i][i]).bit_length()
                             for i in range(min(rows, cols))])
    tracer.max_bits = max(tracer.max_bits, bits)


def _count_points(tracer, args, kwargs, result, duration):
    curve, m = args[0], args[1]
    tracer.counts["count_points_calls"] += 1
    tracer.counts["places_scanned"] += curve.field.order ** m + 1


def _divisor_of(tracer, args, kwargs, result, duration):
    tracer.counts["divisor_calls"] += 1
    if result is not None:
        tracer.counts["divisor_smooth"] += 1


def _picard_group(tracer, args, kwargs, result, duration):
    tracer.counts["picard_calls"] += 1
    if result is not None:
        tracer.counts["factor_base_places"] += len(result.factor_base)


def _h_general(tracer, args, kwargs, result, duration):
    m, degree = args[0], args[1] if len(args) > 1 else kwargs["degree"]
    n = m.group.order
    k = m.module.rank
    tracer.counts["h_general_calls"] += 1
    # cocycle system: |G|^(degree+1) k rows over |G|^degree k unknowns
    tracer.counts["bar_cells"] += (n ** (degree + 1) * k) * (n ** degree * k)


def _validate(tracer, args, kwargs, result, duration):
    tracer.counts["validate_calls"] += 1
    if result is not None and not result.ok:
        tracer.counts["validate_rejects"] += 1


COUNTERS = {
    "abelian.smith_normal_form": _snf,
    "abelian.QuotientPresentation.__init__": _count("quotient_builds"),
    "zeta.count_points": _count_points,
    "curves.local_invariants": _count("local_invariants_calls"),
    "picard.picard_group": _picard_group,
    "picard.CurveArithmetic.divisor_of": _divisor_of,
    "picard.riemann_roch_basis": _count("rr_calls"),
    "poly.factor_with_bounded_degree": _count("factor_calls"),
    "cohomology.h_general": _h_general,
    "profile.validate": _validate,
}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, ops: int, traced_ops_per_s: float,
                      untraced_ops_per_s: float) -> dict:
    """Every per-layer metric, per op where it is a count or a time."""
    c = tracer.counts
    s = tracer.self_time
    per_op = max(ops, 1)
    m = {
        "abelian.snf_calls": (c["snf_calls"] / per_op, "count/op"),
        "abelian.snf_s": (c["snf_s"] / per_op, "s/op"),
        "abelian.snf_cells": (c["snf_cells"] / per_op, "cells/op"),
        "abelian.snf_max_bits": (float(tracer.max_bits), "bits"),
        "abelian.quotients_per_presentation": (
            _ratio(c["quotient_builds"], c["picard_calls"]), "ratio"),
        "abelian.self_s": (s["abelian"] / per_op, "s/op"),
        "zeta.self_s": (s["zeta"] / per_op, "s/op"),
        "zeta.count_points_calls": (c["count_points_calls"] / per_op, "count/op"),
        "zeta.places_scanned": (c["places_scanned"] / per_op, "places/op"),
        "curves.local_invariants_calls": (c["local_invariants_calls"] / per_op, "count/op"),
        "curves.self_s": (s["curves"] / per_op, "s/op"),
        "picard.self_s": (s["picard"] / per_op, "s/op"),
        "picard.divisor_calls": (c["divisor_calls"] / per_op, "count/op"),
        "picard.smooth_yield": (_ratio(c["divisor_smooth"], c["divisor_calls"]), "ratio"),
        "picard.rr_calls": (c["rr_calls"] / per_op, "count/op"),
        "picard.factor_base_size": (
            _ratio(c["factor_base_places"], c["picard_calls"]), "places"),
        "poly.factor_calls": (c["factor_calls"] / per_op, "count/op"),
        "poly.self_s": (s["poly"] / per_op, "s/op"),
        "cohomology.self_s": (s["cohomology"] / per_op, "s/op"),
        "cohomology.h_general_calls": (c["h_general_calls"] / per_op, "count/op"),
        "cohomology.bar_cells": (c["bar_cells"] / per_op, "cells/op"),
        "profile.self_s": (s["profile"] / per_op, "s/op"),
        "profile.reject_frac": (_ratio(c["validate_rejects"], c["validate_calls"]), "ratio"),
        "formulas.self_s": (s["formulas"] / per_op, "s/op"),
        "verify.self_s": (s["verify"] / per_op, "s/op"),
        "trace.ops_per_s_ratio": (_ratio(traced_ops_per_s, untraced_ops_per_s), "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}
