"""Command-line front end.

Four commands: `analyze` runs the validator and every applicable formula
on a profile JSON; `kernel-sum` is a thin wrapper over the local sum-map
kernel; `oracle` runs the full function-field pipeline on a curve JSON
with all cross-checks; `verify` runs the exhaustive property suites.

Reports are exact: integers and invariant-factor lists only, no floats,
and --json output is canonical (sorted keys), so parsing and re-emitting
a report is byte-identical.  Exit codes: 0 success, 1 usage or parse
error (argparse's own errors included), 2 validation or hypothesis
failure (including failed checks), 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from math import lcm
from pathlib import Path

from .abelian import sum_map_kernel
from .arith import json_int
from .errors import CapitulaError, ResourceError
from .formulas import analyze_profile
from .fforacle import OracleConfig, curve_from_json, parse_base_place
from .fforacle.curves import INFINITE
from .profile import profile_from_json, profile_to_json, validate
from .verify import SUITES, oracle_report

CONFIG_FILE = "capitula.json"
_CONFIG_KEYS = {f.name for f in dataclasses.fields(OracleConfig)}

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3


def load_config(directory: Path | None = None) -> OracleConfig:
    path = (directory or Path.cwd()) / CONFIG_FILE
    if not path.exists():
        return OracleConfig()
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in raw.items():
        if json_int(value, f"config {key!r}", ValueError) < 0:
            raise ValueError(f"config {key!r} must be an integer >= 0, got {value!r}")
    return OracleConfig(**raw)


def emit_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def group_json(group):
    return {"invariant_factors": list(group.invariant_factors), "order": group.order}


def _analysis_json(report):
    out = {
        "d_map": dict(sorted(report.d_map.items())),
        "D": report.big_d,
        "n0": report.n0,
        "b_group": group_json(report.b_group),
        "bounds": {k: v.to_json() for k, v in sorted(report.bounds.items())},
        "structures": {k: group_json(v) for k, v in sorted(report.structures.items())},
        "ff_invariants": dict(sorted(report.ff_invariants.items())),
        "flags": dict(sorted(report.flags.items())),
    }
    return out


def cmd_analyze(args) -> int:
    try:
        with open(args.profile) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read profile: {exc}", file=sys.stderr)
        return EXIT_USAGE
    profile = profile_from_json(raw)
    report = validate(profile)
    payload = {
        "input": profile_to_json(profile),
        "validation": {
            "ok": report.ok,
            "violations": [v.to_json() for v in report.violations],
            "d_prime": dict(sorted(report.d_prime.items())),
            "d_prime_pairwise_coprime": report.d_prime_pairwise_coprime,
            "d_pairwise_coprime": report.d_pairwise_coprime,
        },
    }
    if not report.ok:
        _print_payload(args, payload)
        for v in report.violations:
            print(f"violation [{v.rule}] {v.place_id or '-'}: {v.message}",
                  file=sys.stderr)
        return EXIT_VALIDATION
    analysis = analyze_profile(
        profile,
        units_are_norms=args.assume_units_are_norms,
        h2_units_trivial=args.assume_h2_units_trivial,
        genus_field_condition=args.assume_genus_field,
        class_exponent_condition=args.assume_class_exponent,
    )
    payload["analysis"] = _analysis_json(analysis)
    _print_payload(args, payload, _render_analysis)
    return EXIT_OK


def _render_analysis(payload):
    lines = []
    analysis = payload["analysis"]
    lines.append(f"d_v: {analysis['d_map']}")
    lines.append(f"D = {analysis['D']}, n0 = {analysis['n0']}")
    b = analysis["b_group"]
    lines.append(f"sum-map kernel: {b['invariant_factors']} (order {b['order']})")
    for name, bound in analysis["bounds"].items():
        lines.append(f"bound {name}: {bound['value']} ({bound['kind']})")
    for name, structure in analysis["structures"].items():
        lines.append(f"structure {name}: {structure['invariant_factors']}")
    if analysis["ff_invariants"]:
        lines.append(f"function-field invariants: {analysis['ff_invariants']}")
    flags = ", ".join(k for k, v in analysis["flags"].items() if v)
    lines.append(f"flags: {flags or '-'}")
    return "\n".join(lines)


def cmd_kernel_sum(args) -> int:
    d = [int(x) for x in args.d.split(",") if x.strip()]
    if not d:
        print("error: empty d-list", file=sys.stderr)
        return EXIT_USAGE
    big_d = lcm(*d)
    group = sum_map_kernel(d, big_d)
    payload = {
        "d": d,
        "D": big_d,
        "kernel": group_json(group),
    }
    if args.json:
        sys.stdout.write(emit_json(payload))
    else:
        desc = str(group)
        print(f"{desc} (order {group.order}), D = {big_d}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    try:
        with open(args.curve) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read curve: {exc}", file=sys.stderr)
        return EXIT_USAGE
    config = load_config()
    curve = curve_from_json(raw)
    if args.s:
        s_bases = [parse_base_place(curve.field, token)
                   for token in args.s.split(",") if token.strip()]
    else:
        s_bases = [INFINITE]
    report = oracle_report(curve, s_bases, degree_bound=args.degree_bound,
                           config=config)
    payload = {
        "curve": report.curve_json,
        "q": report.q,
        "n": report.n,
        "kind": report.kind,
        "genus": report.genus,
        "ramification": report.ramification,
        "l_polynomial": report.l_polynomial,
        "class_number": report.class_number,
        "pic0": report.pic0,
        "sigma": report.sigma,
        "galois_invariants": report.jg_invariants,
        "s": report.s_ids,
        "s_k_count": report.s_k_count,
        "s_class_group": report.s_class_group,
        "s_class_invariants": report.s_class_invariants,
        "h_KS": report.h_KS,
        "h_FS": report.h_FS,
        "delta": report.delta,
        "delta_prime": report.delta_prime,
        "m": report.m_invariant,
        "gamma_order": report.gamma_order,
        "profile": profile_to_json(report.profile),
        "checks": [v.to_json() for v in report.verdicts],
    }
    if args.json:
        sys.stdout.write(emit_json(payload))
    else:
        print(f"{report.kind} cover of F_{report.q}(t), degree {report.n}, "
              f"genus {report.genus}")
        print(f"L(T) = {report.l_polynomial}, h = {report.class_number}")
        print(f"Pic0 = {report.pic0}, invariants = {report.jg_invariants}")
        print(f"C_KS = {report.s_class_group} (S = {report.s_ids}), "
              f"ambiguous = {report.s_class_invariants}")
        print(f"delta = {report.delta}, delta' = {report.delta_prime}, "
              f"m = {report.m_invariant}")
        for v in report.verdicts:
            mark = "PASS" if v.passed else "FAIL"
            print(f"[{mark}] {v.check}: {v.anchor} "
                  f"(expected {v.expected}, got {v.actual})")
    return EXIT_OK if report.all_passed else EXIT_VALIDATION


def cmd_verify(args) -> int:
    suite = SUITES.get(args.suite)
    if suite is None:
        print(f"error: unknown suite {args.suite!r}; "
              f"choose from {sorted(SUITES)}", file=sys.stderr)
        return EXIT_USAGE
    if args.suite == "corpus":
        verdicts = suite(load_config())
    else:
        verdicts = suite()
    if args.json:
        sys.stdout.write(emit_json({"suite": args.suite,
                                    "checks": [v.to_json() for v in verdicts]}))
    else:
        for v in verdicts:
            mark = "PASS" if v.passed else "FAIL"
            print(f"[{mark}] {v.check}: {v.anchor}")
    return EXIT_OK if all(v.passed for v in verdicts) else EXIT_VALIDATION


def _print_payload(args, payload, renderer=None):
    if args.json:
        sys.stdout.write(emit_json(payload))
    elif renderer is not None and "analysis" in payload:
        print(renderer(payload))


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code 1 (its own is 2, which
    this front end reserves for validation failures); the subcommand
    parsers are built from the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="capitula",
        description="exact calculators for capitulation kernels, ambiguous "
                    "classes and S-unit cohomology, with a function-field oracle",
    )
    sub = parser.add_subparsers(dest="command")

    p_analyze = sub.add_parser("analyze", help="validate and analyze a profile JSON")
    p_analyze.add_argument("profile")
    p_analyze.add_argument("--json", action="store_true")
    p_analyze.add_argument("--assume-units-are-norms", action="store_true")
    p_analyze.add_argument("--assume-h2-units-trivial", action="store_true")
    p_analyze.add_argument("--assume-genus-field", action="store_true")
    p_analyze.add_argument("--assume-class-exponent", action="store_true")
    p_analyze.set_defaults(func=cmd_analyze)

    p_kernel = sub.add_parser("kernel-sum", help="structure of the local sum-map kernel")
    p_kernel.add_argument("-d", required=True, help="comma-separated d-values")
    p_kernel.add_argument("--json", action="store_true")
    p_kernel.set_defaults(func=cmd_kernel_sum)

    p_oracle = sub.add_parser("oracle", help="full oracle pipeline on a curve JSON")
    p_oracle.add_argument("curve")
    p_oracle.add_argument("--s", default=None,
                          help="comma-separated base places (default: inf)")
    p_oracle.add_argument("--degree-bound", type=int, default=None,
                          help="lower bound on the factor-base place degree, "
                               "raised to the genus (default: 1)")
    p_oracle.add_argument("--json", action="store_true")
    p_oracle.set_defaults(func=cmd_oracle)

    p_verify = sub.add_parser("verify", help="run a property suite")
    p_verify.add_argument("suite")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except ResourceError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except CapitulaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
