"""Command-line surface: check, lines, conics, oracle, classify.

Every run echoes its resolved configuration, writes a deterministic
report to standard output (text by default, ``--json`` for a JSON object
with stable keys), and exits 0 on success, 2 on invalid input, 3 when a
computation is refused (point budget, prime too small), and 1 when the
reader of standard output has gone.  Empty solution sets are results,
not errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import cache

from .conics import (conic_system, count_conics, find_singular_conics,
                     lines_dimension_report)
from .fields import FieldMismatchError
from .ffutil import DEFAULT_POINT_CAP, OracleRefusal
from .oracle import cc_census
from .parser import ParseError
from .poly import ProjectivePoint
from .variety import (classify_line_family, criteria_report, load_variety,
                      over_prime)

__all__ = ["entry", "build_arg_parser"]


def _integer(text: str) -> int:
    # int() alone also takes other decimal digits, such as "５", and "_"
    # separators, such as "1_1"
    if not re.fullmatch(r"[+-]?[0-9]+", text := text.strip()):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an integer in ASCII digits")
    return int(text)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccv",
        description=("Conic-connectedness toolkit: numerical criteria, "
                     "line loci, singular-conic counts, and finite-field "
                     "brute-force checks for projective varieties."))
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true",
                       help="emit the report as a JSON object")

    p_check = sub.add_parser(
        "check", help="evaluate the numerical criteria for a variety")
    p_check.add_argument("variety", help="variety-spec JSON file")
    add_json(p_check)

    p_lines = sub.add_parser(
        "lines", help="lines on the variety through a base point")
    p_lines.add_argument("variety", help="variety-spec JSON file")
    p_lines.add_argument("--point", required=True,
                         help="comma-separated coordinates, length N+1")
    add_json(p_lines)

    p_conics = sub.add_parser(
        "conics", help="singular conics through two points")
    p_conics.add_argument("variety", help="variety-spec JSON file")
    p_conics.add_argument("--x", required=True,
                          help="comma-separated coordinates, length N+1")
    p_conics.add_argument("--y", required=True,
                          help="comma-separated coordinates, length N+1")
    p_conics.add_argument("--count-only", action="store_true",
                          dest="count_only",
                          help="report the ideal degree and the count "
                               "formula without enumerating vertices")
    p_conics.add_argument("--prime", type=_integer, default=None,
                          help="work over F_p (reduces a rational variety)")
    add_json(p_conics)

    p_oracle = sub.add_parser(
        "oracle", help="brute-force census of conic connections over F_p")
    p_oracle.add_argument("variety", help="variety-spec JSON file")
    p_oracle.add_argument("--prime", type=_integer, required=True,
                          help="prime p for the brute-force field")
    p_oracle.add_argument("--pairs", type=_integer, default=50,
                          help="number of point pairs to sample (default 50)")
    p_oracle.add_argument("--seed", type=_integer, default=0,
                          help="seed for the pinned generator (default 0)")
    add_json(p_oracle)

    p_classify = sub.add_parser(
        "classify", help="classify a line-family dimension report (n, c, a)")
    p_classify.add_argument("--n", type=_integer, required=True,
                            help="dimension of the variety")
    p_classify.add_argument("--c", type=_integer, required=True,
                            help="codimension in the ambient space")
    p_classify.add_argument("--a", type=_integer, required=True,
                            help="dimension of the family of lines "
                                 "through a general point")
    p_classify.add_argument("--delta", type=_integer, default=None,
                            help="secant defect, if known")
    p_classify.add_argument("--index", type=_integer, default=None,
                            help="Fano index, if known")
    add_json(p_classify)

    return parser


# entry's parser, built on the first call: parse_args keeps no state in
# the parser, so every later call in the process can reuse it
_shared_parser = cache(build_arg_parser)


def _point_cap() -> int:
    raw = os.environ.get("CCV_POINT_CAP")
    if raw is None:
        return DEFAULT_POINT_CAP
    try:
        value = _integer(raw)
    except argparse.ArgumentTypeError:
        raise ValueError(f"CCV_POINT_CAP must be an integer, got {raw!r}")
    if value <= 0:
        raise ValueError("CCV_POINT_CAP must be positive")
    return value


# a signed integer, fraction or plain decimal; Fraction would also take an
# exponent, and expand 1e9999999 into a ten-million-digit integer
_COORDINATE = re.compile(r"[+-]?([0-9]+(/[0-9]+|\.[0-9]*)?|\.[0-9]+)")


def _parse_point(text: str, variety) -> ProjectivePoint:
    parts = [piece.strip() for piece in text.split(",")]
    if len(parts) != variety.ambient_dim + 1:
        raise ValueError(
            f"expected {variety.ambient_dim + 1} comma-separated "
            f"coordinates, got {len(parts)}")
    for part in parts:
        if not _COORDINATE.fullmatch(part):
            raise ValueError(f"coordinate {part!r} is not an integer, "
                             f"a fraction or a plain decimal")
    try:
        coords = [variety.field(p) for p in parts]
    except ZeroDivisionError:
        raise ValueError(f"a denominator in {text!r} vanishes") from None
    return ProjectivePoint(coords, variety.field)


# the echoed run configuration, in the order of the text line; the keys
# other than subcommand, input and point_cap are option names
_CONFIG_KEYS = ("subcommand", "input", "point", "x", "y", "count_only",
                "prime", "pairs", "seed", "n", "c", "a", "delta", "index",
                "point_cap")


def _run_config(args, cap: int) -> dict:
    config = {key: getattr(args, key, None) for key in _CONFIG_KEYS}
    config.update(subcommand=args.command,
                  input=getattr(args, "variety", None),
                  point_cap=cap, json=args.json)
    return config


def _config_line(config: dict) -> str:
    shown = [f"{k}={config[k]}" for k in _CONFIG_KEYS
             if config[k] is not None]
    return "config: " + " ".join(shown)


def _field_name(variety) -> str:
    return ("rational" if not variety.field.is_prime_field
            else f"F_{variety.field.p}")


def _variety_lines(variety) -> list:
    lines = [
        f"variety: {variety.name} over {_field_name(variety)} "
        f"in P^{variety.ambient_dim}",
        f"equations ({len(variety.equations)}), "
        f"degrees {list(variety.degrees)}:",
    ]
    for eq in variety.equations:
        lines.append(f"  {eq} = 0")
    for note in variety.notes:
        lines.append(f"note: {note}")
    return lines


def _line_desc(forms) -> str:
    return " = ".join(str(f) for f in forms) + " = 0"


def _solution_lines(solutions) -> list:
    out = [f"solutions listed: {len(solutions)}"]
    for sol in solutions:
        kind = "degenerate" if sol.degenerate else "non-degenerate"
        lx = ("(vertex equals x)" if sol.line_through_x is None
              else _line_desc(sol.line_through_x))
        ly = ("(vertex equals y)" if sol.line_through_y is None
              else _line_desc(sol.line_through_y))
        out.append(f"  vertex {sol.vertex} ({kind}): "
                   f"line through x: {lx}; line through y: {ly}")
    return out


def _count_lines(count) -> list:
    out = [
        f"conic system dimension: {count.system_dimension}",
        f"ideal degree: {count.ideal_degree}",
        f"count formula prod(d! (d-1)!): {count.formula_value}",
        f"formula applicable (m == c): "
        f"{'yes' if count.formula_applicable else 'no'}",
        f"equality case 2*sum(d) - c == N: "
        f"{'yes' if count.equality_case else 'no'}",
    ]
    if count.matches_formula is not None:
        out.append(f"ideal degree matches formula: "
                   f"{'yes' if count.matches_formula else 'no'}")
    for note in count.notes:
        out.append(f"note: {note}")
    return out


def _cmd_check(args, cap: int) -> tuple:
    variety = load_variety(args.variety)
    report = criteria_report(variety)
    payload = {"variety": variety.to_json(), "report": report.to_json()}
    lines = _variety_lines(variety)
    dim = "unknown" if report.dimension is None else report.dimension
    codim = "unknown" if report.codimension is None else report.codimension
    lines.append(f"dimension: {dim} ({report.dimension_source}), "
                 f"codimension: {codim}")
    for crit in report.criteria:
        bits = [crit.name, crit.inequality]
        if crit.left is not None:
            bits.append(crit.comparison)
        bits.append(crit.verdict.upper())
        lines.append(": ".join(bits))
        if crit.conclusion and crit.verdict == "holds":
            lines.append(f"  conclusion: {crit.conclusion}")
        for note in crit.notes:
            lines.append(f"  note: {note}")
    lines.append(f"caveat: {report.caveat}")
    return payload, lines


def _cmd_lines(args, cap: int) -> tuple:
    variety = load_variety(args.variety)
    report = lines_dimension_report(variety,
                                    _parse_point(args.point, variety))
    payload = {"variety": variety.to_json(), "report": report.to_json()}
    lines = _variety_lines(variety)
    lines.append(f"base point: {report.base_point}")
    lines.append(f"locus ideal generators "
                 f"(degrees {list(report.generator_degrees)}):")
    for gen in report.generators:
        lines.append(f"  {gen} = 0")
    lines.append(f"locus dimension: {report.locus_dimension}, "
                 f"degree: {report.locus_degree}")
    lines.append(f"line family dimension a = {report.a}")
    lines.append(f"family bound N - 1 - sum(d) = {report.family_bound}: "
                 + ("met" if report.family_bound_met else "not met"))
    lines.append(f"locus bound N - sum(d) = {report.locus_bound}")
    if report.classification is not None:
        lines.extend(_classification_lines(report.classification))
    lines.append(f"caveat: {report.caveat}")
    return payload, lines


def _classification_lines(report) -> list:
    inputs = report.inputs
    shown = ", ".join(f"{k} = {inputs[k]}" for k in
                      ("n", "c", "a", "delta", "index")
                      if inputs.get(k) is not None)
    lines = [f"classification inputs: {shown}"]
    for finding in report.findings:
        lines.append(f"finding [{finding.key}] {finding.status}: "
                     f"{finding.detail}")
    for cand in report.candidates:
        lines.append(f"candidate [{cand.key}] {cand.name}: {cand.detail}")
    lines.append("consistent: " + ("yes" if report.consistent else "no"))
    return lines


def _cmd_conics(args, cap: int) -> tuple:
    variety = load_variety(args.variety)
    x = _parse_point(args.x, variety)
    y = _parse_point(args.y, variety)
    if args.prime is not None:
        variety, x, y = over_prime(variety, args.prime, x, y)
    system = conic_system(variety, x, y)
    payload = {
        "variety": variety.to_json(),
        "x": str(x),
        "y": str(y),
        "system": system.to_json(),
    }
    lines = _variety_lines(variety)
    lines.append(f"x = {x}")
    lines.append(f"y = {y}")
    lines.append(f"conic system: {len(system.generators)} generators, "
                 f"{system.shared_count} shared equation(s)")
    if not args.count_only:
        search = find_singular_conics(variety, x, y, args.prime, cap=cap,
                                      system=system)
        payload["search"] = search.to_json()
        lines.append(f"search mode: {search.mode}, status: {search.status}")
        if search.dimension is not None:
            lines.append(f"vertex locus dimension: {search.dimension}, "
                         f"degree: {search.degree}")
        for note in search.notes:
            lines.append(f"note: {note}")
        lines.extend(_solution_lines(search.solutions))
    count = count_conics(variety, x, y, system=system)
    payload["count"] = count.to_json()
    lines.extend(_count_lines(count))
    return payload, lines


def _cmd_oracle(args, cap: int) -> tuple:
    variety, = over_prime(load_variety(args.variety), args.prime)
    stats = cc_census(variety, sample=args.pairs, seed=args.seed, cap=cap)
    payload = {"variety": variety.to_json(), "census": stats.to_json()}
    lines = _variety_lines(variety)
    lines.append(f"prime: {stats.prime}")
    lines.append(f"variety points over F_{stats.prime}: {stats.point_count}")
    lines.append(f"pairs tested: {stats.pairs_tested} (seed {args.seed})")
    lines.append(f"pairs connected: {stats.pairs_connected}")
    lines.append(f"pairs with a non-degenerate conic: "
                 f"{stats.pairs_with_nondegenerate}")
    lines.append(f"connected fraction: {stats.connected_fraction}")
    lines.append(f"non-degenerate fraction: "
                 f"{stats.nondegenerate_fraction}")
    for vertices, pairs in stats.histogram:
        lines.append(f"  {vertices} non-degenerate vertex(es): "
                     f"{pairs} pair(s)")
    for note in stats.notes:
        lines.append(f"note: {note}")
    return payload, lines


def _cmd_classify(args, cap: int) -> tuple:
    report = classify_line_family(args.n, args.c, args.a,
                                  delta=args.delta, index=args.index)
    payload = {"report": report.to_json()}
    return payload, _classification_lines(report)


_HANDLERS = {
    "check": _cmd_check,
    "lines": _cmd_lines,
    "conics": _cmd_conics,
    "oracle": _cmd_oracle,
    "classify": _cmd_classify,
}


def entry(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        cap = _point_cap()
        config = _run_config(args, cap)
        payload, lines = _HANDLERS[args.command](args, cap)
    except OracleRefusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (ValueError, FieldMismatchError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    document = {"command": args.command, "config": config, **payload}
    text = (json.dumps(document, indent=2, sort_keys=True) if args.json
            else "\n".join([_config_line(config), *lines]))
    try:
        print(text, flush=True)
    except BrokenPipeError:  # the reader left: the final flush goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


def main() -> None:
    sys.exit(entry())


if __name__ == "__main__":
    main()
