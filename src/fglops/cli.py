"""Command-line front end: fgl check | fgl nseries | powerop | chern | obstruct."""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .chern import ChernSeries, computation_one
from .coefficients import IntegerRing
from .fgl import ViolatedAxiom, builtin_law, validate_law
from .obstruction import (
    boolean_relations,
    exhaustive_search,
    extract_relations,  # unused here, but bench/tracing.py wraps it by this name
    relation_table,
    symbolic_twin,
)
from .powerops import PowerOpContext, standard_context, standard_ring
from .series import series_from_json, series_to_json

_BUILTIN_LAWS = ("additive", "multiplicative")
# obstruct --search holds and prints 2^(D-1) rows: 2^15 at this degree
_SEARCH_DEGREE_MAX = 16


def _trunc_cap() -> int:
    return int(os.environ.get("FGLOPS_TRUNC_MAX", "64"))


def _check_trunc(*degrees: int) -> None:
    cap = _trunc_cap()
    for d in degrees:
        if d is None:  # a default the command fills in
            continue
        if d > cap:
            raise ValueError(f"degree {d} exceeds FGLOPS_TRUNC_MAX={cap}")
        if d < 1:
            raise ValueError(f"degree {d} must be positive")


def _load_series(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return series_from_json(json.load(handle))


def _load_law(name_or_path: str, degree, coeff_ring):
    """A built-in law at ``degree`` (20 if None), or a law file truncated to ``degree``.

    A law file keeps its own truncation when ``degree`` is None and may not
    be asked for more.
    """
    if name_or_path in _BUILTIN_LAWS:
        return builtin_law(name_or_path, coeff_ring, 20 if degree is None else degree)
    return validate_law(_load_series(name_or_path), degree=degree)


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def cmd_fgl_check(args) -> int:
    _check_trunc(args.degree)
    try:
        law = _load_law(args.law, args.degree, IntegerRing())
    except ViolatedAxiom as exc:
        if args.json:
            _emit_json({"valid": False, "axiom": exc.axiom, "monomial": exc.monomial})
        else:
            print(str(exc))
        return 1
    if args.json:
        _emit_json({"valid": True, "degree": law.degree})
    else:
        print(f"valid to degree {law.degree}")
    return 0


def cmd_fgl_nseries(args) -> int:
    _check_trunc(args.degree)
    if args.n < 0:
        raise ValueError(f"n must be non-negative, got {args.n}")
    law = _load_law(args.law, args.degree, IntegerRing())
    result = law.n_series(args.n)
    if args.json:
        _emit_json(series_to_json(result))
    else:
        print(str(result))
    return 0


def cmd_powerop(args) -> int:
    _check_trunc(args.t_trunc, args.z_trunc)
    f = _load_series(args.series)
    ring = standard_ring(f.ring.coeff_ring, args.t_trunc, args.z_trunc)
    positions = {i for exps in f.terms for i, e in enumerate(exps) if e}
    if len(positions) > 1:
        raise ValueError("power operation input must be univariate")
    pos = next(iter(positions)) if positions else 0
    lifted = ring.from_terms({(exps[pos], 0): c for exps, c in f.terms.items()})
    # F(t, z) reads the law's terms x^i y^j with i < t-trunc and j < z-trunc
    law = _load_law(args.fgl, max(args.t_trunc, args.z_trunc), ring.coeff_ring)
    ctx = PowerOpContext(ring, law, ring.coeff_ring.coefficient(args.tau))
    result = ctx.power_op(lifted)
    if args.json:
        _emit_json(series_to_json(result))
    else:
        print(str(result))
    return 0


def cmd_chern(args) -> int:
    _check_trunc(args.t_trunc, args.z_trunc)
    if (args.coeffs is None) == (args.symbolic is None):
        raise ValueError("exactly one of --coeffs and --symbolic is required")
    if args.symbolic is not None:
        _check_trunc(args.symbolic)
        candidate = ChernSeries.symbolic(args.symbolic)
        coeff_ring = candidate.coeff_ring
    else:
        values = [int(part) for part in args.coeffs.split(",")]
        coeff_ring = IntegerRing()
        candidate = ChernSeries(values, coeff_ring)
    ring = standard_ring(coeff_ring, args.t_trunc, args.z_trunc)
    result = computation_one(candidate, ring)
    if args.json:
        _emit_json(series_to_json(result))
    else:
        print(str(result))
    return 0


def cmd_obstruct(args) -> int:
    _check_trunc(args.t_trunc, args.z_trunc, args.degree)
    if args.symbolic == args.search:
        raise ValueError("exactly one of --symbolic and --search is required")
    if args.search and args.degree > _SEARCH_DEGREE_MAX:
        raise ValueError(f"search degree {args.degree} exceeds {_SEARCH_DEGREE_MAX} (2^(D-1) rows)")
    ctx = standard_context(IntegerRing(), args.t_trunc, args.z_trunc)
    if args.symbolic:
        candidate, sym_ctx = symbolic_twin(ctx, args.degree)
        obj = relation_table(ctx.ring, boolean_relations(candidate, sym_ctx))
    else:
        obj = exhaustive_search(args.degree, ctx).to_json()
    if args.json:
        _emit_json(obj)
    elif args.symbolic:
        for row in obj["relations"]:
            print(f"{row['monomial']}: {row['poly']}")
    elif obj["verdict"] == "unsatisfiable":
        total = len(obj["failures"])
        print(f"UNSATISFIABLE: {total}/{total} candidates fail")
        for row in obj["failures"]:
            print(f"  [{','.join(map(str, row['candidate']))}] fails at {row['monomial']}")
    else:
        print(f"SATISFIABLE: witness [{','.join(map(str, obj['witness']))}]")
    return 1 if obj.get("verdict") == "satisfiable" else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fglops",
        description="exact arithmetic for truncated series, formal group laws, "
        "quadratic power operations and obstruction certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fgl = sub.add_parser("fgl", help="formal group law utilities")
    fgl_sub = fgl.add_subparsers(dest="fgl_command", required=True)

    check = fgl_sub.add_parser("check", help="validate the law axioms")
    check.add_argument("law", help="built-in name (additive, multiplicative) or JSON file")
    check.add_argument(
        "--degree", type=int, help="truncation degree (default: a law file's own, else 20)"
    )
    check.add_argument("--json", action="store_true")
    check.set_defaults(func=cmd_fgl_check)

    nseries = fgl_sub.add_parser("nseries", help="print the n-fold formal sum [n](x)")
    nseries.add_argument("law")
    nseries.add_argument("n", type=int)
    nseries.add_argument(
        "--degree", type=int, help="truncation degree (default: a law file's own, else 20)"
    )
    nseries.add_argument("--json", action="store_true")
    nseries.set_defaults(func=cmd_fgl_nseries)

    powerop = sub.add_parser("powerop", help="apply the quadratic power operation")
    powerop.add_argument("series", help="JSON file with a univariate series")
    powerop.add_argument("--fgl", default="additive")
    powerop.add_argument("--tau", type=int, default=2)
    powerop.add_argument("--t-trunc", type=int, default=5)
    powerop.add_argument("--z-trunc", type=int, default=3)
    powerop.add_argument("--json", action="store_true")
    powerop.set_defaults(func=cmd_powerop)

    chern = sub.add_parser("chern", help="evaluate r(t+z)r(t)/r(z) for a candidate r")
    chern.add_argument("--coeffs", help="comma-separated integers a1,a2,...")
    chern.add_argument("--symbolic", type=int, help="generic candidate of this degree")
    chern.add_argument("--t-trunc", type=int, default=5)
    chern.add_argument("--z-trunc", type=int, default=3)
    chern.add_argument("--json", action="store_true")
    chern.set_defaults(func=cmd_chern)

    obstruct = sub.add_parser("obstruct", help="relation table or exhaustive certificate")
    obstruct.add_argument("--degree", type=int, default=3)
    obstruct.add_argument("--t-trunc", type=int, default=5)
    obstruct.add_argument("--z-trunc", type=int, default=3)
    obstruct.add_argument("--symbolic", action="store_true")
    obstruct.add_argument("--search", action="store_true")
    obstruct.add_argument("--json", action="store_true")
    obstruct.set_defaults(func=cmd_obstruct)

    return parser


def _join_negative_coeffs(argv: list) -> list:
    """Write ``--coeffs -1,0`` (or an abbreviation such as ``--co -1,0``) with ``=``.

    The option parser takes a token that starts with ``-`` for an option
    unless it is a single negative number, so a list with a negative a1
    would never reach ``--coeffs``.
    """
    out = []
    for token in argv:
        flag = out[-1] if out else ""
        if len(flag) > 2 and "--coeffs".startswith(flag) and re.match(r"-\d", token):
            out[-1] = f"{flag}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = _join_negative_coeffs(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
