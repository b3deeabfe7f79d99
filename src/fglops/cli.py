"""Command-line front end: fgl check | fgl nseries | powerop | chern | obstruct."""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii as _json_string

from .chern import ChernSeries, computation_one
from .coefficients import IntegerRing, parse_int
from .fgl import ViolatedAxiom, builtin_law, validate_law
from .obstruction import (
    boolean_relations,
    exhaustive_search,
    extract_relations,  # unused here, but bench/tracing.py wraps it by this name
    relation_table,
)
from .powerops import PowerOpContext, standard_context, standard_ring
from .series import series_from_json, series_to_json

_BUILTIN_LAWS = ("additive", "multiplicative")
# obstruct --search holds and prints 2^(D-1) rows: 2^15 at this degree
_SEARCH_DEGREE_MAX = 16


def _trunc_cap() -> int:
    text = os.environ.get("FGLOPS_TRUNC_MAX", "64")
    try:
        cap = parse_int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"FGLOPS_TRUNC_MAX must be a positive integer, got {text!r}")
    return cap


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

    A law file keeps its own truncation when ``degree`` is None, which must
    then be within ``FGLOPS_TRUNC_MAX``, and may not be asked for more.
    """
    if name_or_path in _BUILTIN_LAWS:
        return builtin_law(name_or_path, coeff_ring, 20 if degree is None else degree)
    law = _load_series(name_or_path)
    if degree is None:
        _check_trunc(*(v.trunc for v in law.ring.variables))
    return validate_law(law, degree=degree)


def _relation_row(row) -> str:
    monomial, poly = _json_string(row["monomial"]), _json_string(row["poly"])
    return f'    {{\n      "monomial": {monomial},\n      "poly": {poly}\n    }}'


def _failure_row(row) -> str:
    candidate = ",\n        ".join(map(str, row["candidate"]))
    monomial = _json_string(row["monomial"])
    return (
        f'    {{\n      "candidate": [\n        {candidate}\n      ],'
        f'\n      "monomial": {monomial}\n    }}'
    )


# the row lists of relation tables and search reports, by top-level key
_ROW_WRITERS = {"relations": _relation_row, "failures": _failure_row}


def _emit_json(obj: dict) -> None:
    """Print ``json.dumps(obj, indent=2)`` for a non-empty dict ``obj``.

    With ``indent`` the encoder runs in pure Python, which is slow on the
    rows of a relation table and on the 2^(D-1) failure rows of a search
    report.  A non-empty row list under one of those keys is filled into a
    fixed template of the same layout; every other value goes through
    ``json.dumps``.
    """
    pieces = []
    for key, value in obj.items():
        pieces += (",\n" if pieces else "{\n", f"  {_json_string(key)}: ")
        row = _ROW_WRITERS.get(key) if value else None
        if row is None:
            pieces.append(json.dumps(value, indent=2).replace("\n", "\n  "))
        else:
            pieces += ("[\n", ",\n".join(map(row, value)), "\n  ]")
    # written piece by piece: joining them would copy the whole document again
    print(*pieces, "\n}", sep="")


def _print_series(result, as_json: bool) -> None:
    if as_json:
        _emit_json(series_to_json(result))
    else:
        print(result)


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
    _print_series(law.n_series(args.n), args.json)
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
    ctx = PowerOpContext(ring, law, args.tau)
    _print_series(ctx.power_op(lifted), args.json)
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
        values = [parse_int(part) for part in args.coeffs.split(",")]
        coeff_ring = IntegerRing()
        candidate = ChernSeries(values, coeff_ring)
    ring = standard_ring(coeff_ring, args.t_trunc, args.z_trunc)
    _print_series(computation_one(candidate, ring), args.json)
    return 0


def cmd_obstruct(args) -> int:
    _check_trunc(args.t_trunc, args.z_trunc, args.degree)
    if args.symbolic == args.search:
        raise ValueError("exactly one of --symbolic and --search is required")
    if args.search and args.degree > _SEARCH_DEGREE_MAX:
        raise ValueError(f"search degree {args.degree} exceeds {_SEARCH_DEGREE_MAX} (2^(D-1) rows)")
    ctx = standard_context(IntegerRing(), args.t_trunc, args.z_trunc)
    if args.symbolic:
        obj = relation_table(ctx.ring, boolean_relations(args.degree, ctx))
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


def _int_arg(text: str) -> int:
    """An integer option value, in the grammar of :func:`parse_int`."""
    try:
        return parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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
        "--degree", type=_int_arg, help="truncation degree (default: a law file's own, else 20)"
    )
    check.add_argument("--json", action="store_true")
    check.set_defaults(func=cmd_fgl_check)

    nseries = fgl_sub.add_parser("nseries", help="print the n-fold formal sum [n](x)")
    nseries.add_argument("law")
    nseries.add_argument("n", type=_int_arg)
    nseries.add_argument(
        "--degree", type=_int_arg, help="truncation degree (default: a law file's own, else 20)"
    )
    nseries.add_argument("--json", action="store_true")
    nseries.set_defaults(func=cmd_fgl_nseries)

    powerop = sub.add_parser("powerop", help="apply the quadratic power operation")
    powerop.add_argument("series", help="JSON file with a univariate series")
    powerop.add_argument("--fgl", default="additive")
    powerop.add_argument("--tau", type=_int_arg, default=2)
    powerop.add_argument("--t-trunc", type=_int_arg, default=5)
    powerop.add_argument("--z-trunc", type=_int_arg, default=3)
    powerop.add_argument("--json", action="store_true")
    powerop.set_defaults(func=cmd_powerop)

    chern = sub.add_parser("chern", help="evaluate r(t+z)r(t)/r(z) for a candidate r")
    chern.add_argument("--coeffs", help="comma-separated integers a1,a2,...")
    chern.add_argument("--symbolic", type=_int_arg, help="generic candidate of this degree")
    chern.add_argument("--t-trunc", type=_int_arg, default=5)
    chern.add_argument("--z-trunc", type=_int_arg, default=3)
    chern.add_argument("--json", action="store_true")
    chern.set_defaults(func=cmd_chern)

    obstruct = sub.add_parser("obstruct", help="relation table or exhaustive certificate")
    obstruct.add_argument("--degree", type=_int_arg, default=3)
    obstruct.add_argument("--t-trunc", type=_int_arg, default=5)
    obstruct.add_argument("--z-trunc", type=_int_arg, default=3)
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
        if len(flag) > 2 and "--coeffs".startswith(flag) and re.match(r"-[0-9]", token):
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
    """Run :func:`main` on the process's arguments and exit with its code.

    The heap is frozen first: objects left alive at exit are then skipped
    by the collections that interpreter shutdown runs, which would
    otherwise walk every one of them just before the process ends.
    """
    code = main()
    gc.freeze()
    raise SystemExit(code)
