"""The argparse command line that ``fglops.cli`` replaced, kept as an oracle.

``build_parser`` and ``_join_negative_coeffs`` are the argparse front end
as it was, unchanged; :func:`main` parses with them and dispatches to the
public ``cmd_*`` handlers of ``fglops.cli``, so for any argv that does not
ask for help its exit code and stdout are what the table-driven parser must
give.  ``tests/test_argv_fuzz.py`` holds the two to each other.
"""

import argparse
import json
import re
import sys

from fglops.cli import cmd_chern, cmd_fgl_check, cmd_fgl_nseries, cmd_obstruct, cmd_powerop
from fglops.coefficients import parse_int


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
