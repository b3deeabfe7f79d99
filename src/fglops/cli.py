"""Command-line front end: fgl check | fgl nseries | powerop | chern | obstruct."""

from __future__ import annotations

import gc
import itertools
import os
import sys
import types

from .chern import ChernSeries, coefficient_names, computation_one
from .coefficients import IntegerRing, PolynomialRing, parse_int
from .fgl import BUILTIN_DEGREE, BUILTIN_LAWS, ViolatedAxiom, builtin_law, validate_law
from .obstruction import (
    exhaustive_search,
    extract_relations,  # unused here, but bench/tracing.py wraps it by this name
    symbolic_table,
)
from .powerops import standard_context
from .series import series_from_json, series_to_json

# obstruct --search prints 2^(D-1) failure rows, and the search is fast,
# so this caps the output: 2^15 rows, about 8 MB of --json at D = 16
_SEARCH_DEGREE_MAX = 16
# chern --symbolic D is refused when its monomial products
# (_symbolic_products) times D + 48 exceed this: a product adds two D-long
# exponent tuples, and the 48 is the rest of its cost, fitted on timed runs;
# `chern --symbolic 16 --t-trunc 21 --z-trunc 16`, 97% of the budget, took
# 0.43 s, the median of 7 runs on a shared 2-core Xeon VM with Python 3.11,
# where bare start-up took 76 ms
_SYMBOLIC_BUDGET = 10**7
# a law file is refused when its terms below the check degree d, times d^3,
# times the square of the most monomials in one of their coefficients (1
# over Z and Z/n), exceed this: the associativity check substitutes the law
# into itself in three variables cut at d, multiplying coefficients.  On the
# dense law g^-1(g(x) + g(y)), g = x + x^2 over Z, the estimate tracks the
# time within 3x from d = 8 to 64, and at the budget (d = 20) a check takes
# about a second on a 2-core VM.  Over Z[a1..an] the square errs toward
# refusing: that law scaled to u^-1 F(ux, uy), u = a1 + ... + an, took 10x,
# 94x and 2,140x the integer law's time at d = 6 for n = 2, 3 and 5, where
# the square is 100, 3,025 and 511,225
_LAW_BUDGET = 3 * 10**6


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


def _symbolic_products(degree: int, t_trunc: int, z_trunc: int) -> int:
    """The monomial products of the last series product of ``chern --symbolic``.

    Counted in closed form, before any series arithmetic.  The output
    r(t + z) r(t) / r(z) is formed last as r(t + z) r(t) times 1/r(z), and
    that product is most of the work.  On the left, the t^i z^h coefficient
    has at most one a_k a_l per k + l = i + h with h <= k <= D.  On the
    right, z has torsion 2, and mod 2 1/r(z) is the product over s of
    1 + sum_k a_k^(2^s) z^(k 2^s), so its z^n coefficient has one monomial
    per way to write n = sum_s k_s 2^s with each k_s in 0..D.
    """
    ways = [1] + [0] * (z_trunc - 1)
    s = 0
    while 1 << s < z_trunc:
        ways = [
            sum(ways[n - (k << s)] for k in range(min(degree, n >> s) + 1))
            for n in range(z_trunc)
        ]
        s += 1
    # below[h]: the monomials of 1/r(z) that fit under z^h, z^(h+1), ...
    below = list(itertools.accumulate(ways))[::-1]
    return sum(
        max(0, min(degree, i + h) - max(h, i + h - degree) + 1) * below[h]
        for i in range(t_trunc)
        for h in range(min(z_trunc, degree + 1))
    )


def _load_series(path: str):
    import json  # here, not at the top: the obstruct requests never load it

    with open(path, "r", encoding="utf-8") as handle:
        try:
            obj = json.load(handle, parse_int=parse_int)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    return series_from_json(obj)


def _load_law(name_or_path: str, degree, coeff_ring):
    """A built-in law at ``degree`` (``BUILTIN_DEGREE`` if None), or a law file truncated to it.

    A law file keeps its own truncation when ``degree`` is None, which must
    then be within ``FGLOPS_TRUNC_MAX``, and may not be asked for more.  A
    law file whose check is estimated over ``_LAW_BUDGET`` is refused
    before any series work; it is validated here, where it enters.
    """
    if name_or_path in BUILTIN_LAWS:
        return builtin_law(name_or_path, coeff_ring, BUILTIN_DEGREE if degree is None else degree)
    law = _load_series(name_or_path)
    truncs = [v.trunc for v in law.ring.variables]
    if degree is None:
        _check_trunc(*truncs)
    d = min(truncs if degree is None else truncs + [degree])
    kept = [c.value for exps, c in law.terms.items() if all(e < d for e in exps)]
    width = 1  # the most monomials in one coefficient
    if isinstance(law.ring.coeff_ring, PolynomialRing):
        width = max(map(len, kept), default=1)
    if len(kept) * d**3 * width**2 > _LAW_BUDGET:
        monomials = f" x {width}^2 monomials" if width > 1 else ""
        raise ValueError(
            f"{name_or_path}: checking the law to degree {d} is over the work budget: "
            f"{len(kept)} terms x {d}^3{monomials} > {_LAW_BUDGET}"
        )
    return validate_law(law, degree=degree)


def _plain(texts) -> bool:
    """Whether ``json.dumps`` writes every text made of these texts' characters as it is.

    It escapes '"', '\\' and every character outside printable ASCII, and
    writes any other character unchanged.
    """
    chars = "".join(texts)
    return chars.isascii() and chars.isprintable() and '"' not in chars and "\\" not in chars


def _json_relations(rows) -> str:
    """(label, polynomial) rows as list items in the layout of ``json.dumps(indent=2)``.

    The texts are quoted as they are, which the caller has shown sound
    with :func:`_plain`.
    """
    return ",\n".join(
        f'    {{\n      "monomial": "{label}",\n      "poly": "{poly}"\n    }}'
        for label, poly in rows
    )


# failure row layouts, for --json and for text: (row start, separator before
# each candidate entry after the first, row end from the monomial label, row
# separator)
_JSON_FAILURES = (
    '    {\n      "candidate": [\n        ',
    ",\n        ",
    lambda label: f'\n      ],\n      "monomial": "{label}"\n    }}',
    ",\n",
)
_TEXT_FAILURES = ("  [", ",", lambda label: f"] fails at {label}\n", "")


def _bit_texts(first: str, n: int, sep: str) -> list:
    """``first`` then each n-digit binary string, ``sep`` before each digit, in counting order."""
    texts = [first]
    digits = (sep + "0", sep + "1")
    for _ in range(n):
        texts = [text + digit for text in texts for digit in digits]
    return texts


def _failure_blocks(report, layout):
    """The failure rows of an unsatisfiable search, one text per prefix block.

    The texts of the prefixes and of the tails are made once each, and a
    block is one join over its tails.
    """
    start, sep, end, between = layout
    width, tail, labels = report.failure_blocks()
    tails = _bit_texts("", tail, sep)
    stops = {label: end(label) for label in set(labels)}
    for head, label in zip(_bit_texts(start + "1", width - 1, sep), labels):
        stop = stops[label]
        yield head + (stop + between + head).join(tails) + stop


def _emit_json(obj: dict) -> None:
    """Print ``json.dumps(obj, indent=2)``: a series or a law check's result."""
    import json  # here, not at the top: the obstruct requests never load it

    print(json.dumps(obj, indent=2))


def _emit_obstruct(truncation: dict, rows, verdict=None, witness=None, failures=None) -> None:
    """Print an ``obstruct`` document as ``json.dumps(obj, indent=2)`` would, without ``json``.

    The keys are "verdict" (if given), "truncation", "relations" (the
    (label, polynomial) rows, through :func:`_json_relations`), then
    "witness", a list of ints, if given.  ``failures``, if given, are the
    blocks of a search report's failure rows (:func:`_failure_blocks`),
    written one at a time as the list under a last key, "failures".
    """
    pieces = ["{\n"]
    if verdict is not None:
        pieces.append(f'  "verdict": "{verdict}",\n')
    pieces.append('  "truncation": {')
    pieces.append(",".join(f'\n    "{key}": {n}' for key, n in truncation.items()))
    pieces.append('\n  },\n  "relations": ')
    pieces += ("[\n", _json_relations(rows), "\n  ]") if rows else ("[]",)
    if witness is not None:
        pieces.append(',\n  "witness": [\n    ' + ",\n    ".join(map(str, witness)) + "\n  ]")
    if failures is None:
        # written piece by piece: joining them would copy the whole document again
        print(*pieces, "\n}", sep="")
        return
    print(*pieces, ',\n  "failures": [\n', next(failures), sep="", end="")
    sys.stdout.writelines(map(",\n".__add__, failures))
    print("\n  ]\n}")


def _print_series(result, as_json: bool) -> None:
    if as_json:
        _emit_json(series_to_json(result))
    else:
        print(result)


def cmd_fgl_check(args) -> int:
    _check_trunc(args.degree)
    try:
        law = _load_law(args.law, args.degree, IntegerRing())
        if args.law in BUILTIN_LAWS:  # a constant, proved here to the degree asked for
            validate_law(law.series, name=law.name)
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
    if args.n >= 1 << 64:  # [n](x) is formed in full and grows with the digits of n
        raise ValueError(f"n must be below 2^64, got {args.n}")
    law = _load_law(args.law, args.degree, IntegerRing())
    _print_series(law.n_series(args.n), args.json)
    return 0


def cmd_powerop(args) -> int:
    _check_trunc(args.t_trunc, args.z_trunc)
    f = _load_series(args.series)
    coeff_ring = f.ring.coeff_ring
    positions = {i for exps in f.terms for i, e in enumerate(exps) if e}
    if len(positions) > 1:
        raise ValueError("power operation input must be univariate")
    pos = next(iter(positions)) if positions else 0
    law = _load_law(args.fgl, max(args.t_trunc, args.z_trunc), coeff_ring)
    ctx = standard_context(coeff_ring, args.t_trunc, args.z_trunc, law, args.tau)
    if ctx.law.is_additive and ctx.tau != 2:  # z has torsion 2 in the standard ring
        raise ValueError("the transfer scalar is forced to 2 for the additive law with 2-torsion")
    lifted = ctx.ring.from_terms({(exps[pos], 0): c for exps, c in f.terms.items()})
    _print_series(ctx.power_op(lifted), args.json)
    return 0


def cmd_chern(args) -> int:
    _check_trunc(args.t_trunc, args.z_trunc)
    if (args.coeffs is None) == (args.symbolic is None):
        raise ValueError("exactly one of --coeffs and --symbolic is required")
    if args.symbolic is not None:
        _check_trunc(args.symbolic)
        products = _symbolic_products(args.symbolic, args.t_trunc, args.z_trunc)
        if products * (args.symbolic + 48) > _SYMBOLIC_BUDGET:
            raise ValueError(
                f"chern --symbolic {args.symbolic} at t-trunc {args.t_trunc}, z-trunc "
                f"{args.z_trunc} is over the work budget: {products} monomial products "
                f"x (D + 48) > {_SYMBOLIC_BUDGET}"
            )
        candidate = ChernSeries.symbolic(args.symbolic)
        coeff_ring = candidate.coeff_ring
    else:
        values = [parse_int(part) for part in args.coeffs.split(",")]
        coeff_ring = IntegerRing()
        candidate = ChernSeries(values, coeff_ring)
    ctx = standard_context(coeff_ring, args.t_trunc, args.z_trunc)
    _print_series(computation_one(candidate, ctx), args.json)
    return 0


def cmd_obstruct(args) -> int:
    _check_trunc(args.t_trunc, args.z_trunc, args.degree)
    if args.symbolic == args.search:
        raise ValueError("exactly one of --symbolic and --search is required")
    if args.search and args.degree > _SEARCH_DEGREE_MAX:
        raise ValueError(f"search degree {args.degree} exceeds {_SEARCH_DEGREE_MAX} (2^(D-1) rows)")
    ctx = standard_context(IntegerRing(), args.t_trunc, args.z_trunc)
    truncation = {"z": args.z_trunc, "t": args.t_trunc}
    # every label and polynomial text is made of the ring's names, the
    # coefficient names, digits and "^*+": checked once, for the whole table
    alphabet = [*ctx.ring.names(), *coefficient_names(args.degree), "0123456789^*+"]
    if args.json and not _plain(alphabet):
        raise ValueError("the relation texts would need JSON escapes")
    if args.symbolic:
        rows = symbolic_table(args.degree, ctx)
        if args.json:
            _emit_obstruct(truncation, rows)
        else:
            sys.stdout.writelines(f"{label}: {poly}\n" for label, poly in rows)
        return 0
    report = exhaustive_search(args.degree, ctx)
    if args.json:
        if report.witness is not None:
            _emit_obstruct(truncation, report.relations, report.verdict, report.witness)
        else:
            _emit_obstruct(truncation, report.relations, report.verdict,
                           failures=_failure_blocks(report, _JSON_FAILURES))
    elif report.witness is not None:
        print(f"SATISFIABLE: witness [{','.join(map(str, report.witness))}]")
    else:
        total = 1 << (args.degree - 1)
        print(f"UNSATISFIABLE: {total}/{total} candidates fail")
        sys.stdout.writelines(_failure_blocks(report, _TEXT_FAILURES))
    return 1 if report.witness is not None else 0


_DESCRIPTION = (
    "exact arithmetic for truncated series, formal group laws, "
    "quadratic power operations and obstruction certificates"
)
_DEGREE_HELP = f"truncation degree (default: a law file's own, else {BUILTIN_DEGREE})"
_JSON = ("--json", None, False, "print JSON")
_TRUNCS = (
    ("--t-trunc", parse_int, 5, "t truncation"),
    ("--z-trunc", parse_int, 3, "z truncation"),
)
_HELP = ("--help", None, False, "print this help and exit")

# The command table: per command its words, help line and handler, its
# positionals as (name, converter, help) and its options as (flag,
# converter, default, help).  An option whose default is False is a switch
# and takes no value.
COMMANDS = (
    (("fgl", "check"), "validate the law axioms", cmd_fgl_check,
     (("law", str, f"built-in name ({', '.join(BUILTIN_LAWS)}) or JSON file"),),
     (("--degree", parse_int, None, _DEGREE_HELP), _JSON)),
    (("fgl", "nseries"), "print the n-fold formal sum [n](x)", cmd_fgl_nseries,
     (("law", str, "built-in name or JSON file"), ("n", parse_int, "how many summands")),
     (("--degree", parse_int, None, _DEGREE_HELP), _JSON)),
    (("powerop",), "apply the quadratic power operation", cmd_powerop,
     (("series", str, "JSON file with a univariate series"),),
     (("--fgl", str, "additive", "built-in law or JSON file"),
      ("--tau", parse_int, 2, "the coefficient tau"), *_TRUNCS, _JSON)),
    (("chern",), "evaluate r(t+z)r(t)/r(z) for a candidate r", cmd_chern, (),
     (("--coeffs", str, None, "comma-separated integers a1,a2,..."),
      ("--symbolic", parse_int, None, "generic candidate of this degree"), *_TRUNCS, _JSON)),
    (("obstruct",), "relation table or exhaustive certificate", cmd_obstruct, (),
     (("--degree", parse_int, 3, "candidate degree D"), *_TRUNCS,
      ("--symbolic", None, False, "print the relation table over F2[a1..aD]"),
      ("--search", None, False, "try all 2^(D-1) candidates"), _JSON)),
)


def build_parser() -> dict:
    """The command table keyed by command words, each entry ending in its options keyed by flag.

    ``-h`` and ``--help`` are among every command's flags, so a prefix is
    matched against every flag the command takes.
    """
    return {
        words: (*entry, {option[0]: option for option in (*entry[3], _HELP)} | {"-h": _HELP})
        for words, *entry in COMMANDS
    }


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _usage(words, positionals, options) -> str:
    parts = ["fglops", *words, *(name.upper() for name, _, _ in positionals)]
    parts += (
        f"[{flag}]" if default is False else f"[{flag} {_dest(flag).upper()}]"
        for flag, _, default, _ in options
    )
    return " ".join(parts)


def _help(parser: dict, words: tuple) -> str:
    """The help text for ``words``: one command, or every command under a group."""
    if words in parser:
        summary, _, positionals, options, _ = parser[words]
        rows = [(name.upper(), text) for name, _, text in positionals]
        rows += (
            (flag if default is False else f"{flag} {_dest(flag).upper()}",
             text if default in (None, False) else f"{text} (default: {default})")
            for flag, _, default, text in options
        )
        rows.append(("-h, --help", _HELP[3]))
        width = max(len(left) for left, _ in rows)
        lines = [f"usage: {_usage(words, positionals, options)}", "", summary, ""]
        return "\n".join(lines + [f"  {left.ljust(width)}  {text}" for left, text in rows])
    lines = [f"usage: fglops {' '.join(words) + ' ' if words else ''}COMMAND ...", "",
             _DESCRIPTION, "", "commands:"]
    for entry_words, (summary, _, positionals, options, _) in parser.items():
        if entry_words[:len(words)] == words:
            lines += (f"  {_usage(entry_words, positionals, options)}", f"      {summary}")
    return "\n".join([*lines, "", "fglops COMMAND --help lists a command's options"])


def _print_help(text: str) -> int:
    print(text)
    return 0


def _is_option(token: str) -> bool:  # "-", "-3" and "-1,0" are values
    return token[:1] == "-" and token != "-" and not token[1:2].isdecimal()


def parse(parser: dict, argv: list):
    """(handler, args) for ``argv``; (a printer, the help text) when it asks for help.

    The grammar is argparse's: ``--flag value`` or ``--flag=value``; a
    unique prefix names an option, and an exact name wins over a prefix; a
    token that starts with ``-`` is an option unless it is ``-`` or ``-``
    and a digit, and a valued option takes the next token if it is no
    option; ``--`` ends the options; a repeated option keeps its last value.
    Every refusal is a :class:`ValueError` naming the command and the token.
    """
    words = ()
    while words not in parser:
        name = " ".join(("fglops", *words))
        token = argv[len(words)] if len(argv) > len(words) else None
        if token is not None and (token == "-h" or len(token) > 2 and "--help".startswith(token)):
            return _print_help, _help(parser, words)
        if not any(w[:len(words) + 1] == (*words, token) for w in parser):
            choices = sorted({w[len(words)] for w in parser if w[:len(words)] == words})
            got = "no command" if token is None else f"unknown command {token!r}"
            raise ValueError(f"{name}: {got}, expected one of {', '.join(choices)}")
        words += (token,)
    _, handler, positionals, options, flags = parser[words]
    name = " ".join(words)
    values = {_dest(flag): default for flag, _, default, _ in options}
    given = []
    before_last_option = 0  # positionals given before the last option
    ended = False
    rest = iter(argv[len(words):])
    for token in rest:
        if ended or not _is_option(token):
            given.append(token)
            continue
        if token == "--":
            ended = True
            continue
        before_last_option = len(given)
        flag, eq, value = token.partition("=")
        if flag not in flags:
            matches = [f for f in flags if f.startswith(flag)] if flag[:2] == "--" else []
            if len(matches) != 1:
                kind = "ambiguous" if matches else "unknown"
                raise ValueError(f"{name}: {kind} option {token!r}")
            flag = matches[0]
        flag, convert, default, _ = flags[flag]
        if default is False and eq:
            raise ValueError(f"{name}: {flag} takes no value, got {token!r}")
        if flag == "--help":
            return _print_help, _help(parser, words)
        if default is False:
            values[_dest(flag)] = True
            continue
        if not eq:
            value = next(rest, None)
            if value is None or _is_option(value):
                raise ValueError(f"{name}: {flag} needs a value")
        try:
            values[_dest(flag)] = convert(value)
        except ValueError as exc:
            raise ValueError(f"{name}: {flag}: {exc}") from None
    if len(given) != len(positionals):
        wanted = " ".join(p[0].upper() for p in positionals) or "no positional arguments"
        raise ValueError(f"{name}: takes {wanted}, got {given!r}")
    if ended and len(given) == before_last_option:
        # argparse's quirk, kept: a "--" that no positional follows after the
        # last option is left over and refused
        raise ValueError(f"{name}: '--' is left over, no argument follows the last option")
    for (dest, convert, _), token in zip(positionals, given):
        try:
            values[dest] = convert(token)
        except ValueError as exc:
            raise ValueError(f"{name}: {dest.upper()}: {exc}") from None
    return handler, types.SimpleNamespace(**values)


def main(argv=None) -> int:
    if sys.stdout is None:
        print("error: fglops: stdout is closed, nowhere to write", file=sys.stderr)
        return 2
    parser = build_parser()
    try:
        handler, args = parse(parser, sys.argv[1:] if argv is None else list(argv))
        return handler(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    """Run :func:`main` on the process's arguments and exit with its code.

    This is the only code that sets the cyclic garbage collector's policy,
    because it owns the process.  The collector is off for the whole
    request: a request is short, and what it builds it mostly keeps to the
    end, so each pass would walk every object the imports and the request
    made and find next to no garbage.  :func:`main` touches the collector
    not at all, so in-process callers keep normal collection.

    Output still buffered is flushed here.  If the reader has gone (a pipe
    closed at its other end), the request exits 2 with one ``error:`` line,
    and what is left goes to the null device: flushed at interpreter
    shutdown instead, it would fail again and exit 120.  The heap is frozen
    last: interpreter shutdown collects even with the collector off, and
    the objects left alive at exit are then skipped instead of walked just
    before the process ends.
    """
    gc.disable()
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if code != 2:  # main has not said so yet
            print(f"error: {exc}", file=sys.stderr)
            code = 2
    gc.freeze()
    raise SystemExit(code)
