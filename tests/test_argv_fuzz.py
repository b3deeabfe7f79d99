"""Fuzz the command line: any argv must end in exit 0, 1 or 2, never a traceback,
and with the exit code and stdout of the argparse front end it replaced.

Hypothesis builds argv for every subcommand from its options in any order,
as ``--flag value`` or ``--flag=value``, a flag often written as a prefix
of itself (``--co``, ``--t``, ``--sea``; some prefixes are ambiguous), one
option sometimes given twice, and sometimes a ``--`` or a stray ``-x``
among the groups.  Integer options take 0, negative numbers, values at and
above ``FGLOPS_TRUNC_MAX`` and text that is no number; ``--coeffs`` takes
lists with negative, empty and non-numeric entries; law and series
arguments name valid files, malformed files, a law truncated above the cap
and missing files.  The cap is set to 8, which keeps every accepted request
small.  The oracle is ``tests/argparse_reference.py``.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import example, given, settings, strategies as st

import argparse_reference
from fglops.cli import main

CAP = 8

_ACCEPTED = st.integers(1, CAP)
_INTS = st.one_of(
    _ACCEPTED,
    st.sampled_from([0, -1, -3, CAP + 1, 64, 65, 10**6]),
    st.integers(-(10**12), 10**12),
)
_NUMBERS = st.one_of(
    _ACCEPTED.map(str),
    _INTS.map(str),
    st.sampled_from(["", "x", "3.5", "1e3", "0x10", " 4", "-", "--json"]),
)
# n of fgl nseries: "-0" is the one number that starts with "-" and is accepted
_COUNTS = _NUMBERS | st.sampled_from(["-0", "+0", "-3"])
_COEFFS = _NUMBERS | st.lists(_INTS.map(str) | st.sampled_from(["", "a", "-", "1.0"]),
                              min_size=1, max_size=6).map(",".join)


def _series(names, trunc, terms):
    return {
        "ring": {"coeff": "Z", "vars": [{"name": n, "trunc": trunc} for n in names]},
        "terms": [{"exp": list(e), "coef": str(c)} for e, c in terms],
    }


_MULTIPLICATIVE = [((1, 0), 1), ((0, 1), 1), ((1, 1), 1)]
FILES = {
    "law.json": _series("xy", 6, _MULTIPLICATIVE),
    "high_law.json": _series("xy", CAP + 4, _MULTIPLICATIVE),
    "bad_law.json": _series("xy", 5, [((1, 0), 1), ((0, 1), 1), ((2, 0), 1)]),
    "series.json": _series("t", 5, [((0,), 1), ((1,), -3), ((2,), 1)]),
    "bivariate.json": _series("tz", 5, [((1, 0), 1), ((0, 1), 1)]),
}
_FILES = st.sampled_from(sorted(FILES) + ["broken.json", "missing.json", ""])
_LAWS = st.sampled_from(["additive", "multiplicative", "formal"]) | _FILES

# per subcommand: leading words, positional arguments, valued options, switches
COMMANDS = {
    "check": (["fgl", "check"], [_LAWS], {"--degree": _NUMBERS}, ["--json"]),
    "nseries": (["fgl", "nseries"], [_LAWS, _COUNTS], {"--degree": _NUMBERS}, ["--json"]),
    "powerop": (
        ["powerop"],
        [_FILES],
        {"--fgl": _LAWS, "--tau": _NUMBERS, "--t-trunc": _NUMBERS, "--z-trunc": _NUMBERS},
        ["--json"],
    ),
    "chern": (
        ["chern"],
        [],
        {"--coeffs": _COEFFS, "--symbolic": _NUMBERS, "--t-trunc": _NUMBERS,
         "--z-trunc": _NUMBERS},
        ["--json"],
    ),
    "obstruct": (
        ["obstruct"],
        [],
        {"--degree": _NUMBERS, "--t-trunc": _NUMBERS, "--z-trunc": _NUMBERS},
        ["--json", "--symbolic", "--search"],
    ),
}


def _spelled(draw, flag):
    """``flag``, or one of its prefixes of three characters or more."""
    if draw(st.booleans()):
        return flag
    return draw(st.sampled_from([flag[:k] for k in range(3, len(flag))]))


@st.composite
def _argv(draw):
    words, positionals, options, switches = COMMANDS[draw(st.sampled_from(sorted(COMMANDS)))]
    groups = [[draw(p)] for p in positionals]
    flags = draw(st.lists(st.sampled_from(sorted(options)), unique=True))
    if flags and draw(st.booleans()):
        flags.append(draw(st.sampled_from(flags)))  # given twice: the last value counts
    for flag in flags:
        value, flag = draw(options[flag]), _spelled(draw, flag)
        groups.append([f"{flag}={value}"] if draw(st.booleans()) else [flag, value])
    groups += [[_spelled(draw, flag)]
               for flag in draw(st.lists(st.sampled_from(switches), unique=True))]
    groups += [[token] for token in draw(st.lists(st.sampled_from(["--", "-x"]), max_size=1))]
    return words + [word for group in draw(st.permutations(groups)) for word in group]


def _run(cli_main, argv):
    """(exit code, stdout, stderr) of ``cli_main(argv)`` among the fuzz files, at the cap."""
    saved_cap, here = os.environ.get("FGLOPS_TRUNC_MAX"), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, obj in FILES.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as handle:
                json.dump(obj, handle)
        with open(os.path.join(tmp, "broken.json"), "w", encoding="utf-8") as handle:
            handle.write('{"ring": ')
        os.environ["FGLOPS_TRUNC_MAX"] = str(CAP)
        os.chdir(tmp)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(argv)
        finally:
            os.chdir(here)
            if saved_cap is None:
                del os.environ["FGLOPS_TRUNC_MAX"]
            else:
                os.environ["FGLOPS_TRUNC_MAX"] = saved_cap
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None, max_examples=300)
@given(_argv())
def test_any_argv_exits_0_1_or_2(argv):
    code, _, err = _run(main, argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv


@settings(deadline=None, max_examples=400)
@given(_argv())
# rare in the draws: a "-" and digit positional that is accepted, a value
# that starts with "-", an option where a value belongs, a "--" that ends
# the options, the last of two values
@example(["fgl", "nseries", "additive", "-0"])
@example(["chern", "--co", "-1,0", "--t", "3", "--json"])
@example(["chern", "--coeffs", "--json", "--c", "1"])
@example(["fgl", "check", "--json", "--", "law.json"])
@example(["obstruct", "--sea", "--degree", "9", "--deg=2"])
def test_argv_gives_the_argparse_answer(argv):
    code, out, err = _run(main, argv)
    assert (code, out) == _run(argparse_reference.main, argv)[:2], (argv, err)
