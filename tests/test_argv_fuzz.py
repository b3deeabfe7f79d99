"""Fuzz the command line: any argv must end in exit 0, 1 or 2, never a traceback.

Hypothesis builds argv for every subcommand from its options in any order,
as ``--flag value`` or ``--flag=value``.  Integer options take 0, negative
numbers, values at and above ``FGLOPS_TRUNC_MAX`` and text that is no
number; ``--coeffs`` takes lists with negative, empty and non-numeric
entries; law and series arguments name valid files, malformed files, a
law truncated above the cap and missing files.  The cap is set to 8, which
keeps every accepted request small.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

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
    "nseries": (["fgl", "nseries"], [_LAWS, _NUMBERS], {"--degree": _NUMBERS}, ["--json"]),
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


@st.composite
def _argv(draw):
    words, positionals, options, switches = COMMANDS[draw(st.sampled_from(sorted(COMMANDS)))]
    groups = [[draw(p)] for p in positionals]
    for flag in draw(st.lists(st.sampled_from(sorted(options)), unique=True)):
        value = draw(options[flag])
        groups.append([f"{flag}={value}"] if draw(st.booleans()) else [flag, value])
    groups += [[flag] for flag in draw(st.lists(st.sampled_from(switches), unique=True))]
    return words + [word for group in draw(st.permutations(groups)) for word in group]


@settings(deadline=None, max_examples=300)
@given(_argv())
def test_any_argv_exits_0_1_or_2(argv):
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
                code = main(argv)
        finally:
            os.chdir(here)
            if saved_cap is None:
                del os.environ["FGLOPS_TRUNC_MAX"]
            else:
                os.environ["FGLOPS_TRUNC_MAX"] = saved_cap
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
