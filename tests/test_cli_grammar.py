"""The command-line grammar: help, and the refusals of the option parser.

Help goes to stdout with exit 0.  A refusal exits 2 with empty stdout and
one ``error:`` line on stderr that names the command and the token.
"""

import contextlib
import io
import types

import pytest

from fglops.cli import COMMANDS, main


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _flags(words):
    """Every option flag of the commands under ``words``."""
    return [option[0] for entry in COMMANDS if entry[0][:len(words)] == words for option in entry[4]]


@pytest.mark.parametrize("argv, words", [
    (["-h"], ()),
    (["fgl", "-h"], ("fgl",)),
    (["obstruct", "--help"], ("obstruct",)),
    (["chern", "--he"], ("chern",)),
    (["fgl", "nseries", "additive", "--h"], ("fgl", "nseries")),
])
def test_help_names_every_option(argv, words):
    code, out, err = _run(argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: fglops")
    flags = _flags(words)
    assert flags and all(flag in out for flag in flags), [f for f in flags if f not in out]
    assert "--help" in out


@pytest.mark.parametrize("argv, named", [
    (["frobnicate"], ["fglops", "'frobnicate'"]),
    ([], ["fglops"]),
    (["fgl"], ["fglops fgl"]),
    (["fgl", "verify", "additive"], ["fglops fgl", "'verify'"]),
    (["obstruct", "--search", "--bogus"], ["obstruct", "'--bogus'"]),
    (["obstruct", "--s"], ["obstruct", "'--s'"]),
    (["powerop", "t.json", "--t", "3"], ["powerop", "'--t'"]),
    (["obstruct", "--search", "--degree"], ["obstruct", "--degree"]),
    (["obstruct", "--search", "--json=1"], ["obstruct", "'--json=1'"]),
    (["obstruct", "--search", "--json="], ["obstruct", "'--json='"]),
    (["fgl", "check"], ["fgl check", "LAW"]),
    (["fgl", "nseries", "additive"], ["fgl nseries", "LAW N"]),
    (["fgl", "check", "additive", "extra"], ["fgl check", "'extra'"]),
    (["obstruct", "--search", "3"], ["obstruct", "'3'"]),
    (["obstruct", "--search", "--degree", "1_0"], ["obstruct", "--degree", "'1_0'"]),
    (["fgl", "nseries", "additive", "1_0"], ["fgl nseries", "'1_0'"]),
    (["obstruct", "--search", "-x"], ["obstruct", "'-x'"]),
    (["obstruct", "-hx"], ["obstruct", "'-hx'"]),
    (["obstruct", "--search", "--"], ["obstruct", "'--'"]),
    (["--json", "obstruct", "--search"], ["fglops", "'--json'"]),
])
def test_refusal_is_one_error_line(argv, named):
    code, out, err = _run(argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert all(text in err for text in named), err


def test_options_as_argparse_read_them():
    search = ["obstruct", "--search", "--degree", "3"]
    expected = _run(search)
    assert expected[0] == 0 and expected[1].startswith("UNSATISFIABLE: 4/4")
    for argv in (
        ["obstruct", "--sea", "--deg", "3"],              # unique prefixes
        ["obstruct", "--search", "--degree=3"],           # the value after "="
        ["obstruct", "--search", "--deg=3"],
        ["obstruct", "--degree", "7", "--search", "--degree", "3"],  # the last value wins
        ["obstruct", "--search", "--search", "--degree", "3"],
        ["obstruct", "--search", "--degree", " 3 "],
    ):
        assert _run(argv) == expected, argv
    # a valued option takes the next token as it is, even one starting with "-"
    assert _run(["chern", "--coeffs", "-1,0"])[:2] == _run(["chern", "--coeffs=-1,0"])[:2]
    assert _run(["chern", "--co", "-1,0"])[0] == 0
    assert _run(["chern", "--coeffs", "--json"])[:2] == (2, "")
    # "-" and a digit is a positional: the command refuses the number, not the parser
    code, out, err = _run(["fgl", "nseries", "additive", "-3"])
    assert (code, out, err) == (2, "", "error: n must be non-negative, got -3\n")
    assert _run(["fgl", "nseries", "additive", "-0"])[:2] == (0, "0\n")
    # "--" ends the options
    assert _run(["fgl", "check", "--", "additive"])[:2] == (0, "valid to degree 20\n")
    assert _run(["fgl", "check", "additive", "--"])[:2] == (0, "valid to degree 20\n")
    assert _run(["fgl", "check", "--", "--json"])[0] == 2  # a law file named --json


def test_exact_name_wins_over_prefix(monkeypatch):
    # no flag of the real table is a prefix of another, so try one where one is
    from fglops import cli
    from fglops.coefficients import parse_int

    options = (("--x", parse_int, 0, ""), ("--xy", parse_int, 0, ""), ("--on", None, False, ""))
    monkeypatch.setattr(cli, "COMMANDS", ((("cmd",), "", vars, (), options),))
    parser = cli.build_parser()
    assert cli.parse(parser, ["cmd", "--x", "1"]) == (vars, types.SimpleNamespace(x=1, xy=0, on=False))
    assert cli.parse(parser, ["cmd", "--x=1", "--xy", "2", "--o"])[1].__dict__ == {"x": 1, "xy": 2, "on": True}
    with pytest.raises(ValueError, match="ambiguous option '--=1'"):
        cli.parse(parser, ["cmd", "--=1"])
