import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from fglops import (
    ChernSeries,
    IntegerRing,
    computation_one,
    exhaustive_search,
    series_from_json,
    series_to_json,
    standard_context,
    standard_ring,
)
from fglops.cli import _symbolic_products, main
from fglops.obstruction import symbolic_table
from conftest import dense_law_terms, lorentz_terms

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _series_file(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _univariate(terms):
    return {
        "ring": {"coeff": "Z", "vars": [{"name": "t", "trunc": 5}]},
        "terms": [{"exp": [e], "coef": str(c)} for e, c in terms],
    }


def _law_file(tmp_path, terms, trunc=20, names=("x", "y")):
    obj = {
        "ring": {
            "coeff": "Z",
            "vars": [{"name": name, "trunc": trunc} for name in names],
        },
        "terms": [{"exp": list(e), "coef": str(c)} for e, c in terms],
    }
    return _series_file(tmp_path, "law.json", obj)


def test_fgl_check_builtin(capsys):
    assert main(["fgl", "check", "multiplicative"]) == 0
    assert capsys.readouterr().out.strip() == "valid to degree 20"


def test_fgl_check_violation(tmp_path, capsys):
    path = _law_file(tmp_path, [((1, 0), 1), ((0, 1), 1), ((2, 0), 1)])
    assert main(["fgl", "check", path]) == 1
    assert capsys.readouterr().out.strip() == "unitality fails at x^2"


@pytest.mark.parametrize("degree", (4, 6, 8, 20))
def test_fgl_check_lorentz_law(tmp_path, capsys, degree):
    path = _law_file(tmp_path, lorentz_terms(degree).items(), trunc=degree)
    assert main(["fgl", "check", path]) == 0
    assert capsys.readouterr().out.strip() == f"valid to degree {degree}"


@pytest.mark.parametrize("names", [("w", "w_"), ("w_", "w")])
def test_fgl_check_law_in_w_and_w_(tmp_path, capsys, names):
    # the third variable of the associativity check is named w__ here
    path = _law_file(tmp_path, [((1, 0), 1), ((0, 1), 1)], names=names)
    assert main(["fgl", "check", path]) == 0
    assert capsys.readouterr().out.strip() == "valid to degree 20"
    path = _law_file(tmp_path, [((1, 0), 1), ((0, 1), 1), ((2, 2), 1)], trunc=8, names=names)
    assert main(["fgl", "check", path]) == 1
    assert capsys.readouterr().out.strip() == f"associativity fails at {names[0]}^2*{names[1]}*w__"


def test_fgl_check_missing_file(capsys):
    assert main(["fgl", "check", "/no/such/file.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_fgl_check_json(capsys):
    assert main(["fgl", "check", "additive", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"valid": True, "degree": 20}


MULTIPLICATIVE = [((1, 0), 1), ((0, 1), 1), ((1, 1), 1)]


def _out(capsys):
    return capsys.readouterr().out.strip()


def test_law_file_default_degree_is_its_own(tmp_path, capsys):
    path = _law_file(tmp_path, MULTIPLICATIVE, trunc=5)
    assert main(["fgl", "check", path]) == 0
    assert _out(capsys) == "valid to degree 5"
    assert main(["fgl", "nseries", path, "3"]) == 0
    assert _out(capsys) == "3*x + 3*x^2 + x^3"
    # a built-in law still defaults to 20
    assert main(["fgl", "check", "additive"]) == 0
    assert _out(capsys) == "valid to degree 20"


def test_law_file_truncated_to_requested_degree(tmp_path, capsys):
    path = _law_file(tmp_path, MULTIPLICATIVE, trunc=5)
    assert main(["fgl", "check", path, "--degree", "3"]) == 0
    assert _out(capsys) == "valid to degree 3"
    assert main(["fgl", "check", path, "--degree", "5", "--json"]) == 0
    assert json.loads(_out(capsys)) == {"valid": True, "degree": 5}
    assert main(["fgl", "nseries", path, "3", "--degree", "3"]) == 0
    assert _out(capsys) == "3*x + 3*x^2"
    assert main(["fgl", "nseries", "multiplicative", "3", "--degree", "3"]) == 0
    assert _out(capsys) == "3*x + 3*x^2"
    # the axioms are checked to the requested degree: x^2*y^2 breaks
    # associativity at degree 5 and is truncated away at degree 2
    bad = _law_file(tmp_path, [((1, 0), 1), ((0, 1), 1), ((2, 2), 1)], trunc=5)
    assert main(["fgl", "check", bad]) == 1
    assert _out(capsys).startswith("associativity fails at ")
    assert main(["fgl", "check", bad, "--degree", "2"]) == 0
    assert _out(capsys) == "valid to degree 2"


def test_law_file_degree_above_its_truncation(tmp_path, capsys):
    path = _law_file(tmp_path, MULTIPLICATIVE, trunc=5)
    for argv in (["fgl", "check", path, "--degree", "8"],
                 ["fgl", "check", path, "--degree", "6", "--json"],
                 ["fgl", "nseries", path, "3", "--degree", "12"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        degree = argv[argv.index("--degree") + 1]
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert f"degree {degree} exceeds" in captured.err
        assert "truncation degree 5" in captured.err


def test_powerop_law_file_truncation(tmp_path, capsys):
    series = _series_file(tmp_path, "f.json", _univariate([(0, 1), (1, 3), (2, 1)]))
    law = _law_file(tmp_path, MULTIPLICATIVE, trunc=5)
    for truncs in ([], ["--t-trunc", "4", "--z-trunc", "5"]):
        assert main(["powerop", series, "--fgl", "multiplicative", *truncs]) == 0
        want = _out(capsys)
        assert main(["powerop", series, "--fgl", law, *truncs]) == 0
        assert _out(capsys) == want
    # the context reads the law below max(t-trunc, z-trunc)
    for truncs in (["--t-trunc", "6"], ["--z-trunc", "7"]):
        assert main(["powerop", series, "--fgl", law, *truncs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: degree ")
        assert "truncation degree 5" in captured.err


def test_law_file_truncation_is_capped(tmp_path, monkeypatch, capsys):
    # without --degree a law file is worked to its own truncation, so that
    # truncation is held to FGLOPS_TRUNC_MAX like any requested degree
    path = _law_file(tmp_path, MULTIPLICATIVE, trunc=100)
    for argv in (["fgl", "check", path], ["fgl", "check", path, "--json"],
                 ["fgl", "nseries", path, "1000"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: degree 100 exceeds FGLOPS_TRUNC_MAX=64\n"
    monkeypatch.setenv("FGLOPS_TRUNC_MAX", "8")
    path = _law_file(tmp_path, MULTIPLICATIVE, trunc=10)
    assert main(["fgl", "nseries", path, "3"]) == 2
    assert "degree 10 exceeds FGLOPS_TRUNC_MAX=8" in capsys.readouterr().err
    # with --degree under the cap the file is truncated first and the command runs
    assert main(["fgl", "check", path, "--degree", "8"]) == 0
    assert _out(capsys) == "valid to degree 8"
    assert main(["fgl", "nseries", path, "3", "--degree", "4"]) == 0
    assert _out(capsys) == "3*x + 3*x^2 + x^3"
    assert main(["fgl", "nseries", path, "3", "--degree", "9"]) == 2
    assert "degree 9 exceeds FGLOPS_TRUNC_MAX=8" in capsys.readouterr().err


def test_nseries(capsys):
    assert main(["fgl", "nseries", "additive", "2"]) == 0
    assert capsys.readouterr().out.strip() == "2*x"
    assert main(["fgl", "nseries", "multiplicative", "2"]) == 0
    assert capsys.readouterr().out.strip() == "2*x + x^2"
    assert main(["fgl", "nseries", "multiplicative", "1"]) == 0
    assert capsys.readouterr().out.strip() == "x"


def test_nseries_bad_n(capsys):
    assert main(["fgl", "nseries", "additive", "-3"]) == 2
    assert main(["fgl", "nseries", "additive", "x"]) == 2


def test_nseries_n_is_below_2_to_the_64(capsys):
    # [n](x) is formed in full, so n is bounded before any series work
    assert main(["fgl", "nseries", "additive", str(2**64)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: n must be below 2^64, got {2**64}\n"
    assert main(["fgl", "nseries", "additive", str(2**64 - 1)]) == 0
    assert capsys.readouterr().out == f"{2**64 - 1}*x\n"


@pytest.mark.parametrize(
    "where", ["--degree", "--tau", "--coeffs", "Z", "Z/4", "Z/n", "Z[a]-factor", "Z[a]-exponent"]
)
def test_over_long_integer_has_its_own_message(tmp_path, capsys, where):
    # past the interpreter's 4300 digits, parse_int refuses with its own words
    literal = "7" * 5000
    if where == "--degree":
        argv = ["obstruct", "--symbolic", "--degree", literal]
    elif where == "--tau":
        argv = ["powerop", _series_file(tmp_path, "t.json", _univariate([(1, 1)])), "--tau", literal]
    elif where == "--coeffs":
        argv = ["chern", "--coeffs", f"1,{literal}"]
    else:
        obj = _univariate([(1, 1)])
        obj["terms"].append({"exp": [2], "coef": literal})
        if where == "Z/4":
            obj["ring"]["coeff"] = "Z/4"
        elif where == "Z/n":
            obj["ring"]["coeff"] = f"Z/{literal}"
        elif where.startswith("Z[a]"):
            obj["ring"]["coeff"] = {"poly": {"base": "Z", "vars": ["a"]}}
            obj["terms"][-1]["coef"] = f"{literal}*a" if where == "Z[a]-factor" else f"a^{literal}"
        argv = ["powerop", _series_file(tmp_path, "f.json", obj)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "5000 digits" in captured.err and "7777" not in captured.err
    assert "set_int_max_str_digits" not in captured.err


@pytest.mark.parametrize("as_json", [False, True])
def test_over_long_output_coefficient_has_its_own_message(capsys, as_json):
    # inputs are held to the interpreter's 4300 digits, but their products are
    # not: printing refuses with the engine's words, before anything is written
    argv = ["chern", "--coeffs", "1," + "9" * 3000, "--z-trunc", "2"]
    argv += ["--json"] if as_json else []
    assert main([*argv, "--t-trunc", "3"]) == 0
    assert "9" * 3000 in capsys.readouterr().out
    assert main([*argv, "--t-trunc", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: coefficient of 6000 digits is too long to print\n"
    assert "set_int_max_str_digits" not in captured.err


@pytest.mark.parametrize("command", [["powerop"], ["fgl", "check"]])
def test_over_long_json_number_has_its_own_message(tmp_path, capsys, command):
    # a JSON number in a series or law file goes through parse_int too
    path = tmp_path / "f.json"
    text = json.dumps(_univariate([(1, 1)]))
    path.write_text(text.replace('"trunc": 5', '"trunc": ' + "9" * 5000))
    assert main([*command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: integer literal of 5000 digits is too long\n"
    assert "set_int_max_str_digits" not in captured.err


def test_powerop_generator(tmp_path, capsys):
    path = _series_file(tmp_path, "t.json", _univariate([(1, 1)]))
    assert main(["powerop", path]) == 0
    assert capsys.readouterr().out.strip() == "t^2 + t*z"


def test_powerop_constant(tmp_path, capsys):
    path = _series_file(tmp_path, "c.json", _univariate([(0, 3)]))
    assert main(["powerop", path]) == 0
    assert capsys.readouterr().out.strip() == "9"


def test_powerop_sum_rule(tmp_path, capsys):
    path = _series_file(tmp_path, "f.json", _univariate([(0, 1), (1, 1)]))
    assert main(["powerop", path]) == 0
    assert capsys.readouterr().out.strip() == "1 + 2*t + t^2 + t*z"


def test_powerop_multiplicative_law(tmp_path, capsys):
    path = _series_file(tmp_path, "t.json", _univariate([(1, 1)]))
    assert main(["powerop", path, "--fgl", "multiplicative"]) == 0
    assert capsys.readouterr().out.strip() == "t^2 + t*z + t^2*z"


def test_nseries_json(capsys):
    assert main(["fgl", "nseries", "multiplicative", "2", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert series_to_json(series_from_json(obj)) == obj
    assert obj["terms"] == [{"exp": [1], "coef": "2"}, {"exp": [2], "coef": "1"}]


@pytest.mark.parametrize("coef", ["a+", "-", "+", "a+-b", "1_0", "--1"])
def test_malformed_coefficient_literal_exits_2(tmp_path, capsys, coef):
    obj = _univariate([(1, 1)])
    if "a" in coef:
        obj["ring"]["coeff"] = {"poly": {"base": "Z", "vars": ["a", "b"]}}
    obj["terms"].append({"exp": [2], "coef": coef})
    assert main(["powerop", _series_file(tmp_path, "f.json", obj)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: bad ")


def test_malformed_series_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"ring": {"coeff": "Z"}, "terms": []}')
    assert main(["powerop", str(path)]) == 2
    path.write_text("not json at all")
    assert main(["powerop", str(path)]) == 2
    path.write_text('{"ring": {"coeff": "Z", "vars": [{"name": "t"}]}, "terms": []}')
    assert main(["powerop", str(path)]) == 2


@pytest.mark.parametrize(
    "spec",
    [{"base": "Z/2"}, {"vars": ["a"]}, {"base": "Z/2", "vars": 5}, 5],
    ids=["no-vars", "no-base", "vars-not-list", "not-mapping"],
)
def test_malformed_coefficient_ring(tmp_path, capsys, spec):
    obj = _univariate([(1, 1)])
    obj["ring"]["coeff"] = {"poly": spec}
    path = _series_file(tmp_path, "poly.json", obj)
    assert main(["powerop", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: polynomial ring descriptor")


def test_powerop_rejects_multivariate(tmp_path, capsys):
    obj = {
        "ring": {
            "coeff": "Z",
            "vars": [{"name": "t", "trunc": 5}, {"name": "z", "trunc": 3, "torsion": 2}],
        },
        "terms": [{"exp": [1, 1], "coef": "1"}],
    }
    path = _series_file(tmp_path, "tz.json", obj)
    assert main(["powerop", path]) == 2


def test_powerop_json_round_trip(tmp_path, capsys):
    path = _series_file(tmp_path, "t.json", _univariate([(1, 1)]))
    assert main(["powerop", path, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert series_to_json(series_from_json(obj)) == obj


def test_chern_numeric(capsys):
    assert main(["chern", "--coeffs", "1,0,0"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "1 + 2*t + t^2 + t*z + t^2*z + t*z^2 + t^2*z^2"


def test_chern_negative_leading_coefficient(capsys):
    assert main(["chern", "--coeffs=-1,0,0"]) == 0
    assert capsys.readouterr().out.strip()


def _run(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_chern_negative_coeffs_space_form(extra):
    # `--coeffs -1,0` starts with "-" but is the option's value, as with `=`
    spaced = _run(["chern", "--coeffs", "-1,0", *extra])
    joined = _run(["chern", "--coeffs=-1,0", *extra])
    assert spaced[0] == joined[0] == 0
    assert spaced[1] == joined[1] and spaced[1]
    longer = _run(["chern", "--coeffs", "-1,0,-3", *extra])
    assert longer[:2] == _run(["chern", "--coeffs=-1,0,-3", *extra])[:2]
    assert _run(["chern", "--co", "-1,0", *extra])[:2] == joined[:2]
    # an option after --coeffs is still not taken for its value
    assert _run(["chern", "--coeffs", "--json"])[:2] == (2, "")


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.one_of(st.sampled_from([-1, 0, 1]), st.integers(min_value=-10**6, max_value=10**6)),
        min_size=1,
        max_size=6,
    )
)
def test_chern_coeffs_fuzz(values):
    text = ",".join(map(str, values))
    spaced = _run(["chern", "--coeffs", text])
    joined = _run(["chern", f"--coeffs={text}"])
    assert spaced[0] in (0, 1, 2)
    assert spaced[:2] == joined[:2]
    assert "Traceback" not in spaced[2] + joined[2]


def test_chern_flag_validation(capsys):
    assert main(["chern"]) == 2
    assert main(["chern", "--coeffs", "1,0", "--symbolic", "2"]) == 2
    assert main(["chern", "--coeffs", "2,1"]) == 2


def test_obstruct_search(capsys):
    assert main(["obstruct", "--degree", "3", "--search"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "UNSATISFIABLE: 4/4 candidates fail"
    assert "[1,0,0] fails at z*t^2" in out


def test_obstruct_symbolic(capsys):
    assert main(["obstruct", "--degree", "3", "--symbolic"]) == 0
    out = capsys.readouterr().out
    assert "z^2*t: a1*a2+a3+a1" in out
    assert "z^2*t^2: a1*a3+a1*a2" in out


def test_obstruct_mod_z(capsys):
    assert main(["obstruct", "--degree", "3", "--z-trunc", "1", "--search"]) == 1
    assert capsys.readouterr().out.startswith("SATISFIABLE")


def test_obstruct_flag_validation(capsys):
    assert main(["obstruct", "--degree", "3"]) == 2
    assert main(["obstruct", "--degree", "0", "--search"]) == 2
    assert main(["obstruct", "--degree", "0", "--symbolic"]) == 2
    assert main(["chern", "--symbolic", "0"]) == 2


def test_obstruct_json(capsys):
    assert main(["obstruct", "--degree", "4", "--search", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["verdict"] == "unsatisfiable"
    assert len(obj["failures"]) == 8


def test_search_degree_bound(capsys):
    for argv in (["obstruct", "--degree", "17", "--search"],
                 ["obstruct", "--degree", "17", "--search", "--json", "--z-trunc", "1"],
                 ["obstruct", "--degree", "64", "--search"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: search degree ")
        assert "exceeds 16" in captured.err
    # the bound itself is accepted (a satisfiable search prints no rows), and
    # the relation table is not bounded by it
    assert main(["obstruct", "--degree", "16", "--search", "--z-trunc", "1"]) == 1
    assert capsys.readouterr().out.startswith("SATISFIABLE: witness [1,0,")
    assert main(["obstruct", "--degree", "17", "--symbolic", "--t-trunc", "3", "--z-trunc", "2"]) == 0


def test_trunc_cap(monkeypatch, capsys):
    monkeypatch.setenv("FGLOPS_TRUNC_MAX", "4")
    assert main(["obstruct", "--degree", "3", "--search"]) == 2
    assert "FGLOPS_TRUNC_MAX" in capsys.readouterr().err
    # candidate degrees are capped too, with both truncations under the cap
    degree_over_cap = [
        ["obstruct", "--degree", "5", "--t-trunc", "4", "--search"],
        ["obstruct", "--degree", "5", "--t-trunc", "4", "--symbolic"],
        ["chern", "--symbolic", "5", "--t-trunc", "4"],
    ]
    for argv in degree_over_cap:
        assert main(argv) == 2, argv
        assert "degree 5 exceeds FGLOPS_TRUNC_MAX=4" in capsys.readouterr().err
    monkeypatch.delenv("FGLOPS_TRUNC_MAX")
    assert main(["obstruct", "--degree", "3", "--search"]) == 0
    for argv in degree_over_cap:
        assert main(argv) == 0, argv


@pytest.mark.parametrize("value", ["abc", "1e3", "0", "-3", " 1_0", "1_0", "\uff18", "\u0668"])
def test_trunc_cap_must_parse(monkeypatch, capsys, value):
    monkeypatch.setenv("FGLOPS_TRUNC_MAX", value)
    assert main(["fgl", "check", "additive"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: FGLOPS_TRUNC_MAX must be a positive integer, got {value!r}\n"


def _search_points():
    """(t, z, D) for the search writers: both verdicts, D = 1, w = 1 and w = D, up to D = 16."""
    rng = random.Random(12)
    points = [(5, 3, 1), (5, 3, 12), (2, 3, 8), (2, 3, 6), (5, 1, 4), (1, 1, 3)]
    points += [(rng.randint(1, 9), rng.randint(1, 5), rng.randint(1, 12)) for _ in range(10)]
    # at the degree cap: 2^(D - w) rows per prefix block at (5, 3); w = D at
    # (17, 9) and on the z-trunc 2 line, satisfiable at (17, 2); w = 1 at (5, 1)
    points += [(5, 3, 16), (9, 5, 13), (17, 9, 16), (33, 2, 14), (17, 2, 15), (5, 1, 16)]
    return points


def _search_argv(t, z, degree, *extra):
    return ["obstruct", "--search", *extra, "--t-trunc", str(t), "--z-trunc", str(z),
            "--degree", str(degree)]


def test_search_json_matches_json_dumps(capsys):
    # the writer fills the relation rows from a template and writes the failure
    # rows in prefix blocks; it must give the bytes of json.dumps(indent=2) on
    # unsatisfiable points and on satisfiable ones, where the witness follows
    # the relation rows
    verdicts, witness_after_rows = set(), False
    for t, z, degree in _search_points():
        argv = _search_argv(t, z, degree, "--json")
        code = main(argv)
        report = exhaustive_search(degree, standard_context(IntegerRing(), t, z)).to_json()
        assert capsys.readouterr().out == json.dumps(report, indent=2) + "\n", argv
        assert code == (1 if report["verdict"] == "satisfiable" else 0)
        verdicts.add(report["verdict"])
        if report["verdict"] == "satisfiable" and report["relations"]:
            assert list(report)[-2:] == ["relations", "witness"]
            witness_after_rows = True
    assert verdicts == {"satisfiable", "unsatisfiable"}
    assert witness_after_rows


def _search_text(report: dict) -> str:
    """The text listing of a search report, rendered line by line from its JSON form."""
    if report["verdict"] == "satisfiable":
        return f"SATISFIABLE: witness [{','.join(map(str, report['witness']))}]\n"
    total = len(report["failures"])
    lines = [f"UNSATISFIABLE: {total}/{total} candidates fail"]
    for row in report["failures"]:
        lines.append(f"  [{','.join(map(str, row['candidate']))}] fails at {row['monomial']}")
    return "".join(line + "\n" for line in lines)


def test_search_text_matches_json_rendering(capsys):
    verdicts = set()
    for t, z, degree in _search_points():
        argv = _search_argv(t, z, degree)
        code = main(argv)
        report = exhaustive_search(degree, standard_context(IntegerRing(), t, z)).to_json()
        assert capsys.readouterr().out == _search_text(report), argv
        assert code == (1 if report["verdict"] == "satisfiable" else 0)
        verdicts.add(report["verdict"])
    assert verdicts == {"satisfiable", "unsatisfiable"}


def test_symbolic_json_matches_json_dumps(capsys):
    # the relation rows come from a template; z-trunc 1 gives the empty table,
    # and the four points of the benchmark's relations workload are included
    rng = random.Random(14)
    points = [(5, 1, 3), (1, 1, 1), (5, 3, 3)]
    points += [(17, 9, 16), (33, 17, 32), (49, 25, 48), (63, 31, 62)]
    points += [(rng.randint(1, 12), rng.randint(1, 8), rng.randint(1, 10)) for _ in range(12)]
    empty = False
    for t, z, degree in points:
        argv = ["obstruct", "--symbolic", "--json", "--t-trunc", str(t), "--z-trunc", str(z),
                "--degree", str(degree)]
        assert main(argv) == 0, argv
        ctx = standard_context(IntegerRing(), t, z)
        rows = symbolic_table(degree, ctx)
        table = {
            "truncation": {"z": z, "t": t},
            "relations": [{"monomial": label, "poly": poly} for label, poly in rows],
        }
        out = capsys.readouterr().out
        assert out == json.dumps(table, indent=2) + "\n", argv
        empty = empty or '"relations": []' in out
    assert empty


@pytest.mark.parametrize(
    "argv",
    [
        ["obstruct", "--symbolic", "--degree", "1_0"],
        ["obstruct", "--search", "--degree", "\u0663"],
        ["obstruct", "--search", "--t-trunc", "\uff15"],
        ["obstruct", "--search", "--z-trunc", "3_0"],
        ["fgl", "nseries", "additive", "\uff13"],
        ["fgl", "nseries", "additive", "1_0"],
        ["fgl", "check", "additive", "--degree", "2_0"],
        ["powerop", "t.json", "--tau", "0_2"],
        ["powerop", "t.json", "--t-trunc", "\u0665"],
        ["chern", "--symbolic", "1_0"],
        ["chern", "--coeffs=1,1_0"],
        ["chern", "--coeffs=1,\uff12"],
        ["chern", "--coeffs", "-\u0661,0"],
    ],
)
def test_integers_take_one_grammar(tmp_path, monkeypatch, capsys, argv):
    # optional sign and ASCII digits: no "_" separators and no other digits
    monkeypatch.chdir(tmp_path)
    _series_file(tmp_path, "t.json", _univariate([(1, 1)]))
    assert main(argv) == 2, argv
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:"), captured.err


@pytest.mark.parametrize(
    "coeff", ["Z/1_0", "Z/ 7", "Z/7 ", "Z/+7", "Z/\u0667", "Z/\uff17", "Z/"]
)
def test_modulus_descriptor_takes_ascii_digits(tmp_path, capsys, coeff):
    obj = _univariate([(1, 3)])
    obj["ring"]["coeff"] = coeff
    assert main(["powerop", _series_file(tmp_path, "f.json", obj)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    obj["ring"]["coeff"] = "Z/10"
    assert main(["powerop", _series_file(tmp_path, "f.json", obj)]) == 0
    assert capsys.readouterr().out == "9*t^2 + t*z\n"


def test_integers_keep_sign_and_whitespace(capsys):
    assert main(["obstruct", "--search", "--degree", " +3 "]) == 0
    assert capsys.readouterr().out.startswith("UNSATISFIABLE: 4/4")
    assert main(["chern", "--coeffs=1, +2", "--t-trunc", "3", "--z-trunc", "2"]) == 0
    assert main(["chern", "--coeffs=1,2", "--t-trunc", "3", "--z-trunc", "2"]) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert first == second


def test_outputs_deterministic(capsys):
    main(["obstruct", "--degree", "3", "--search", "--json"])
    first = capsys.readouterr().out
    main(["obstruct", "--degree", "3", "--search", "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_module_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "fglops", "fgl", "check", "additive"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "valid to degree 20"


@pytest.mark.parametrize("degree", [32, 64])
def test_law_file_over_budget_exits_2_at_once(tmp_path, capsys, degree):
    # inside FGLOPS_TRUNC_MAX, but checking this law ran 11 s at degree 32
    # and 285 s at degree 64
    law = _law_file(tmp_path, dense_law_terms(degree).items(), trunc=degree)
    series = _series_file(tmp_path, "f.json", _univariate([(1, 1)]))
    for argv in (["fgl", "check", law], ["fgl", "nseries", law, "3"],
                 ["powerop", series, "--fgl", law, "--t-trunc", str(degree)]):
        start = time.perf_counter()
        assert main(argv) == 2, argv
        assert time.perf_counter() - start < 0.5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {law}: checking the law to degree {degree} ")
        assert "over the work budget" in captured.err


def test_law_budget_admits_small_checks(tmp_path, capsys):
    # one file on both sides of the budget: it is estimated at the degree
    # the check runs to
    law = _law_file(tmp_path, dense_law_terms(24).items(), trunc=24)
    assert main(["fgl", "check", law, "--degree", "16"]) == 0
    assert _out(capsys) == "valid to degree 16"
    assert main(["fgl", "check", law]) == 2
    assert "531 terms x 24^3 > " in capsys.readouterr().err
    series = _series_file(tmp_path, "f.json", _univariate([(1, 1)]))
    assert main(["powerop", series, "--fgl", law]) == 0


@pytest.mark.parametrize("degree", [8, 16, 64])
def test_chern_symbolic_over_budget_exits_2_at_once(capsys, degree):
    # inside FGLOPS_TRUNC_MAX, but D = 8 alone ran 13.6 s and printed 7 MB
    argv = ["chern", "--symbolic", str(degree), "--t-trunc", "64", "--z-trunc", "64"]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: chern --symbolic {degree} at t-trunc 64, z-trunc 64 ")
    assert "over the work budget" in captured.err


def test_chern_symbolic_budget_admits_small_requests(capsys):
    # the benchmark's largest request, and requests on both sides of the budget
    for argv in (["chern", "--symbolic", "4", "--t-trunc", "6", "--z-trunc", "4"],
                 ["chern", "--symbolic", "2", "--t-trunc", "64", "--z-trunc", "64"],
                 ["chern", "--symbolic", "16", "--t-trunc", "12", "--z-trunc", "12"]):
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert main(["chern", "--symbolic", "5", "--t-trunc", "64", "--z-trunc", "64"]) == 2


@pytest.mark.parametrize("degree, t_trunc, z_trunc",
                         [(1, 1, 1), (3, 5, 3), (4, 6, 4), (5, 3, 9), (6, 9, 5), (2, 12, 12)])
def test_symbolic_products_bound_the_output(degree, t_trunc, z_trunc):
    # every monomial of the output comes from one of the counted products
    candidate = ChernSeries.symbolic(degree)
    ring = standard_ring(candidate.coeff_ring, t_trunc, z_trunc)
    out = computation_one(candidate, ring)
    monomials = sum(len(coef.value) for coef in out.terms.values())
    assert 0 < monomials <= _symbolic_products(degree, t_trunc, z_trunc)
