"""Fuzz the JSON loaders through the CLI: any file must end in exit 0, 1 or 2.

Hypothesis builds well-formed series and law files and then breaks up to
two places in them, the ways a hand-written file goes wrong: a missing key,
or a value of the wrong type, among them bools, negative numbers, floats,
strings and lists.  Exponents also run past the declared truncation.  Each
file goes through ``powerop FILE``, ``fgl check FILE`` and
``fgl nseries FILE 3``; a traceback or any other exit code fails the test.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fglops.cli import main

_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.floats(-2, 2, allow_nan=False),
    st.text("xyz019-+^*/", max_size=3),
    st.lists(st.integers(-1, 2), max_size=2),
    st.builds(dict),
)
_COEFFS = st.sampled_from(["Z", "Z/2", "Z/4"]) | st.builds(
    lambda: {"poly": {"base": "Z", "vars": ["a1"]}}
)


@st.composite
def _well_formed(draw, names, unit_terms):
    """A series file over ``names``; with ``unit_terms`` it starts with x + y."""
    trunc = draw(st.integers(1, 6))
    variables = [{"name": name, "trunc": trunc} for name in names]
    if draw(st.integers(0, 3)) == 0:
        variables[-1]["torsion"] = draw(st.sampled_from([2, 4]))
    terms = []
    if unit_terms:
        terms = [{"exp": [1, 0], "coef": "1"}, {"exp": [0, 1], "coef": "1"}]
    for _ in range(draw(st.integers(0, 3))):
        exps = draw(st.lists(st.integers(0, 8), min_size=len(names), max_size=len(names)))
        coef = draw(st.integers(-3, 3).map(str) | st.sampled_from(["a1", "1+a1", " 2 "]))
        terms.append({"exp": exps, "coef": coef})
    return {"ring": {"coeff": draw(_COEFFS), "vars": variables}, "terms": terms}


def _slots(obj, out):
    """Every (container, key) place in a JSON value, outermost first."""
    if isinstance(obj, (dict, list)):
        for key, value in list(obj.items() if isinstance(obj, dict) else enumerate(obj)):
            out.append((obj, key))
            _slots(value, out)
    return out


@st.composite
def _broken(draw, names, unit_terms=False):
    obj = draw(_well_formed(names, unit_terms))
    for _ in range(draw(st.integers(0, 2))):
        slots = _slots(obj, [])
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(_JUNK)
    return draw(st.just(obj) | _JUNK) if draw(st.integers(0, 19)) == 0 else obj


def _run_file(tmp_path, obj, argv):
    """(exit code, stdout, stderr) of one CLI call with FILE holding ``obj``."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(path) if arg == "FILE" else arg for arg in argv])
    return code, out.getvalue(), err.getvalue()


def _check(tmp_path, obj, argv):
    code, out, err = _run_file(tmp_path, obj, argv)
    assert code in (0, 1, 2), (argv, obj)
    assert "Traceback" not in out + err, (argv, obj)


def _t_file(var=None, term=None):
    var = {"name": "t", "trunc": 5, **(var or {})}
    term = {"exp": [1], "coef": "1", **(term or {})}
    return {"ring": {"coeff": "Z", "vars": [var]}, "terms": [term]}


@pytest.mark.parametrize(
    "obj",
    [
        _t_file(term={"coef": 1}),  # these two raised AttributeError and TypeError
        _t_file(var={"name": [1]}),
        _t_file(var={"trunc": True}),  # taken as truncation 1
        _t_file(var={"torsion": False}),
        _t_file(term={"exp": [True]}),
        _t_file(term={"exp": [-1]}),
    ],
    ids=["int-coef", "list-name", "bool-trunc", "bool-torsion", "bool-exp", "negative-exp"],
)
def test_malformed_series_file_is_an_input_error(tmp_path, obj):
    code, out, err = _run_file(tmp_path, obj, ["powerop", "FILE"])
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize(
    "text",
    ["[" * 100_000 + "]" * 100_000, '{"ring": ' + "[" * 5_000 + "]" * 5_000 + ', "terms": []}'],
    ids=["deep-list", "deep-ring"],
)
def test_deeply_nested_file_is_an_input_error(tmp_path, text):
    # json.dumps cannot write such a file, so it is written as text; the
    # decoder raised RecursionError, a traceback and exit 1
    path = tmp_path / "deep.json"
    path.write_text(text)
    series = tmp_path / "t.json"
    series.write_text(json.dumps(_t_file()))
    for argv in (["powerop", path], ["fgl", "check", path], ["fgl", "nseries", path, "3"],
                 ["powerop", series, "--fgl", path]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(arg) for arg in argv])
        assert (code, out.getvalue()) == (2, ""), argv
        assert err.getvalue() == f"error: {path}: JSON nested too deeply\n", argv


def test_exponent_past_truncation_is_dropped(tmp_path):
    assert _run_file(tmp_path, _t_file(term={"exp": [7]}), ["powerop", "FILE"]) == (0, "0\n", "")


_FUZZ = settings(
    deadline=None, max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@_FUZZ
@given(obj=_broken(("t",)))
def test_powerop_file_fuzz(tmp_path, obj):
    _check(tmp_path, obj, ["powerop", "FILE"])


@_FUZZ
@given(obj=_broken(("x", "y"), unit_terms=True), as_json=st.booleans())
def test_fgl_check_file_fuzz(tmp_path, obj, as_json):
    _check(tmp_path, obj, ["fgl", "check", "FILE"] + ["--json"] * as_json)


@_FUZZ
@given(obj=_broken(("x", "y"), unit_terms=True))
def test_fgl_nseries_file_fuzz(tmp_path, obj):
    _check(tmp_path, obj, ["fgl", "nseries", "FILE", "3"])
