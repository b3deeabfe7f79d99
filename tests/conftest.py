import sys
import types

import pytest

from fglops import IntegerRing, standard_context


def to_plain(series):
    """Series over integer coefficients -> plain {exps: int} dict."""
    return {exps: c.value for exps, c in series.terms.items()}


def lorentz_terms(degree):
    """Terms of the Lorentz law (x + y)/(1 + xy) below ``degree``, as {(a, b): coef}."""
    terms = {}
    for k in range(degree - 1):
        terms[(k + 1, k)] = terms[(k, k + 1)] = (-1) ** k
    return terms


def lines_never_run(functions, run) -> list:
    """(code name, line) for each line of ``functions`` that ``run()`` never reaches.

    The lines are those ``co_lines`` gives below each ``def`` line, of the
    functions and of the code nested in them; ``run`` is called once with a
    line tracer on that code alone.
    """
    codes, todo = set(), [fn.__code__ for fn in functions]
    while todo:
        code = todo.pop()
        codes.add(code)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    lines = {
        (code, line)
        for code in codes
        for _, _, line in code.co_lines()
        if line and line > code.co_firstlineno
    }
    ran = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code, frame.f_lineno))
        return trace_lines

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: trace_lines if frame.f_code in codes else None)
    try:
        run()
    finally:
        sys.settrace(previous)
    return sorted((code.co_name, line) for code, line in lines - ran)


@pytest.fixture
def default_context():
    return standard_context(IntegerRing())
