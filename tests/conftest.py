import sys
import types

import pytest

from fglops import (
    Coefficient,
    IntegerModRing,
    IntegerRing,
    PolynomialRing,
    RingMismatch,
    standard_context,
)


def to_plain(series):
    """Series over integer coefficients -> plain {exps: int} dict."""
    return {exps: c.value for exps, c in series.terms.items()}


def boolean_polynomial(ring, coef):
    """A value of the BooleanRing ``ring`` as the same polynomial over Z/2.

    Bit i of a monomial mask is the exponent of ``ring.names[i]``; the
    result lives in PolynomialRing(Z/2, ring.names) and is ordered by that
    ring alone.
    """
    if coef.ring != ring:
        raise RingMismatch(f"coefficient in {coef.ring} is not in {ring}")
    n = len(ring.names)
    exps = {tuple((m >> i) & 1 for i in range(n)): 1 for m in coef.value}
    return Coefficient(PolynomialRing(IntegerModRing(2), ring.names), exps)


def lorentz_terms(degree):
    """Terms of the Lorentz law (x + y)/(1 + xy) below ``degree``, as {(a, b): coef}."""
    terms = {}
    for k in range(degree - 1):
        terms[(k + 1, k)] = terms[(k, k + 1)] = (-1) ** k
    return terms


def dense_law_terms(degree):
    """Terms of g^-1(g(x) + g(y)), g = x + x^2, below ``degree``, as {(a, b): coef}.

    g^-1(u) = sum over k >= 1 of (-1)^(k-1) C(k-1) u^k, C the Catalan
    numbers; the law has a nonzero term at nearly every x^a y^b.
    """
    u = {e: 1 for e in ((1, 0), (2, 0), (0, 1), (0, 2)) if max(e) < degree}
    terms, power, catalan = {}, dict(u), 1
    for k in range(1, 2 * degree):
        for e, c in power.items():
            terms[e] = terms.get(e, 0) + (-1) ** (k - 1) * catalan * c
        catalan = catalan * 2 * (2 * k - 1) // (k + 1)
        product = {}
        for (a, b), c in power.items():
            for (i, j), d in u.items():
                if a + i < degree and b + j < degree:
                    product[(a + i, b + j)] = product.get((a + i, b + j), 0) + c * d
        power = product
    return {e: c for e, c in terms.items() if c}


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
