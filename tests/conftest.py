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


@pytest.fixture
def default_context():
    return standard_context(IntegerRing())
