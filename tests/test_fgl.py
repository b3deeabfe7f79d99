import math
import random

import pytest

from fglops import (
    FormalGroupLaw,
    IntegerModRing,
    IntegerRing,
    PolynomialRing,
    RingMismatch,
    SeriesRing,
    SeriesVar,
    ViolatedAxiom,
    additive_law,
    builtin_law,
    multiplicative_law,
    series_from_json,
    standard_ring,
    validate_law,
)
from conftest import lorentz_terms

Z = IntegerRing()


def _law_ring(degree=20, coeff=Z):
    return SeriesRing(coeff, (SeriesVar("x", degree), SeriesVar("y", degree)))


def test_builtins_validate():
    add = additive_law(Z)
    mult = multiplicative_law(Z)
    ring = _law_ring()
    x, y = ring.gen("x"), ring.gen("y")
    assert add.is_additive and add.series == x + y
    assert mult.series == x + y + x * y and not mult.is_additive
    assert builtin_law("additive", Z).series == add.series


@pytest.mark.parametrize("name", ("additive", "multiplicative"))
@pytest.mark.parametrize(
    "coeff",
    (Z, IntegerModRing(2), IntegerModRing(6), PolynomialRing(Z, ("a1", "a2"))),
    ids=str,
)
def test_builtin_laws_are_proved_laws(name, coeff):
    # the built-in laws are constants, never validated when built: this is
    # their proof, to every degree a request can ask for
    for degree in (1, 2, 3, 5, 8, 20, 32, 64):
        law = builtin_law(name, coeff, degree)
        assert validate_law(law.series, name=name) == law, degree


def test_unknown_builtin_law():
    with pytest.raises(ValueError, match="unknown built-in law 'formal'"):
        builtin_law("formal", Z)


def test_unitality_violation():
    ring = _law_ring()
    x, y = ring.gen("x"), ring.gen("y")
    with pytest.raises(ViolatedAxiom) as err:
        validate_law(x + y + x * x)
    assert err.value.axiom == "unit"
    assert err.value.monomial == "x^2"


def test_commutativity_violation():
    ring = _law_ring()
    x, y = ring.gen("x"), ring.gen("y")
    with pytest.raises(ViolatedAxiom) as err:
        validate_law(x + y + x * x * y)
    assert err.value.axiom == "comm"


def test_associativity_violation():
    ring = _law_ring(degree=8)
    x, y = ring.gen("x"), ring.gen("y")
    with pytest.raises(ViolatedAxiom) as err:
        validate_law(x + y + (x * y) ** 2)
    assert err.value.axiom == "assoc"
    assert err.value.monomial == "x^2*y*w"


@pytest.mark.parametrize("degree", (4, 6, 8, 20))
def test_lorentz_law_is_valid(degree):
    # its dropped terms x^k y^(k+1), k + 1 >= degree, reach x^a y^b w^c with
    # a + b >= degree in F(F(x,y),w), which the given terms do not decide
    law = validate_law(_law_ring(degree).from_terms(lorentz_terms(degree)))
    assert law.degree == degree
    x = SeriesRing(Z, (SeriesVar("x", degree),)).gen("x")
    assert law.n_series(2) == x * 2 * (x * x + 1).invert()


def test_formal_sum_examples():
    ring = standard_ring(Z)
    t, z = ring.gen("t"), ring.gen("z")
    add = additive_law(Z)
    mult = multiplicative_law(Z)
    assert add.formal_sum(t, z) == t + z
    assert mult.formal_sum(t, z) == t + z + t * z
    assert add.formal_sum(t, ring.zero) == t
    assert mult.formal_sum(t, ring.zero) == t


def test_formal_sum_rejects_constant_terms():
    ring = standard_ring(Z)
    t = ring.gen("t")
    with pytest.raises(ValueError):
        additive_law(Z).formal_sum(t + ring.one, t)
    with pytest.raises(RingMismatch, match="must share a ring"):
        additive_law(Z).formal_sum(t, standard_ring(Z, 6).gen("t"))


def test_n_series_examples():
    add = additive_law(Z)
    mult = multiplicative_law(Z)
    x_ring = SeriesRing(Z, (SeriesVar("x", 20),))
    x = x_ring.gen("x")
    assert add.n_series(2) == x * 2
    assert mult.n_series(2) == x * 2 + x * x
    assert add.n_series(1) == x
    assert mult.n_series(1) == x
    assert mult.n_series(0) == x_ring.zero
    with pytest.raises(ValueError):
        add.n_series(-1)


NSERIES_N = (0, 1, 2, 3, 7, 64, 1500)


@pytest.mark.parametrize("n", NSERIES_N)
def test_n_series_closed_forms(n):
    x_ring = SeriesRing(Z, (SeriesVar("x", 20),))
    x = x_ring.gen("x")
    assert additive_law(Z).n_series(n) == x * n
    # [n](x) = (1 + x)^n - 1 for the multiplicative law
    binomials = x_ring.from_terms({(k,): math.comb(n, k) for k in range(1, 20)})
    assert multiplicative_law(Z).n_series(n) == binomials


@pytest.mark.parametrize("n", NSERIES_N)
def test_n_series_json_law_matches_iteration(n):
    law = validate_law(
        series_from_json(
            {
                "ring": {
                    "coeff": "Z/7",
                    "vars": [{"name": "x", "trunc": 8}, {"name": "y", "trunc": 8}],
                },
                "terms": [
                    {"exp": [1, 0], "coef": "1"},
                    {"exp": [0, 1], "coef": "1"},
                    {"exp": [1, 1], "coef": "3"},
                ],
            }
        )
    )
    ring = SeriesRing(IntegerModRing(7), (SeriesVar("x", 8),))
    x = ring.gen("x")
    acc = ring.zero
    for _ in range(n):
        acc = law.series.substitute({"x": x, "y": acc}, target=ring)
    assert law.n_series(n) == acc


def test_n_series_addition_identity():
    for law in (additive_law(Z), multiplicative_law(Z)):
        for m in range(5):
            for n in range(5):
                lhs = law.n_series(m + n)
                rhs = law.formal_sum(law.n_series(m), law.n_series(n))
                assert lhs == rhs, (law.name, m, n)


def test_two_series_mod_two_has_no_linear_term():
    F2 = IntegerModRing(2)
    for law in (additive_law(F2), multiplicative_law(F2)):
        two = law.n_series(2)
        assert two.coefficient_of((1,)) == F2.zero


def test_formal_sum_commutative_associative_random():
    rng = random.Random(19)
    ring = standard_ring(Z)
    t, z = ring.gen("t"), ring.gen("z")
    for law in (additive_law(Z), multiplicative_law(Z)):
        for _ in range(25):
            args = []
            for _ in range(3):
                f = (
                    t * rng.randint(-3, 3)
                    + z * rng.randint(-3, 3)
                    + t * z * rng.randint(-3, 3)
                    + t * t * rng.randint(-3, 3)
                )
                args.append(f)
            f, g, h = args
            assert law.formal_sum(f, g) == law.formal_sum(g, f)
            assert law.formal_sum(law.formal_sum(f, g), h) == law.formal_sum(
                f, law.formal_sum(g, h)
            )


def test_law_ring_shape_checks():
    bad = SeriesRing(Z, (SeriesVar("x", 20), SeriesVar("y", 10)))
    with pytest.raises(ValueError):
        validate_law(bad.gen("x") + bad.gen("y"))
    torsion = SeriesRing(Z, (SeriesVar("x", 20), SeriesVar("y", 20, 2)))
    with pytest.raises(ValueError):
        validate_law(torsion.gen("x") + torsion.gen("y"))


@pytest.mark.parametrize("variables, message", [
    ((SeriesVar("x", 6), SeriesVar("y", 3)), "share one truncation"),
    ((SeriesVar("x", 6), SeriesVar("y", 6, 2)), "torsion-free"),
    ((SeriesVar("x", 6, 4), SeriesVar("y", 6)), "torsion-free"),
    ((SeriesVar("x", 6), SeriesVar("y", 6), SeriesVar("w", 6)), "exactly two variables"),
], ids=["unequal-truncations", "y-torsion", "x-torsion", "three-variables"])
def test_law_constructor_refuses_bad_rings(variables, message):
    # a law built directly, not through validate_law, is held to the same
    # shape: over Z[[x,y]]/(x^6, y^3) the Lorentz law would report degree 6
    # and give [2](x) = 2x - 2x^3 + x^5, where the truth is 2x - 2x^3 + 2x^5
    ring = SeriesRing(Z, variables)
    terms = {exps + (0,) * (len(variables) - 2): c for exps, c in lorentz_terms(6).items()}
    series = ring.from_terms({e: c for e, c in terms.items()
                              if all(x < v.trunc for x, v in zip(e, variables))})
    with pytest.raises(ValueError, match=message):
        FormalGroupLaw(series)
    with pytest.raises(ValueError, match=message):
        validate_law(series)


def test_lorentz_two_series_at_one_truncation():
    law = FormalGroupLaw(_law_ring(6).from_terms(lorentz_terms(6)))
    x = law.n_series(2).ring.gen("x")
    assert law.n_series(2) == 2 * x - 2 * x**3 + 2 * x**5
