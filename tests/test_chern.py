import random

import pytest

from fglops import (
    ChernSeries,
    IntegerModRing,
    IntegerRing,
    PolynomialRing,
    PowerOpContext,
    RingMismatch,
    SeriesRing,
    SeriesVar,
    UnitViolation,
    additive_law,
    computation_one,
    multiplicative_law,
    standard_context,
)
from conftest import to_plain
from longhand import computation_one_longhand, computation_one_unit_candidate

Z = IntegerRing()
CTX = standard_context(Z)
TZ = CTX.ring


def test_validate_examples():
    ChernSeries([1, 0, 0])
    ChernSeries([-1, 5, -7])
    with pytest.raises(UnitViolation):
        ChernSeries([2, 1])
    with pytest.raises(ValueError):
        ChernSeries([])


PAB = PolynomialRing(Z, ("a", "b"))


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: ChernSeries([Z.one, IntegerModRing(2).one]), RingMismatch, "share one ring"),
    (lambda: ChernSeries([2], IntegerModRing(6)), UnitViolation, "not a unit in Z/6"),
    (lambda: ChernSeries([2], PAB), UnitViolation, "not a unit in Z\\[a,b\\]"),
    (lambda: ChernSeries([PAB.gen("a") + PAB.gen("b")], PAB), UnitViolation,
     "single indeterminate"),
    # computation_one reads t and z off a context, which has exactly two
    (lambda: computation_one(ChernSeries([1]), PowerOpContext(
        SeriesRing(Z, (SeriesVar("t", 5),)), additive_law(Z, 5), 2)), ValueError,
     "two variables"),
], ids=["mixed-rings", "Z/n-non-unit", "polynomial-non-unit", "two-term-a1", "one-variable"])
def test_refusals(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()


def test_symbolic_candidate():
    r = ChernSeries.symbolic(3)
    assert r.degree == 3
    assert r.coeffs[1] == r.coeff_ring.gen("a2")
    with pytest.raises(UnitViolation):
        ring = PolynomialRing(Z, ("a1", "a2"))
        ChernSeries([ring.gen("a1") * ring.gen("a2"), ring.gen("a2")], ring)


def test_boolean_candidate_leading_coefficient():
    # over the mod-2 polynomials the relations are read in, a1 is 1 or a
    # single indeterminate, as it was over F2[a1,a2]/(a_i^2 + a_i)
    ring = PolynomialRing(IntegerModRing(2), ("a1", "a2"))
    a1, a2 = ring.gens()
    ChernSeries([a1, a2], ring)
    ChernSeries([ring.one, a2], ring)
    for bad in (ring.zero, a1 * a2, a1 + 1, a1 + a2):
        with pytest.raises(UnitViolation):
            ChernSeries([bad, a2], ring)


def test_value_at_single_root():
    r = ChernSeries([1, 0, 0])
    t = TZ.gen("t")
    assert r.value_at(t) == TZ.one + t
    # against explicit powers, past the nilpotency order of t, z and t + z
    # and at roots that are not nilpotent at all
    z = TZ.gen("z")
    rng = random.Random(0)
    for root in (TZ.zero, t, z, t + z, 1 + t, 3 + z):
        for degree in range(1, 9):
            coeffs = [rng.choice((1, -1))] + [rng.randint(-5, 5) for _ in range(degree - 1)]
            want = TZ.one
            for i, a in enumerate(coeffs, start=1):
                want = want + a * root**i
            assert ChernSeries(coeffs).value_at(root) == want, (root, coeffs)


def test_computation_one_unit_candidate_oracle():
    result = computation_one(ChernSeries([1, 0, 0]), CTX)
    assert to_plain(result) == computation_one_unit_candidate()
    expected = TZ.from_terms(
        {
            (0, 0): 1,
            (1, 0): 2,
            (2, 0): 1,
            (1, 1): 1,
            (2, 1): 1,
            (1, 2): 1,
            (2, 2): 1,
        }
    )
    assert result == expected


def test_inverse_consistency():
    r = ChernSeries([1, -2, 7])
    x = TZ.gen("t") + TZ.gen("z")
    assert r.value_at(x).invert() * r.value_at(x) == TZ.one


def test_symbolic_specialization_matches_numeric():
    for values in [(1, 0, 0), (1, 1, 0), (-1, 2, -3)]:
        sym = ChernSeries.symbolic(3)
        symbolic = computation_one(sym, standard_context(sym.coeff_ring))
        assignment = {"a1": values[0], "a2": values[1], "a3": values[2]}
        specialized = symbolic.specialize(assignment).in_ring(TZ)
        direct = computation_one(ChernSeries(list(values)), CTX)
        assert specialized == direct


def test_symbolic_numerator_z_part():
    # the z-coefficient of r(t+z)*r(t) for r = 1 + a1*t is a1 + a1^2*t
    sym = ChernSeries.symbolic(1)
    ctx = standard_context(sym.coeff_ring)
    t, z = ctx.t, ctx.z
    numerator = sym.value_at(t + z) * sym.value_at(t)
    a1 = sym.coeff_ring.gen("a1")
    assert numerator.coefficient_of((0, 1)) == a1
    assert numerator.coefficient_of((1, 1)) == a1 * a1
    # the full quotient has no bare-z term (its z-part starts at t*z)
    assert computation_one(sym, ctx).coefficient_of((0, 1)) == sym.coeff_ring.zero


def test_non_additive_tensor_root():
    r = ChernSeries([1])
    result = computation_one(r, standard_context(Z, law=multiplicative_law(Z, 5)))
    t, z = TZ.gen("t"), TZ.gen("z")
    expected = (TZ.one + t + z + t * z) * (TZ.one + t) * (TZ.one + z).invert()
    assert result == expected


@pytest.mark.parametrize("law", ["additive", "multiplicative"])
def test_computation_one_matches_longhand(law):
    # one fixed candidate, then a seeded grid of twenty
    rng = random.Random(law)
    samples = [((1, 2, -3), 5, 3)] + [
        ([rng.choice((1, -1))] + [rng.randint(-5, 5) for _ in range(rng.randint(0, 5))],
         rng.randint(1, 7), rng.randint(1, 4))
        for _ in range(20)
    ]
    for coeffs, t_trunc, z_trunc in samples:
        degree = max(t_trunc, z_trunc)
        built = additive_law(Z, degree) if law == "additive" else multiplicative_law(Z, degree)
        ctx = standard_context(Z, t_trunc, z_trunc, built)
        got = computation_one(ChernSeries(list(coeffs)), ctx)
        assert to_plain(got) == computation_one_longhand(coeffs, t_trunc, z_trunc, law), (
            coeffs, t_trunc, z_trunc)

