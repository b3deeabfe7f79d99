import random

import pytest

from fglops import (
    BooleanRing,
    ChernSeries,
    IntegerModRing,
    IntegerRing,
    PolynomialRing,
    RingMismatch,
    SeriesRing,
    SeriesVar,
    UnitViolation,
    chern_of_line_sum,
    computation_one,
    multiplicative_law,
    standard_ring,
)
from conftest import to_plain
from longhand import computation_one_unit_candidate

Z = IntegerRing()
TZ = standard_ring(Z)


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
    (lambda: chern_of_line_sum(ChernSeries([1]), [TZ.gen("t")], [2]), ValueError,
     "must be \\+1 or -1"),
    (lambda: computation_one(ChernSeries([1]), SeriesRing(Z, (SeriesVar("t", 5),))), ValueError,
     "two variables"),
], ids=["mixed-rings", "Z/n-non-unit", "polynomial-non-unit", "two-term-a1", "sign",
        "one-variable"])
def test_refusals(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()


def test_symbolic_candidate():
    r = ChernSeries.symbolic(3)
    assert r.degree == 3
    assert r.is_generic_symbolic
    assert r.coeffs[1] == r.coeff_ring.gen("a2")
    numeric = ChernSeries([1, 0, 0])
    assert not numeric.is_generic_symbolic
    with pytest.raises(UnitViolation):
        ring = PolynomialRing(Z, ("a1", "a2"))
        ChernSeries([ring.gen("a1") * ring.gen("a2"), ring.gen("a2")], ring)


def test_boolean_candidate_leading_coefficient():
    ring = BooleanRing(("a1", "a2"))
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
    assert chern_of_line_sum(r, [t], [1]) == TZ.one + t
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


def test_line_sum_matches_computation_one():
    r = ChernSeries([1, 2, -3])
    t, z = TZ.gen("t"), TZ.gen("z")
    four_roots = chern_of_line_sum(r, [t + z, t, z, TZ.zero], [1, 1, -1, -1])
    assert four_roots == computation_one(r, TZ)


def test_empty_line_sum():
    r = ChernSeries([1])
    assert chern_of_line_sum(r, [], [], ring=TZ) == TZ.one
    with pytest.raises(ValueError):
        chern_of_line_sum(r, [], [])
    with pytest.raises(ValueError):
        chern_of_line_sum(r, [TZ.gen("t")], [1, -1])


def test_computation_one_unit_candidate_oracle():
    result = computation_one(ChernSeries([1, 0, 0]), TZ)
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


def test_whitney_multiplicativity():
    rng = random.Random(41)
    r = ChernSeries([-1, 4, 2])
    t, z = TZ.gen("t"), TZ.gen("z")
    pool = [t, z, t + z, t * 2 + z, t * t]
    for _ in range(25):
        k1, k2 = rng.randint(0, 3), rng.randint(0, 3)
        roots1 = [rng.choice(pool) for _ in range(k1)]
        roots2 = [rng.choice(pool) for _ in range(k2)]
        signs1 = [rng.choice([1, -1]) for _ in range(k1)]
        signs2 = [rng.choice([1, -1]) for _ in range(k2)]
        combined = chern_of_line_sum(r, roots1 + roots2, signs1 + signs2, ring=TZ)
        split = chern_of_line_sum(r, roots1, signs1, ring=TZ) * chern_of_line_sum(
            r, roots2, signs2, ring=TZ
        )
        assert combined == split


def test_inverse_consistency():
    r = ChernSeries([1, -2, 7])
    x = TZ.gen("t") + TZ.gen("z")
    assert chern_of_line_sum(r, [x], [-1]) * r.value_at(x) == TZ.one


def test_symbolic_specialization_matches_numeric():
    for values in [(1, 0, 0), (1, 1, 0), (-1, 2, -3)]:
        sym = ChernSeries.symbolic(3)
        sym_ring = standard_ring(sym.coeff_ring)
        symbolic = computation_one(sym, sym_ring)
        assignment = {"a1": values[0], "a2": values[1], "a3": values[2]}
        specialized = symbolic.specialize(assignment).in_ring(TZ)
        direct = computation_one(ChernSeries(list(values)), TZ)
        assert specialized == direct


def test_symbolic_numerator_z_part():
    # the z-coefficient of r(t+z)*r(t) for r = 1 + a1*t is a1 + a1^2*t
    sym = ChernSeries.symbolic(1)
    ring = standard_ring(sym.coeff_ring)
    t, z = ring.gen("t"), ring.gen("z")
    numerator = sym.value_at(t + z) * sym.value_at(t)
    a1 = sym.coeff_ring.gen("a1")
    assert numerator.coefficient_of((0, 1)) == a1
    assert numerator.coefficient_of((1, 1)) == a1 * a1
    # the full quotient has no bare-z term (its z-part starts at t*z)
    assert computation_one(sym, ring).coefficient_of((0, 1)) == sym.coeff_ring.zero


def test_non_additive_tensor_root():
    r = ChernSeries([1])
    mult = multiplicative_law(Z)
    result = computation_one(r, TZ, law=mult)
    t, z = TZ.gen("t"), TZ.gen("z")
    expected = (TZ.one + t + z + t * z) * (TZ.one + t) * (TZ.one + z).invert()
    assert result == expected
