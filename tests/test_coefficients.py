import pytest
from hypothesis import given, settings, strategies as st

from fglops import (
    BooleanRing,
    Coefficient,
    IntegerModRing,
    IntegerRing,
    NotAUnit,
    PolynomialRing,
    RingMismatch,
    multilinear_mod2,
    parse_coefficient,
)
from longhand import boolean_polynomial

Z = IntegerRing()
F2 = IntegerModRing(2)
Z6 = IntegerModRing(6)
P2 = PolynomialRing(F2, ("a1", "a2", "a3"))
PZ = PolynomialRing(Z, ("a", "b"))
B3 = BooleanRing(("a1", "a2", "a3"))

RINGS = [Z, F2, Z6, P2, PZ, B3]


def coefficients(ring):
    if isinstance(ring, BooleanRing):
        masks = st.lists(st.integers(0, 2 ** len(ring.names) - 1), max_size=5)
        return masks.map(lambda ms: Coefficient(ring, ms))
    if isinstance(ring, PolynomialRing):
        exps = st.tuples(*([st.integers(0, 3)] * ring.nvars))
        term = st.tuples(exps, st.integers(-9, 9))
        return st.lists(term, max_size=4).map(lambda ts: Coefficient(ring, ts))
    return st.integers(-50, 50).map(lambda n: Coefficient(ring, n))


@st.composite
def ring_and_values(draw, count=3):
    ring = draw(st.sampled_from(RINGS))
    return ring, [draw(coefficients(ring)) for _ in range(count)]


def test_add_examples():
    assert F2.coefficient(1) + F2.coefficient(1) == F2.zero
    assert Z.coefficient(3) + Z.coefficient(-3) == Z.zero
    a1, a2, a3 = P2.gens()
    assert (a2 + a3) + a3 == a2


def test_mul_examples():
    a1, a2, a3 = P2.gens()
    assert (a1 + a2) * (a1 + a2) == a1 * a1 + a2 * a2
    assert Z.coefficient(2) * Z.coefficient(3) == Z.coefficient(6)
    assert F2.coefficient(3) * F2.coefficient(5) == F2.one


def test_invert_examples():
    assert Z.coefficient(-1).invert() == Z.coefficient(-1)
    assert F2.one.invert() == F2.one
    with pytest.raises(NotAUnit):
        Z.coefficient(2).invert()
    with pytest.raises(NotAUnit):
        (PZ.gen("a") + 1).invert()


def test_ring_mismatch():
    with pytest.raises(RingMismatch):
        Z.coefficient(1) + F2.coefficient(1)


@settings(deadline=None)
@given(ring_and_values())
def test_ring_axioms(data):
    ring, (x, y, w) = data
    assert x + y == y + x
    assert (x + y) + w == x + (y + w)
    assert x * y == y * x
    assert (x * y) * w == x * (y * w)
    assert x * (y + w) == x * y + x * w
    assert x + ring.zero == x
    assert x * ring.one == x
    assert x + (-x) == ring.zero


@settings(deadline=None)
@given(ring_and_values(count=1))
def test_canonicalization_idempotent(data):
    ring, (x,) = data
    assert Coefficient(ring, x.value) == x


@settings(deadline=None)
@given(st.sampled_from([F2, P2]), st.data())
def test_characteristic_two_doubles_vanish(ring, data):
    x = data.draw(coefficients(ring))
    assert x + x == ring.zero


@settings(deadline=None)
@given(st.integers(-100, 100), st.integers(-100, 100), st.integers(2, 12))
def test_reduction_is_a_homomorphism(a, b, n):
    ring = IntegerModRing(n)
    assert ring.coefficient(a) + ring.coefficient(b) == ring.coefficient(a + b)
    assert ring.coefficient(a) * ring.coefficient(b) == ring.coefficient(a * b)


def test_modular_inverse():
    z7 = IntegerModRing(7)
    assert z7.coefficient(3).invert() * z7.coefficient(3) == z7.one
    with pytest.raises(NotAUnit):
        Z6.coefficient(2).invert()


def test_nilpotents():
    z4 = IntegerModRing(4)
    assert z4.coefficient(2).is_nilpotent()
    assert not z4.coefficient(3).is_nilpotent()
    assert Z.zero.is_nilpotent()
    assert not Z.one.is_nilpotent()


def test_polynomial_unit_with_nilpotent_tail():
    z4 = IntegerModRing(4)
    ring = PolynomialRing(z4, ("a",))
    u = ring.one + ring.gen("a") * 2
    assert u.is_unit()
    assert u * u.invert() == ring.one


def test_print_order_is_deterministic():
    a1, a2, a3 = P2.gens()
    assert str(a1 * a2 + a3 + a1) == "a1*a2+a3+a1"
    assert str(a1 * a3 + a1 * a2) == "a1*a3+a1*a2"
    a, b = PZ.gens()
    assert str(3 * a - 2 * b) == "-2*b+3*a"
    assert str(-a + 1) == "-a+1"
    assert str(PZ.zero) == "0"


@settings(deadline=None)
@given(ring_and_values(count=1))
def test_string_round_trip(data):
    ring, (x,) = data
    assert parse_coefficient(ring, str(x)) == x


def test_parse_accepts_whitespace():
    assert parse_coefficient(P2, " a1 * a2 + a3 +  a1 ") == P2.gen("a1") * P2.gen(
        "a2"
    ) + P2.gen("a3") + P2.gen("a1")
    assert parse_coefficient(Z, "  -42 ") == Z.coefficient(-42)
    assert parse_coefficient(PZ, "3*a^2*b - b + 1") == 3 * PZ.gen("a") ** 2 * PZ.gen(
        "b"
    ) - PZ.gen("b") + 1


def test_parse_rejects_unknown_names():
    with pytest.raises(ValueError):
        parse_coefficient(P2, "a1*c9")


BAD_INTEGERS = ("", " ", "+", "-", "1_0", "٣", "- 5", "1.0", "0x1", "1 2")
BAD_POLYNOMIALS = (
    "", "+", "-", "a+", "a*", "*a", "a+-b", "a++b", "--a", "+-1", "a^", "a^-1", "2a", "a^٣", "1_0", "(a)",
)


@pytest.mark.parametrize("ring, text", [
    *[(ring, text) for ring in (Z, Z6) for text in BAD_INTEGERS],
    *[(ring, text) for ring in (PZ, P2, B3) for text in BAD_POLYNOMIALS],
], ids=str)
def test_parse_rejects_malformed_literals(ring, text):
    # a literal is sign-joined terms with at most one leading sign; integers are ASCII digits
    if ring in (PZ, P2, B3):
        text = text.replace("a", ring.names[0]).replace("b", ring.names[1])
    with pytest.raises(ValueError):
        parse_coefficient(ring, text)


def test_parse_accepts_one_leading_sign():
    assert parse_coefficient(Z, "+7") == 7 and parse_coefficient(Z6, " -1\n") == 5
    assert parse_coefficient(PZ, "+a-b") == PZ.gen("a") - PZ.gen("b")
    assert parse_coefficient(PZ, "-2*a^2*3") == -6 * PZ.gen("a") ** 2
    assert parse_coefficient(B3, "a1*a1+1") == B3.gen("a1") + 1


def test_descriptor_invariants():
    with pytest.raises(ValueError):
        IntegerModRing(1)
    with pytest.raises(ValueError):
        PolynomialRing(Z, ("a", "a"))
    with pytest.raises(ValueError):
        PolynomialRing(PZ, ("c",))


def test_boolean_examples():
    a1, a2, a3 = B3.gens()
    assert a1 * a1 == a1
    assert a1 + a1 == B3.zero
    assert (a1 + a2) * (a1 + a2) == a1 + a2
    assert (a1 + 1) * a1 == B3.zero
    assert -a3 == a3
    assert B3.coefficient(3) == B3.one and B3.coefficient(-2) == B3.zero
    assert Coefficient(B3, [1, 1, 2]) == a2
    assert B3.image(Z.coefficient(-3)) == B3.one
    assert B3.image(IntegerModRing(4).coefficient(2)) == B3.zero
    assert str(a1 * a2 + a3 + a1) == "a1*a2+a3+a1"
    assert str(B3.zero) == "0" and str(B3.one) == "1"
    same = BooleanRing(["a1", "a2", "a3"])
    assert same == B3 and hash(same) == hash(B3) and same != BooleanRing(("a1", "a2"))
    with pytest.raises(AttributeError):
        B3.names = ("b",)


def test_boolean_units_and_torsion():
    a1, a2, _ = B3.gens()
    assert B3.one.is_unit() and B3.one.invert() == B3.one
    for x in (B3.zero, a1, a1 + 1, a1 * a2 + 1):
        assert not x.is_unit()
        with pytest.raises(NotAUnit):
            x.invert()
    assert B3.zero.is_nilpotent() and not a1.is_nilpotent()
    x = a1 * a2 + 1
    assert x.reduce_mod(2) == x and x.reduce_mod(4) == x
    assert x.reduce_mod(3) == B3.zero


def test_boolean_rejects_bad_input():
    with pytest.raises(ValueError):
        Coefficient(B3, [8])
    with pytest.raises(ValueError):
        Coefficient(B3, [-1])
    with pytest.raises(ValueError):
        BooleanRing(("a", "a"))
    with pytest.raises(ValueError):
        BooleanRing(())
    with pytest.raises(RingMismatch):
        B3.image(IntegerModRing(3).one)
    with pytest.raises(RingMismatch):
        B3.image(PolynomialRing(Z, ("a1", "a2")).gen("a1"))
    with pytest.raises(RingMismatch):
        boolean_polynomial(B3, P2.gen("a1"))


PZ3 = PolynomialRing(Z, B3.names)


@settings(deadline=None)
@given(st.data())
def test_boolean_image_is_a_homomorphism(data):
    # Z[a] -> F2[a]/(a_i^2 + a_i), read back as a polynomial, is multilinear_mod2
    x, y = (data.draw(coefficients(PZ3)) for _ in range(2))
    image = B3.image
    assert image(x + y) == image(x) + image(y)
    assert image(x * y) == image(x) * image(y)
    assert image(-x) == -image(x)
    assert boolean_polynomial(B3, image(x)) == multilinear_mod2(x)
    assert boolean_polynomial(B3, image(x * y)) == multilinear_mod2(x * y)
    assert boolean_polynomial(B3, image(x)).ring == PolynomialRing(F2, B3.names)


@st.composite
def _boolean_values(draw):
    """A Boolean ring of up to 70 indeterminates and one value, masks past 64 bits included."""
    n = draw(st.integers(1, 70))
    full = (1 << n) - 1
    mask = st.one_of(
        st.integers(0, full),
        st.sampled_from([0, 1 << (n - 1), full]),
        # high popcount: all indeterminates but a few
        st.lists(st.integers(0, n - 1), max_size=3).map(
            lambda bits: full & ~sum(1 << b for b in set(bits))
        ),
    )
    ring = BooleanRing(tuple(f"a{i}" for i in range(1, n + 1)))
    return ring, Coefficient(ring, draw(st.lists(mask, max_size=8)))


@settings(deadline=None, max_examples=300)
@given(_boolean_values())
def test_boolean_text_matches_polynomial_text(ring_and_value):
    # the masks print in PolynomialRing(Z/2) order without building exponent
    # vectors; the expected polynomial is built and ordered by that ring alone
    ring, c = ring_and_value
    n = len(ring.names)
    exps = {tuple((m >> i) & 1 for i in range(n)): 1 for m in c.value}
    expected = Coefficient(PolynomialRing(F2, ring.names), exps)
    assert boolean_polynomial(ring, c) == expected
    assert str(c) == str(boolean_polynomial(ring, c)) == str(expected)
    assert parse_coefficient(ring, str(c)) == c
    # a second, fresh ring prints the same: the kept mask texts change nothing
    assert str(c) == str(BooleanRing(ring.names).wrap(c.value))


@pytest.mark.parametrize("ring, value, digits", [
    (Z, 10**5000, 5001),
    (Z, -(10**5000), 5001),
    (IntegerModRing(10**4500 + 1), 10**4500, 4501),
    (PZ, {(0, 0): 10**5000}, 5001),
    (PZ, {(1, 0): 1, (0, 1): -(10**5000)}, 5001),
], ids=["Z", "Z-negative", "Z/n", "Z[a,b]-constant", "Z[a,b]-term"])
def test_over_long_coefficient_text_names_its_size(ring, value, digits):
    # past the interpreter's digit limit the engine refuses with its own words
    with pytest.raises(ValueError) as info:
        str(Coefficient(ring, value))
    assert str(info.value) == f"coefficient of {digits} digits is too long to print"
