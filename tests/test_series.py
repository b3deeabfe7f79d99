import itertools
import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from fglops import (
    ChernSeries,
    Coefficient,
    IntegerModRing,
    IntegerRing,
    NonConvergent,
    NotAUnit,
    PolynomialRing,
    RingMismatch,
    Series,
    SeriesRing,
    SeriesVar,
    additive_law,
    computation_one,
    delta,
    multiplicative_law,
    series_from_json,
    series_to_json,
    standard_ring,
    validate_law,
)
from conftest import lines_never_run, lorentz_terms, to_plain
from longhand import naive_convolution, naive_normalize

Z = IntegerRing()
TZ = standard_ring(Z)  # Z[[t,z]]/(2z, z^3, t^5)


def test_normalize_examples():
    assert TZ.from_terms({(1, 1): 3}) == TZ.from_terms({(1, 1): 1})
    assert TZ.from_terms({(0, 3): 1}) == TZ.zero
    assert TZ.from_terms({(1, 0): 2}) == TZ.gen("t") * 2


def test_normalize_idempotent():
    f = TZ.from_terms({(1, 1): 3, (2, 0): -7, (0, 2): 5})
    assert TZ.from_terms(dict(f.terms)) == f


def test_unknown_variable_errors():
    with pytest.raises(ValueError):
        TZ.from_terms({(1, 0, 0): 1})
    with pytest.raises(ValueError):
        TZ.from_terms({(1, -1): 1})


def test_add_mul_examples():
    cubic = SeriesRing(Z, (SeriesVar("t", 3),))
    one_t = cubic.one + cubic.gen("t")
    assert one_t * one_t == cubic.from_terms({(0,): 1, (1,): 2, (2,): 1})

    z = TZ.gen("z")
    assert z * (z * z) == TZ.zero
    assert (z + z * z) + z == z * z


def test_substitute_examples():
    coeffs = PolynomialRing(Z, ("a1",))
    ring = SeriesRing(
        coeffs, (SeriesVar("t", 5), SeriesVar("z", 3, 2))
    )
    t, z = ring.gen("t"), ring.gen("z")
    f = ring.one + ring.constant(coeffs.gen("a1")) * t
    image = f.substitute({"t": t + z})
    assert image == ring.one + ring.constant(coeffs.gen("a1")) * (t + z)

    t5 = SeriesRing(Z, (SeriesVar("t", 5),))
    assert (t5.gen("t") ** 2).substitute({"t": t5.zero}) == t5.zero

    f = TZ.one + TZ.gen("t") + TZ.gen("t") ** 2
    renamed = f.substitute({"t": TZ.gen("z")})
    assert renamed == TZ.one + TZ.gen("z") + TZ.gen("z") ** 2


def test_substitute_rejects_non_nilpotent_constant():
    t5 = SeriesRing(Z, (SeriesVar("t", 5),))
    f = t5.gen("t") + t5.one
    with pytest.raises(NonConvergent):
        f.substitute({"t": t5.one + t5.gen("t")})


def test_substitute_allows_nilpotent_constant():
    z4 = IntegerModRing(4)
    ring = SeriesRing(z4, (SeriesVar("t", 4),))
    f = ring.gen("t")
    image = f.substitute({"t": ring.constant(2) + ring.gen("t")})
    assert image == ring.constant(2) + ring.gen("t")


def test_invert_examples():
    z = TZ.gen("z")
    assert (TZ.one + z).invert() == TZ.one + z + z * z
    assert TZ.one.invert() == TZ.one
    t5 = SeriesRing(Z, (SeriesVar("t", 5),))
    with pytest.raises(NotAUnit):
        (t5.constant(2) + t5.gen("t")).invert()


def test_coefficient_of():
    f = TZ.from_terms({(0, 0): 1, (1, 0): 2, (2, 0): 1, (1, 1): 1})
    assert f.coefficient_of((1, 1)) == Z.one
    assert TZ.zero.coefficient_of((2, 1)) == Z.zero
    with pytest.raises(ValueError):
        f.coefficient_of((5, 0))
    with pytest.raises(ValueError):
        f.coefficient_of((1,))


def test_torsion_absorbs():
    rng = random.Random(7)
    z = TZ.gen("z")
    for _ in range(50):
        g = TZ.from_terms(
            {
                (rng.randrange(5), rng.randrange(3)): rng.randint(-9, 9)
                for _ in range(4)
            }
        )
        assert (g * 2) * z == TZ.zero


def _random_plain(rng, specs, max_terms=8, max_coeff=9):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randrange(trunc + 2) for trunc, _ in specs)
        terms[exps] = rng.randint(-max_coeff, max_coeff)
    return terms


RING_SHAPES = [
    ((5, None), (3, 2)),
    ((4, None), (4, None)),
    ((3, 2), (3, 3)),
    ((6, None),),
]


def _ring_for(specs):
    return SeriesRing(
        Z,
        tuple(
            SeriesVar(f"v{i}", trunc, torsion)
            for i, (trunc, torsion) in enumerate(specs)
        ),
    )


def test_mul_matches_naive_convolution():
    rng = random.Random(2024)
    for _ in range(200):
        specs = rng.choice(RING_SHAPES)
        ring = _ring_for(specs)
        f_plain = _random_plain(rng, specs)
        g_plain = _random_plain(rng, specs)
        f = ring.from_terms(f_plain)
        g = ring.from_terms(g_plain)
        expected = naive_convolution(
            naive_normalize(f_plain, specs), naive_normalize(g_plain, specs), specs
        )
        assert to_plain(f * g) == expected


def test_substitution_is_ring_homomorphism_sample():
    rng = random.Random(5)
    for _ in range(100):
        specs = rng.choice(RING_SHAPES)
        ring = _ring_for(specs)
        f = ring.from_terms(_random_plain(rng, specs))
        g = ring.from_terms(_random_plain(rng, specs))
        assignment = {}
        for i, v in enumerate(ring.variables):
            gen = ring.gen(v.name)
            image = ring.zero
            for e in range(1, v.trunc):
                image = image + gen ** e * rng.randint(-3, 3)
            assignment[v.name] = image
        lhs_add = (f + g).substitute(assignment)
        rhs_add = f.substitute(assignment) + g.substitute(assignment)
        assert lhs_add == rhs_add
        lhs_mul = (f * g).substitute(assignment)
        rhs_mul = f.substitute(assignment) * g.substitute(assignment)
        assert lhs_mul == rhs_mul


def test_inversion_exact_sample():
    rng = random.Random(11)
    for _ in range(100):
        specs = rng.choice(RING_SHAPES)
        ring = _ring_for(specs)
        terms = _random_plain(rng, specs)
        terms[(0,) * len(specs)] = rng.choice([1, -1])
        f = ring.from_terms(terms)
        assert f * f.invert() == ring.one


@st.composite
def tz_series(draw):
    n = draw(st.integers(0, 6))
    terms = {}
    for _ in range(n):
        exps = (draw(st.integers(0, 4)), draw(st.integers(0, 2)))
        terms[exps] = draw(st.integers(-9, 9))
    return TZ.from_terms(terms)


@settings(deadline=None)
@given(tz_series(), tz_series(), tz_series())
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + TZ.zero == f
    assert f * TZ.one == f


def test_specialize():
    coeffs = PolynomialRing(Z, ("a1", "a2"))
    ring = SeriesRing(coeffs, (SeriesVar("t", 5), SeriesVar("z", 3, 2)))
    a1, a2 = coeffs.gens()
    f = ring.constant(a1) * ring.gen("t") + ring.constant(a2 * 3) * ring.gen("z")
    numeric = f.specialize({"a1": -1, "a2": 1})
    assert to_plain(numeric) == {(1, 0): -1, (0, 1): 1}


def test_in_ring_transport():
    t5 = SeriesRing(Z, (SeriesVar("t", 5),))
    f = t5.one + t5.gen("t") * 4
    g = f.in_ring(TZ)
    assert to_plain(g) == {(0, 0): 1, (1, 0): 4}
    h = TZ.gen("z").in_ring(standard_ring(Z, t_trunc=7, z_trunc=2))
    assert to_plain(h) == {(0, 1): 1}
    with pytest.raises(ValueError):
        TZ.gen("z").in_ring(t5)


def test_json_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        specs = rng.choice(RING_SHAPES)
        ring = _ring_for(specs)
        f = ring.from_terms(_random_plain(rng, specs))
        assert series_from_json(series_to_json(f)) == f

    coeffs = PolynomialRing(IntegerModRing(2), ("a1", "a2"))
    ring = SeriesRing(coeffs, (SeriesVar("t", 5), SeriesVar("z", 3, 2)))
    f = ring.constant(coeffs.gen("a1")) * ring.gen("t") + ring.one
    blob = json.dumps(series_to_json(f))
    assert series_from_json(json.loads(blob)) == f


def test_json_schema_shape():
    f = TZ.gen("t")
    obj = series_to_json(f)
    assert obj["ring"]["coeff"] == "Z"
    assert obj["ring"]["vars"] == [
        {"name": "t", "trunc": 5},
        {"name": "z", "trunc": 3, "torsion": 2},
    ]
    assert obj["terms"] == [{"exp": [1, 0], "coef": "1"}]


def test_str_formatting():
    t, z = TZ.gen("t"), TZ.gen("z")
    assert str(TZ.zero) == "0"
    assert str(TZ.one + t * 2 + t * t + t * z) == "1 + 2*t + t^2 + t*z"
    assert str(TZ.one - t) == "1 - t"


def _power_sum_by_pow(root, coeffs):
    # independent of the power table: explicit Series.__pow__ for every term
    acc = root.ring.zero
    for i, c in enumerate(coeffs):
        acc = acc + root**i * c
    return acc


def _power_sum_calls():
    t, z = TZ.gen("t"), TZ.gen("z")
    nilpotent = t + z + t * z * 3
    unit = TZ.one + t
    return [
        (nilpotent, lambda: [1, 2, -3]),
        (nilpotent, lambda: [5, -1, 0, 2, 7, 1, -4, 3, 9, 2, 1]),
        (nilpotent, lambda: itertools.repeat(1)),
        (unit, lambda: [1, -2]),
        (unit, lambda: [3, 0, 1, -1, 2, 5, 1]),
    ]


def _fresh(f):
    return f.ring.from_terms(dict(f.terms))


def test_power_sum_cache_any_call_order():
    calls = _power_sum_calls()
    shared = {id(root): _fresh(root) for root, _ in calls}  # one cache per root, all orders
    for order in itertools.permutations(range(len(calls))):
        local = {id(root): _fresh(root) for root, _ in calls}  # one cache per root, this order
        for k in order:
            root, coeffs = calls[k]
            want = _fresh(root).power_sum(coeffs())
            assert shared[id(root)].power_sum(coeffs()) == want, (order, k)
            assert local[id(root)].power_sum(coeffs()) == want, (order, k)
    for root, coeffs in calls:
        finite = list(itertools.islice(coeffs(), 16))
        assert shared[id(root)].power_sum(finite) == _power_sum_by_pow(root, finite)


def test_power_sum_cache_shared_across_threads():
    calls = _power_sum_calls()
    roots = {id(root): _fresh(root) for root, _ in calls}
    work = [calls[i % len(calls)] for i in range(60)]
    want = [_fresh(root).power_sum(coeffs()) for root, coeffs in work]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(lambda r, c: roots[id(r)].power_sum(c()), root, coeffs)
                       for root, coeffs in work]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_power_sum_checks_coefficients():
    t = TZ.gen("t")
    with pytest.raises(RingMismatch):
        t.power_sum([1, IntegerModRing(2).one])
    with pytest.raises(TypeError):
        t.power_sum([1, 0.5])
    with pytest.raises(TypeError):
        t.power_sum([True])
    assert t.power_sum([]) == TZ.zero
    assert t.power_sum([Coefficient(Z, 3), 0, -1]) == TZ.one * 3 - t * t


def test_scalar_mul_matches_constant_series():
    rng = random.Random(17)
    poly = PolynomialRing(Z, ("a1", "a2"))
    rings = [(_ring_for(specs), Z) for specs in RING_SHAPES]
    rings.append((SeriesRing(IntegerModRing(4), (SeriesVar("t", 4), SeriesVar("z", 3, 2))), None))
    rings.append((SeriesRing(poly, (SeriesVar("t", 4), SeriesVar("z", 3, 2))), poly))
    for ring, _ in rings:
        specs = [(v.trunc, v.torsion) for v in ring.variables]
        for _ in range(30):
            f = ring.from_terms(_random_plain(rng, specs))
            c = rng.choice([0, 1, -1, 2, 3, -6])
            scalars = [c, ring.coeff_ring.coefficient(c)]
            if ring.coeff_ring == poly:
                scalars.append(poly.gen("a1") * c + poly.gen("a2"))
            for s in scalars:
                assert f * s == f * ring.constant(s) == s * f
                assert s - f == ring.constant(s) - f
                if isinstance(s, Coefficient):
                    assert 1 - s == s.ring.one - s
        assert f * 0 == ring.zero
    with pytest.raises(RingMismatch):
        TZ.gen("t") * IntegerModRing(2).one
    with pytest.raises(TypeError):
        TZ.gen("t") * 1.5
    with pytest.raises(TypeError):
        TZ.gen("t") * True


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: SeriesRing(Z, ()), ValueError, "at least one variable"),
    (lambda: SeriesRing(Z, (SeriesVar("t", 3), SeriesVar("t", 4))), ValueError, "must be unique"),
    (lambda: TZ.gen("t") + standard_ring(Z, 6).gen("t"), RingMismatch, "cannot combine series"),
    (lambda: TZ.gen("t").specialize({}), ValueError, "needs polynomial coefficients"),
    (lambda: TZ.gen("t").in_ring(standard_ring(IntegerModRing(2))), RingMismatch,
     "different coefficient ring"),
    (lambda: TZ.gen("t") + "t", TypeError, "unsupported operand"),
    (lambda: TZ.gen("t") - "t", TypeError, "unsupported operand"),
    (lambda: "t" - TZ.gen("t"), TypeError, "unsupported operand"),
], ids=["no-variables", "repeated-name", "ring-mismatch", "specialize-integers",
        "in-ring-other-coefficients", "str-add", "str-sub", "str-rsub"])
def test_refusals(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()


def test_a_string_is_no_series():
    assert TZ.gen("t") != "t" and not (TZ.gen("t") == "t")


def test_power_sum_and_substitute_run_every_line(default_context):
    # a line the laws, the defect and each refusal never run is a branch no caller needs
    law_ring = SeriesRing(Z, (SeriesVar("x", 8), SeriesVar("y", 8)))
    laws = (additive_law(Z, 8).series, multiplicative_law(Z, 8).series,
            law_ring.from_terms(lorentz_terms(8)))
    t = TZ.gen("t")

    def drive():
        for F in laws:
            validate_law(F).n_series(1500)
        r = ChernSeries([1, 1, 2])
        computation_one(r, default_context)
        delta(r, default_context)
        # the default target and unassigned variables
        assert t.substitute({}) == t.substitute({"z": TZ.gen("z")}) == t
        with pytest.raises(TypeError):
            t.power_sum([1, 0.5])
        with pytest.raises(RingMismatch):
            t.power_sum([1, IntegerModRing(2).one])
        with pytest.raises(ValueError, match="no variable named"):
            t.substitute({"x": t})
        with pytest.raises(RingMismatch, match="substitution target"):
            t.substitute({}, target=SeriesRing(IntegerModRing(2), TZ.variables))
        with pytest.raises(RingMismatch, match="image of t"):
            t.substitute({"t": t}, target=standard_ring(Z, 7, 3))
        with pytest.raises(NonConvergent):
            t.substitute({"t": TZ.one})

    assert lines_never_run((Series.power_sum, Series.substitute), drive) == []
