"""The fused step of the raw-value protocol: ``Ring.mul_add`` and ``Ring.settle``.

Series products, power sums and substitutions accumulate each coefficient
with ``mul_add`` and settle it once.  The grid checks those three operations
against ``tests/longhand.py`` over Z, Z/n, Z[a1..a3], Z/4[a,b] and B_3.

The oracle splits a series into integer series, one per monomial label of
its coefficients: () over Z and Z/n, an exponent vector over the polynomial
rings and over B_3, whose values are read through ``boolean_polynomial``.  A
product of two series is then the sum, over pairs of labels, of longhand
integer products (``naive_convolution``), filed under the combined label.
Labels add over polynomial rings and combine by maximum over B_3, where
a_i^2 = a_i.  Z/n, Z/4[a,b] and B_3 are images of the integer computation:
each coefficient is reduced at the end modulo gcd(n, torsion), with n = 4
for Z/4[a,b] and 2 for B_3.
"""

import math
import random

import pytest

from fglops import (
    BooleanRing,
    Coefficient,
    IntegerModRing,
    IntegerRing,
    PolynomialRing,
    SeriesRing,
    SeriesVar,
    boolean_relations,
    standard_context,
)
from conftest import boolean_polynomial
from longhand import naive_convolution, naive_normalize

Z = IntegerRing()
NAMES = ("a1", "a2", "a3")
PZ3 = PolynomialRing(Z, NAMES)
B3 = BooleanRing(NAMES)
# (ring, modulus of the oracle's final reduction, label combination)
KINDS = {
    "Z": (Z, 0, None),
    **{f"Z/{n}": (IntegerModRing(n), n, None) for n in (3, 4, 6, 8)},
    "Z[a1,a2,a3]": (PZ3, 0, lambda x, y: tuple(map(sum, zip(x, y)))),
    "Z/4[a,b]": (PolynomialRing(IntegerModRing(4), ("a", "b")), 4,
                 lambda x, y: tuple(map(sum, zip(x, y)))),
    "B3": (B3, 2, lambda x, y: tuple(map(max, zip(x, y)))),
}
POLYNOMIAL_KINDS = ("Z[a1,a2,a3]", "Z/4[a,b]")
TORSIONS = (None, 2, 3, 4, 6)
SEEDS = range(6)


def _combine(kind):
    return KINDS[kind][2] or (lambda x, y: ())


def _zero_label(kind):
    return (0,) * len(KINDS[kind][0].names) if KINDS[kind][2] else ()


def _random_value(rng, kind) -> dict:
    """A coefficient as {label: int}."""
    if kind == "B3":
        return {tuple(rng.randint(0, 1) for _ in NAMES): 1 for _ in range(rng.randint(1, 3))}
    if kind in POLYNOMIAL_KINDS:
        return {tuple(rng.randint(0, 2) for _ in KINDS[kind][0].names): rng.randint(-4, 4)
                for _ in range(rng.randint(1, 3))}
    return {(): rng.randint(-6, 6)}


def _coefficient(kind, value: dict) -> Coefficient:
    ring = KINDS[kind][0]
    if kind == "B3":
        return Coefficient(ring, [sum(1 << i for i, x in enumerate(label) if x)
                                  for label, c in value.items() if c % 2])
    if kind in POLYNOMIAL_KINDS:
        return Coefficient(ring, value)
    return Coefficient(ring, value.get((), 0))


def _labelled(kind, coef: Coefficient) -> dict:
    if kind == "B3":
        return dict(boolean_polynomial(B3, coef).value)
    if kind in POLYNOMIAL_KINDS:
        return dict(coef.value)
    return {(): coef.value}


def _settle(kind, f: dict, specs) -> dict:
    """Longhand normal form of {exps: {label: int}}: truncation, torsion, mod gcd(n, torsion)."""
    modulus = KINDS[kind][1]
    out = {}
    for exps, value in f.items():
        if any(e >= trunc for e, (trunc, _) in zip(exps, specs)):
            continue
        order = 0
        for e, (_, torsion) in zip(exps, specs):
            if e and torsion:
                order = math.gcd(order, torsion)
        reduce_by = math.gcd(modulus, order)
        kept = {label: c % reduce_by if reduce_by else c for label, c in value.items()}
        kept = {label: c for label, c in kept.items() if c}
        if kept:
            out[exps] = kept
    return out


def _components(f: dict) -> dict:
    out = {}
    for exps, value in f.items():
        for label, c in value.items():
            out.setdefault(label, {})[exps] = c
    return out


def _add_into(acc: dict, f: dict) -> None:
    for exps, value in f.items():
        slot = acc.setdefault(exps, {})
        for label, c in value.items():
            slot[label] = slot.get(label, 0) + c


def longhand_mul(kind, f: dict, g: dict, specs) -> dict:
    combine, out = _combine(kind), {}
    for la, fa in _components(f).items():
        for lb, gb in _components(g).items():
            part = naive_convolution(naive_normalize(fa, specs), naive_normalize(gb, specs), specs)
            _add_into(out, {exps: {combine(la, lb): c} for exps, c in part.items()})
    return _settle(kind, out, specs)


def _constant(kind, value: dict, specs) -> dict:
    return _settle(kind, {(0,) * len(specs): dict(value)}, specs)


def longhand_power_sum(kind, f: dict, coeffs, specs) -> dict:
    power = _constant(kind, {_zero_label(kind): 1}, specs)
    out = {}
    for c in coeffs:
        _add_into(out, longhand_mul(kind, _constant(kind, c, specs), power, specs))
        power = longhand_mul(kind, power, f, specs)
    return _settle(kind, out, specs)


def longhand_substitute(kind, f: dict, images, specs) -> dict:
    out = {}
    for exps, value in f.items():
        term = _constant(kind, value, specs)
        for image, e in zip(images, exps):
            for _ in range(e):
                term = longhand_mul(kind, term, image, specs)
        _add_into(out, term)
    return _settle(kind, out, specs)


def _series(kind, ring: SeriesRing, f: dict):
    return ring.from_terms({exps: _coefficient(kind, value) for exps, value in f.items()})


def _read(kind, series) -> dict:
    return {exps: _labelled(kind, coef) for exps, coef in series.terms.items()}


def _random_series(rng, kind, specs, count, constant=True) -> dict:
    f = {}
    for _ in range(count):
        exps = tuple(rng.randrange(trunc) for trunc, _ in specs)
        if constant or any(exps):
            f[exps] = _random_value(rng, kind)
    return _settle(kind, f, specs)


def _shape(rng):
    """(truncation, torsion) of one or two variables."""
    return [(rng.randint(1, 5), rng.choice(TORSIONS)) for _ in range(rng.randint(1, 2))]


def _ring(kind, specs) -> SeriesRing:
    return SeriesRing(KINDS[kind][0], tuple(SeriesVar(name, trunc, torsion)
                                            for name, (trunc, torsion) in zip("tz", specs)))


@pytest.mark.parametrize("kind", KINDS)
def test_products_match_longhand(kind):
    for seed in SEEDS:
        rng = random.Random(f"{kind}:mul:{seed}")
        specs = _shape(rng)
        ring = _ring(kind, specs)
        for _ in range(4):
            f, g = (_random_series(rng, kind, specs, rng.randint(1, 6)) for _ in range(2))
            product = _series(kind, ring, f) * _series(kind, ring, g)
            assert _read(kind, product) == longhand_mul(kind, f, g, specs), (specs, f, g)


@pytest.mark.parametrize("kind", KINDS)
def test_power_sums_match_longhand(kind):
    for seed in SEEDS:
        rng = random.Random(f"{kind}:power_sum:{seed}")
        specs = _shape(rng)
        ring = _ring(kind, specs)
        for _ in range(3):
            f = _random_series(rng, kind, specs, rng.randint(1, 4), constant=False)
            coeffs = [_random_value(rng, kind) for _ in range(rng.randint(1, 6))]
            result = _series(kind, ring, f).power_sum([_coefficient(kind, c) for c in coeffs])
            assert _read(kind, result) == longhand_power_sum(kind, f, coeffs, specs), (specs, f)


@pytest.mark.parametrize("kind", KINDS)
def test_substitutions_match_longhand(kind):
    for seed in SEEDS:
        rng = random.Random(f"{kind}:substitute:{seed}")
        specs = _shape(rng)
        ring = _ring(kind, specs)
        for _ in range(3):
            f = _random_series(rng, kind, specs, rng.randint(1, 4))
            images = [_random_series(rng, kind, specs, rng.randint(1, 3), constant=False)
                      for _ in specs]
            assignment = {v.name: _series(kind, ring, image)
                          for v, image in zip(ring.variables, images)}
            result = _series(kind, ring, f).substitute(assignment)
            assert _read(kind, result) == longhand_substitute(kind, f, images, specs), (specs, f)


@pytest.mark.parametrize("kind", KINDS)
def test_mul_add_is_add_of_mul_and_settle_fixes_canonical_values(kind):
    ring = KINDS[kind][0]
    rng = random.Random(f"{kind}:protocol")
    for _ in range(40):
        a, b, c, d, x = (_coefficient(kind, _random_value(rng, kind)).value for _ in range(5))
        for v in (a, b, x, ring.from_int(0), ring.from_int(1)):
            assert ring.settle(v) == v
        assert ring.settle(ring.mul_add(None, a, b)) == ring.mul(a, b)
        assert ring.settle(ring.mul_add(x, a, b)) == ring.add(x, ring.mul(a, b))
        working = ring.mul_add(ring.mul_add(None, a, b), c, d)
        assert ring.settle(working) == ring.add(ring.mul(a, b), ring.mul(c, d))


def _boolean_series_values(series) -> list:
    return [coef.value for coef in series.terms.values()]


def test_boolean_series_keep_only_frozensets():
    ring = SeriesRing(B3, (SeriesVar("t", 5), SeriesVar("z", 3, 2)))
    t, z = ring.gen("t"), ring.gen("z")
    a1, a2, a3 = B3.gens()
    f = ring.one + ring.constant(a1) * t + ring.constant(a2 + a3) * t * z
    g = ring.constant(a1 * a2) * z + t
    results = {
        "add": f + g, "sub": f - g, "neg": -f, "mul": f * g, "scalar": f * (a1 + a3),
        "int": 3 * f, "pow": f ** 3, "power_sum": g.power_sum([a1, a2, 1, a3]),
        "substitute": f.substitute({"t": t + g, "z": z}), "invert": f.invert(),
        "constructed": ring.from_terms({(1, 1): a1, (2, 0): a2 + a2}),
    }
    for name, series in results.items():
        values = _boolean_series_values(series)
        assert values and all(type(v) is frozenset for v in values), name
    assert f * f.invert() == ring.one


def test_boolean_relations_keep_only_frozensets():
    rows = boolean_relations(6, standard_context(Z, 9, 5))
    assert rows and all(type(coef.value) is frozenset for _, coef in rows)
