"""Packed monomial keys: the layout, and series arithmetic on it against longhand.

A series stores each monomial as one int with a bit field per variable
(:class:`fglops.series.KeyLayout`).  The layout tests compare the packed sum
and the overflow test with per-field arithmetic; the arithmetic tests
compare products and substitutions with the plain-dict oracles of
``tests/longhand.py`` at truncations on both sides of powers of two.
"""

import itertools
import random

import pytest

from fglops import IntegerRing, SeriesRing, SeriesVar
from longhand import naive_convolution, naive_normalize, naive_substitute

TRUNCS = (1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 127, 128, 129)
TORSIONS = (None, 2, 4, 6)


def _ring(truncs, torsions, names=("t", "z", "w")):
    return SeriesRing(
        IntegerRing(), tuple(SeriesVar(n, m, o) for n, m, o in zip(names, truncs, torsions))
    )


def _shapes(rng, nvars):
    """(truncations, torsion orders) for ``nvars`` variables, each truncation in turn."""
    for trunc in TRUNCS:
        truncs = [trunc] + [rng.choice(TRUNCS) for _ in range(nvars - 1)]
        rng.shuffle(truncs)
        yield tuple(truncs), tuple(rng.choice(TORSIONS) for _ in range(nvars))


def _edge_exponents(trunc):
    """In-range exponents at the ends and around half of [0, trunc)."""
    half = trunc // 2
    return sorted({e for e in (0, 1, half - 1, half, half + 1, trunc - 2, trunc - 1) if 0 <= e < trunc})


def _vectors(rng, truncs, count):
    edges = [_edge_exponents(m) for m in truncs]
    if all(len(e) ** len(truncs) <= count for e in edges):
        yield from itertools.product(*edges)
    for _ in range(count):
        yield tuple(rng.randrange(m) for m in truncs)
        yield tuple(rng.choice(e) for e in edges)


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_layout_round_trip_and_overflow(nvars):
    rng = random.Random(nvars)
    for truncs, torsions in _shapes(rng, nvars):
        layout = _ring(truncs, torsions).layout
        vectors = list(_vectors(rng, truncs, 40))
        for e in vectors:
            assert layout.unpack(layout.pack(e)) == e
        for e1, e2 in itertools.product(vectors, repeat=2):
            total = tuple(a + b for a, b in zip(e1, e2))
            key = layout.pack(e1) + layout.pack(e2)
            assert layout.unpack(key) == total, (truncs, e1, e2)
            overflows = any(s >= m for s, m in zip(total, truncs))
            assert bool((key + layout.bias) & layout.overflow) == overflows, (truncs, e1, e2)


def test_layout_fields_tile_the_key():
    layout = _ring((1, 64, 129), (None, 2, None)).layout
    assert layout.offsets == (0, 1, 8)
    assert [mask.bit_count() for mask in layout.masks] == [1, 7, 9]
    assert sum(layout.masks) == (1 << 17) - 1
    assert _ring((5,), (None,)).one.terms == {(0,): 1}


def _random_terms(rng, truncs, count, reach=1):
    """Random integer terms; exponents may reach ``reach`` times the truncation."""
    terms = {}
    for _ in range(count):
        exps = tuple(rng.choice([rng.randrange(m * reach), *_edge_exponents(m)]) for m in truncs)
        terms[exps] = rng.randint(-6, 6)
    return terms


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_products_match_longhand(nvars):
    rng = random.Random(100 + nvars)
    for truncs, torsions in _shapes(rng, nvars):
        ring = _ring(truncs, torsions)
        specs = list(zip(truncs, torsions))
        for _ in range(4):
            f = _random_terms(rng, truncs, 6, reach=2)
            g = _random_terms(rng, truncs, 6)
            product = ring.from_terms(f) * ring.from_terms(g)
            expected = naive_convolution(naive_normalize(f, specs), naive_normalize(g, specs), specs)
            assert {e: int(c.value) for e, c in product.terms.items()} == expected, (truncs, f, g)


def _nilpotent_image(rng, truncs):
    """A zero-constant image with at most two terms whose powers stay at two terms.

    The second term has an exponent of at least half a truncation, so its
    square is zero and (m1 + m2)^e = m1^e + e*m1^(e-1)*m2.
    """
    first = tuple(rng.randrange(m) for m in truncs)
    if not any(first):
        first = tuple(1 if i == 0 else 0 for i in range(len(truncs)))
    terms = {first: rng.randint(1, 3)}
    i = rng.randrange(len(truncs))
    if truncs[i] > 1 and rng.random() < 0.5:
        second = [rng.randrange(m) for m in truncs]
        second[i] = rng.randrange((truncs[i] + 1) // 2, truncs[i])
        terms[tuple(second)] = rng.randint(-3, 3)
    return terms


@pytest.mark.parametrize("shape", ["one", "two", "three", "law"])
def test_substitute_matches_longhand(shape):
    rng = random.Random(shape)
    if shape == "law":
        # validate_law's associativity ring: three torsion-free variables of one truncation
        shapes = (((m, m, m), (None, None, None)) for m in TRUNCS)
    else:
        shapes = _shapes(rng, ("one", "two", "three").index(shape) + 1)
    for truncs, torsions in shapes:
        ring = _ring(truncs, torsions)
        specs = list(zip(truncs, torsions))
        for _ in range(3):
            f = naive_normalize(_random_terms(rng, truncs, 3), specs)
            images = [naive_normalize(_nilpotent_image(rng, truncs), specs) for _ in truncs]
            assignment = {v.name: ring.from_terms(img) for v, img in zip(ring.variables, images)}
            result = ring.from_terms(f).substitute(assignment)
            expected = naive_substitute(f, images, specs)
            assert {e: int(c.value) for e, c in result.terms.items()} == expected, (truncs, f)
