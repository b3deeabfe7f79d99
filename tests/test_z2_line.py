"""The line z-trunc = 2 against its closed form (:func:`longhand.z2_passes`).

For the additive law, tau = 2, z torsion 2, t-trunc m and z-trunc 2, a
candidate with a1 = 1 passes every relation exactly when, over F2 with
r(t) = E(t^2) + t*U(t^2), U = E*C mod s^ceil(m/2), C the Catalan series
mod 2.  So 2^(D - ceil(m/2)) of the 2^(D-1) candidates pass when
D >= ceil(m/2), none otherwise, and (m, 2, D) is unsatisfiable exactly when
D <= (m - 1) // 2.  The oracle is plain integer arithmetic; these tests hold
the Boolean relation rows and the exhaustive search to it.
"""

import itertools
import random

import pytest

from fglops import IntegerRing, boolean_relations, exhaustive_search, standard_context
from longhand import z2_passes

Z = IntegerRing()


def _rows_pass(rows, candidate) -> bool:
    # a row is 1 at a {0, 1} candidate when an odd number of its masks divide it
    off = ~sum(bit << i for i, bit in enumerate(candidate))
    return not any(sum(not m & off for m in masks) % 2 for _, masks in rows)


def _solved_candidate(rng, degree, m):
    """Random even-index coefficients, and odd-index ones solving U = E*C where D reaches them."""
    a = [1] + [rng.randint(0, 1) for _ in range(degree)]  # a[0] = 1
    even = a[0::2]
    for j in range(1, (degree + 1) // 2):
        # C_k = 1 exactly when k = 2^l - 1
        a[2 * j + 1] = sum(even[i] for i in range(j + 1) if (j - i + 1) & (j - i) == 0) % 2
    a[1] = 1
    return tuple(a[1:])


def test_closed_form_rejects_even_a1():
    with pytest.raises(ValueError, match="a1 odd"):
        z2_passes((0, 1), 5)


def test_rows_match_closed_form():
    # random candidates almost never pass once ceil(m/2) is large, so half of
    # the samples are solved from their even coefficients
    rng = random.Random("z2-rows")
    points = [(rng.randint(1, 63), rng.randint(1, 62)) for _ in range(10)]
    points += [(9, 14), (12, 12), (20, 13), (33, 24), (63, 31), (63, 62)]
    outcomes = set()
    for m, degree in points:
        rows = boolean_relations(degree, standard_context(Z, m, 2))
        for k in range(12):
            if k % 2:
                cand = _solved_candidate(rng, degree, m)
            else:
                cand = (1, *(rng.randint(0, 1) for _ in range(degree - 1)))
            verdict = z2_passes(cand, m)
            assert _rows_pass(rows, cand) == verdict, (m, degree, cand)
            outcomes.add(verdict)
    assert outcomes == {True, False}


def test_passing_count_every_candidate():
    # 2^(D - ceil(m/2)) passing candidates for D >= ceil(m/2), none below
    for m in range(1, 14):
        for degree in range(1, 9):
            rows = boolean_relations(degree, standard_context(Z, m, 2))
            count = 0
            for tail in itertools.product((0, 1), repeat=degree - 1):
                verdict = z2_passes((1, *tail), m)
                assert _rows_pass(rows, (1, *tail)) == verdict, (m, degree, tail)
                count += verdict
            n = (m + 1) // 2
            assert count == (2 ** (degree - n) if degree >= n else 0), (m, degree)


def _search_points():
    rng = random.Random("z2-search")
    points = {(m, d) for m in (2, 3, 4, 5, 17, 33) for d in (1, 2, 8, 9)}
    points |= {(rng.randint(2, 33), rng.randint(1, 14)) for _ in range(24)}
    points |= {(9, 14), (17, 14), (20, 13), (33, 14), (17, 8), (17, 9), (27, 13), (28, 14)}
    return sorted(points)


@pytest.mark.parametrize("m, degree", _search_points())
def test_search_matches_closed_form(m, degree):
    # candidates in search order: a1 = 1, the last coefficient varying fastest
    report = exhaustive_search(degree, standard_context(Z, m, 2))
    candidates = [(1, *tail) for tail in itertools.product((0, 1), repeat=degree - 1)]
    witness = next((c for c in candidates if z2_passes(c, m)), None)
    assert report.witness == witness
    assert report.verdict == ("unsatisfiable" if degree <= (m - 1) // 2 else "satisfiable")
    if witness is None:
        assert [cand for cand, _ in report.failures] == candidates
