"""The verdicts of the exhaustive search follow the map the README gives.

For the additive law, tau = 2 and z torsion 2 (the contexts ``obstruct
--search`` runs in), with candidate degree D:

* t <= 1, z <= 1 or (t, z) = (2, 2): there are no relations, so every D is
  satisfiable;
* (t, z) = (2, 3): unsatisfiable only at D = 1;
* z = 2 and t >= 3: unsatisfiable exactly when D <= (t - 1) // 2;
* every other point: unsatisfiable.

The grid is every point with t <= 3 or z <= 3 (where the map has its
cases), plus a seeded sample of the rest, all with t <= 14, z <= 10 and
D <= 12.
"""

import random

from fglops import IntegerRing, exhaustive_search, standard_context

Z = IntegerRing()


def expected_verdict(t: int, z: int, degree: int) -> str:
    if t <= 1 or z <= 1 or (t, z) == (2, 2):
        return "satisfiable"
    if (t, z) == (2, 3):
        unsatisfiable = degree == 1
    elif z == 2:
        unsatisfiable = degree <= (t - 1) // 2
    else:
        unsatisfiable = True
    return "unsatisfiable" if unsatisfiable else "satisfiable"


def _grid() -> list:
    points = [
        (t, z, degree)
        for t in range(1, 15) for z in range(1, 11) for degree in range(1, 13)
        if t <= 3 or z <= 3
    ]
    rng = random.Random("verdict-map")
    points += [(rng.randint(4, 14), rng.randint(4, 10), rng.randint(1, 12)) for _ in range(120)]
    return points


def test_search_follows_the_verdict_map():
    seen = set()
    for t, z, degree in _grid():
        report = exhaustive_search(degree, standard_context(Z, t, z))
        assert report.verdict == expected_verdict(t, z, degree), (t, z, degree)
        if report.witness is not None:
            assert len(report.witness) == degree and report.witness[0] == 1, (t, z, degree)
        else:
            assert len(report.failing) << report.tail == 1 << (degree - 1), (t, z, degree)
        if t <= 1 or z <= 1 or (t, z) == (2, 2):
            assert report.relations == (), (t, z, degree)
        else:
            assert report.relations, (t, z, degree)
        seen.add(report.verdict)
    assert seen == {"satisfiable", "unsatisfiable"}
