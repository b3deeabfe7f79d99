"""Relation tables against a second, independent oracle: sympy.

The generic defect

    delta = r(t +_F z) * r(t) - P(r(t)) * r(z),   r(x) = 1 + a1 x + ... + aD x^D,

is built in Z[t, z, a1..aD] with sympy's sparse polynomials, straight from
the formula of the power operation with tau = 2,

    P(sum_i b_i t^i) = sum_i b_i^2 P(t)^i + sum_k 2 * sum_{i<j, i+j=k} b_i b_j t^k,
    P(t) = t * F(t, z),   b_0 = 1, b_i = a_i,

dropping the terms at t^m and z^k after each product.  The z-positive
coefficients are then read mod 2 with a_i^2 = a_i, which is where the
relation 2z = 0 enters.  No fglops arithmetic runs on this side; the rows
must equal those of :func:`boolean_relations`, one by one and in order.
"""

import pytest

pytest.importorskip("sympy")

from sympy import ZZ
from sympy.polys.rings import ring

from fglops import IntegerRing, boolean_relations, builtin_law, standard_context


def sympy_relations(t_trunc, z_trunc, degree, law):
    R, t, z, *a = ring(["t", "z"] + [f"a{i}" for i in range(1, degree + 1)], ZZ)

    def cut(p):
        return R({m: c for m, c in p.items() if m[0] < t_trunc and m[1] < z_trunc})

    def powers(x):
        # x^i vanishes once i reaches t_trunc + z_trunc
        out = [R.one]
        for _ in range(t_trunc + z_trunc):
            out.append(cut(out[-1] * x))
        return out

    b = [R.one, *a]

    def power_sum(coeffs, root_powers):
        n = min(len(coeffs), len(root_powers))
        return sum((cut(coeffs[i] * root_powers[i]) for i in range(n)), R.zero)

    F = t + z + t * z if law == "multiplicative" else t + z
    t_powers = powers(t)
    squares = power_sum([b_i ** 2 for b_i in b], powers(cut(t * F)))
    cross = sum(
        (
            2 * b[i] * b[k - i] * t_powers[k]
            for k in range(t_trunc)
            for i in range(max(0, k + 1 - len(b)), (k + 1) // 2)
        ),
        R.zero,
    )
    r_t = power_sum(b, t_powers)
    defect = cut(power_sum(b, powers(F)) * r_t) - cut((squares + cross) * power_sum(b, powers(z)))

    rows = {}
    for (i, j, *exps), c in defect.items():
        if j and c % 2:
            mask = sum(1 << n for n, e in enumerate(exps) if e)
            rows[i, j] = rows.get((i, j), frozenset()) ^ {mask}
    rows = [(exps, masks) for exps, masks in rows.items() if masks]
    return sorted(rows, key=lambda row: (row[0][1], row[0][0]))


@pytest.mark.parametrize("law", ["additive", "multiplicative"])
@pytest.mark.parametrize("t_trunc, z_trunc, degree", [
    (3, 2, 6), (5, 3, 3), (9, 5, 8), (17, 9, 10), (17, 2, 12), (2, 9, 8), (33, 17, 12),
])
def test_relations_match_sympy(t_trunc, z_trunc, degree, law):
    fgl = builtin_law(law, IntegerRing(), max(t_trunc, z_trunc))
    ctx = standard_context(IntegerRing(), t_trunc, z_trunc, law=fgl)
    ours = [(exps, coef.value) for exps, coef in boolean_relations(degree, ctx)]
    assert ours == sympy_relations(t_trunc, z_trunc, degree, law)
    assert ours  # every point here has relations
