"""Independent longhand oracles built on plain integer dicts.

These deliberately avoid the engine's Series machinery: coefficients are
raw ints keyed by (t_exp, z_exp), multiplication is a bare double loop, and
the quotient rules (truncation, 2-torsion on z) are applied by hand.
Nothing here imports the engine.
"""

import math


def normalize(terms, t_max=5, z_max=3, z_torsion=2):
    out = {}
    for (et, ez), c in terms.items():
        if et >= t_max or ez >= z_max:
            continue
        if ez > 0 and z_torsion:
            c %= z_torsion
        if c:
            out[(et, ez)] = c
    return out


def mul(f, g, t_max=5, z_max=3, z_torsion=2):
    out = {}
    for (a, b), c in f.items():
        for (d, e), k in g.items():
            key = (a + d, b + e)
            out[key] = out.get(key, 0) + c * k
    return normalize(out, t_max, z_max, z_torsion)


def sub(f, g, t_max=5, z_max=3, z_torsion=2):
    out = dict(f)
    for key, c in g.items():
        out[key] = out.get(key, 0) - c
    return normalize(out, t_max, z_max, z_torsion)


def computation_one_unit_candidate(t_max=5, z_max=3):
    """(1 + t + z)(1 + t)(1 + z + z^2), the candidate with a1 = 1."""
    one_tz = {(0, 0): 1, (1, 0): 1, (0, 1): 1}
    one_t = {(0, 0): 1, (1, 0): 1}
    inv_one_z = {(0, 0): 1, (0, 1): 1, (0, 2): 1}
    # sanity: the hand-written inverse really inverts 1 + z in the quotient
    assert mul({(0, 0): 1, (0, 1): 1}, inv_one_z, t_max, z_max) == {(0, 0): 1}
    return mul(mul(one_tz, one_t, t_max, z_max), inv_one_z, t_max, z_max)


def _candidate_values(a, law):
    """r(t), r(z) and r(F(t, z)) for r = 1 + a1 x + ..., unreduced.

    ``law`` is "additive", F(t, z) = t + z, or "multiplicative",
    F(t, z) = t + z + tz.
    """
    r_t = {(0, 0): 1}
    for i, ai in enumerate(a, start=1):
        r_t[(i, 0)] = r_t.get((i, 0), 0) + ai
    r_z = {(0, 0): 1}
    for i, ai in enumerate(a, start=1):
        r_z[(0, i)] = r_z.get((0, i), 0) + ai
    r_tz = {(0, 0): 1}
    for i, ai in enumerate(a, start=1):
        for k in range(i + 1):
            key = (i - k, k)
            r_tz[key] = r_tz.get(key, 0) + ai * math.comb(i, k)
    if law == "multiplicative":
        # (t + z + tz)^i by the multinomial theorem: j factors tz, k factors z
        r_tz = {(0, 0): 1}
        for i, ai in enumerate(a, start=1):
            for j in range(i + 1):
                for k in range(i - j + 1):
                    key = (i - k, j + k)
                    c = math.comb(i, j) * math.comb(i - j, k)
                    r_tz[key] = r_tz.get(key, 0) + ai * c
    return r_t, r_z, r_tz


def computation_one_longhand(coeffs, t_max=5, z_max=3, law="additive"):
    """r(F(t, z)) * r(t) / r(z) for the integer candidate (a1, ..., aD), by hand.

    r(z) = 1 + u with u nilpotent (z^z_max = 0), so its inverse is the
    geometric series 1 - u + u^2 - ... up to u^(z_max - 1).
    """
    r_t, r_z, r_tz = _candidate_values(list(coeffs), law)
    u = normalize({k: c for k, c in r_z.items() if k != (0, 0)}, t_max, z_max)
    inverse, power = {(0, 0): 1}, {(0, 0): 1}
    for k in range(1, z_max):
        power = mul(power, u, t_max, z_max)
        for key, c in power.items():
            inverse[key] = inverse.get(key, 0) + (-1) ** k * c
    inverse = normalize(inverse, t_max, z_max)
    assert mul(normalize(r_z, t_max, z_max), inverse, t_max, z_max) == {(0, 0): 1}
    numerator = mul(normalize(r_tz, t_max, z_max), normalize(r_t, t_max, z_max), t_max, z_max)
    return mul(numerator, inverse, t_max, z_max)


def delta_longhand(coeffs, t_max=5, z_max=3, law="additive"):
    """Defect of the integer candidate (a1, ..., aD), expanded by hand.

    ``law`` is "additive", F(t, z) = t + z, or "multiplicative",
    F(t, z) = t + z + tz; in both P(t) = t*F(t, z) and tau = 2.
    """
    a = list(coeffs)
    r_t, r_z, r_tz = _candidate_values(a, law)
    lhs = mul(
        normalize(r_tz, t_max, z_max), normalize(r_t, t_max, z_max), t_max, z_max
    )

    base = {(2, 0): 1, (1, 1): 1}  # t(t + z)
    if law == "multiplicative":
        base = {(2, 0): 1, (1, 1): 1, (2, 1): 1}  # t(t + z + tz)
    p2 = {(0, 0): 1}
    power = {(0, 0): 1}
    for ai in a:
        power = mul(power, base, t_max, z_max)
        for key, c in power.items():
            p2[key] = p2.get(key, 0) + ai * ai * c
    full = [1] + a  # a_0 = 1
    for i in range(len(full)):
        for j in range(i + 1, len(full)):
            key = (i + j, 0)
            p2[key] = p2.get(key, 0) + 2 * full[i] * full[j]
    rhs = mul(
        normalize(p2, t_max, z_max), normalize(r_z, t_max, z_max), t_max, z_max
    )
    return sub(lhs, rhs, t_max, z_max)


def power_op_longhand(f, t_max=5, z_max=3, law="additive", tau=2, modulus=None):
    """P(f) for f = {e: a_e}, an integer series in t, expanded by hand.

    P(t) = t*F(t, z) with F additive or multiplicative.  The squares
    a_e^2 P(t)^e come from repeated products, the cross terms
    tau*a_i*a_j*t^(i+j), i < j, one pair at a time.  With ``modulus`` the
    result is mapped to Z/modulus, where a z-positive coefficient is also
    killed by 2.
    """
    base = {(2, 0): 1, (1, 1): 1}  # t(t + z)
    if law == "multiplicative":
        base = {(2, 0): 1, (1, 1): 1, (2, 1): 1}  # t(t + z + tz)
    out = {}
    power = {(0, 0): 1}
    for e in range(max(f, default=-1) + 1):
        for key, c in power.items():
            out[key] = out.get(key, 0) + f.get(e, 0) ** 2 * c
        power = mul(power, base, t_max, z_max)
    for i, a_i in f.items():
        for j, a_j in f.items():
            if i < j:
                key = (i + j, 0)
                out[key] = out.get(key, 0) + tau * a_i * a_j
    out = normalize(out, t_max, z_max)
    if modulus:
        out = {k: c % (math.gcd(modulus, 2) if k[1] else modulus) for k, c in out.items()}
        out = {k: c for k, c in out.items() if c}
    return out


def z2_passes(coeffs, m):
    """Whether the candidate (a1, ..., aD), a1 odd, passes every relation at z-trunc 2.

    The closed form of the line z = 2 for the additive law, tau = 2, z
    torsion 2 and t-trunc m, in plain integers.  Over F2 write
    r(t) = E(t^2) + t*U(t^2) and s = t^2.  As z^2 = 0 and 2z = 0, the z-part
    of the defect is z*(U*E + E^2 + s*U^2)(s), so every relation holds
    exactly when U = E*C mod s^ceil(m/2), where C is the solution of
    C = 1 + s*C^2: C(s) = sum of s^(2^k - 1) over k >= 0, the Catalan
    series mod 2.
    """
    a = [1, *coeffs]  # a_0 = 1
    if a[1] % 2 == 0:
        raise ValueError("the closed form is for candidates with a1 odd")
    n = (m + 1) // 2  # the terms t^(2j), 2j < m
    even = [a[2 * j] % 2 if 2 * j < len(a) else 0 for j in range(n)]
    odd = [a[2 * j + 1] % 2 if 2 * j + 1 < len(a) else 0 for j in range(n)]
    catalan = [1 if (j + 1) & j == 0 else 0 for j in range(n)]  # j = 2^k - 1
    for j in range(n):
        if odd[j] != sum(even[i] * catalan[j - i] for i in range(j + 1)) % 2:
            return False
    return True


def naive_normalize(terms, specs):
    out = {}
    for exps, c in terms.items():
        if any(e >= trunc for e, (trunc, _) in zip(exps, specs)):
            continue
        modulus = 0
        for e, (_, torsion) in zip(exps, specs):
            if e > 0 and torsion:
                modulus = math.gcd(modulus, torsion)
        if modulus:
            c %= modulus
        if c:
            out[exps] = c
    return out


def naive_convolution(f, g, specs):
    """Bare double-loop product of plain dicts; specs = [(trunc, torsion)]."""
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return naive_normalize(out, specs)


def naive_substitute(f, images, specs):
    """f(images) for plain dicts: the sum of c * prod images[i]^e_i over f's terms.

    Powers are repeated :func:`naive_convolution` products; every image
    lives in the ring described by ``specs``.
    """
    one = naive_normalize({(0,) * len(specs): 1}, specs)
    out = {}
    for exps, c in f.items():
        term = one
        for image, e in zip(images, exps):
            for _ in range(e):
                term = naive_convolution(term, image, specs)
        for key, v in term.items():
            out[key] = out.get(key, 0) + c * v
    return naive_normalize(out, specs)

