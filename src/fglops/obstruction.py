"""Compatibility defect of a candidate class against the power operation.

For a candidate r the defect is the exact difference

    delta(r) = r(t +_F z) * r(t) - P(r(t)) * r(z)

computed in the two-variable quotient ring, where torsion normalization
removes everything divisible by the torsion order automatically.

Relation tables.  The coefficient of each z-positive monomial of the
defect of the generic candidate 1 + a1 x + ... + aD x^D is 2-torsion, so it
is read mod 2 as a multilinear polynomial over F2 (integer values satisfy
a^2 = a mod 2); each nonzero one is a relation every viable candidate must
satisfy.  Reducing mod 2 with a_i^2 = a_i is a ring homomorphism

    Z[a][[t, z]]/(2z, z^k, t^m) -> B_D[[t, z]]/(z^k, t^m),
    B_D = F2[a1..aD]/(a_i^2 + a_i),

and it commutes with the power operation, so :func:`boolean_relations`
maps the law and tau of the numeric context into B_D and computes the
defect's four factors there (:func:`defect_factors`, which :func:`delta`
multiplies out); the integer polynomials never form.  It does not form the
two products either: each factor is sliced by monomial mask, and each
pair of slices writes its share of the z-positive terms straight into the
rows, so the z^0 terms that no row keeps are never computed.  The
relations are B_D values, which print as their F2[a1..aD] polynomials, and
they are what the CLI prints and the search evaluates.  :func:`extract_relations` is the
independent reference: the defect over Z[a1..aD] (:func:`symbolic_twin`)
reduced at the end by :func:`multilinear_mod2`, with the same rows as
PolynomialRing(Z/2, names) values.

Search.  With tau = 2 the z^0 part of every defect is zero, and with z
torsion 2 every z-positive coefficient is its image mod 2, so the verdict
depends only on the a_i mod 2.  The exhaustive search gives a verdict on
every integer candidate with a1 = 1 and remaining coefficients in {0, 1},
which then covers all integer candidates, and certifies it with one failing
monomial per candidate; it refuses other values of tau and of the z
torsion.  A candidate's z-positive coefficients are the Boolean relations
evaluated at it, so its failing monomial is the first relation, in (z, t)
order, that evaluates to 1.  The search computes the Boolean relation
rows once and evaluates them on candidate bitmasks; no series arithmetic is
done per candidate.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .coefficients import (
    BooleanRing,
    Coefficient,
    Immutable,
    IntegerModRing,
    IntegerRing,
    PolynomialRing,
    is_int,
    monomial_text,
)
from .chern import ChernSeries, coefficient_names
from .powerops import PowerOpContext
from .series import Series, SeriesRing


def defect_factors(r: ChernSeries, ctx: PowerOpContext) -> tuple:
    """The factor pairs of the defect, ((r(F(t, z)), r(t)), (P(r(t)), r(z))).

    The defect is the first pair's product minus the second's.
    """
    r_t = r.value_at(ctx.t)
    return (r.value_at(ctx.tensor_root), r_t), (ctx.power_op(r_t), r.value_at(ctx.z))


def delta(r: ChernSeries, ctx: PowerOpContext) -> Series:
    """The exact defect series of the candidate r in the context ring."""
    (f, g), (p, q) = defect_factors(r, ctx)
    return f * g - p * q


def multilinear_mod2(coef: Coefficient) -> Coefficient:
    """Reduce a polynomial coefficient to its multilinear form over F2.

    Base coefficients are taken mod 2 and indeterminate exponents capped at
    one, the normal form of the induced function on integer points mod 2.
    """
    ring = coef.ring
    if not isinstance(ring, PolynomialRing):
        raise ValueError("multilinear reduction needs polynomial coefficients")
    target = PolynomialRing(IntegerModRing(2), ring.names)
    acc: dict = {}
    for exps, c in coef.value:
        key = tuple(1 if e else 0 for e in exps)
        acc[key] = acc.get(key, 0) + int(c)
    return Coefficient(target, acc)


def boolean_relations(degree: int, ctx: PowerOpContext) -> list:
    """Relations on a1..aD as values of the Boolean ring F2[a1..aD]/(a_i^2 + a_i).

    ``degree`` is the candidate degree D and ``ctx`` the numeric context.
    The law and tau are mapped into B_D (:meth:`BooleanRing.image`, which
    refuses coefficients with no reduction mod 2) and the four factors of
    the defect of the generic candidate 1 + a1 x + ... + aD x^D
    (:func:`defect_factors`) are computed there.  Their two products are
    not formed as series: only their z-positive terms are written, straight
    into the rows (:func:`_toggle_z_positive`), and in B_D the difference
    of the products is their sum.  Returns (monomial exponents, B_D
    coefficient) pairs for the nonzero z-positive coefficients, ordered by
    (z-degree, t-degree); all coefficients share one fresh ring, so
    printing the table formats each distinct monomial mask once.
    """
    if not is_int(degree) or degree < 1:
        raise ValueError(f"candidate degree must be a positive integer, got {degree!r}")
    if any(v.torsion is not None and v.torsion % 2 for v in ctx.ring.variables):
        raise ValueError("relations are read mod 2, which needs even torsion orders")
    boolean = BooleanRing(coefficient_names(degree))
    bool_ctx = ctx.map_coefficients(boolean, boolean.image)
    layout = bool_ctx.ring.layout
    rows: dict = {}
    for f, g in defect_factors(ChernSeries(boolean.gens(), boolean), bool_ctx):
        _toggle_z_positive(rows, layout, f, g)
    # z is the high key field, so key order is (z-degree, t-degree) order; an
    # even torsion order reduces nothing in B_D, where 2 = 0
    t_field, z_offset, wrap = layout.masks[0], layout.offsets[1], boolean.wrap
    return [
        ((key & t_field, key >> z_offset), wrap(frozenset(rows[key])))
        for key in sorted(rows) if rows[key]
    ]


def _mask_slices(f: Series, z_field: int) -> list:
    """(monomial mask, its z-positive keys, all its keys) for each a-monomial of a B_D series."""
    keys_of: dict = {}
    for key, masks in f.packed_terms.items():
        for m in masks:
            keys_of.setdefault(m, []).append(key)
    return [(m, [k for k in keys if k & z_field], keys) for m, keys in keys_of.items()]


def _toggle_z_positive(rows: dict, layout, f: Series, g: Series) -> None:
    """Add the z-positive terms of f*g, for B_D series f and g, into ``rows``.

    ``rows`` maps a packed key to the set of its monomial masks, toggled as
    :meth:`BooleanRing.mul_add` does.  Each factor is sliced by monomial
    mask, the one with fewer terms on the outside; a pair of slices (m, n)
    toggles m | n at the sum of each pair of their keys, except where an
    exponent reaches its truncation (the layout's bias and overflow test, as
    in ``Series.__mul__``) or where both keys are z-free, so the sum is too.
    """
    bias, overflow = layout.bias, layout.overflow
    z_field = layout.masks[1]
    if len(f.packed_terms) > len(g.packed_terms):
        f, g = g, f
    inner = _mask_slices(g, z_field)
    get = rows.get
    for m, _, f_keys in _mask_slices(f, z_field):
        # a z-positive key pairs with every key, a z-free one with the z-positive ones
        outer = [(k1, k1 + bias, k1 & z_field) for k1 in f_keys]
        for n, g_positive, g_keys in inner:
            mn = m | n
            for k1, biased, positive in outer:
                for k2 in g_keys if positive else g_positive:
                    if (biased + k2) & overflow:
                        continue
                    key = k1 + k2
                    row = get(key)
                    if row is None:
                        rows[key] = {mn}
                    elif mn in row:
                        row.remove(mn)
                    else:
                        row.add(mn)


def extract_relations(r: ChernSeries, ctx: PowerOpContext) -> list:
    """Relations on the a_i, computed over Z[a1..aD] and reduced at the end.

    The reference for :func:`boolean_relations`, independent of
    :class:`BooleanRing`: the defect of the generic symbolic candidate over
    its context (:func:`symbolic_twin`), then :func:`multilinear_mod2` of
    each z-positive coefficient.  Returns the same rows in the same order,
    (monomial exponents, multilinear F2 polynomial) pairs in
    PolynomialRing(Z/2, names).
    """
    if not r.is_generic_symbolic:
        raise ValueError("relation extraction needs the generic symbolic candidate")
    if any(v.torsion is not None and v.torsion % 2 for v in ctx.ring.variables):
        raise ValueError("relations are read mod 2, which needs even torsion orders")
    rows = []
    for exps, coef in delta(r, ctx).items():
        if exps[1] and (reduced := multilinear_mod2(coef)):
            rows.append((exps, reduced))
    rows.sort(key=lambda row: (row[0][1], row[0][0]))
    return rows


def symbolic_twin(ctx: PowerOpContext, degree: int):
    """The generic candidate of this degree and the context rebuilt over Z[a1..aD]."""
    candidate = ChernSeries.symbolic(degree)
    poly_ring = candidate.coeff_ring
    return candidate, ctx.map_coefficients(poly_ring, lambda c: poly_ring.coefficient(c.value))


def _monomial_label(names: tuple, exps) -> str:
    """The z^j*t^i label of exponents (i, j); ``names`` are the ring's, reversed."""
    return monomial_text(names, (exps[1], exps[0])) or "1"


def relation_table(ring: SeriesRing, relations) -> dict:
    """JSON form of a relation table: the truncation and one row per relation.

    ``relations`` are (exponents, coefficient) pairs from
    :func:`boolean_relations` or :func:`extract_relations`; both print alike.
    """
    t_var, z_var = ring.variables
    names = ring.names()[::-1]
    return {
        "truncation": {"z": z_var.trunc, "t": t_var.trunc},
        "relations": [
            {"monomial": _monomial_label(names, exps), "poly": str(poly)}
            for exps, poly in relations
        ],
    }


class ObstructionReport(Immutable):
    """Search certificate: the relation table, in B_D, plus a per-candidate verdict."""

    __slots__ = fields = ("ring", "relations", "verdict", "witness", "failures")

    def __init__(
        self,
        ring: SeriesRing,
        relations: tuple,
        verdict: str,
        witness: Optional[tuple] = None,
        failures: Optional[tuple] = None,
    ):
        super().__init__(ring, relations, verdict, witness, failures)

    def to_json(self) -> dict:
        obj = {"verdict": self.verdict, **relation_table(self.ring, self.relations)}
        if self.verdict == "satisfiable":
            obj["witness"] = list(self.witness)
        else:
            monomials = {mono for _, mono in self.failures}
            names = self.ring.names()[::-1]
            labels = {mono: _monomial_label(names, mono) for mono in monomials}
            obj["failures"] = [
                {"candidate": list(cand), "monomial": labels[mono]}
                for cand, mono in self.failures
            ]
        return obj


def exhaustive_search(degree: int, ctx: PowerOpContext) -> ObstructionReport:
    """Give a verdict on every candidate with a1 = 1, a_i in {0, 1}.

    The context must have integer coefficients, tau = 2, z torsion 2 and a
    law with F(t, 0) = t, or ``ValueError`` is raised: only then is the z^0
    part of every defect zero and every z-positive coefficient read mod 2,
    so that the a_i mod 2 decide the verdict and {0, 1} covers every integer
    candidate.
    Candidates are ordered with the last coefficient varying fastest; each
    failure records the first nonzero monomial in (z-degree, t-degree)
    order.  That monomial is the first relation that evaluates to 1 at the
    candidate, so the relation rows are computed once, over the Boolean
    ring (:func:`boolean_relations`), and evaluated on candidate bitmasks
    (bit i for a_(i+1)): a row is 1 at c when an odd number of its monomial
    masks m divide c, that is m & ~c == 0.  The rows read only a1..a_w, w the highest bit of any of
    their masks (w <= D), so candidates that agree up to w share a verdict,
    and the first candidate of a prefix at which no row is 1 is that prefix
    followed by zeros.
    """
    ring = ctx.ring
    if not isinstance(ring.coeff_ring, IntegerRing):
        raise ValueError("the exhaustive search runs over integer coefficients")
    if ctx.tau != 2:
        raise ValueError(f"the exhaustive search needs tau = 2, got {ctx.tau}")
    z_torsion = ring.variables[1].torsion
    if z_torsion != 2:
        raise ValueError(f"the exhaustive search needs z torsion 2, got {z_torsion}")
    # F(t, 0) = t makes the z^0 part of every defect r(t)^2 - r(t)^2; a law
    # object built without validate_law need not satisfy it
    if {e: c for e, c in ctx.tensor_root.terms.items() if not e[1]} != ctx.t.terms:
        raise ValueError("the exhaustive search needs a law with F(t, 0) = t")

    relations = boolean_relations(degree, ctx)
    rows = [(exps, coef.value) for exps, coef in relations]

    width = max([1] + [m.bit_length() for _, masks in rows for m in masks])
    witness = None
    failures = []
    for head in itertools.product((0, 1), repeat=width - 1):
        prefix = (1, *head)
        off = ~sum(bit << i for i, bit in enumerate(prefix))
        first_fail = next(
            (exps for exps, masks in rows if sum(not m & off for m in masks) % 2), None
        )
        if first_fail is None:
            witness = prefix + (0,) * (degree - width)
            break
        tails = itertools.product((0, 1), repeat=degree - width)
        failures.extend(((*prefix, *tail), first_fail) for tail in tails)

    return ObstructionReport(
        ring=ring,
        relations=tuple(relations),
        verdict="satisfiable" if witness is not None else "unsatisfiable",
        witness=witness,
        failures=None if witness is not None else tuple(failures),
    )
