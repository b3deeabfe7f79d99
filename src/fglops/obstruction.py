"""Compatibility defect of a candidate class against the power operation.

For a candidate r the defect is the exact difference

    delta(r) = r(t +_F z) * r(t) - P(r(t)) * r(z)

computed in the two-variable quotient ring, where torsion normalization
removes everything divisible by the torsion order automatically.

Relation tables.  For the generic symbolic candidate over Z[a1..aD], the
coefficient of each z-positive monomial is 2-torsion, so it is read mod 2
as a multilinear polynomial over F2 (integer values satisfy a^2 = a mod 2);
each nonzero one is a relation every viable candidate must satisfy.
Reducing mod 2 with a_i^2 = a_i is a ring homomorphism

    Z[a][[t, z]]/(2z, z^k, t^m) -> B_D[[t, z]]/(z^k, t^m),
    B_D = F2[a1..aD]/(a_i^2 + a_i),

and it commutes with the power operation, so :func:`boolean_relations`
computes the whole defect in the Boolean ring B_D from the start and never
forms the growing integer polynomials; :func:`multilinear_mod2` is the
reduction at the end that it replaces, kept as a public reference.  The
relations stay B_D values, which print as their F2[a1..aD] polynomials;
:func:`extract_relations` is the same table with each coefficient
converted to PolynomialRing(Z/2, names).

Search.  With tau = 2 the z^0 part of every defect is zero, and with z
torsion 2 every z-positive coefficient is its image mod 2, so the verdict
depends only on the a_i mod 2.  The exhaustive search gives a verdict on
every integer candidate with a1 = 1 and remaining coefficients in {0, 1},
which then covers all integer candidates, and certifies it with one failing
monomial per candidate; it refuses other values of tau and of the z
torsion.  A candidate's z-positive coefficients are the Boolean relations
evaluated at it, so its failing monomial is the first relation, in (z, t)
order, that evaluates to 1.  The search computes the Boolean defect once
and evaluates its rows on candidate bitmasks; no series arithmetic is done
per candidate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .coefficients import (
    BooleanRing,
    Coefficient,
    IntegerModRing,
    IntegerRing,
    PolynomialRing,
    RingMismatch,
    monomial_text,
)
from .chern import ChernSeries
from .powerops import PowerOpContext
from .series import Series, SeriesRing


def delta(r: ChernSeries, ctx: PowerOpContext) -> Series:
    """The exact defect series of the candidate r in the context ring."""
    r_t = r.value_at(ctx.t)
    lhs = r.value_at(ctx.tensor_root) * r_t
    rhs = ctx.power_op(r_t) * r.value_at(ctx.z)
    return lhs - rhs


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


def boolean_relations(r: ChernSeries, ctx: PowerOpContext) -> list:
    """Relations on the a_i as values of the Boolean ring F2[a1..aD]/(a_i^2 + a_i).

    Requires the generic symbolic candidate over Z[a1..aD] and its context
    (:func:`symbolic_twin`).  The law, tau and the candidate are mapped into
    B_D (:meth:`BooleanRing.image`) and the unchanged :func:`delta` runs
    there.  Returns (monomial exponents, B_D coefficient) pairs for the
    nonzero z-positive coefficients, ordered by (z-degree, t-degree); all
    coefficients share one fresh ring, so printing the table formats each
    distinct monomial mask once.
    """
    if not r.is_generic_symbolic:
        raise ValueError("relation extraction needs the generic symbolic candidate")
    if ctx.ring.coeff_ring != r.coeff_ring:
        raise RingMismatch("the context must be the candidate's symbolic twin")
    if any(v.torsion is not None and v.torsion % 2 for v in ctx.ring.variables):
        raise ValueError("relations are read mod 2, which needs even torsion orders")
    boolean = BooleanRing(r.coeff_ring.names)
    bool_ctx = PowerOpContext(
        SeriesRing(boolean, ctx.ring.variables),
        ctx.law.map_coefficients(boolean, boolean.image),
        boolean.image(ctx.tau),
    )
    bool_r = ChernSeries([boolean.image(c) for c in r.coeffs], boolean)
    rows = [(exps, coef) for exps, coef in delta(bool_r, bool_ctx).terms.items() if exps[1]]
    rows.sort(key=lambda row: (row[0][1], row[0][0]))
    return rows


def extract_relations(r: ChernSeries, ctx: PowerOpContext) -> list:
    """Relations on the a_i from z-positive coefficients of the defect.

    The polynomial view of :func:`boolean_relations`: on z-positive
    monomials the Boolean defect is :func:`multilinear_mod2` of the integer
    defect.  Returns (monomial exponents, multilinear F2 polynomial) pairs
    ordered by (z-degree, t-degree), in PolynomialRing(Z/2, names).
    """
    return [(exps, coef.ring.polynomial(coef)) for exps, coef in boolean_relations(r, ctx)]


def symbolic_twin(ctx: PowerOpContext, degree: int):
    """The generic candidate of this degree and the context rebuilt over Z[a1..aD]."""
    candidate = ChernSeries.symbolic(degree, IntegerRing())
    poly_ring = candidate.coeff_ring
    sym_series_ring = SeriesRing(poly_ring, ctx.ring.variables)
    lift = lambda c: poly_ring.coefficient(int(c.value))
    sym_law = ctx.law.map_coefficients(poly_ring, lift)
    sym_tau = poly_ring.coefficient(int(ctx.tau.value))
    return candidate, PowerOpContext(sym_series_ring, sym_law, sym_tau)


def _monomial_label(ring: SeriesRing, exps) -> str:
    t_name, z_name = ring.names()
    return monomial_text((z_name, t_name), (exps[1], exps[0])) or "1"


def relation_table(ring: SeriesRing, relations) -> dict:
    """JSON form of a relation table: the truncation and one row per relation.

    ``relations`` are (exponents, coefficient) pairs from
    :func:`boolean_relations` or :func:`extract_relations`; both print alike.
    """
    t_var, z_var = ring.variables
    return {
        "truncation": {"z": z_var.trunc, "t": t_var.trunc},
        "relations": [
            {"monomial": _monomial_label(ring, exps), "poly": str(poly)}
            for exps, poly in relations
        ],
    }


@dataclass(frozen=True)
class ObstructionReport:
    """Search certificate: symbolic relations plus a per-candidate verdict."""

    ring: SeriesRing
    relations: tuple
    verdict: str
    witness: Optional[tuple] = None
    failures: Optional[tuple] = None

    def to_json(self) -> dict:
        obj = {"verdict": self.verdict, **relation_table(self.ring, self.relations)}
        if self.verdict == "satisfiable":
            obj["witness"] = list(self.witness)
        else:
            monomials = {mono for _, mono in self.failures}
            labels = {mono: _monomial_label(self.ring, mono) for mono in monomials}
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
    candidate, so the defect is computed once, over the Boolean ring, and
    its rows are evaluated on candidate bitmasks (bit i for a_(i+1)): a row
    is 1 at c when an odd number of its monomial masks m divide c, that is
    m & ~c == 0.  The rows read only a1..a_w, w the highest bit of any of
    their masks (at most ``ctx.reach``), so candidates that agree up to w
    share a verdict, and the first candidate of a prefix at which no row is
    1 is that prefix followed by zeros.
    """
    if not isinstance(degree, int) or degree < 1:
        raise ValueError(f"candidate degree must be a positive integer, got {degree}")
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

    relations = boolean_relations(*symbolic_twin(ctx, degree))
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
        relations=tuple((exps, coef.ring.polynomial(coef)) for exps, coef in relations),
        verdict="satisfiable" if witness is not None else "unsatisfiable",
        witness=witness,
        failures=None if witness is not None else tuple(failures),
    )
