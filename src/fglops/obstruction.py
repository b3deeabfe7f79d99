"""Compatibility defect of a candidate class against the power operation.

For a candidate r the defect is the exact difference

    delta(r) = r(t +_F z) * r(t) - P(r(t)) * r(z)

computed in the two-variable quotient ring, where torsion normalization
removes everything divisible by the torsion order automatically.  For a
generic symbolic candidate, the coefficient of each z-positive monomial is
reduced to a multilinear polynomial over F2 (integer values satisfy
a^2 = a mod 2); each nonzero reduction is a relation every viable candidate
must satisfy.  The exhaustive search evaluates the defect at every integer
candidate with a1 = 1 and remaining coefficients in {0, 1}, which covers all
integer candidates because z-positive coefficients only depend on the a_i
mod 2, and certifies the verdict with one failing monomial per candidate.
Every candidate gets its verdict, but the defect is computed only once per
prefix a1..a_reach, where the reach is the largest i at which a power t^i,
z^i or F(t, z)^i is nonzero: a_i multiplies only those i-th powers, so the
coefficients past the reach cannot change the defect.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .coefficients import (
    Coefficient,
    IntegerModRing,
    IntegerRing,
    PolynomialRing,
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


def extract_relations(r: ChernSeries, ctx: PowerOpContext) -> list:
    """Relations on the a_i from z-positive coefficients of the defect.

    Requires the generic symbolic candidate; returns (monomial exponents,
    multilinear F2 polynomial) pairs ordered by (z-degree, t-degree).
    """
    if not r.is_generic_symbolic:
        raise ValueError("relation extraction needs the generic symbolic candidate")
    out = []
    for exps, coef in delta(r, ctx).items():
        if exps[1] == 0:
            continue
        reduced = multilinear_mod2(coef)
        if not reduced.is_zero():
            out.append((exps, reduced))
    out.sort(key=lambda item: (item[0][1], item[0][0]))
    return out


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
    """JSON form of a relation table: the truncation and one row per relation."""
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
            obj["failures"] = [
                {"candidate": list(cand), "monomial": _monomial_label(self.ring, mono)}
                for cand, mono in self.failures
            ]
        return obj


def exhaustive_search(degree: int, ctx: PowerOpContext) -> ObstructionReport:
    """Give a verdict on every candidate with a1 = 1, a_i in {0, 1}.

    Candidates are ordered with the last coefficient varying fastest; each
    failure records the first nonzero monomial in (z-degree, t-degree)
    order.  The defect is computed once per prefix a1..a_reach
    (``ctx.reach``) and shared by the candidates that extend it: a_i
    multiplies only the i-th powers of t, z and F(t, z), which vanish past
    the reach, and P(r(t)) reads nothing but r(t).  So candidates that agree
    up to the reach have equal defects, and the first candidate of a prefix
    whose defect is zero is that prefix followed by zeros.
    """
    if not isinstance(degree, int) or degree < 1:
        raise ValueError(f"candidate degree must be a positive integer, got {degree}")
    ring = ctx.ring
    if not isinstance(ring.coeff_ring, IntegerRing):
        raise ValueError("the exhaustive search runs over integer coefficients")

    relations = extract_relations(*symbolic_twin(ctx, degree))

    width = max(1, min(degree, ctx.reach))
    witness = None
    failures = []
    for head in itertools.product((0, 1), repeat=width - 1):
        prefix = (1, *head)
        defect = delta(ChernSeries(list(prefix), ring.coeff_ring), ctx)
        if not defect:
            witness = prefix + (0,) * (degree - width)
            break
        first_fail = min(defect.terms, key=lambda e: (e[1], e[0]))
        tails = itertools.product((0, 1), repeat=degree - width)
        failures.extend(((*prefix, *tail), first_fail) for tail in tails)

    return ObstructionReport(
        ring=ring,
        relations=tuple(relations),
        verdict="satisfiable" if witness is not None else "unsatisfiable",
        witness=witness,
        failures=None if witness is not None else tuple(failures),
    )
