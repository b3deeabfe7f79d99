"""Formal group laws as bivariate truncated series.

A law is a series F(x, y) satisfying unitality (F(x,0) = x, F(0,y) = y),
commutativity and associativity up to the truncation degree d.  The terms
of F below d decide F(F(x,y),w) = F(x,F(y,w)) exactly at the monomials
x^a y^b w^c with a+b < d and b+c < d, so associativity is checked there.
Validation reports the first violated axiom together with a witness monomial.
"""

from __future__ import annotations

from typing import Optional

from .coefficients import Immutable, Ring, RingMismatch, is_int, monomial_text
from .series import Series, SeriesRing, SeriesVar

_AXIOM_LABELS = {
    "unit": "unitality",
    "comm": "commutativity",
    "assoc": "associativity",
}
BUILTIN_DEGREE = 20  # a built-in law's truncation degree when none is asked for


class ViolatedAxiom(ValueError):
    """A formal group law axiom fails; carries the axiom and a witness monomial."""

    def __init__(self, axiom: str, monomial: str):
        self.axiom = axiom
        self.monomial = monomial
        super().__init__(f"{_AXIOM_LABELS[axiom]} fails at {monomial}")


def _check(axiom: str, diff: Series, decided=lambda exps: True) -> None:
    """Raise ViolatedAxiom at the first monomial of ``diff`` that ``decided`` keeps."""
    for exps, _ in diff.items():
        if decided(exps):
            raise ViolatedAxiom(axiom, monomial_text(diff.ring.names(), exps) or "1")


class FormalGroupLaw(Immutable):
    """A formal group law F(x, y), built in or validated; its ring and degree are those of F.

    F is a series in two torsion-free variables with one truncation degree,
    or ``ValueError``: the degree is read off x alone, and :meth:`n_series`
    works in a torsion-free ring of its own.
    """

    __slots__ = fields = ("series", "name")

    def __init__(self, series: Series, name: Optional[str] = None):
        variables = series.ring.variables
        if len(variables) != 2:
            raise ValueError("a formal group law is a series in exactly two variables")
        vx, vy = variables
        if vx.trunc != vy.trunc:
            raise ValueError("both law variables must share one truncation degree")
        if vx.torsion is not None or vy.torsion is not None:
            raise ValueError("law variables must be torsion-free")
        super().__init__(series, name)

    @property
    def coeff_ring(self) -> Ring:
        return self.series.ring.coeff_ring

    @property
    def degree(self) -> int:
        return self.series.ring.variables[0].trunc

    @property
    def x_name(self) -> str:
        return self.series.ring.variables[0].name

    @property
    def y_name(self) -> str:
        return self.series.ring.variables[1].name

    @property
    def is_additive(self) -> bool:
        ring = self.series.ring
        return self.series == ring.gen(self.x_name) + ring.gen(self.y_name)

    def formal_sum(self, f: Series, g: Series) -> Series:
        """F(f, g) for two series with zero constant term in a common ring."""
        if f.ring != g.ring:
            raise RingMismatch("formal sum arguments must share a ring")
        if f.constant_term() or g.constant_term():
            raise ValueError("formal sum arguments must have zero constant term")
        return self.series.substitute({self.x_name: f, self.y_name: g}, target=f.ring)

    def n_series(self, n: int) -> Series:
        """The n-fold formal sum [n](x), a univariate series in x.

        Double and add over the bits of n: [2k] = F([k], [k]) and
        [k+1] = F(x, [k]), exact in the truncated ring since the law is
        associative there.
        """
        if not is_int(n) or n < 0:
            raise ValueError(f"n-series index must be a non-negative integer, got {n}")
        ring = SeriesRing(self.coeff_ring, (SeriesVar(self.x_name, self.degree),))
        x = ring.gen(self.x_name)
        acc = x if n else ring.zero
        for bit in bin(n)[3:]:
            acc = self.formal_sum(acc, acc)
            if bit == "1":
                acc = self.formal_sum(x, acc)
        return acc

    def map_coefficients(self, coeff_ring: Ring, fn) -> "FormalGroupLaw":
        """The image law under a coefficient-ring homomorphism."""
        return FormalGroupLaw(self.series.map_coefficients(coeff_ring, fn), self.name)


def validate_law(
    F: Series, name: Optional[str] = None, degree: Optional[int] = None
) -> FormalGroupLaw:
    """Check the law axioms, returning the validated law or raising ViolatedAxiom.

    A series :class:`FormalGroupLaw` refuses raises ``ValueError`` first.
    With ``degree`` the law is first truncated to that degree, which must
    not exceed the series' own truncation; the axioms are then checked to
    that degree only.
    """
    law = FormalGroupLaw(F, name)
    ring = F.ring
    vx, vy = ring.variables
    if degree is not None and degree != vx.trunc:
        if degree > vx.trunc:
            raise ValueError(
                f"degree {degree} exceeds the law's own truncation degree {vx.trunc}"
            )
        vx, vy = SeriesVar(vx.name, degree), SeriesVar(vy.name, degree)
        F = F.in_ring(SeriesRing(ring.coeff_ring, (vx, vy)))
        ring = F.ring
        law = FormalGroupLaw(F, name)
    degree = vx.trunc

    for kept, dropped in ((vx, vy), (vy, vx)):
        uni = SeriesRing(ring.coeff_ring, (SeriesVar(kept.name, degree),))
        v = uni.gen(kept.name)
        _check("unit", F.substitute({kept.name: v, dropped.name: uni.zero}, target=uni) - v)

    swapped = Series(ring, {(b, a): c for (a, b), c in F.terms.items()})
    _check("comm", F - swapped)

    third = "w"
    while third in (vx.name, vy.name):
        third += "_"
    tri = SeriesRing(
        ring.coeff_ring,
        (SeriesVar(vx.name, degree), SeriesVar(vy.name, degree), SeriesVar(third, degree)),
    )
    tx, ty, tw = (tri.gen(v.name) for v in tri.variables)
    inner_xy = F.substitute({vx.name: tx, vy.name: ty}, target=tri)
    inner_yw = F.substitute({vx.name: ty, vy.name: tw}, target=tri)
    left = F.substitute({vx.name: inner_xy, vy.name: tw}, target=tri)
    right = F.substitute({vx.name: tx, vy.name: inner_yw}, target=tri)
    _check("assoc", left - right, lambda e: e[0] + e[1] < degree and e[1] + e[2] < degree)

    return law


def additive_law(coeff_ring: Ring, degree: int = BUILTIN_DEGREE) -> FormalGroupLaw:
    """F(x, y) = x + y."""
    ring = SeriesRing(coeff_ring, (SeriesVar("x", degree), SeriesVar("y", degree)))
    return FormalGroupLaw(ring.gen("x") + ring.gen("y"), "additive")


def multiplicative_law(coeff_ring: Ring, degree: int = BUILTIN_DEGREE) -> FormalGroupLaw:
    """F(x, y) = x + y + xy, the unit-normalized multiplicative law."""
    ring = SeriesRing(coeff_ring, (SeriesVar("x", degree), SeriesVar("y", degree)))
    x, y = ring.gen("x"), ring.gen("y")
    return FormalGroupLaw(x + y + x * y, "multiplicative")


BUILTIN_LAWS = {"additive": additive_law, "multiplicative": multiplicative_law}


def builtin_law(name: str, coeff_ring: Ring, degree: int = BUILTIN_DEGREE) -> FormalGroupLaw:
    if name not in BUILTIN_LAWS:
        raise ValueError(f"unknown built-in law {name!r}")
    return BUILTIN_LAWS[name](coeff_ring, degree)
