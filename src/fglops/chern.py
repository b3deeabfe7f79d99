"""Total Chern class candidates and computation one, r(t +_F z) * r(t) / r(z)."""

from __future__ import annotations

from typing import Optional, Sequence, Union

from .coefficients import (
    Coefficient,
    Immutable,
    IntegerModRing,
    IntegerRing,
    PolynomialRing,
    Ring,
    RingMismatch,
    is_int,
)
from .powerops import PowerOpContext
from .series import Series


class UnitViolation(ValueError):
    """The leading candidate coefficient is not a unit of the expected shape."""


def coefficient_names(degree: int) -> tuple:
    """a1..aD, the indeterminates of the generic candidate of degree D."""
    return tuple(f"a{i}" for i in range(1, degree + 1))


def _is_single_indeterminate(coef: Coefficient) -> bool:
    ring = coef.ring
    if len(coef.value) != 1:
        return False
    exps, c = coef.value[0]
    return sum(exps) == 1 and ring.base.is_unit(c)


class ChernSeries(Immutable):
    """A candidate class 1 + a1 x + ... + aD x^D with a1 a unit.

    Numeric integer candidates require a1 in {1, -1}; modular candidates
    require a1 to be a unit.  Symbolic candidates take a1 to be either a
    unit constant or a single indeterminate, with the convention a1 = 1
    mod 2 applied wherever torsion reduces coefficients.
    """

    __slots__ = fields = ("coeffs", "coeff_ring")

    def __init__(
        self,
        coeffs: Sequence[Union[Coefficient, int]],
        coeff_ring: Optional[Ring] = None,
    ):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("a candidate class needs at least one coefficient")
        if coeff_ring is None:
            for c in coeffs:
                if isinstance(c, Coefficient):
                    coeff_ring = c.ring
                    break
            else:
                coeff_ring = IntegerRing()
        normalized = []
        for c in coeffs:
            if isinstance(c, Coefficient):
                if c.ring != coeff_ring:
                    raise RingMismatch("candidate coefficients must share one ring")
                normalized.append(c)
            else:
                normalized.append(coeff_ring.coefficient(c))
        a1 = normalized[0]
        if isinstance(coeff_ring, IntegerRing):
            if a1.value not in (1, -1):
                raise UnitViolation(f"a1 = {a1} must be 1 or -1")
        elif isinstance(coeff_ring, IntegerModRing):
            if not a1.is_unit():
                raise UnitViolation(f"a1 = {a1} is not a unit in {coeff_ring}")
        elif isinstance(coeff_ring, PolynomialRing):
            constant = len(a1.value) <= 1 and (
                not a1.value or sum(a1.value[0][0]) == 0
            )
            if constant:
                if not a1.is_unit():
                    raise UnitViolation(f"a1 = {a1} is not a unit in {coeff_ring}")
            elif not _is_single_indeterminate(a1):
                raise UnitViolation(
                    f"symbolic a1 must be a single indeterminate, got {a1}"
                )
        super().__init__(tuple(normalized), coeff_ring)

    @classmethod
    def symbolic(cls, degree: int) -> "ChernSeries":
        """The generic candidate over Z[a1..aD]."""
        if not is_int(degree) or degree < 1:
            raise ValueError("symbolic degree must be a positive integer")
        ring = PolynomialRing(IntegerRing(), coefficient_names(degree))
        return cls(ring.gens(), ring)

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def value_at(self, root: Series) -> Series:
        """Evaluate 1 + a1*root + ... + aD*root^D in the root's ring."""
        if root.ring.coeff_ring != self.coeff_ring:
            raise RingMismatch("root ring coefficients differ from candidate coefficients")
        return root.power_sum((1, *self.coeffs))

    def __repr__(self):
        body = " + ".join(f"({c})*x^{i}" for i, c in enumerate(self.coeffs, start=1))
        return f"ChernSeries(1 + {body})"


def computation_one(r: ChernSeries, ctx: PowerOpContext) -> Series:
    """The class r(t +_F z) * r(t) / r(z), read off the context's t, z and F(t, z)."""
    return r.value_at(ctx.tensor_root) * r.value_at(ctx.t) * r.value_at(ctx.z).invert()
