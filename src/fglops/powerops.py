"""Quadratic total power operations on one-variable classes.

A context fixes a two-variable series ring (line variable t first, the
auxiliary torsion variable z second), a formal group law F and a transfer
scalar tau.  The operation is generated by its value on the line generator,

    P(t) = t * F(t, z),

and extends to an arbitrary univariate series by multiplicativity together
with a transfer-corrected sum rule.  Both halves are power sums
(:meth:`Series.power_sum`) on the context's cached roots P(t) and t:

    P(sum_i a_i t^i) = sum_i a_i^2 P(t)^i + sum_k c_k t^k,
    c_k = tau * sum_{i<j, i+j=k} a_i a_j.

Constants obey P(a) = a^2.  When F is additive and z carries 2-torsion the
transfer scalar is pinned to 2; restricted to z = 0 the operation is then
exactly the squaring map f |-> f^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

from .coefficients import Coefficient, IntegerRing, Ring, RingMismatch
from .fgl import FormalGroupLaw, additive_law
from .series import Series, SeriesRing, SeriesVar


@dataclass(frozen=True)
class PowerOpContext:
    """Everything needed to evaluate the quadratic power operation."""

    ring: SeriesRing
    law: FormalGroupLaw
    tau: Coefficient

    def __post_init__(self):
        if self.ring.nvars != 2:
            raise ValueError("a power operation context needs exactly two variables")
        if self.law.coeff_ring != self.ring.coeff_ring:
            raise RingMismatch("law and series ring must share a coefficient ring")
        tau = self.tau
        if isinstance(tau, int):
            tau = self.ring.coeff_ring.coefficient(tau)
            object.__setattr__(self, "tau", tau)
        if tau.ring != self.ring.coeff_ring:
            raise RingMismatch("transfer scalar must live in the coefficient ring")
        z_var = self.ring.variables[1]
        if self.law.is_additive and z_var.torsion == 2 and tau != 2:
            raise ValueError(
                "the transfer scalar is forced to 2 for the additive law with 2-torsion"
            )

    @cached_property
    def t(self) -> Series:
        return self.ring.gen(self.ring.variables[0].name)

    @cached_property
    def z(self) -> Series:
        return self.ring.gen(self.ring.variables[1].name)

    @cached_property
    def tensor_root(self) -> Series:
        """F(t, z), the root of the tensor product of the two lines."""
        return self.law.formal_sum(self.t, self.z)

    @cached_property
    def reach(self) -> int:
        """The largest i with t^i, z^i or F(t, z)^i nonzero.

        A candidate coefficient a_i with i past the reach multiplies only
        zero powers, so it cannot change the defect.
        """
        return max(root.top_power() for root in (self.t, self.z, self.tensor_root))

    @cached_property
    def _generator_image(self) -> Series:
        return self.t * self.tensor_root

    def generator_image(self) -> Series:
        """P(t) = t * F(t, z)."""
        return self._generator_image

    def power_op(self, f: Series) -> Series:
        """Apply the operation to a univariate series in the line variable."""
        if f.ring != self.ring:
            raise RingMismatch("input series must live in the context ring")
        coeffs = {}
        for exps, coef in f.terms.items():
            if any(exps[1:]):
                raise ValueError(
                    "power operation input must be univariate in the line variable"
                )
            coeffs[exps[0]] = coef
        a = [coeffs.get(e, 0) for e in range(1 + max(coeffs, default=-1))]
        squares = [a_e ** 2 for a_e in a]
        cross = [
            self.tau * sum(a[i] * a[k - i] for i in range(max(0, k + 1 - len(a)), (k + 1) // 2))
            for k in range(2 * len(a) - 2)
        ]
        return self.generator_image().power_sum(squares) + self.t.power_sum(cross)

    def transfer(self, a: Series) -> Series:
        """The transfer map, multiplication by the scalar tau."""
        if a.ring != self.ring:
            raise RingMismatch("transfer input must live in the context ring")
        return a * self.tau


def standard_ring(
    coeff_ring: Optional[Ring] = None,
    t_trunc: int = 5,
    z_trunc: int = 3,
    z_torsion: Optional[int] = 2,
    names=("t", "z"),
) -> SeriesRing:
    """The default two-variable quotient ring, C[[t,z]]/(2z, z^k, t^m)."""
    if coeff_ring is None:
        coeff_ring = IntegerRing()
    return SeriesRing(
        coeff_ring,
        (SeriesVar(names[0], t_trunc), SeriesVar(names[1], z_trunc, z_torsion)),
    )


def standard_context(
    coeff_ring: Optional[Ring] = None,
    t_trunc: int = 5,
    z_trunc: int = 3,
    law: Optional[FormalGroupLaw] = None,
    tau: Union[Coefficient, int] = 2,
) -> PowerOpContext:
    """The default context: additive law over the standard ring, tau = 2."""
    ring = standard_ring(coeff_ring, t_trunc, z_trunc)
    if law is None:
        law = additive_law(ring.coeff_ring)
    return PowerOpContext(ring, law, tau)
