"""Quadratic total power operations on one-variable classes.

A context fixes a two-variable series ring (line variable t first, the
auxiliary torsion variable z second), a formal group law F and a transfer
scalar tau.  The operation is defined on a univariate series by its
formula, with the value P(t) = t * F(t, z) on the line generator:

    P(sum_i a_i t^i) = sum_i a_i^2 P(t)^i + sum_k c_k t^k,
    c_k = tau * sum_{i<j, i+j=k} a_i a_j.

Both halves are power sums (:meth:`Series.power_sum`) on the context's
cached roots P(t) and t.  Constants obey P(a) = a^2.  The transfer-corrected
sum rule P(f + g) = P(f) + P(g) + tau*f*g holds when tau = 2 and 2z = 0;
for any other tau it fails already at f = g = 1, where P(2) = 4 but
P(1) + P(1) + tau = 2 + tau.  When F is additive and z carries 2-torsion
the transfer scalar is pinned to 2; restricted to z = 0 the operation is
then exactly the squaring map f |-> f^2.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Union

from .coefficients import Coefficient, Immutable, IntegerRing, Ring, RingMismatch
from .fgl import FormalGroupLaw, additive_law
from .series import Series, SeriesRing, SeriesVar


class PowerOpContext(Immutable):
    """Everything needed to evaluate the quadratic power operation."""

    fields = ("ring", "law", "tau")  # no __slots__: cached_property needs __dict__

    def __init__(self, ring: SeriesRing, law: FormalGroupLaw, tau: Union[Coefficient, int]):
        if ring.nvars != 2:
            raise ValueError("a power operation context needs exactly two variables")
        if law.coeff_ring != ring.coeff_ring:
            raise RingMismatch("law and series ring must share a coefficient ring")
        if not isinstance(tau, Coefficient):
            tau = ring.coeff_ring.coefficient(tau)
        if tau.ring != ring.coeff_ring:
            raise RingMismatch("transfer scalar must live in the coefficient ring")
        z_var = ring.variables[1]
        if law.is_additive and z_var.torsion == 2 and tau != 2:
            raise ValueError(
                "the transfer scalar is forced to 2 for the additive law with 2-torsion"
            )
        super().__init__(ring, law, tau)

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
        squares = self.generator_image().power_sum([a_e ** 2 for a_e in a])
        if not self.tau:  # as in B_D, where 2 = 0: no cross terms
            return squares
        cross = [
            self.tau * sum(a[i] * a[k - i] for i in range(max(0, k + 1 - len(a)), (k + 1) // 2))
            for k in range(2 * len(a) - 2)
        ]
        return squares + self.t.power_sum(cross)

    def map_coefficients(self, coeff_ring: Ring, fn) -> "PowerOpContext":
        """The image context under a coefficient-ring homomorphism."""
        return PowerOpContext(
            SeriesRing(coeff_ring, self.ring.variables),
            self.law.map_coefficients(coeff_ring, fn),
            fn(self.tau),
        )


def standard_ring(
    coeff_ring: Optional[Ring] = None,
    t_trunc: int = 5,
    z_trunc: int = 3,
) -> SeriesRing:
    """The default two-variable quotient ring, C[[t,z]]/(2z, z^k, t^m)."""
    if coeff_ring is None:
        coeff_ring = IntegerRing()
    return SeriesRing(coeff_ring, (SeriesVar("t", t_trunc), SeriesVar("z", z_trunc, 2)))


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
