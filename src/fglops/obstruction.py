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

and it commutes with the power operation.  With a_0 = 1 and P = t*F(t, z),
the defect r(F)*r(t) - P(r(t))*r(z) therefore maps to the pair sum

    sum over 0 <= i, k <= D of a_i*a_k*(F^i*t^k + P^i*z^k),

plus, when tau is odd, the transfer terms a_i*a_j*a_k*t^(i+j)*z^k with
i < j, of which only k >= 1 is z-positive.  Each a_i*a_k is a monomial mask
of B_D and each series beside it a product of powers of F, t and z with
coefficients in F2, so :func:`_relation_masks` computes the table from the
powers of F mod 2 alone, each one int with a bit per odd coefficient at
its packed key, one bitset of row keys per monomial mask; the integer
polynomials and the B_D series never form.  That table is the one form the
CLI reads.  One printer (:func:`_printed_rows`) turns it into
(z^j*t^i label, polynomial text) rows in one pass over its distinct masks,
in B_D print order: :func:`symbolic_table` returns those rows, and the
search report keeps them.  :func:`boolean_relations` gives the table as
rows of B_D values for library callers.  :func:`extract_relations` is the
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
order, that evaluates to 1.  The search computes the mask-major table
once, and no series arithmetic is done per candidate.  The rows read only
a1..a_w, so it evaluates each mask on all 2^(w-1) prefixes at once, as a
truth table with one bit per prefix, XORs it into the tables of its rows,
and peels off each row's first failures in (z, t) order.  The report
keeps one failing monomial per prefix, as the CLI writes them
(:meth:`ObstructionReport.failure_blocks`), and builds the per-candidate
list only when it is read.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
from typing import Optional

from .coefficients import (
    BooleanRing,
    Coefficient,
    Immutable,
    IntegerModRing,
    IntegerRing,
    PolynomialRing,
    RingMismatch,
    is_int,
    monomial_text,
)
from .chern import ChernSeries, coefficient_names
from .powerops import PowerOpContext
from .series import Series, SeriesRing


def delta(r: ChernSeries, ctx: PowerOpContext) -> Series:
    """The exact defect series of the candidate r in the context ring."""
    r_t = r.value_at(ctx.t)
    return r.value_at(ctx.tensor_root) * r_t - ctx.power_op(r_t) * r.value_at(ctx.z)


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
    Returns (monomial exponents, B_D coefficient) pairs for the nonzero
    z-positive coefficients of the defect of the generic candidate,
    ordered by (z-degree, t-degree): the rows of :func:`_relation_masks`,
    read by :func:`_rows`.
    """
    boolean, bits_of = _relation_masks(degree, ctx)
    wrap = boolean.wrap
    return [(exps, wrap(frozenset(masks))) for exps, masks in _rows(ctx.ring, bits_of, lambda m: m)]


def _relation_masks(degree: int, ctx: PowerOpContext) -> tuple:
    """(B_D, the relation table mask-major: {monomial mask: bitset of packed keys}).

    The context's coefficients must reduce mod 2, so they are Z or Z/2n
    (``RingMismatch`` otherwise), and its torsion orders must be even.  A
    series mod 2 is one int, with bit ``key`` set for each odd coefficient
    at that packed key of the context ring.  A monomial factor is then a
    left shift by its key, F^i an XOR of the shifts of F^(i-1) by the keys
    of F, and an AND with the box of in-range keys truncates.  Each term of
    the pair sum (the module docstring) goes into the bitset of its
    monomial mask, and one AND per mask keeps the z-positive keys; masks
    whose bitset is then empty are dropped.
    """
    if not is_int(degree) or degree < 1:
        raise ValueError(f"candidate degree must be a positive integer, got {degree!r}")
    ring = ctx.ring
    if any(v.torsion is not None and v.torsion % 2 for v in ring.variables):
        raise ValueError("relations are read mod 2, which needs even torsion orders")
    base = ring.coeff_ring
    if not (
        isinstance(base, IntegerRing) or isinstance(base, IntegerModRing) and base.modulus % 2 == 0
    ):
        raise RingMismatch(f"no reduction mod 2 from {base}")
    (t_var, z_var), z_offset = ring.variables, ring.layout.offsets[1]
    t_trunc, z_trunc = t_var.trunc, z_var.trunc
    t_row = (1 << t_trunc) - 1  # the keys of t^0..t^(T-1) at z^0
    box = sum(t_row << (j << z_offset) for j in range(z_trunc))
    law_keys = [key for key, c in ctx.tensor_root.packed_terms.items() if c % 2]
    powers = [1]  # F^0..F^D mod 2, up to the first zero one
    while len(powers) <= degree and powers[-1]:
        f = powers[-1]
        powers.append(functools.reduce(operator.xor, [f << key for key in law_keys], 0) & box)
    mask = [(1 << i) >> 1 for i in range(degree + 1)]  # a_i is bit i - 1; a_0 = 1, no bit
    table = collections.defaultdict(int)
    for i, f in enumerate(powers):
        # P^i = t^i*F^i is zero for i >= T, where the shift could carry into z
        p = f << i if i < t_trunc else 0
        for k in range(min(degree + 1, max(t_trunc, z_trunc))):
            # a t shift by k < T stays in its z row: the t field has a spare top bit
            v = f << k if k < t_trunc else 0
            if k < z_trunc:
                v ^= p << (k << z_offset)
            table[mask[i] | mask[k]] ^= v
    if ctx.tau.value % 2:
        for j in range(1, min(degree + 1, t_trunc)):
            for i in range(min(j, t_trunc - j)):
                for k in range(1, min(degree + 1, z_trunc)):
                    table[mask[i] | mask[j] | mask[k]] ^= 1 << (i + j + (k << z_offset))
    z_positive = box ^ t_row
    bits_of = {m: bits for m, v in table.items() if (bits := v & z_positive)}
    return BooleanRing(coefficient_names(degree)), bits_of


def _rows(ring: SeriesRing, bits_of, value) -> list:
    """The rows of a mask-major table, as ((i, j), values) for z^j*t^i in (z, t) order.

    ``bits_of`` maps monomial masks to bitsets of packed keys of ``ring``.
    ``value`` is called once per mask, in ``bits_of`` order, and a row's
    values are those of its masks, in that order.
    """
    values_at = collections.defaultdict(list)
    for m, bits in bits_of.items():
        v = value(m)
        while bits:  # top bit first
            key = bits.bit_length() - 1
            bits ^= 1 << key
            values_at[key].append(v)
    # z is the high key field, so key order is (z-degree, t-degree) order
    t_field, z_offset = ring.layout.masks[0], ring.layout.offsets[1]
    return [((key & t_field, key >> z_offset), vs) for key, vs in sorted(values_at.items())]


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


def _monomial_labels(ring: SeriesRing) -> list:
    """labels[j][i]: the z^j*t^i text of exponents (i, j) of ``ring``; "1" for (0, 0).

    Each z and t part is made once.
    """
    t_var, z_var = ring.variables
    t_parts = [monomial_text((t_var.name,), (i,)) for i in range(t_var.trunc)]
    labels = [[part or "1" for part in t_parts]]
    for j in range(1, z_var.trunc):
        z_part = monomial_text((z_var.name,), (j,))
        labels.append([z_part] + [f"{z_part}*{part}" for part in t_parts[1:]])
    return labels


def symbolic_table(degree: int, ctx: PowerOpContext) -> list:
    """The relation table of the generic candidate of this degree in ``ctx``, as printed.

    (monomial label, polynomial text) pairs in (z, t) order, printed by
    :func:`_printed_rows` straight from :func:`_relation_masks` with no B_D
    value made on the way; the polynomial of a row is the text of its
    :func:`boolean_relations` coefficient.
    """
    return _printed_rows(ctx.ring, *_relation_masks(degree, ctx))


def _printed_rows(ring: SeriesRing, boolean: BooleanRing, bits_of) -> list:
    """The rows of a mask-major table as (z^j*t^i label, polynomial text), in (z, t) order.

    ``bits_of`` maps monomial masks of ``boolean`` to bitsets of packed keys
    of ``ring``.  The distinct masks are walked once (:func:`_rows`), in
    :meth:`BooleanRing.order_key` order, each mask's text made once; then
    each row is labelled.
    """
    ordered = {m: bits_of[m] for m in sorted(bits_of, key=boolean.order_key)}
    labels = _monomial_labels(ring)
    return [
        (labels[j][i], "+".join(texts)) for (i, j), texts in _rows(ring, ordered, boolean.mask_text)
    ]


class ObstructionReport(Immutable):
    """Search certificate: the relation table, as printed, plus a verdict.

    ``relations``: the (z^j*t^i label, polynomial text) rows, in (z, t)
    order, as :func:`symbolic_table` gives them; ``failing``: the failing
    monomial of each prefix a1..a_w with a1 = 1, in candidate order, or
    None when satisfiable; ``tail``: D - w.
    """

    __slots__ = fields = ("ring", "relations", "verdict", "witness", "failing", "tail")

    def __init__(
        self,
        ring: SeriesRing,
        relations: tuple,
        verdict: str,
        witness: Optional[tuple] = None,
        failing: Optional[tuple] = None,
        tail: int = 0,
    ):
        super().__init__(ring, relations, verdict, witness, failing, tail)

    @property
    def failures(self) -> Optional[tuple]:
        """(candidate, failing monomial) for each candidate in order, or None.

        Built from ``failing`` on each access.
        """
        if self.failing is None:
            return None
        degree = len(self.failing).bit_length() + self.tail
        candidates = itertools.product((1,), *[(0, 1)] * (degree - 1))
        repeats = map(itertools.repeat, self.failing, itertools.repeat(1 << self.tail))
        return tuple(zip(candidates, itertools.chain.from_iterable(repeats)))

    def to_json(self) -> dict:
        t_var, z_var = self.ring.variables
        obj = {
            "verdict": self.verdict,
            "truncation": {"z": z_var.trunc, "t": t_var.trunc},
            "relations": [{"monomial": label, "poly": poly} for label, poly in self.relations],
        }
        if self.verdict == "satisfiable":
            obj["witness"] = list(self.witness)
        else:
            labels = self._labels(set(self.failing))
            obj["failures"] = [
                {"candidate": list(cand), "monomial": labels[mono]}
                for cand, mono in self.failures
            ]
        return obj

    def failure_blocks(self) -> tuple:
        """(w, tail length, labels): the failures in blocks, one per prefix a1..a_w.

        Block p, prefix p followed by each tail with the last coefficient
        varying fastest, fails at the monomial labels[p] names, the text of
        ``failing[p]``.  ``ValueError`` for a satisfiable report.
        """
        if self.failing is None:
            raise ValueError("a satisfiable report has no failures")
        labels = self._labels(set(self.failing))
        return len(self.failing).bit_length(), self.tail, [labels[m] for m in self.failing]

    def _labels(self, monomials) -> dict:
        """The z^j*t^i label of each of these monomial exponents."""
        labels = _monomial_labels(self.ring)
        return {(i, j): labels[j][i] for i, j in monomials}


def _owners(deciding: list, size: int) -> list:
    """The exponents of the row that decides each of ``size`` prefixes, in prefix order.

    ``deciding`` holds (exponents, prefix bitset) pairs whose bitsets
    partition range(size).  A bitset's ones come in runs; each run is read
    off its bin() digits, low bit first, with two ``str.find`` calls and
    assigned as one slice.
    """
    owners = [None] * size
    for exps, fresh in deciding:
        bits = bin(fresh)[:1:-1] + "0"  # the zero ends the last run
        p = bits.find("1")
        while p >= 0:
            q = bits.find("0", p)
            owners[p:q] = [exps] * (q - p)
            p = bits.find("1", q)
    return owners


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
    candidate, so the relation table is computed once, from the pair sum
    mod 2 as one bitset of row keys per monomial mask
    (:func:`_relation_masks`), and evaluated on all candidates at once.
    The rows read only a1..a_w, w the highest bit of any mask (w <= D), so
    candidates that agree up to w share a verdict.
    Each a_k has a truth table over the 2^(w-1) prefixes (bit p for prefix
    p in candidate order; a1 is all ones), a monomial mask's table is the
    AND of its coefficients' tables, made once and XORed into the table of
    each row that has the mask.  Taking the rows in (z, t) order, each
    prefix fails at the first row that is 1 there; the first prefix left
    over, followed by zeros, is the witness.
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

    boolean, bits_of = _relation_masks(degree, ctx)
    width = max([1] + [m.bit_length() for m in bits_of])
    size = 1 << (width - 1)
    undecided = everything = (1 << size) - 1
    # a_k is bit w - k of the prefix index: runs of 2^(w-k) zeros, then ones
    tables = [everything]
    for k in range(2, width + 1):
        run = 1 << (width - k)
        tables.append(everything // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run))

    def truth_table(m):  # the AND of the tables of the mask's coefficients
        factors = [table for i, table in enumerate(tables) if m >> i & 1]
        return functools.reduce(operator.and_, factors, everything)

    deciding = []  # (exponents, the prefixes at which that row is the first 1)
    for exps, row_tables in _rows(ring, bits_of, truth_table):
        fresh = functools.reduce(operator.xor, row_tables) & undecided
        if fresh:
            deciding.append((exps, fresh))
            undecided ^= fresh
            if not undecided:
                break

    if undecided:
        first = (undecided & -undecided).bit_length() - 1
        head = tuple(first >> (width - k) & 1 for k in range(2, width + 1))
        witness, failing = (1, *head) + (0,) * (degree - width), None
    else:
        witness, failing = None, tuple(_owners(deciding, size))

    return ObstructionReport(
        ring=ring,
        relations=tuple(_printed_rows(ring, boolean, bits_of)),
        verdict="satisfiable" if witness is not None else "unsatisfiable",
        witness=witness,
        failing=failing,
        tail=degree - width,
    )
