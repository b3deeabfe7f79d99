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

and it commutes with the power operation, so the relation table maps the
law and tau of the numeric context into B_D and computes the defect's four
factors there (:func:`defect_factors`, which :func:`delta` multiplies
out); the integer polynomials never form.  It does not form the two
products either: each factor is sliced by monomial mask, and each pair of
slices toggles its share of the z-positive terms straight into a
mask-major table, one set of row keys per monomial mask, so the z^0 terms
that no row keeps are never computed.  That table is the one form the CLI
reads.  One printer (:func:`_printed_rows`) turns it into (z^j*t^i label,
polynomial text) rows in one pass over its distinct masks, in B_D print
order: :func:`symbolic_table` returns those rows, and the search report
keeps them.  :func:`boolean_relations` gives the table as rows of B_D
values for library callers.  :func:`extract_relations` is the independent
reference: the defect over Z[a1..aD] (:func:`symbolic_twin`) reduced at
the end by :func:`multilinear_mod2`, with the same rows as
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
import contextlib
import gc
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
    Returns (monomial exponents, B_D coefficient) pairs for the nonzero
    z-positive coefficients of the defect of the generic candidate,
    ordered by (z-degree, t-degree): the rows of :func:`_relation_masks`,
    turned from mask-major to row-major.
    """
    boolean, keys_of = _relation_masks(degree, ctx)
    masks_at = collections.defaultdict(list)
    for m, keys in keys_of.items():
        for key in keys:
            masks_at[key].append(m)
    # z is the high key field, so key order is (z-degree, t-degree) order
    layout = ctx.ring.layout
    t_field, z_offset, wrap = layout.masks[0], layout.offsets[1], boolean.wrap
    return [
        ((key & t_field, key >> z_offset), wrap(frozenset(masks_at[key])))
        for key in sorted(masks_at)
    ]


def _relation_masks(degree: int, ctx: PowerOpContext) -> tuple:
    """(B_D, the relation table mask-major: {monomial mask: set of packed keys}).

    The law and tau are mapped into B_D (:meth:`BooleanRing.image`, which
    refuses coefficients with no reduction mod 2) and the four factors of
    the defect of the generic candidate 1 + a1 x + ... + aD x^D
    (:func:`defect_factors`) are computed there.  Their two products are
    not formed as series: only their z-positive terms are written, straight
    into the table (:func:`_toggle_z_positive`), and in B_D the difference
    of the products is their sum.  A mask's set holds the keys, in the
    context ring's layout, of the z-positive monomials whose coefficient
    has that mask; masks whose set toggled back to empty are dropped.
    """
    if not is_int(degree) or degree < 1:
        raise ValueError(f"candidate degree must be a positive integer, got {degree!r}")
    if any(v.torsion is not None and v.torsion % 2 for v in ctx.ring.variables):
        raise ValueError("relations are read mod 2, which needs even torsion orders")
    boolean = BooleanRing(coefficient_names(degree))
    bool_ctx = ctx.map_coefficients(boolean, boolean.image)
    keys_of = collections.defaultdict(set)
    for f, g in defect_factors(ChernSeries(boolean.gens(), boolean), bool_ctx):
        _toggle_z_positive(keys_of, bool_ctx.ring.layout, f, g)
    return boolean, {m: keys for m, keys in keys_of.items() if keys}


def _mask_slices(f: Series, layout) -> list:
    """(monomial mask, its z-positive keys, all its keys) for each a-monomial of a B_D series.

    The z-positive keys are sorted by t-degree and all the keys by key,
    which is by z-degree first.
    """
    t_field, z_field = layout.masks
    keys_of = collections.defaultdict(list)
    for key, masks in f.packed_terms.items():
        for m in masks:
            keys_of[m].append(key)
    return [
        (m, sorted([k for k in keys if k & z_field], key=t_field.__and__), sorted(keys))
        for m, keys in keys_of.items()
    ]


def _toggle_z_positive(keys_of, layout, f: Series, g: Series) -> None:
    """Add the z-positive terms of f*g, for B_D series f and g, into ``keys_of``.

    ``keys_of``, a ``defaultdict(set)``, maps a monomial mask to the set of
    packed keys where it occurs, toggled as :meth:`BooleanRing.mul_add`
    does.  Each factor is sliced by monomial mask, the one with fewer terms
    on the outside; a pair of slices (m, n) takes the set of m | n once and
    toggles in it the sum of each pair of their keys, except where an
    exponent reaches its truncation (the layout's bias and overflow test,
    as in ``Series.__mul__``) or where both keys are z-free, so the sum is
    too.
    A z-free key pairs with the z-positive keys in t order, where the first
    sum past the t truncation ends the run (z cannot overflow); a
    z-positive key pairs with all the keys in z order, where the first sum
    past the z truncation does.
    """
    bias, overflow = layout.bias, layout.overflow
    z_field = layout.masks[1]
    z_overflow = overflow & z_field
    if len(f.packed_terms) > len(g.packed_terms):
        f, g = g, f
    inner = _mask_slices(g, layout)
    for m, _, f_keys in _mask_slices(f, layout):
        outer = [(k1, k1 + bias, k1 & z_field) for k1 in f_keys]
        for n, g_positive, g_keys in inner:
            keys = keys_of[m | n]
            for k1, biased, positive in outer:
                # the list is in the order of the field whose overflow is
                # the cutoff: every later sum overflows there too
                cutoff = z_overflow if positive else overflow
                for k2 in g_keys if positive else g_positive:
                    over = (biased + k2) & overflow
                    if over:
                        if over & cutoff:
                            break
                        continue
                    key = k1 + k2
                    if key in keys:
                        keys.remove(key)
                    else:
                        keys.add(key)


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
    with _collector_paused():  # thousands of sets and lists, all kept to the end
        return _printed_rows(ctx.ring, *_relation_masks(degree, ctx))


@contextlib.contextmanager
def _collector_paused():
    """Run a block with the cyclic garbage collector off, then restore its state.

    A block that builds many containers and keeps them all sets off
    collector passes that find no garbage, and in a fresh process each
    full pass walks every object the imports made.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def _printed_rows(ring: SeriesRing, boolean: BooleanRing, keys_of) -> list:
    """The rows of a mask-major table as (z^j*t^i label, polynomial text), in (z, t) order.

    ``keys_of`` maps monomial masks of ``boolean`` to sets of packed keys
    of ``ring``.  The distinct masks are walked once, in
    :meth:`BooleanRing.order_key` order, each mask's text made once and
    appended to the polynomial of each of its rows; then each row is
    labelled.
    """
    polys = collections.defaultdict(list)
    for m in sorted(keys_of, key=boolean.order_key):
        text = boolean.mask_text(m)
        for key in keys_of[m]:
            polys[key].append(text)
    labels = _monomial_labels(ring)
    t_field, z_offset = ring.layout.masks[0], ring.layout.offsets[1]
    return [
        (labels[key >> z_offset][key & t_field], "+".join(texts))
        for key, texts in sorted(polys.items())
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
        with _collector_paused():  # 2^(D-1) new pairs
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
    partition range(size); each bitset's ones are found in its bin() digits.
    """
    owners = [None] * size
    for exps, fresh in deciding:
        bits = bin(fresh)[:1:-1]
        p = bits.find("1")
        while p >= 0:
            owners[p] = exps
            p = bits.find("1", p + 1)
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
    candidate, so the relation table is computed once, over the Boolean
    ring, mask-major (:func:`_relation_masks`), and evaluated on all
    candidates at once.  The rows read only a1..a_w, w the highest bit of
    any mask (w <= D), so candidates that agree up to w share a verdict.
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

    boolean, keys_of = _relation_masks(degree, ctx)
    width = max([1] + [m.bit_length() for m in keys_of])
    size = 1 << (width - 1)
    undecided = everything = (1 << size) - 1
    # a_k is bit w - k of the prefix index: runs of 2^(w-k) zeros, then ones
    tables = [everything]
    for k in range(2, width + 1):
        run = 1 << (width - k)
        tables.append(everything // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run))
    rows = collections.defaultdict(int)  # packed key -> the row's table
    for m, keys in keys_of.items():
        table = everything
        for i in range(m.bit_length()):
            if m >> i & 1:
                table &= tables[i]
        for key in keys:
            rows[key] ^= table
    # z is the high key field, so key order is (z-degree, t-degree) order
    t_field, z_offset = ring.layout.masks[0], ring.layout.offsets[1]
    deciding = []  # (exponents, the prefixes at which that row is the first 1)
    for key in sorted(rows):
        fresh = rows[key] & undecided
        if fresh:
            deciding.append(((key & t_field, key >> z_offset), fresh))
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
        relations=tuple(_printed_rows(ring, boolean, keys_of)),
        verdict="satisfiable" if witness is not None else "unsatisfiable",
        witness=witness,
        failing=failing,
        tail=degree - width,
    )
