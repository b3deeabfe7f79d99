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

and it commutes with the power operation.  The tables and the search
take one domain, the contexts :func:`_check_mod2` takes: z torsion 2,
coefficients Z or Z/2n, tau = 2 and F(t, 0) = t.  At any other tau the z^0
part of every defect is (2 - tau)*sum over i < j of a_i*a_j*t^(i+j), whose
t coefficient (2 - tau)*a1 fails every candidate before the table is read.
At tau = 2 the transfer terms of P(r(t)) are even, so with a_0 = 1 and
P = t*F(t, z) the defect r(F)*r(t) - P(r(t))*r(z) maps to the pair sum

    sum over 0 <= i, k <= D of a_i*a_k*(F^i*t^k + P^i*z^k).

Each a_i*a_k is a monomial mask of B_D and each series beside it a
product of powers of F, t and z with coefficients in F2, so
:func:`_relation_masks` computes the table from the powers of F mod 2
alone, each one int with a bit per odd coefficient at its row key
j*m + i for z^j*t^i, one bitset of row keys per monomial mask; F mod 2 is
read off the law's terms, and F(t, z), the integer polynomials and the B_D
series never form.  That table is the one form of a relation the engine
holds, and it is built in print order, the term order of
PolynomialRing(Z/2): popcount descending, then exponent vector ascending;
so nothing sorts it.  One printer (:func:`_printed_rows`) turns it into
(z^j*t^i label, polynomial text) rows in one pass over its masks, each
mask's text made once from its indices: :func:`symbolic_table` returns
those rows, and the search report keeps them.  :func:`boolean_relations`
gives the table as rows of monomial mask sets for library callers.
:func:`extract_relations`, with the same arguments and refusals, is the
independent reference: the defect over Z[a1..aD] (:func:`symbolic_twin`)
reduced at the end by :func:`multilinear_mod2`, the same rows as
PolynomialRing(Z/2) values.

Search.  In that domain the z^0 part of every defect is zero, and every
z-positive coefficient is 2-torsion, an element of F2 over Z and Z/2n
alike, so the verdict depends only on the a_i mod 2.  The exhaustive
search gives a verdict on every candidate with a1 = 1 and remaining
coefficients in {0, 1}, which then covers all candidates, and certifies it
with a witness or with one failing monomial per candidate.  A candidate's
z-positive coefficients are the Boolean relations evaluated at it, so its
failing monomial is the first relation, in (z, t) order, that evaluates to
1.  The search computes the mask-major table once, and no series
arithmetic is done per candidate.  The rows read only a1..a_w, so it
evaluates each mask on all 2^(w-1) prefixes at once, as a truth table with
one bit per prefix, XORs it into the tables of its rows, and peels off
each row's first failures in (z, t) order.  The report keeps one failing
monomial per prefix, as the CLI writes them
(:meth:`ObstructionReport.failure_blocks`), and builds the per-candidate
list only when it is read.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Optional

from .coefficients import (
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
    """Relations on a1..aD as elements of B_D = F2[a1..aD]/(a_i^2 + a_i).

    ``degree`` is the candidate degree D and ``ctx`` the numeric context.
    Returns (monomial exponents, frozenset of monomial masks) pairs for the
    nonzero z-positive coefficients of the defect of the generic candidate,
    ordered by (z-degree, t-degree): the rows of :func:`_relation_masks`,
    read by :func:`_rows`.  Bit k - 1 of a mask stands for a_k; a set is
    the sum of its monomials.
    """
    table = _relation_masks(degree, ctx)
    masks = [sum(1 << (i - 1) for i in idx) for idx, _ in table]
    return [(exps, frozenset(ms)) for exps, ms in _rows(ctx.ring, table, masks)]


def _check_mod2(degree: int, ctx: PowerOpContext) -> None:
    """Refuse every context outside the obstruction's domain, in this order.

    D >= 1; the standard ring's shape, t torsion-free and z torsion 2;
    coefficients Z or Z/2n (else ``RingMismatch``); tau = 2, compared in
    the coefficient ring, so tau = 0 passes over Z/2; and F(t, 0) = t, read
    off the law's y-free terms below the t truncation.  Each other failure
    raises ``ValueError``.
    """
    if not is_int(degree) or degree < 1:
        raise ValueError(f"candidate degree must be a positive integer, got {degree!r}")
    torsions = [v.torsion for v in ctx.ring.variables]
    if torsions != [None, 2]:
        raise ValueError(f"relations are read with t torsion-free and z torsion 2, got {torsions}")
    cr = ctx.ring.coeff_ring
    if not (isinstance(cr, IntegerRing) or isinstance(cr, IntegerModRing) and cr.modulus % 2 == 0):
        raise RingMismatch(f"no reduction mod 2 from {cr}")
    if ctx.tau != 2:
        raise ValueError(f"relations are read at tau = 2, got {ctx.tau}")
    t_trunc = ctx.ring.variables[0].trunc
    unit = {a: c.value for (a, b), c in ctx.law.series.terms.items() if not b and a < t_trunc}
    if unit != ({1: 1} if t_trunc > 1 else {}):
        raise ValueError("relations are read for a law with F(t, 0) = t")


def _relation_masks(degree: int, ctx: PowerOpContext) -> list:
    """The relation table: (indices, bitset of row keys) pairs, in print order.

    A context :func:`_check_mod2` refuses raises.  A series mod 2 is one int
    with bit j*T + i set when its z^j*t^i coefficient is odd, T being the t
    truncation, so key order is (z, t) order.  A monomial factor z^b*t^a is
    a left shift by b*T + a of the keys whose t exponent stays below T - a
    (``cols[a]``), F^i an XOR of such shifts of F^(i-1), one per odd term
    x^a*y^b of the law inside the box, and an AND with the box truncates.

    An entry's indices are those of its monomial mask, ascending, with
    a_0 = 1 left out: (i, k) for a_i*a_k.  Its bitset is the z-positive part
    of the terms of the pair sum (the module docstring) at that mask: for
    i < k both ordered pairs, F^i*t^k + P^i*z^k + F^k*t^i + P^k*z^i; for a
    single a_k the pairs (0, k), (k, 0) and (k, k), which leave
    z^k + F^k + P^k*z^k there, since t^k has no z-positive part and
    P^k = t^k*F^k comes twice.  Masks whose bitset is empty are left out,
    and mask 0 always is: its terms are 1 + 1.

    The entries come in print order, with no sort: the term order of
    PolynomialRing(Z/2), popcount descending, then exponent vector
    ascending, which for one popcount is the index tuple descending.  So
    the pairs come first, by i descending, then k descending, then the
    singles by k descending.
    """
    _check_mod2(degree, ctx)
    t_trunc, z_trunc = (v.trunc for v in ctx.ring.variables)
    t_row = (1 << t_trunc) - 1  # the keys of t^0..t^(T-1) at z^0
    box = (1 << t_trunc * z_trunc) - 1
    z_positive = box ^ t_row
    cols = [box // t_row * (t_row >> a) for a in range(t_trunc)]
    z_keys = [b * t_trunc for b in range(z_trunc)]
    law = [(a, b) for (a, b), c in ctx.law.series.terms.items()
           if c.value % 2 and a < t_trunc and b < z_trunc]
    powers = [1]  # F^0..F^D mod 2; after the first zero one, all are zero
    while len(powers) <= degree and powers[-1]:
        f = powers[-1]
        shifts = [(f & cols[a]) << a + z_keys[b] for a, b in law]
        powers.append(functools.reduce(operator.xor, shifts, 0) & box)
    powers += [0] * (degree + 1 - len(powers))
    # P^i = t^i*F^i, zero for i >= T
    lifts = [(f & cols[i]) << i if i < t_trunc else 0 for i, f in enumerate(powers)]
    table = []
    for i in range(degree - 1, 0, -1):
        f_i, p_i = powers[i], lifts[i]
        for k in range(degree, i, -1):
            v = (powers[k] & cols[i]) << i if i < t_trunc else 0
            if k < t_trunc:
                v ^= (f_i & cols[k]) << k
            if k < z_trunc:
                v ^= p_i << z_keys[k]
            if i < z_trunc:
                v ^= lifts[k] << z_keys[i]
            if v := v & z_positive:
                table.append(((i, k), v))
    for k in range(degree, 0, -1):
        v = powers[k]
        if k < z_trunc:
            v ^= (lifts[k] ^ 1) << z_keys[k]
        if v := v & z_positive:
            table.append(((k,), v))
    return table


def _values_by_key(ring: SeriesRing, table, values) -> list:
    """The values of a relation table's rows, as a list indexed by row key.

    ``table`` holds (indices, bitset of row keys) pairs, keyed as in
    :func:`_relation_masks`, and ``values`` one value per pair.  The list
    at a key holds the values of the masks whose bitset has that key, in
    table order.  Each bitset's keys are read top bit first, clearing each
    with a power of two made once per table, not once per key.
    """
    t_var, z_var = ring.variables
    size = t_var.trunc * z_var.trunc
    tops = [0] + [1 << key for key in range(size)]  # tops[n]: the top bit of an n-bit int
    values_at = [[] for _ in range(size + 1)]
    for (_, bits), v in zip(table, values):
        while bits:
            bits ^= tops[n := bits.bit_length()]
            values_at[n].append(v)
    return values_at[1:]  # the top bit of an n-bit int has key n - 1


def _rows(ring: SeriesRing, table, values) -> list:
    """The rows of a relation table, as ((i, j), values) for z^j*t^i in (z, t) order.

    ``values`` holds one value per table entry; a row's values are those of
    its masks, in table order (:func:`_values_by_key`).
    """
    t_trunc = ring.variables[0].trunc
    values_at = _values_by_key(ring, table, values)
    return [(divmod(key, t_trunc)[::-1], vs) for key, vs in enumerate(values_at) if vs]


def extract_relations(degree: int, ctx: PowerOpContext) -> list:
    """Relations on a1..aD, computed over Z[a1..aD] and reduced at the end.

    The reference for :func:`boolean_relations`, taking and refusing the
    same arguments, independent of the mask table: the defect of the
    generic candidate in the context rebuilt over Z[a1..aD]
    (:func:`symbolic_twin`), then :func:`multilinear_mod2` of each
    z-positive coefficient.  The same rows in the same order, (monomial
    exponents, multilinear F2 polynomial) pairs in PolynomialRing(Z/2).
    """
    _check_mod2(degree, ctx)
    defect = delta(*symbolic_twin(degree, ctx))
    rows = [(e, mod2) for e, c in defect.items() if e[1] and (mod2 := multilinear_mod2(c))]
    return sorted(rows, key=lambda row: (row[0][1], row[0][0]))


def symbolic_twin(degree: int, ctx: PowerOpContext):
    """The generic candidate of this degree and the context rebuilt over Z[a1..aD]."""
    candidate = ChernSeries.symbolic(degree)
    poly_ring = candidate.coeff_ring
    return candidate, ctx.map_coefficients(poly_ring, lambda c: poly_ring.coefficient(c.value))


def _monomial_labels(ring: SeriesRing) -> list:
    """The z^j*t^i text of each exponent pair (i, j) of ``ring``; "1" for (0, 0).

    The text of (i, j) is at index j*T + i, T the t truncation: the labels
    of the relation table's row keys.  Each z and t part is made once.
    """
    t_var, z_var = ring.variables
    t_parts = [monomial_text((t_var.name,), (i,)) for i in range(t_var.trunc)]
    labels = [part or "1" for part in t_parts]
    for j in range(1, z_var.trunc):
        z_part = monomial_text((z_var.name,), (j,))
        labels += [z_part] + [f"{z_part}*{part}" for part in t_parts[1:]]
    return labels


def symbolic_table(degree: int, ctx: PowerOpContext) -> list:
    """The relation table of the generic candidate of this degree in ``ctx``, as printed.

    (monomial label, polynomial text) pairs in (z, t) order, printed by
    :func:`_printed_rows` straight from :func:`_relation_masks`; the
    polynomial of a row is its :func:`boolean_relations` mask set written
    as a polynomial over Z/2.
    """
    return _printed_rows(ctx.ring, degree, _relation_masks(degree, ctx))


def _printed_rows(ring: SeriesRing, degree: int, table) -> list:
    """The rows of a relation table as (z^j*t^i label, polynomial text), in (z, t) order.

    ``table`` is :func:`_relation_masks`' list, already in print order, so
    each mask's text is made once, straight from its indices, and the texts
    gathered at each row key (:func:`_values_by_key`) are joined and
    labelled.
    """
    names = ("1", *coefficient_names(degree))  # a_0 = 1 is never an index
    texts = ["*".join([names[i] for i in idx]) for idx, _ in table]
    labels = _monomial_labels(ring)
    values_at = _values_by_key(ring, table, texts)
    return [(labels[key], "+".join(vs)) for key, vs in enumerate(values_at) if vs]


class ObstructionReport(Immutable):
    """Search certificate: the relation table, as printed, plus a witness or the failures.

    ``relations``: the (z^j*t^i label, polynomial text) rows, in (z, t)
    order, as :func:`symbolic_table` gives them; ``tail``: D - w >= 0.
    Exactly one of ``witness`` (a candidate no relation fails) and
    ``failing`` (the failing monomial of each prefix a1..a_w with a1 = 1, in
    candidate order) is given, as a tuple, or ``ValueError``; it decides the
    :attr:`verdict`.  A witness is D > ``tail`` 0/1 entries starting with
    a1 = 1; ``failing`` has 2^(w-1) entries, each the exponents (i, j) of a
    z-positive monomial z^j*t^i of the ring, or ``ValueError``.
    """

    __slots__ = fields = ("ring", "relations", "witness", "failing", "tail")

    def __init__(
        self,
        ring: SeriesRing,
        relations: tuple,
        witness: Optional[tuple] = None,
        failing: Optional[tuple] = None,
        tail: int = 0,
    ):
        if (witness is None) == (failing is None) or not isinstance(witness or failing, tuple):
            raise ValueError("a report holds exactly one of a witness and the failures, as a tuple")
        if not is_int(tail) or tail < 0:
            raise ValueError(f"a report's tail D - w is a non-negative integer, got {tail!r}")
        if witness is not None and (witness[:1] != (1,) or not set(witness) <= {0, 1}):
            raise ValueError(f"a witness is 0/1 entries starting with a1 = 1, got {witness}")
        if witness is not None and len(witness) <= tail:
            raise ValueError(f"a witness has D = w + {tail} > {tail} entries, got {witness}")
        if failing is not None:
            if not failing or len(failing) & (len(failing) - 1):
                raise ValueError(f"a report fails 2^(w-1) prefixes, got {len(failing)}")
            t_trunc, z_trunc = (v.trunc for v in ring.variables)
            for i, j in set(failing):
                if not (0 <= i < t_trunc and 1 <= j < z_trunc):
                    raise ValueError(f"failing exponents {(i, j)} name no z-positive monomial")
        super().__init__(ring, relations, witness, failing, tail)

    @property
    def verdict(self) -> str:
        return "satisfiable" if self.witness is not None else "unsatisfiable"

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
        labels, t_trunc = _monomial_labels(self.ring), self.ring.variables[0].trunc
        return {(i, j): labels[j * t_trunc + i] for i, j in monomials}


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

    It takes the contexts :func:`_check_mod2` takes, over Z and Z/2n alike,
    where the a_i mod 2 decide the verdict (the module docstring, "Search").
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
    table = _relation_masks(degree, ctx)
    width = max([1] + [idx[-1] for idx, _ in table])
    size = 1 << (width - 1)
    undecided = everything = (1 << size) - 1
    # a_k is bit w - k of the prefix index: runs of 2^(w-k) zeros, then ones
    tables = [everything]
    for k in range(2, width + 1):
        run = 1 << (width - k)
        tables.append(everything // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run))

    # a mask's truth table is the AND of the tables of its coefficients
    truths = [functools.reduce(operator.and_, [tables[i - 1] for i in idx]) for idx, _ in table]
    deciding = []  # (exponents, the prefixes at which that row is the first 1)
    for exps, row_tables in _rows(ring, table, truths):
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
        relations=tuple(_printed_rows(ring, degree, table)),
        witness=witness,
        failing=failing,
        tail=degree - width,
    )
