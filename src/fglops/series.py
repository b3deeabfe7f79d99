"""Truncated multivariate power series rings with per-variable torsion.

A :class:`SeriesRing` fixes a coefficient ring and an ordered tuple of
variables.  Each variable carries a truncation degree (monomials whose
exponent in that variable reaches the degree vanish) and an optional torsion
order m, encoding the relation m*v = 0: the coefficient of any monomial with
a positive v-exponent is kept only modulo m.  With several torsion variables
in one monomial, the applicable modulus is the gcd of their orders.

Elements are sparse term maps in canonical normal form; equality is
structural.  A term's monomial is stored as one packed int key: the ring
gives each variable a bit field wide enough that 2^(w-1) >= its truncation
degree, so the key of a product monomial is the sum of the two keys, and
adding a fixed bias sets a field's top bit exactly when that exponent
reaches its truncation.  A product then costs one int add and one AND per
term pair; exponent tuples appear only at the boundary (the constructor,
:attr:`Series.terms`, :meth:`Series.items`, :meth:`Series.coefficient_of`,
:meth:`Series.substitute` and printing).

All values are immutable and all operations are pure.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Optional

from .coefficients import (
    Coefficient,
    Immutable,
    Ring,
    RingMismatch,
    coeff_ring_from_json,
    coeff_ring_to_json,
    is_int,
    monomial_text,
    parse_coefficient,
)


class NonConvergent(ValueError):
    """A substitution image has a constant term that is not nilpotent."""


class SeriesVar(Immutable):
    """One series variable: name, truncation degree, optional torsion order."""

    __slots__ = fields = ("name", "trunc", "torsion")

    def __init__(self, name: str, trunc: int, torsion: Optional[int] = None):
        if not isinstance(name, str) or not name:
            raise ValueError(f"variable names must be non-empty strings, got {name!r}")
        if not is_int(trunc) or trunc < 1:
            raise ValueError(f"truncation degree must be a positive integer, got {trunc}")
        if torsion is not None and (not is_int(torsion) or torsion < 1):
            raise ValueError(f"torsion order must be a positive integer, got {torsion}")
        super().__init__(name, trunc, torsion)


class SeriesRing(Immutable):
    """A truncated power-series ring over an exact coefficient ring."""

    fields = ("coeff_ring", "variables")  # no __slots__: cached_property needs __dict__

    def __init__(self, coeff_ring: Ring, variables):
        variables = tuple(variables)
        if not variables:
            raise ValueError("a series ring needs at least one variable")
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        super().__init__(coeff_ring, variables)

    def __str__(self) -> str:
        names = ",".join(v.name for v in self.variables)
        rels = []
        for v in self.variables:
            if v.torsion is not None:
                rels.append(f"{v.torsion}{v.name}")
            rels.append(f"{v.name}^{v.trunc}")
        return f"{self.coeff_ring}[[{names}]]/({', '.join(rels)})"

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def names(self) -> tuple:
        return tuple(v.name for v in self.variables)

    def index(self, name: str) -> int:
        for i, v in enumerate(self.variables):
            if v.name == name:
                return i
        raise ValueError(f"no variable named {name!r} in {self}")

    @cached_property
    def layout(self) -> "KeyLayout":
        """The packing of this ring's exponent vectors into int keys."""
        return KeyLayout(tuple(v.trunc for v in self.variables))

    def from_terms(self, terms) -> "Series":
        return Series(self, terms)

    @property
    def zero(self) -> "Series":
        return Series._from_raw(self, {})

    @property
    def one(self) -> "Series":
        return Series._from_raw(self, {0: self.coeff_ring.from_int(1)})

    def constant(self, value) -> "Series":
        return Series(self, {(0,) * self.nvars: value})

    def gen(self, name: str) -> "Series":
        exps = tuple(1 if i == self.index(name) else 0 for i in range(self.nvars))
        return Series(self, {exps: 1})


class KeyLayout:
    """Bit fields that pack exponent vectors below their truncations into ints.

    Variable i owns the field ``masks[i]`` of w bits at ``offsets[i]``, with
    2^(w-1) >= trunc.  For in-range vectors, pack(e1) + pack(e2) is
    pack(e1 + e2) (each exponent sum is below 2^w, so no field carries), and
    ``(pack(e1) + pack(e2) + bias) & overflow`` is nonzero exactly when some
    exponent of e1 + e2 reaches its truncation: ``bias`` adds
    2^(w-1) - trunc to each field and ``overflow`` holds each field's top bit.
    """

    __slots__ = ("offsets", "masks", "bias", "overflow")

    def __init__(self, truncs):
        offsets, masks = [], []
        bias = overflow = offset = 0
        for trunc in truncs:
            width = (trunc - 1).bit_length() + 1
            offsets.append(offset)
            masks.append(((1 << width) - 1) << offset)
            bias += ((1 << (width - 1)) - trunc) << offset
            overflow |= 1 << (offset + width - 1)
            offset += width
        self.offsets, self.masks = tuple(offsets), tuple(masks)
        self.bias, self.overflow = bias, overflow

    def pack(self, exps) -> int:
        """The key of an exponent vector with every exponent below its truncation."""
        return sum(e << off for e, off in zip(exps, self.offsets))

    def unpack(self, key: int) -> tuple:
        return tuple((key & mask) >> off for mask, off in zip(self.masks, self.offsets))


def _reduced(ring: SeriesRing, acc: dict) -> dict:
    """Canonical raw terms of working values (:meth:`Ring.mul_add`).

    Each value is settled, reduced by its monomial's torsion modulus and
    dropped if zero.
    """
    cr = ring.coeff_ring
    settle, is_zero = cr.settle, cr.is_zero
    masks = ring.layout.masks
    torsion = [(masks[i], v.torsion) for i, v in enumerate(ring.variables) if v.torsion is not None]
    out: dict = {}
    for key, coef in acc.items():
        coef = settle(coef)
        modulus = 0
        for mask, order in torsion:
            if key & mask:
                modulus = math.gcd(modulus, order)
        if modulus:
            coef = cr.reduce_mod(coef, modulus)
        if not is_zero(coef):
            out[key] = coef
    return out


def _raw_value(cr: Ring, coef):
    """Raw value of a Coefficient of ``cr``, or of a plain value ``cr`` normalizes."""
    if isinstance(coef, Coefficient):
        if coef.ring != cr:
            raise RingMismatch(f"coefficient in {coef.ring} used in series over {cr}")
        return coef.value
    return cr.normalize(coef)


def _is_scalar(value) -> bool:
    """An int (not a bool) or a Coefficient: what series arithmetic accepts besides series."""
    return isinstance(value, Coefficient) or is_int(value)


def _term_order(exps) -> tuple:
    return (sum(exps), tuple(-e for e in exps))


class Series:
    """A canonical sparse element of a :class:`SeriesRing`.

    Terms map packed monomial keys (:attr:`SeriesRing.layout`) to raw
    coefficient-ring values.  The constructor checks its input and packs
    it; arithmetic builds its results with :meth:`_from_raw`.
    """

    __slots__ = ("ring", "_terms")

    def __init__(self, ring: SeriesRing, terms):
        if isinstance(terms, Mapping):
            items = terms.items()
        else:
            items = list(terms)
        cr = ring.coeff_ring
        pack = ring.layout.pack
        acc: dict = {}
        for exps, coef in items:
            exps = tuple(exps)
            if len(exps) != ring.nvars:
                raise ValueError(
                    f"exponent vector {exps} does not match variables {ring.names()}"
                )
            for e in exps:
                if not is_int(e) or e < 0:
                    raise ValueError(f"exponents must be non-negative integers, got {exps}")
            coef = _raw_value(cr, coef)
            if any(e >= v.trunc for e, v in zip(exps, ring.variables)):
                continue
            key = pack(exps)
            acc[key] = cr.add(acc[key], coef) if key in acc else coef
        self.ring = ring
        self._terms = _reduced(ring, acc)

    @classmethod
    def _from_raw(cls, ring: SeriesRing, acc: dict) -> "Series":
        """Series from working values keyed in range; settling, torsion and zeros are applied."""
        obj = cls.__new__(cls)
        obj.ring = ring
        obj._terms = _reduced(ring, acc)
        return obj

    @property
    def terms(self) -> Mapping:
        """Read-only map of the canonical terms (exponents -> Coefficient)."""
        wrap, unpack = self.ring.coeff_ring.wrap, self.ring.layout.unpack
        return MappingProxyType({unpack(k): wrap(c) for k, c in self._terms.items()})

    def items(self) -> list:
        """Canonically ordered (exponents, coefficient) pairs."""
        wrap, unpack = self.ring.coeff_ring.wrap, self.ring.layout.unpack
        pairs = [(unpack(k), wrap(c)) for k, c in self._terms.items()]
        return sorted(pairs, key=lambda pair: _term_order(pair[0]))

    def coefficient_of(self, exps) -> Coefficient:
        exps = tuple(exps)
        if len(exps) != self.ring.nvars:
            raise ValueError(
                f"exponent vector {exps} does not match variables {self.ring.names()}"
            )
        if any(e < 0 or e >= v.trunc for e, v in zip(exps, self.ring.variables)):
            raise ValueError(f"monomial {exps} is outside the truncation bounds")
        cr = self.ring.coeff_ring
        key = self.ring.layout.pack(exps)
        return cr.wrap(self._terms[key]) if key in self._terms else cr.zero

    def constant_term(self) -> Coefficient:
        cr = self.ring.coeff_ring
        return cr.wrap(self._terms[0]) if 0 in self._terms else cr.zero

    def _coerce(self, other):
        if isinstance(other, Series):
            if other.ring != self.ring:
                raise RingMismatch(f"cannot combine series over {self.ring} and {other.ring}")
            return other
        if _is_scalar(other):
            return self.ring.constant(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        add = self.ring.coeff_ring.add
        acc = dict(self._terms)
        for key, coef in other._terms.items():
            if key in acc:
                acc[key] = add(acc[key], coef)
            else:
                acc[key] = coef
        return Series._from_raw(self.ring, acc)

    __radd__ = __add__

    def __neg__(self):
        neg = self.ring.coeff_ring.neg
        return Series._from_raw(self.ring, {k: neg(c) for k, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        mul_add = self.ring.coeff_ring.mul_add
        layout = self.ring.layout
        bias, overflow = layout.bias, layout.overflow
        acc: dict = {}
        get = acc.get
        for k1, c1 in self._terms.items():
            biased = k1 + bias
            for k2, c2 in other._terms.items():
                if (biased + k2) & overflow:
                    continue
                key = k1 + k2
                acc[key] = mul_add(get(key), c1, c2)
        return Series._from_raw(self.ring, acc)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not is_int(exponent) or exponent < 0:
            raise ValueError("series powers must be non-negative integers")
        result = self.ring.one
        for _ in range(exponent):
            result = result * self
        return result

    def substitute(
        self,
        assignment: Mapping[str, "Series"],
        target: Optional[SeriesRing] = None,
    ) -> "Series":
        """Evaluate the canonical representative under variable images.

        Every assigned image must live in the target ring and have a
        nilpotent constant term (zero, in torsion-free integer-like rings);
        otherwise the substitution does not define a map out of the
        truncated quotient and :class:`NonConvergent` is raised.  Unassigned
        variables map to the same-named generator of the target ring.
        """
        for name in assignment:
            self.ring.index(name)
        if target is None:
            if assignment:
                target = next(iter(assignment.values())).ring
            else:
                target = self.ring
        if target.coeff_ring != self.ring.coeff_ring:
            raise RingMismatch(
                f"substitution target over {target.coeff_ring} differs from {self.ring.coeff_ring}"
            )
        # image id -> its powers 1, image, image^2, ...; one list per image
        # object, so formal_sum(f, f) raises f once
        shared: dict = {}
        powers_of = []
        for v in self.ring.variables:
            if v.name in assignment:
                img = assignment[v.name]
                if not isinstance(img, Series) or img.ring != target:
                    raise RingMismatch(f"image of {v.name} must be a series in {target}")
                if not img.constant_term().is_nilpotent():
                    raise NonConvergent(
                        f"image of {v.name} has non-nilpotent constant term"
                    )
            else:
                img = target.gen(v.name)
            powers_of.append(shared.setdefault(id(img), [target.one, img]))
        mul_add = target.coeff_ring.mul_add
        unpack = self.ring.layout.unpack
        acc: dict = {}
        for key, coef in self._terms.items():
            term = target.one
            for powers, e in zip(powers_of, unpack(key)):
                if e:
                    while len(powers) <= e:
                        powers.append(powers[-1] * powers[1])
                    term = term * powers[e]
            for k, c in term._terms.items():
                acc[k] = mul_add(acc.get(k), coef, c)
        return Series._from_raw(target, acc)

    def power_sum(self, coeffs) -> "Series":
        """Sum of coeffs[i] * self**i, exact once a power of self is zero.

        The sum stops there, so an infinite iterable is fine when self is
        nilpotent; otherwise it runs through every coefficient given.
        """
        cr = self.ring.coeff_ring
        mul_add = cr.mul_add
        acc: dict = {}
        power = self.ring.one
        for i, c in enumerate(coeffs):
            if i:
                power = power * self
            if not power:
                break
            if not _is_scalar(c):
                raise TypeError(f"power_sum coefficients must be ints or Coefficients, got {c!r}")
            raw = _raw_value(cr, c)
            if cr.is_zero(raw):
                continue
            for key, coef in power._terms.items():
                acc[key] = mul_add(acc.get(key), coef, raw)
        return Series._from_raw(self.ring, acc)

    def invert(self) -> "Series":
        """Exact inverse via the geometric series; needs a unit constant term."""
        u = self.constant_term().invert()
        h = self.ring.one - self * u
        return h.power_sum(itertools.repeat(1)) * u

    def map_coefficients(self, coeff_ring: Ring, fn) -> "Series":
        """The image series over ``coeff_ring``, the same variables, each coefficient mapped."""
        target = SeriesRing(coeff_ring, self.ring.variables)
        return Series(target, {e: fn(c) for e, c in self.terms.items()})

    def specialize(self, assignment: Mapping[str, int]) -> "Series":
        """Evaluate polynomial coefficients at integer points.

        Returns a series over the same variables with coefficients in the
        polynomial base ring.
        """
        pr = self.ring.coeff_ring
        base = getattr(pr, "base", None)
        if base is None:
            raise ValueError("specialize needs polynomial coefficients")
        target = SeriesRing(base, self.ring.variables)
        # the same variables, so the same key layout
        return Series._from_raw(
            target, {k: pr.evaluate(c, assignment) for k, c in self._terms.items()}
        )

    def in_ring(self, target: SeriesRing) -> "Series":
        """Transport the series into ``target`` by matching variable names."""
        if target.coeff_ring != self.ring.coeff_ring:
            raise RingMismatch("target ring has a different coefficient ring")
        out: dict = {}
        for exps, coef in self.terms.items():
            new_exps = [0] * target.nvars
            for e, v in zip(exps, self.ring.variables):
                if e == 0:
                    continue
                new_exps[target.index(v.name)] = e
            out[tuple(new_exps)] = coef
        return Series(target, out)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self):
        return hash((self.ring, frozenset(self._terms.items())))

    def __bool__(self):
        return bool(self._terms)

    def __str__(self):
        if not self._terms:
            return "0"
        pieces = []
        names = self.ring.names()
        for exps, coef in self.items():
            mono = monomial_text(names, exps)
            text = str(coef)
            negative = text.startswith("-") and "+" not in text[1:] and "-" not in text[1:]
            if negative:
                text = text[1:]
            if not mono:
                body = text
            elif text == "1":
                body = mono
            else:
                if "+" in text or "-" in text:
                    text = f"({text})"
                body = f"{text}*{mono}"
            pieces.append((negative, body))
        first_neg, first_body = pieces[0]
        out = ("-" if first_neg else "") + first_body
        for negative, body in pieces[1:]:
            out += (" - " if negative else " + ") + body
        return out

    def __repr__(self):
        return f"Series({self} over {self.ring})"


def ring_to_json(ring: SeriesRing) -> dict:
    vars_json = []
    for v in ring.variables:
        entry = {"name": v.name, "trunc": v.trunc}
        if v.torsion is not None:
            entry["torsion"] = v.torsion
        vars_json.append(entry)
    return {"coeff": coeff_ring_to_json(ring.coeff_ring), "vars": vars_json}


def ring_from_json(obj) -> SeriesRing:
    if not isinstance(obj, Mapping) or "coeff" not in obj or "vars" not in obj:
        raise ValueError("series ring descriptor needs 'coeff' and 'vars'")
    try:
        variables = tuple(
            SeriesVar(spec["name"], spec["trunc"], spec.get("torsion"))
            for spec in obj["vars"]
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed variable descriptor: {exc}") from None
    return SeriesRing(coeff_ring_from_json(obj["coeff"]), variables)


def series_to_json(f: Series) -> dict:
    return {
        "ring": ring_to_json(f.ring),
        "terms": [
            {"exp": list(exps), "coef": str(coef)} for exps, coef in f.items()
        ],
    }


def series_from_json(obj) -> Series:
    if not isinstance(obj, Mapping) or "ring" not in obj or "terms" not in obj:
        raise ValueError("series descriptor needs 'ring' and 'terms'")
    ring = ring_from_json(obj["ring"])
    terms = []
    try:
        for entry in obj["terms"]:
            if not isinstance(entry["coef"], str):
                raise ValueError(f"coefficients are strings, got {entry['coef']!r}")
            coef = parse_coefficient(ring.coeff_ring, entry["coef"])
            terms.append((tuple(entry["exp"]), coef))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed term descriptor: {exc}") from None
    return Series(ring, terms)
