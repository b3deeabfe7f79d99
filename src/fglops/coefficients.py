"""Exact coefficient rings: arbitrary-precision integers, integers modulo n,
sparse multivariate polynomial rings over either, and Boolean polynomial
rings.

A ring object is an immutable descriptor that owns all arithmetic on raw
values; :class:`Coefficient` pairs a ring with one raw value kept in
canonical normal form.  Raw encodings per ring:

  IntegerRing     Python int (arbitrary precision)
  IntegerModRing  int in [0, n)
  PolynomialRing  tuple of (exponent tuple, base value) pairs, sorted by
                  total degree descending then exponent tuple ascending,
                  with no zero base values
  BooleanRing     frozenset of monomial bitmasks (multilinear, over F2)

Because values are always normal forms, structural equality decides ring
equality questions and every value is hashable and freely shareable.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Union


class RingMismatch(ValueError):
    """Operands live in different coefficient rings."""


class NotAUnit(ValueError):
    """The element has no multiplicative inverse in its ring."""


class Ring:
    """Base class for exact coefficient rings.

    Subclasses implement the raw-value protocol below; user code works with
    :class:`Coefficient` wrappers obtained from :meth:`coefficient`,
    :attr:`zero` and :attr:`one`.
    """

    def coefficient(self, value) -> "Coefficient":
        return Coefficient(self, value)

    def wrap(self, raw) -> "Coefficient":
        """The coefficient whose raw value is ``raw``, already in normal form."""
        obj = Coefficient.__new__(Coefficient)
        obj.ring = self
        obj.value = raw
        return obj

    @property
    def zero(self) -> "Coefficient":
        return self.wrap(self.from_int(0))

    @property
    def one(self) -> "Coefficient":
        return self.wrap(self.from_int(1))

    # raw-value protocol
    def normalize(self, value):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def is_unit(self, a) -> bool:
        raise NotImplementedError

    def invert(self, a):
        raise NotImplementedError

    def is_nilpotent(self, a) -> bool:
        raise NotImplementedError

    def reduce_mod(self, a, m: int):
        """Canonical image of ``a`` in the quotient of this ring by (m)."""
        raise NotImplementedError

    def format_value(self, a) -> str:
        raise NotImplementedError

    def parse_value(self, text: str):
        raise NotImplementedError


def _check_int(value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class IntegerRing(Ring):
    """The ring of arbitrary-precision integers."""

    def __str__(self) -> str:
        return "Z"

    def normalize(self, value):
        return _check_int(value)

    def from_int(self, n: int):
        return _check_int(n)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a) -> bool:
        return a == 0

    def is_unit(self, a) -> bool:
        return a in (1, -1)

    def invert(self, a):
        if a in (1, -1):
            return a
        raise NotAUnit(f"{a} is not a unit in Z")

    def is_nilpotent(self, a) -> bool:
        return a == 0

    def reduce_mod(self, a, m: int):
        return a % m

    def format_value(self, a) -> str:
        return str(a)

    def parse_value(self, text: str):
        return int(text.strip())


@dataclass(frozen=True)
class IntegerModRing(Ring):
    """The ring of integers modulo ``modulus`` (residues stored in [0, n))."""

    modulus: int

    def __post_init__(self):
        if not isinstance(self.modulus, int) or self.modulus < 2:
            raise ValueError("modulus must be an integer >= 2")

    def __str__(self) -> str:
        return f"Z/{self.modulus}"

    def normalize(self, value):
        return _check_int(value) % self.modulus

    def from_int(self, n: int):
        return _check_int(n) % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def is_zero(self, a) -> bool:
        return a == 0

    def is_unit(self, a) -> bool:
        return math.gcd(a, self.modulus) == 1

    def invert(self, a):
        try:
            return pow(a, -1, self.modulus)
        except ValueError:
            raise NotAUnit(f"{a} is not a unit in {self}") from None

    def is_nilpotent(self, a) -> bool:
        # a is nilpotent mod n iff every prime of n divides a; squaring
        # bit_length(n) times reaches exponent >= any prime multiplicity.
        x = a % self.modulus
        for _ in range(max(1, self.modulus.bit_length())):
            x = (x * x) % self.modulus
        return x == 0

    def reduce_mod(self, a, m: int):
        return a % math.gcd(self.modulus, m)

    def format_value(self, a) -> str:
        return str(a)

    def parse_value(self, text: str):
        return int(text.strip()) % self.modulus


def _poly_term_key(item):
    exps, _ = item
    return (-sum(exps), exps)


def monomial_text(names, exps) -> str:
    """``a*b^2``-style product of the named factors; empty for exponent zero."""
    return "*".join(f"{name}^{e}" if e > 1 else name for name, e in zip(names, exps) if e)


_FACTOR_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(\d+))?\Z")


@dataclass(frozen=True)
class PolynomialRing(Ring):
    """Sparse multivariate polynomials over an integer or modular base ring.

    Terms are keyed by exponent tuples over the declared indeterminates and
    printed deterministically: total degree descending, then exponent tuple
    ascending, so e.g. ``a1*a2+a3+a1`` always prints that way.
    """

    base: Ring
    names: tuple

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if isinstance(self.base, PolynomialRing):
            raise ValueError("polynomial rings do not nest")
        if not isinstance(self.base, (IntegerRing, IntegerModRing)):
            raise ValueError("polynomial base must be Z or Z/n")
        if not self.names:
            raise ValueError("at least one indeterminate is required")
        if len(set(self.names)) != len(self.names):
            raise ValueError("indeterminate names must be unique")
        if any(not n for n in self.names):
            raise ValueError("indeterminate names must be non-empty")

    def __str__(self) -> str:
        return f"{self.base}[{','.join(self.names)}]"

    @property
    def nvars(self) -> int:
        return len(self.names)

    def gen(self, name: str) -> "Coefficient":
        i = self.names.index(name)
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return self.wrap(((exps, self.base.from_int(1)),))

    def gens(self) -> tuple:
        return tuple(self.gen(n) for n in self.names)

    def _validate_exps(self, exps):
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ValueError(
                f"exponent vector {exps} does not match indeterminates {self.names}"
            )
        for e in exps:
            if isinstance(e, bool) or not isinstance(e, int) or e < 0:
                raise ValueError(f"exponents must be non-negative integers, got {exps}")
        return exps

    def normalize(self, value):
        if isinstance(value, int):
            return self.from_int(value)
        if isinstance(value, Mapping):
            items = value.items()
        else:
            items = list(value)
        acc: dict = {}
        for exps, coef in items:
            exps = self._validate_exps(exps)
            coef = self.base.normalize(coef)
            if exps in acc:
                acc[exps] = self.base.add(acc[exps], coef)
            else:
                acc[exps] = coef
        return self._canonical(acc)

    def _canonical(self, acc: dict):
        """Sorted nonzero terms of an exponent -> base value map."""
        return tuple(
            sorted(
                ((e, c) for e, c in acc.items() if not self.base.is_zero(c)),
                key=_poly_term_key,
            )
        )

    def from_int(self, n: int):
        v = self.base.from_int(n)
        if self.base.is_zero(v):
            return ()
        return (((0,) * self.nvars, v),)

    def add(self, a, b):
        acc = dict(a)
        for exps, c in b:
            if exps in acc:
                acc[exps] = self.base.add(acc[exps], c)
            else:
                acc[exps] = c
        return self._canonical(acc)

    def neg(self, a):
        return tuple((e, self.base.neg(c)) for e, c in a)

    def mul(self, a, b):
        acc: dict = {}
        for e1, c1 in a:
            for e2, c2 in b:
                e = tuple(x + y for x, y in zip(e1, e2))
                v = self.base.mul(c1, c2)
                if e in acc:
                    acc[e] = self.base.add(acc[e], v)
                else:
                    acc[e] = v
        return self._canonical(acc)

    def is_zero(self, a) -> bool:
        return a == ()

    def constant_coefficient(self, a):
        zero_exps = (0,) * self.nvars
        for exps, c in a:
            if exps == zero_exps:
                return c
        return self.base.from_int(0)

    def is_unit(self, a) -> bool:
        # unit iff the constant part is a unit and all other coefficients
        # are nilpotent in the base ring
        if not self.base.is_unit(self.constant_coefficient(a)):
            return False
        zero_exps = (0,) * self.nvars
        return all(
            self.base.is_nilpotent(c) for exps, c in a if exps != zero_exps
        )

    def invert(self, a):
        if not self.is_unit(a):
            raise NotAUnit(f"{self.format_value(a)} is not a unit in {self}")
        c0 = self.constant_coefficient(a)
        u = self.from_int(1)
        u = ((u[0][0], self.base.invert(c0)),)
        # a = c0*(1 - h) with h having nilpotent coefficients; geometric sum
        h = self.add(self.from_int(1), self.neg(self.mul(u, a)))
        acc = self.from_int(1)
        power = h
        guard = 0
        while not self.is_zero(power):
            acc = self.add(acc, power)
            power = self.mul(power, h)
            guard += 1
            if guard > 512:
                raise NotAUnit("geometric inversion did not terminate")
        return self.mul(acc, u)

    def is_nilpotent(self, a) -> bool:
        return all(self.base.is_nilpotent(c) for _, c in a)

    def reduce_mod(self, a, m: int):
        out = []
        for exps, c in a:
            c = self.base.reduce_mod(c, m)
            if not self.base.is_zero(c):
                out.append((exps, c))
        return tuple(out)

    def evaluate(self, a, assignment: Mapping[str, int]):
        """Evaluate a raw polynomial value at integer points, in the base ring."""
        for name in self.names:
            if name not in assignment:
                raise ValueError(f"no value assigned to indeterminate {name}")
        total = self.base.from_int(0)
        for exps, c in a:
            term = c
            for name, e in zip(self.names, exps):
                if e:
                    term = self.base.mul(
                        term, self.base.from_int(pow(int(assignment[name]), e))
                    )
            total = self.base.add(total, term)
        return total

    def format_value(self, a) -> str:
        if not a:
            return "0"
        out = []
        for i, (exps, c) in enumerate(a):
            neg = c < 0
            mag = -c if neg else c
            mono = monomial_text(self.names, exps)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if i == 0:
                out.append(("-" if neg else "") + body)
            else:
                out.append(("-" if neg else "+") + body)
        return "".join(out)

    def parse_value(self, text: str):
        s = "".join(text.split())
        if not s:
            raise ValueError("empty polynomial literal")
        acc: dict = {}
        for token in re.findall(r"[+-]?[^+-]+", s):
            sign = 1
            if token[0] in "+-":
                sign = -1 if token[0] == "-" else 1
                token = token[1:]
            if not token:
                raise ValueError(f"dangling sign in polynomial literal {text!r}")
            coef = sign
            exps = [0] * self.nvars
            for factor in token.split("*"):
                if re.fullmatch(r"\d+", factor):
                    coef *= int(factor)
                    continue
                m = _FACTOR_RE.match(factor)
                if m is None:
                    raise ValueError(f"bad factor {factor!r} in polynomial literal")
                name, exp = m.group(1), m.group(2)
                if name not in self.names:
                    raise ValueError(f"unknown indeterminate {name!r}")
                exps[self.names.index(name)] += int(exp) if exp else 1
            key = tuple(exps)
            v = self.base.from_int(coef)
            acc[key] = self.base.add(acc[key], v) if key in acc else v
        return self.normalize(acc)


_BINARY_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


class BooleanRing(Ring):
    """The Boolean polynomial ring F2[x1..xn]/(x_i^2 + x_i).

    A value is a frozenset of monomial bitmasks, bit i standing for the
    indeterminate ``names[i]``: multilinear polynomials over F2, the
    functions on {0, 1}^n.  Sums are symmetric differences; a product ORs
    each pair of masks (x_i^2 = x_i) and keeps the masks that occur an odd
    number of times.  Reducing integer polynomials mod 2 with x_i^2 = x_i is
    a ring homomorphism into this ring (:meth:`image`), so a computation can
    run here from the start instead of being reduced at the end.
    :attr:`polynomial_ring` is PolynomialRing(Z/2, names), where
    :meth:`polynomial` lands.

    Values print straight from their masks, in the order and text of
    :attr:`polynomial_ring`: popcount descending, then set-bit indices
    descending.  The ring keeps each formatted mask's sort key, text and
    exponent vector, so a table of values over one ring works each distinct
    mask out once; that memo changes no value.
    """

    # immutable like the dataclass rings, but a plain class: building a
    # dataclass costs about 0.4 ms at import, which every CLI start would pay
    __slots__ = ("names", "polynomial_ring", "_masks")

    def __init__(self, names):
        polynomial_ring = PolynomialRing(IntegerModRing(2), names)  # checks the names
        object.__setattr__(self, "names", polynomial_ring.names)
        object.__setattr__(self, "polynomial_ring", polynomial_ring)
        object.__setattr__(self, "_masks", {})

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        return isinstance(other, BooleanRing) and other.names == self.names

    def __hash__(self):
        return hash((BooleanRing, self.names))

    def __repr__(self) -> str:
        return f"BooleanRing(names={self.names!r})"

    def __str__(self) -> str:
        return f"F2[{','.join(self.names)}]/(x^2+x)"

    def gen(self, name: str) -> "Coefficient":
        return self.wrap(frozenset((1 << self.names.index(name),)))

    def gens(self) -> tuple:
        return tuple(self.gen(n) for n in self.names)

    def image(self, coef: "Coefficient") -> "Coefficient":
        """The image of an integer or polynomial coefficient: mod 2, x_i^2 = x_i.

        The source is Z, Z/n with n even, or a polynomial ring over one of
        them in the same indeterminates.
        """
        ring = coef.ring
        if isinstance(ring, PolynomialRing):
            if ring.names != self.names:
                raise RingMismatch(f"cannot map {ring} into {self}")
            base, terms = ring.base, coef.value
        else:
            base, terms = ring, (((0,) * len(self.names), coef.value),)
        if not (
            isinstance(base, IntegerRing)
            or isinstance(base, IntegerModRing) and base.modulus % 2 == 0
        ):
            raise RingMismatch(f"no reduction mod 2 from {ring}")
        acc: set = set()
        for exps, c in terms:
            if c % 2:
                acc ^= {sum(1 << i for i, e in enumerate(exps) if e)}
        return self.wrap(frozenset(acc))

    def polynomial(self, coef: "Coefficient") -> "Coefficient":
        """The same multilinear polynomial as a value of :attr:`polynomial_ring`."""
        if coef.ring != self:
            raise RingMismatch(f"coefficient in {coef.ring} is not in {self}")
        return self.polynomial_ring.wrap(tuple((exps, 1) for _, _, exps in self._entries(coef.value)))

    def _entries(self, value) -> list:
        """(sort key, text, exponent vector) of each mask of a value, in print order."""
        known = self._masks
        return sorted(known.get(m) or self._new_entry(m) for m in value)

    def _new_entry(self, m: int) -> tuple:
        # the exponent of names[i] is bit i: the binary digits of the mask, reversed;
        # ascending strings of equal length are ascending exponent vectors
        bits = format(m, f"0{len(self.names)}b")[::-1]
        factors = []
        rest = m
        while rest:
            low = rest & -rest
            factors.append(self.names[low.bit_length() - 1])
            rest ^= low
        exps = tuple(bits.encode().translate(_BINARY_DIGITS))
        entry = self._masks[m] = ((-m.bit_count(), bits), "*".join(factors) or "1", exps)
        return entry

    def normalize(self, value):
        if isinstance(value, int):
            return self.from_int(value)
        n = len(self.names)
        acc: set = set()
        for m in value:
            if isinstance(m, bool) or not isinstance(m, int) or not 0 <= m < 1 << n:
                raise ValueError(f"monomial masks must be integers in [0, 2^{n}), got {m!r}")
            acc ^= {m}
        return frozenset(acc)

    def from_int(self, n: int):
        return frozenset((0,)) if _check_int(n) % 2 else frozenset()

    def add(self, a, b):
        return a ^ b

    def neg(self, a):
        return a

    def mul(self, a, b):
        acc: set = set()
        for x in a:
            for y in b:
                m = x | y
                if m in acc:
                    acc.remove(m)
                else:
                    acc.add(m)
        return frozenset(acc)

    def is_zero(self, a) -> bool:
        return not a

    def is_unit(self, a) -> bool:
        # every element is idempotent, and an idempotent unit is 1
        return a == {0}

    def invert(self, a):
        if a == {0}:
            return a
        raise NotAUnit(f"{self.format_value(a)} is not a unit in {self}")

    def is_nilpotent(self, a) -> bool:
        return not a

    def reduce_mod(self, a, m: int):
        # 2 = 0 here: an even m kills nothing and an odd m is a unit
        return a if m % 2 == 0 else frozenset()

    def format_value(self, a) -> str:
        if not a:
            return "0"
        return "+".join(text for _, text, _ in self._entries(a))

    def parse_value(self, text: str):
        return self.image(self.polynomial_ring.wrap(self.polynomial_ring.parse_value(text))).value


CoefficientValue = Union[int, Mapping, Iterable]


class Coefficient:
    """One canonical value of an exact coefficient ring.

    Immutable; supports ``+ - *``, integer coercion on either side, small
    non-negative integer powers and :meth:`invert`.  Two coefficients are
    equal exactly when their rings and canonical raw values coincide.
    """

    __slots__ = ("ring", "value")

    def __init__(self, ring: Ring, value: CoefficientValue):
        self.ring = ring
        self.value = ring.normalize(value)

    def _coerce(self, other):
        if isinstance(other, Coefficient):
            if other.ring != self.ring:
                raise RingMismatch(f"cannot combine {self.ring} with {other.ring}")
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return self.ring.wrap(self.ring.from_int(other))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.ring.wrap(self.ring.add(self.value, other.value))

    __radd__ = __add__

    def __neg__(self):
        return self.ring.wrap(self.ring.neg(self.value))

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
        return self.ring.wrap(self.ring.mul(self.value, other.value))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("coefficient powers must be non-negative integers")
        result = self.ring.wrap(self.ring.from_int(1))
        for _ in range(exponent):
            result = result * self
        return result

    def invert(self) -> "Coefficient":
        return self.ring.wrap(self.ring.invert(self.value))

    def is_zero(self) -> bool:
        return self.ring.is_zero(self.value)

    def is_unit(self) -> bool:
        return self.ring.is_unit(self.value)

    def is_nilpotent(self) -> bool:
        return self.ring.is_nilpotent(self.value)

    def reduce_mod(self, m: int) -> "Coefficient":
        return self.ring.wrap(self.ring.reduce_mod(self.value, m))

    def __eq__(self, other):
        if isinstance(other, Coefficient):
            return self.ring == other.ring and self.value == other.value
        if isinstance(other, int) and not isinstance(other, bool):
            return self.value == self.ring.from_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, self.value))

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        return self.ring.format_value(self.value)

    def __repr__(self):
        return f"Coefficient({self.ring}, {self})"


def parse_coefficient(ring: Ring, text: str) -> Coefficient:
    """Parse the string form produced by ``str(coefficient)``."""
    return ring.wrap(ring.parse_value(text))


def coeff_ring_to_json(ring: Ring):
    """JSON tag for a coefficient ring: "Z", "Z/n", or a poly descriptor."""
    if isinstance(ring, IntegerRing):
        return "Z"
    if isinstance(ring, IntegerModRing):
        return f"Z/{ring.modulus}"
    if isinstance(ring, PolynomialRing):
        return {"poly": {"base": coeff_ring_to_json(ring.base), "vars": list(ring.names)}}
    raise ValueError(f"unsupported ring {ring!r}")


def coeff_ring_from_json(obj) -> Ring:
    if obj == "Z":
        return IntegerRing()
    if isinstance(obj, str) and obj.startswith("Z/"):
        return IntegerModRing(int(obj[2:]))
    if isinstance(obj, Mapping) and "poly" in obj:
        spec = obj["poly"]
        names = spec.get("vars") if isinstance(spec, Mapping) else None
        if not isinstance(names, list) or "base" not in spec or not all(
            isinstance(name, str) for name in names
        ):
            raise ValueError(f"polynomial ring descriptor needs 'base' and a list 'vars': {spec!r}")
        return PolynomialRing(coeff_ring_from_json(spec["base"]), tuple(names))
    raise ValueError(f"unrecognized coefficient ring descriptor {obj!r}")
