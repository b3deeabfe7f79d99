"""Exact coefficient rings: arbitrary-precision integers, integers modulo n,
and sparse multivariate polynomial rings over either.

A ring object is an immutable descriptor that owns all arithmetic on raw
values; :class:`Coefficient` pairs a ring with one raw value kept in
canonical normal form.  Raw encodings per ring:

  IntegerRing     Python int (arbitrary precision)
  IntegerModRing  int in [0, n)
  PolynomialRing  tuple of (exponent tuple, base value) pairs, sorted by
                  total degree descending then exponent tuple ascending,
                  with no zero base values

Because values are always normal forms, structural equality decides ring
equality questions and every value is hashable and freely shareable.  The
one exception is a sum being accumulated, a *working value*: an unreduced
int over Z/n or a dict of unsorted terms over a polynomial ring, put in
normal form once the sum is complete.  :class:`Ring` states the raw-value
protocol every ring implements and the working-value contract.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Iterable, Mapping, Union


class RingMismatch(ValueError):
    """Operands live in different coefficient rings."""


class NotAUnit(ValueError):
    """The element has no multiplicative inverse in its ring."""


class Immutable:
    """Base of the engine's immutable value classes.

    A subclass names the attributes that make up its value in ``fields``, in
    constructor order; its ``__init__`` checks its arguments and passes their
    values, in that order, to ``Immutable.__init__``, which sets each once.
    Instances of exactly the same class are equal when those attributes are,
    the hash agrees with that equality, and the repr shows the attributes as
    keyword arguments.  Anything else an instance keeps, such as a memo or a
    cached property, is no part of its value.  Assignment raises
    ``AttributeError``.
    """

    __slots__ = ()
    fields: tuple = ()

    def __init__(self, *values):
        if len(values) != len(self.fields):
            raise TypeError(
                f"{type(self).__name__} takes {len(self.fields)} field values, got {len(values)}"
            )
        for name, value in zip(self.fields, values):
            object.__setattr__(self, name, value)

    def _field_values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field_values() == other._field_values()

    def __hash__(self):
        return hash((self.__class__, *self._field_values()))

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        # the constructor takes the fields in order; copy and pickle rebuild through it
        return type(self), self._field_values()


class Ring(Immutable):
    """Base class for exact coefficient rings.

    User code works with :class:`Coefficient` wrappers obtained from
    :meth:`coefficient`, :attr:`zero` and :attr:`one`; a ring subclass owns
    the arithmetic on raw values through these methods, the raw-value
    protocol (the tests hold every ring class to it):

      normalize(value)      the canonical raw value of a user value
      from_int(n)           the raw value of the integer n
      add(a, b), neg(a), mul(a, b)
      mul_add(acc, a, b)    acc + a*b as a working value, ``acc`` None
                            standing for the empty sum
      settle(acc)           the canonical raw value of a working value
      is_zero(a), is_unit(a), invert(a), is_nilpotent(a)
      reduce_mod(a, m)      the canonical image of ``a`` in the quotient of
                            this ring by (m)
      format_value(a), parse_value(text)
                            the text of a value, and back

    A working value is a raw value that ring arithmetic may not yet have put
    in normal form; :meth:`settle` puts it there, and gives a canonical
    value back unchanged, which is all it has to do where ``mul_add``
    returns canonical values.  The ``acc`` of ``mul_add`` is either a
    canonical raw value or a working value that ``mul_add`` returned, which
    it may update in place.  ``invert`` raises :class:`NotAUnit` for a
    non-unit.
    """

    __slots__ = ()

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

    def settle(self, acc):
        """The default, for rings whose ``mul_add`` returns canonical values."""
        return acc


def is_int(value) -> bool:
    """Whether ``value`` is an integer to the engine: an ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_int(text: str) -> int:
    """An optional sign and ASCII digits, with surrounding whitespace.

    The one integer grammar of every text boundary: no ``_`` separators, no
    other digits than 0-9.
    """
    s = text.strip()
    digits = s[1:] if s[:1] in ("+", "-") else s
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"bad integer literal {text!r}")
    try:
        return int(s)
    except ValueError:  # more digits than the interpreter converts
        raise ValueError(f"integer literal of {len(digits)} digits is too long") from None


def _int_text(n: int) -> str:
    """The decimal text of ``n``, or a ``ValueError`` naming its size.

    The interpreter refuses to convert an int of more than a set number of
    digits; the engine reports that as a coefficient too long to print.
    """
    try:
        return str(n)
    except ValueError:
        digits = int((abs(n).bit_length() - 1) * math.log10(2)) + 1  # at most one short
        digits += abs(n) >= 10**digits
        raise ValueError(f"coefficient of {digits} digits is too long to print") from None


class IntegerRing(Ring):
    """The ring of arbitrary-precision integers."""

    __slots__ = ()

    def __str__(self) -> str:
        return "Z"

    def normalize(self, value):
        if not is_int(value):
            raise TypeError(f"expected an integer, got {value!r}")
        return value

    from_int = normalize

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def mul_add(self, acc, a, b):
        return a * b if acc is None else acc + a * b

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
        return _int_text(a)

    def parse_value(self, text: str):
        return parse_int(text)


_Z = IntegerRing()


class IntegerModRing(Ring):
    """The ring of integers modulo ``modulus`` (residues stored in [0, n))."""

    __slots__ = fields = ("modulus",)

    def __init__(self, modulus: int):
        if not is_int(modulus) or modulus < 2:
            raise ValueError("modulus must be an integer >= 2")
        super().__init__(modulus)

    def __str__(self) -> str:
        return f"Z/{self.modulus}"

    def normalize(self, value):
        return _Z.normalize(value) % self.modulus

    from_int = normalize

    def add(self, a, b):
        return (a + b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    # a working value is any int, reduced once by settle
    mul_add = IntegerRing.mul_add

    def settle(self, acc):
        return acc % self.modulus

    is_zero = IntegerRing.is_zero

    def is_unit(self, a) -> bool:
        return math.gcd(a, self.modulus) == 1

    def invert(self, a):
        try:
            return pow(a, -1, self.modulus)
        except ValueError:
            raise NotAUnit(f"{a} is not a unit in {self}") from None

    def is_nilpotent(self, a) -> bool:
        # a is nilpotent mod n iff every prime of n divides a, and then a^k = 0
        # once k reaches each prime's multiplicity in n, which is below bit_length(n)
        return pow(a, self.modulus.bit_length(), self.modulus) == 0

    def reduce_mod(self, a, m: int):
        return a % math.gcd(self.modulus, m)

    format_value = IntegerRing.format_value

    def parse_value(self, text: str):
        return parse_int(text) % self.modulus


def _poly_term_key(item):
    exps, _ = item
    return (-sum(exps), exps)


def monomial_text(names, exps) -> str:
    """``a*b^2``-style product of the named factors; empty for exponent zero."""
    return "*".join(f"{name}^{e}" if e > 1 else name for name, e in zip(names, exps) if e)


_FACTOR = r"(?:[0-9]+|[A-Za-z_][A-Za-z0-9_]*(?:\^[0-9]+)?)"
_TERM = rf"{_FACTOR}(?:\*{_FACTOR})*"
_POLY_LITERAL = rf"[+-]?{_TERM}(?:[+-]{_TERM})*"  # compiled on first use, not at import


class PolynomialRing(Ring):
    """Sparse multivariate polynomials over an integer or modular base ring.

    Terms are keyed by exponent tuples over the declared indeterminates and
    printed deterministically: total degree descending, then exponent tuple
    ascending, so e.g. ``a1*a2+a3+a1`` always prints that way.
    """

    __slots__ = fields = ("base", "names")

    def __init__(self, base: Ring, names):
        names = tuple(names)
        if isinstance(base, PolynomialRing):
            raise ValueError("polynomial rings do not nest")
        if not isinstance(base, (IntegerRing, IntegerModRing)):
            raise ValueError("polynomial base must be Z or Z/n")
        if not names:
            raise ValueError("at least one indeterminate is required")
        if len(set(names)) != len(names):
            raise ValueError("indeterminate names must be unique")
        if any(not n for n in names):
            raise ValueError("indeterminate names must be non-empty")
        super().__init__(base, names)

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
            if not is_int(e) or e < 0:
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
        return self.settle(self.mul_add(None, a, b))

    def mul_add(self, acc, a, b):
        # a working value is a dict from exponent tuples to working base
        # values; a canonical tuple of terms is copied into one first
        if acc is None:
            acc = {}
        elif type(acc) is not dict:
            acc = dict(acc)
        base_mul_add, get = self.base.mul_add, acc.get
        for e1, c1 in a:
            for e2, c2 in b:
                e = tuple(map(operator.add, e1, e2))
                acc[e] = base_mul_add(get(e), c1, c2)
        return acc

    def settle(self, acc):
        if type(acc) is not dict:
            return acc
        settle = self.base.settle
        return self._canonical({e: settle(c) for e, c in acc.items()})

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
        # a = c0*(1 - h) with h having nilpotent coefficients, so h is
        # nilpotent and the geometric sum ends
        h = self.add(self.from_int(1), self.neg(self.mul(u, a)))
        acc = self.from_int(1)
        power = h
        while not self.is_zero(power):
            acc = self.add(acc, power)
            power = self.mul(power, h)
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
                body = _int_text(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{_int_text(mag)}*{mono}"
            if i == 0:
                out.append(("-" if neg else "") + body)
            else:
                out.append(("-" if neg else "+") + body)
        return "".join(out)

    def parse_value(self, text: str):
        """Sign-joined terms, each a ``*``-product of integers and ``name^e`` factors.

        One leading sign is allowed; whitespace anywhere is ignored.
        """
        s = "".join(text.split())
        if not re.fullmatch(_POLY_LITERAL, s):
            raise ValueError(f"bad polynomial literal {text!r}")
        terms = []
        for sign, token in re.findall(r"([+-]?)([^+-]+)", s):
            coef = -1 if sign == "-" else 1
            exps = [0] * self.nvars
            for factor in token.split("*"):
                if factor.isdigit():
                    coef *= parse_int(factor)
                    continue
                name, _, exp = factor.partition("^")
                if name not in self.names:
                    raise ValueError(f"unknown indeterminate {name!r}")
                exps[self.names.index(name)] += parse_int(exp) if exp else 1
            terms.append((exps, coef))
        return self.normalize(terms)


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
        if is_int(other):
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
        if not is_int(exponent) or exponent < 0:
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
        if is_int(other):
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
    if isinstance(obj, str) and obj[:2] == "Z/" and obj[2:].isascii() and obj[2:].isdigit():
        return IntegerModRing(parse_int(obj[2:]))
    if isinstance(obj, Mapping) and "poly" in obj:
        spec = obj["poly"]
        names = spec.get("vars") if isinstance(spec, Mapping) else None
        if not isinstance(names, list) or "base" not in spec or not all(
            isinstance(name, str) for name in names
        ):
            raise ValueError(f"polynomial ring descriptor needs 'base' and a list 'vars': {spec!r}")
        return PolynomialRing(coeff_ring_from_json(spec["base"]), tuple(names))
    raise ValueError(f"unrecognized coefficient ring descriptor {obj!r}")
