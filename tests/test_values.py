"""Value semantics of the immutable classes.

Each is equal to an instance of exactly its own class with equal fields,
hashes alike when equal, prints the repr pinned below and refuses
assignment.  Error texts embed these reprs (``{ring!r}``), so they are
part of the output.
"""

import copy
import pickle

import pytest

from fglops import (
    ChernSeries,
    FormalGroupLaw,
    IntegerModRing,
    IntegerRing,
    ObstructionReport,
    PolynomialRing,
    PowerOpContext,
    Ring,
    SeriesRing,
    SeriesVar,
    additive_law,
    exhaustive_search,
    standard_context,
)
from fglops.coefficients import Immutable, coeff_ring_to_json


def _law(degree=3):
    return additive_law(IntegerRing(), degree)


def _ring(t=3, z=2):
    return SeriesRing(IntegerRing(), (SeriesVar("t", t), SeriesVar("z", z, 2)))


def _values():
    """Pairs of equal values built apart, one pair per class and variant."""
    return [
        lambda: IntegerRing(),
        lambda: IntegerModRing(2),
        lambda: IntegerModRing(3),
        lambda: PolynomialRing(IntegerRing(), ["a1", "a2"]),
        lambda: PolynomialRing(IntegerModRing(2), ("a1", "a2")),
        lambda: SeriesVar("t", 5),
        lambda: SeriesVar("t", 5, 2),
        lambda: _ring(),
        lambda: _ring(4),
        lambda: _law(),
        lambda: FormalGroupLaw(_law().series),
        lambda: PowerOpContext(_ring(), _law(), 2),
        lambda: ObstructionReport(_ring(), (), witness=(1,)),
        lambda: ObstructionReport(_ring(), (), failing=((0, 1),)),
        lambda: ChernSeries([1, 1]),
        lambda: ChernSeries([1, 1], IntegerModRing(3)),
        lambda: ChernSeries.symbolic(2),
    ]


def _value_classes():
    """The package's value classes: every subclass of Immutable but Ring, walked recursively."""
    found, todo = set(), [Immutable]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.startswith("fglops") and cls not in found:
                found.add(cls)
                todo.append(cls)
    return found - {Ring}


def test_every_value_class_is_made():
    # the tests below draw from _values(), so a new value class joins them
    assert _value_classes() == {type(make()) for make in _values()}


def test_equal_values_hash_alike_and_unequal_values_differ():
    made = [(make(), make()) for make in _values()]
    for i, (a, b) in enumerate(made):
        assert a is not b
        assert a == b and not a != b and hash(a) == hash(b)
        for j, (c, _) in enumerate(made):
            if i != j:
                assert a != c and not a == c, (a, c)


class Residues(IntegerModRing):
    """A subclass with the fields of its base."""

    __slots__ = ()


def test_equality_needs_the_same_class():
    assert IntegerRing() != IntegerModRing(2)
    assert Residues(2) != IntegerModRing(2) and IntegerModRing(2) != Residues(2)
    assert SeriesVar("t", 5) != ("t", 5, None)
    assert IntegerRing() != "Z" and IntegerModRing(2) != 2
    assert len({IntegerRing(), IntegerRing(), IntegerModRing(2), IntegerModRing(2)}) == 2


def test_keyword_construction_and_defaults():
    assert SeriesVar(name="t", trunc=5) == SeriesVar("t", 5, None)
    assert SeriesVar("z", 3, torsion=2).torsion == 2
    assert IntegerModRing(modulus=4) == IntegerModRing(4)
    ring = _ring()
    assert PolynomialRing(base=IntegerRing(), names=["a"]).names == ("a",)
    assert SeriesRing(coeff_ring=IntegerRing(), variables=list(ring.variables)) == ring
    law = FormalGroupLaw(series=_law().series)
    assert law.name is None and law.coeff_ring == IntegerRing() and law.degree == 3
    ctx = PowerOpContext(ring=ring, law=_law(), tau=2)
    assert ctx.tau == 2 and ctx.tau.ring == IntegerRing()
    report = ObstructionReport(ring=ring, relations=(), witness=(1,))
    assert report.failing is None and report.failures is None
    with pytest.raises(TypeError):
        IntegerRing(2)
    with pytest.raises(TypeError):
        SeriesVar("t")


def test_assignment_and_deletion_raise():
    for make in _values():
        value = make()
        name = value.fields[0] if value.fields else "anything"
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)


def test_cached_properties_take_no_part_in_the_value():
    ctx, fresh = standard_context(IntegerRing(), 3, 2), standard_context(IntegerRing(), 3, 2)
    ring, fresh_ring = _ring(), _ring()
    assert ctx.tensor_root and ring.layout  # fill the caches of one side only
    assert ctx == fresh and hash(ctx) == hash(fresh)
    assert ring == fresh_ring and hash(ring) == hash(fresh_ring)


def test_copy_and_pickle_give_equal_values():
    for make in _values():
        value = make()
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value


def test_repr_text():
    assert repr(IntegerRing()) == "IntegerRing()"
    assert repr(IntegerModRing(2)) == "IntegerModRing(modulus=2)"
    assert repr(PolynomialRing(IntegerModRing(4), ["a1", "a2"])) == (
        "PolynomialRing(base=IntegerModRing(modulus=4), names=('a1', 'a2'))"
    )
    assert repr(SeriesVar("t", 5, 2)) == "SeriesVar(name='t', trunc=5, torsion=2)"
    assert repr(SeriesVar("z", 3)) == "SeriesVar(name='z', trunc=3, torsion=None)"
    ring_text = (
        "SeriesRing(coeff_ring=IntegerRing(), variables=(SeriesVar(name='t', trunc=3, "
        "torsion=None), SeriesVar(name='z', trunc=2, torsion=2)))"
    )
    assert repr(_ring()) == ring_text
    law_text = (
        "FormalGroupLaw(series=Series(x + y over Z[[x,y]]/(x^3, y^3)), name='additive')"
    )
    assert repr(_law()) == law_text
    assert repr(PowerOpContext(_ring(), _law(), 2)) == (
        f"PowerOpContext(ring={ring_text}, law={law_text}, tau=Coefficient(Z, 2))"
    )
    assert repr(ChernSeries([1, 0, 3])) == "ChernSeries(1 + (1)*x^1 + (0)*x^2 + (3)*x^3)"
    report = exhaustive_search(2, standard_context(IntegerRing(), 3, 2))
    assert repr(report) == (
        f"ObstructionReport(ring={ring_text}, relations=(('z*t^2', 'a1*a2+a1'),), "
        "witness=(1, 1), failing=None, tail=0)"
    )


class Names(Ring):
    """A ring class outside the package: no JSON tag names it."""

    __slots__ = fields = ("names",)


def test_error_text_embeds_the_repr():
    with pytest.raises(ValueError) as info:
        coeff_ring_to_json(Names(("a1",)))
    assert str(info.value) == "unsupported ring Names(names=('a1',))"
