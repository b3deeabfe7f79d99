import json
import random

import pytest

from fglops import (
    BooleanRing,
    ChernSeries,
    IntegerModRing,
    IntegerRing,
    FormalGroupLaw,
    PolynomialRing,
    PowerOpContext,
    RingMismatch,
    SeriesRing,
    SeriesVar,
    additive_law,
    builtin_law,
    computation_one,
    multiplicative_law,
    standard_context,
    standard_ring,
    validate_law,
)
from fglops.cli import main
from conftest import dense_law_terms, lorentz_terms, to_plain
from longhand import power_op_longhand

Z = IntegerRing()


def test_generator_image_additive(default_context):
    assert to_plain(default_context.generator_image()) == {(2, 0): 1, (1, 1): 1}


def test_generator_image_multiplicative():
    ctx = standard_context(Z, law=multiplicative_law(Z))
    assert to_plain(ctx.generator_image()) == {(2, 0): 1, (1, 1): 1, (2, 1): 1}


def test_generator_image_truncated():
    ctx = standard_context(Z, t_trunc=2)
    assert to_plain(ctx.generator_image()) == {(1, 1): 1}


def test_power_op_examples(default_context):
    ring = default_context.ring
    t = ring.gen("t")
    assert default_context.power_op(t) == default_context.generator_image()
    assert default_context.power_op(ring.constant(3)) == ring.constant(9)
    assert to_plain(default_context.power_op(ring.one + t)) == {
        (0, 0): 1,
        (1, 0): 2,
        (2, 0): 1,
        (1, 1): 1,
    }


def test_power_op_symbolic():
    coeffs = PolynomialRing(Z, ("a1", "a2"))
    ctx = standard_context(coeffs)
    ring = ctx.ring
    a1, a2 = coeffs.gens()
    t = ring.gen("t")
    f = ring.one + ring.constant(a1) * t + ring.constant(a2) * t ** 2
    result = ctx.power_op(f)
    expected = ring.from_terms(
        {
            (0, 0): coeffs.one,
            (1, 0): a1 * 2,
            (2, 0): a1 * a1 + a2 * 2,
            (3, 0): a1 * a2 * 2,
            (4, 0): a2 * a2,
            (1, 1): a1 * a1,
            (2, 2): a2 * a2,
        }
    )
    assert result == expected


def test_power_op_rejects_multivariate(default_context):
    ring = default_context.ring
    with pytest.raises(ValueError):
        default_context.power_op(ring.gen("z"))
    with pytest.raises(RingMismatch):
        default_context.power_op(standard_ring(Z, t_trunc=7).gen("t"))


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: PowerOpContext(SeriesRing(Z, (SeriesVar("t", 5),)), additive_law(Z), 2), ValueError,
     "exactly two variables"),
    (lambda: PowerOpContext(standard_ring(Z), additive_law(IntegerModRing(4)), 2), RingMismatch,
     "share a coefficient ring"),
    # a law's coefficient ring is its series' ring
    (lambda: PowerOpContext(standard_ring(IntegerModRing(2)),
                            FormalGroupLaw(additive_law(Z).series), 2),
     RingMismatch, "share a coefficient ring"),
    (lambda: PowerOpContext(standard_ring(Z), additive_law(Z), IntegerModRing(4).one),
     RingMismatch, "transfer scalar"),
], ids=["one-variable", "law-ring", "law-series-ring", "tau-ring"])
def test_context_refusals(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()


def _lorentz(degree):
    ring = SeriesRing(Z, (SeriesVar("x", degree), SeriesVar("y", degree)))
    return validate_law(ring.from_terms(lorentz_terms(degree)), name="lorentz")


def test_context_refuses_a_law_shorter_than_its_ring():
    # F(t, z) and the relation table read only the law's terms below its
    # degree: a shorter law would drop the terms (x + y)/(1 + xy) has there
    with pytest.raises(ValueError, match="law of degree 4 is too short for Z"):
        PowerOpContext(standard_ring(Z, 9, 5), _lorentz(4), 2)
    assert PowerOpContext(standard_ring(Z, 9, 5), _lorentz(9), 2).law.degree == 9
    # computation_one reads F(t, z) off a context, so it never sees the short
    # law, and any law at least as long as the ring gives one value
    r = ChernSeries([1, 1])
    values = {computation_one(r, standard_context(Z, 9, 5, _lorentz(d))) for d in (9, 12)}
    assert len(values) == 1 and values != {computation_one(r, standard_context(Z, 9, 5))}
    # the built-in law of a standard context is built to the ring's truncation
    assert standard_context(Z, 3, 40).law.degree == 40
    assert standard_context(Z, 64, 2).law.degree == 64


def test_standard_ring_defaults_to_integers():
    assert standard_ring() == standard_ring(Z)


def _series_file(tmp_path, coeff, terms) -> str:
    path = tmp_path / "f.json"
    path.write_text(json.dumps({
        "ring": {"coeff": coeff, "vars": [{"name": "t", "trunc": 5}]},
        "terms": [{"exp": [e], "coef": c} for e, c in terms],
    }))
    return str(path)


def test_transfer_scalar_pinned_for_additive_two_torsion(tmp_path, capsys):
    # powerop pins tau to 2 for the additive law, whose z has torsion 2;
    # tau is compared in the coefficient ring, so tau = 0 is 2 over Z/2
    argv = ["powerop", _series_file(tmp_path, "Z", [(1, "1"), (2, "3")])]
    assert main([*argv, "--fgl", "additive", "--tau", "3"]) == 2
    assert capsys.readouterr() == (
        "", "error: the transfer scalar is forced to 2 for the additive law with 2-torsion\n"
    )
    # other laws may choose any scalar
    assert main([*argv, "--fgl", "multiplicative", "--tau", "3"]) == 0
    assert capsys.readouterr().err == ""
    assert main(["powerop", _series_file(tmp_path, "Z/2", [(1, "1")]), "--tau", "0"]) == 0
    assert capsys.readouterr() == ("t^2 + t*z\n", "")


def test_context_image_keeps_any_tau():
    # the library pins no tau: the dense law is x + y mod 2, so a tau = 1
    # context over Z maps into B_D, where its law is additive
    ring = SeriesRing(Z, (SeriesVar("x", 8), SeriesVar("y", 8)))
    dense = validate_law(ring.from_terms(dense_law_terms(8)), name="dense")
    boolean = BooleanRing(("a1", "a2"))
    image = PowerOpContext(standard_ring(Z, 8, 4), dense, 1).map_coefficients(
        boolean, boolean.image
    )
    assert image.law.is_additive and image.tau == boolean.one


def test_multiplicativity_on_monomials(default_context):
    ring = default_context.ring
    t = ring.gen("t")
    rng = random.Random(23)
    for _ in range(30):
        i, j = rng.randrange(4), rng.randrange(4)
        f, g = t ** i, t ** j
        assert default_context.power_op(f * g) == default_context.power_op(
            f
        ) * default_context.power_op(g)


def _random_univariate(ring, rng, max_deg=4):
    t = ring.gen("t")
    f = ring.zero
    for e in range(max_deg + 1):
        f = f + t ** e * rng.randint(-4, 4)
    return f


def test_sum_rule(default_context):
    ring = default_context.ring
    rng = random.Random(29)
    for _ in range(50):
        f = _random_univariate(ring, rng)
        g = _random_univariate(ring, rng)
        lhs = default_context.power_op(f + g)
        rhs = (
            default_context.power_op(f)
            + default_context.power_op(g)
            + f * g * default_context.tau
        )
        assert lhs == rhs


@pytest.mark.parametrize("tau", [1, 2, 3, 4])
def test_sum_rule_holds_exactly_at_tau_2(tau):
    # P is defined by its formula; constants obey P(a) = a^2, so at f = g = 1
    # the sum rule reads 4 = 2 + tau, and tau = 4 fails although tau*z = 0
    ctx = standard_context(Z, 6, 4, law=multiplicative_law(Z), tau=tau)
    ring = ctx.ring
    one = ring.one
    assert ctx.power_op(one + one) == ring.constant(4)
    assert ctx.power_op(one) + ctx.power_op(one) + one * ctx.tau == ring.constant(2 + tau)
    rng = random.Random(37)
    pairs = [(one, one)] + [(_random_univariate(ring, rng), _random_univariate(ring, rng))
                            for _ in range(30)]
    holds = [ctx.power_op(f + g) == ctx.power_op(f) + ctx.power_op(g) + f * g * ctx.tau
             for f, g in pairs]
    assert all(holds) if tau == 2 else not holds[0]


def test_restriction_to_z_zero_is_squaring(default_context):
    ring = default_context.ring
    rng = random.Random(31)
    for _ in range(50):
        f = _random_univariate(ring, rng)
        restricted = default_context.power_op(f).substitute({"z": ring.zero}, target=ring)
        assert restricted == f * f


def test_naturality_under_specialization():
    coeffs = PolynomialRing(Z, ("a1", "a2", "a3"))
    sym_ctx = standard_context(coeffs)
    num_ctx = standard_context(Z)
    a = {"a1": -1, "a2": 2, "a3": 5}
    sym_ring = sym_ctx.ring
    t = sym_ring.gen("t")
    f = (
        sym_ring.one
        + sym_ring.constant(coeffs.gen("a1")) * t
        + sym_ring.constant(coeffs.gen("a2")) * t ** 2
        + sym_ring.constant(coeffs.gen("a3")) * t ** 3
    )
    specialized_then_op = num_ctx.power_op(f.specialize(a).in_ring(num_ctx.ring))
    op_then_specialized = sym_ctx.power_op(f).specialize(a).in_ring(num_ctx.ring)
    assert specialized_then_op == op_then_specialized


@pytest.mark.parametrize("modulus", [None, 4, 6, 8])
def test_power_op_oracle_grid(modulus):
    # dense inputs with any constant term give each cross sum c_k = tau * sum_{i<j, i+j=k}
    # a_i a_j all its pairs: up to 8 for one k at t_max = 17
    coeff_ring = IntegerModRing(modulus) if modulus else Z
    rng = random.Random(modulus or 0)
    for law, tau in (("additive", 2), ("multiplicative", 1), ("multiplicative", 2),
                     ("multiplicative", 3)):
        fgl = builtin_law(law, coeff_ring)
        for t_max in range(2, 18):
            for z_max in (1, 2, 4):
                ctx = standard_context(coeff_ring, t_max, z_max, law=fgl, tau=tau)
                f = {e: rng.randint(-5, 5) for e in range(rng.randint(1, t_max))}
                series = ctx.ring.from_terms({(e, 0): a for e, a in f.items()})
                want = power_op_longhand(f, t_max, z_max, law, tau, modulus)
                assert to_plain(ctx.power_op(series)) == want, (law, tau, t_max, z_max, f)
