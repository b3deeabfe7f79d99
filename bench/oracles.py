"""Longhand oracles and output checks, written apart from the engine.

Nothing here imports fglops.  Series are plain dicts keyed by exponent
tuples with int values; products are bare double loops; truncation, the
coefficient modulus and the 2-torsion on z are applied by hand.  Each
``check_*`` function takes one decoded CLI output, raises :class:`Mismatch`
on the first disagreement and returns a :class:`Tally` of what the output
certified.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from typing import NamedTuple

PAPER_ROWS = {(1, 2): "a1*a2+a3+a1", (2, 2): "a1*a3+a1*a2"}  # (t, z) -> row


class Mismatch(Exception):
    """A program output disagrees with the oracle."""


class Tally(NamedTuple):
    candidates: int = 0
    relations: int = 0


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


# --- the quotient ring (Z or Z/n)[[t, z]] / (2z, z^Z, t^T) ----------------


class Quotient:
    """Two-variable truncated series over Z (modulus 0) or Z/n, 2-torsion on z."""

    def __init__(self, t_trunc=5, z_trunc=3, modulus=0):
        self.t, self.z, self.n = t_trunc, z_trunc, modulus
        self.z_mod = math.gcd(2, modulus)  # 2 over Z, gcd(n, 2) over Z/n
        self._image_powers = {}

    def norm(self, terms: dict) -> dict:
        out = {}
        for (et, ez), c in terms.items():
            if et >= self.t or ez >= self.z:
                continue
            if self.n:
                c %= self.n
            if ez:
                c %= self.z_mod
            if c:
                out[(et, ez)] = c
        return out

    def mul(self, f: dict, g: dict) -> dict:
        out = {}
        for (a, b), c in f.items():
            for (d, e), k in g.items():
                if a + d < self.t and b + e < self.z:
                    key = (a + d, b + e)
                    out[key] = out.get(key, 0) + c * k
        return self.norm(out)

    def add(self, f: dict, g: dict, sign: int = 1) -> dict:
        out = dict(f)
        for key, c in g.items():
            out[key] = out.get(key, 0) + sign * c
        return self.norm(out)

    def candidate(self, coeffs, root: str) -> dict:
        """r(root) = 1 + sum a_i root^i for root t, z or t+z."""
        out = {(0, 0): 1}
        for i, a in enumerate(coeffs, start=1):
            for k in range(i + 1):
                if root == "t" and k:
                    break
                if root == "z" and k != i:
                    continue
                key = (i - k, k)
                out[key] = out.get(key, 0) + a * math.comb(i, k)
        return self.norm(out)

    def power_op(self, f: dict, law="additive", tau=2) -> dict:
        """P(sum a_i t^i) = sum a_i^2 P(t)^i + tau sum_{i<j} a_i a_j t^(i+j)."""
        entries = sorted((et, c) for (et, ez), c in self.norm(f).items())
        expect(all(ez == 0 for _, ez in f), "power operation input is not univariate")
        powers = self._powers(law, max((e for e, _ in entries), default=0))
        acc = {}
        for e, a in entries:
            acc = self.add(acc, {k: a * a * c for k, c in powers[e].items()})
        for (i, a), (j, b) in itertools.combinations(entries, 2):
            acc = self.add(acc, {(i + j, 0): tau * a * b})
        return acc

    def _powers(self, law, top):
        powers = self._image_powers.setdefault(law, [{(0, 0): 1}])
        image = {(2, 0): 1, (1, 1): 1}  # t * (t + z)
        if law == "multiplicative":
            image[(2, 1)] = 1  # t * (t + z + t z)
        image = self.norm(image)
        while len(powers) <= top:
            powers.append(self.mul(powers[-1], image))
        return powers

    def defect(self, coeffs) -> dict:
        """delta(r) = r(t+z) r(t) - P(r(t)) r(z) for an integer candidate."""
        r_t = self.candidate(coeffs, "t")
        lhs = self.mul(self.candidate(coeffs, "t+z"), r_t)
        rhs = self.mul(self.power_op(r_t), self.candidate(coeffs, "z"))
        return self.add(lhs, rhs, -1)


def computation_one(coeffs, ring: Quotient) -> dict:
    """r(t+z) r(t) / r(z), inverting r(z) by its finite geometric series."""
    r_z = ring.candidate(coeffs, "z")
    h = ring.add({(0, 0): 1}, r_z, -1)
    inverse, power = {(0, 0): 1}, {(0, 0): 1}
    for _ in range(ring.z):
        power = ring.mul(power, h)
        inverse = ring.add(inverse, power)
    expect(ring.mul(inverse, r_z) == {(0, 0): 1}, "oracle inverse of r(z) is wrong")
    return ring.mul(ring.mul(ring.candidate(coeffs, "t+z"), ring.candidate(coeffs, "t")), inverse)


# --- labels and polynomials -------------------------------------------------


def monomial_label(names, exps, order=None) -> str:
    """'z^2*t' style label; ``order`` lists variable positions to print."""
    order = range(len(names)) if order is None else order
    parts = [names[i] if exps[i] == 1 else f"{names[i]}^{exps[i]}" for i in order if exps[i]]
    return "*".join(parts) if parts else "1"


def tz_label(exps) -> str:
    """Label of a (t, z) monomial as the obstruction reports print it: z first."""
    return monomial_label(("t", "z"), exps, order=(1, 0))


def parse_tz_label(label: str) -> tuple:
    exps = {"t": 0, "z": 0}
    if label != "1":
        for factor in label.split("*"):
            name, _, power = factor.partition("^")
            expect(name in exps and exps[name] == 0, f"bad monomial label {label!r}")
            exps[name] = int(power) if power else 1
    expect(tz_label((exps["t"], exps["z"])) == label, f"non-canonical label {label!r}")
    return exps["t"], exps["z"]


_TERM_RE = re.compile(r"([+-]?)([^+-]+)")


def parse_poly(text: str) -> dict:
    """Parse 'a1*a2+3*a3^2-1' into {((name, exp), ...): int}."""
    text = "".join(text.split())
    expect(bool(text) and "".join(m.group(0) for m in _TERM_RE.finditer(text)) == text,
           f"unparseable polynomial {text!r}")
    out = {}
    for sign, body in _TERM_RE.findall(text):
        coef, mono = -1 if sign == "-" else 1, {}
        for factor in body.split("*"):
            if factor.isdigit():
                coef *= int(factor)
                continue
            name, _, power = factor.partition("^")
            expect(re.fullmatch(r"[A-Za-z_]\w*", name) is not None, f"bad factor {factor!r}")
            mono[name] = mono.get(name, 0) + (int(power) if power else 1)
        key = tuple(sorted(mono.items()))
        out[key] = out.get(key, 0) + coef
    return {k: c for k, c in out.items() if c}


def evaluate_poly(poly: dict, point: dict) -> int:
    return sum(c * math.prod(point[n] ** e for n, e in mono) for mono, c in poly.items())


def relation_point(cand) -> dict:
    return {f"a{i}": v for i, v in enumerate(cand, start=1)}


# --- obstruction reports ----------------------------------------------------


def search_candidates(degree: int):
    """Candidates in the engine's order: a1 = 1, last coefficient fastest."""
    return [(1, *tail) for tail in itertools.product((0, 1), repeat=degree - 1)]


def check_relations(rows, ring: Quotient, degree: int, defects: dict) -> Tally:
    """Check relation rows [{'monomial', 'poly'}] against longhand defects.

    ``defects`` maps sample candidates to their longhand defect.  At each
    sample the rows that evaluate to 1 mod 2 must be exactly the z-positive
    monomials where the defect is odd, and the defect has no z = 0 part.
    """
    table, previous = {}, (0, -1)
    for row in rows:
        exps = parse_tz_label(row["monomial"])
        expect(exps[1] > 0 and exps[0] < ring.t and exps[1] < ring.z,
               f"relation at {row['monomial']} lies outside the z-positive quotient")
        expect(exps[::-1] > previous, f"relation rows out of (z, t) order at {row['monomial']}")
        previous = exps[::-1]
        poly = table[exps] = parse_poly(row["poly"])
        expect(bool(poly) and all(c == 1 and all(e == 1 for _, e in m) for m, c in poly.items()),
               f"relation at {row['monomial']} is not a multilinear F2 polynomial")
    if degree >= 3 and ring.t > 2 and ring.z > 2:
        for exps, text in PAPER_ROWS.items():
            got = next((r["poly"] for r in rows if r["monomial"] == tz_label(exps)), None)
            expect(got == text, f"row {tz_label(exps)} is {got!r}, the paper has {text!r}")
        total = {}
        for exps in PAPER_ROWS:
            for mono, c in table[exps].items():
                mono = tuple((n, e) for n, e in mono if n != "a1")
                total[mono] = (total.get(mono, 0) + c) % 2
        expect({m: c for m, c in total.items() if c} == {(): 1},
               "the two paper rows do not sum to 1 under a1 = 1")
    for cand, defect in defects.items():
        expect(all(ez for _, ez in defect), f"defect at {list(cand)} has a z = 0 part")
        odd = {exps for exps, c in defect.items() if c % 2}
        point = relation_point(cand)
        hot = {exps for exps, poly in table.items() if evaluate_poly(poly, point) % 2}
        expect(hot == odd, f"relations at {list(cand)} mark {sorted(hot)}, "
                           f"the longhand defect is odd at {sorted(odd)}")
    return Tally(relations=len(rows))


def check_search(report: dict, t_trunc: int, z_trunc: int, degree: int) -> Tally:
    """Verdict, 2^(D-1) failures in order, each at the first odd monomial."""
    ring = Quotient(t_trunc, z_trunc)
    expect(report.get("verdict") == "unsatisfiable", f"verdict {report.get('verdict')!r}")
    expect(report.get("truncation") == {"z": z_trunc, "t": t_trunc}, "wrong truncation echoed")
    cands = search_candidates(degree)
    failures = report.get("failures", [])
    expect(len(failures) == len(cands), f"{len(failures)} failures, expected {len(cands)}")
    defects = {}
    for cand, failure in zip(cands, failures):
        expect(tuple(failure["candidate"]) == cand, f"candidate {failure['candidate']} out of order")
        defect = ring.defect(cand)
        expect(bool(defect), f"candidate {list(cand)} has a zero defect")
        first = min(defect, key=lambda e: (e[1], e[0]))
        expect(failure["monomial"] == tz_label(first),
               f"{list(cand)} fails at {failure['monomial']}, longhand at {tz_label(first)}")
        defects[cand] = defect
    rel = check_relations(report["relations"], ring, degree, defects)
    return Tally(candidates=len(failures), relations=rel.relations)


def check_symbolic(report: dict, t_trunc: int, z_trunc: int, degree: int, samples) -> Tally:
    ring = Quotient(t_trunc, z_trunc)
    expect(report.get("truncation") == {"z": z_trunc, "t": t_trunc}, "wrong truncation echoed")
    defects = {tuple(c): ring.defect(c) for c in samples}
    return check_relations(report["relations"], ring, degree, defects)


# --- series JSON ------------------------------------------------------------


def series_json(names, terms: dict, coeff="Z", truncs=None, torsion=None) -> dict:
    """Series JSON in the documented schema; ``terms`` maps exps to ints."""
    truncs = truncs or [8] * len(names)
    variables = []
    for i, name in enumerate(names):
        var = {"name": name, "trunc": truncs[i]}
        if torsion and torsion[i]:
            var["torsion"] = torsion[i]
        variables.append(var)
    return {"ring": {"coeff": coeff, "vars": variables},
            "terms": [{"exp": list(e), "coef": str(c)} for e, c in sorted(terms.items())]}


def read_series(obj: dict, coeff, names, truncs, torsion) -> dict:
    """Decode series JSON, checking its ring descriptor; returns raw coefficient text."""
    expected = series_json(names, {}, coeff, truncs, torsion)["ring"]
    expect(obj.get("ring") == expected, f"ring {obj.get('ring')} != {expected}")
    out = {}
    for term in obj["terms"]:
        exps = tuple(term["exp"])
        expect(exps not in out, f"duplicate term {exps}")
        out[exps] = term["coef"]
    return out


def int_terms(raw: dict) -> dict:
    out = {}
    for exps, text in raw.items():
        expect(re.fullmatch(r"-?\d+", text) is not None, f"coefficient {text!r} is not an integer")
        out[exps] = int(text)
    return out


def check_power_op(obj, f: dict, ring: Quotient, law: str, tau: int) -> Tally:
    """The output equals the longhand P(f)."""
    coeff = f"Z/{ring.n}" if ring.n else "Z"
    got = int_terms(read_series(obj, coeff, ("t", "z"), (ring.t, ring.z), (None, 2)))
    want = ring.power_op(f, law, tau)
    expect(got == want, f"P(f) is {sorted(got.items())}, longhand {sorted(want.items())}")
    return Tally()


def _check_chern_identity(got: dict, point, ring: Quotient, what: str) -> Tally:
    """got * r(z) == r(t+z) * r(t), which fixes got because r(z) is a unit."""
    lhs = ring.mul(ring.norm(got), ring.candidate(point, "z"))
    rhs = ring.mul(ring.candidate(point, "t+z"), ring.candidate(point, "t"))
    expect(lhs == rhs, f"{what}: output * r(z) != r(t+z) r(t)")
    return Tally()


def check_chern(obj, coeffs, ring: Quotient) -> Tally:
    got = int_terms(read_series(obj, "Z", ("t", "z"), (ring.t, ring.z), (None, 2)))
    return _check_chern_identity(got, coeffs, ring, f"chern --coeffs {list(coeffs)}")


def check_chern_symbolic(obj, degree: int, ring: Quotient, point) -> Tally:
    """Specialise the symbolic output at the integer ``point`` and check it like --coeffs."""
    names = [f"a{i}" for i in range(1, degree + 1)]
    coeff = {"poly": {"base": "Z", "vars": names}}
    raw = read_series(obj, coeff, ("t", "z"), (ring.t, ring.z), (None, 2))
    values = relation_point(point)
    got = {e: evaluate_poly(parse_poly(text), values) for e, text in raw.items()}
    return _check_chern_identity(got, point, ring, f"chern --symbolic {degree} at {list(point)}")


def check_n_series(obj, law: str, n: int, degree: int) -> Tally:
    """[n](x) is n*x additively and (1+x)^n - 1 multiplicatively."""
    got = int_terms(read_series(obj, "Z", ("x",), (degree,), (None,)))
    if law == "additive":
        expected = {(1,): n} if n else {}
    else:
        expected = {(k,): math.comb(n, k) for k in range(1, min(n, degree - 1) + 1)}
    expect(got == expected, f"[{n}](x) of the {law} law is wrong")
    return Tally()


# --- formal group laws ------------------------------------------------------


def _trunc_mul(f, g, degree, modulus):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            if max(key) < degree:
                out[key] = out.get(key, 0) + c1 * c2
    return _reduce(out, modulus)


def _reduce(terms, modulus):
    return {e: c % modulus if modulus else c for e, c in terms.items()
            if (c % modulus if modulus else c)}


def _compose(law, first, second, degree, modulus, nvars):
    """law(first, second) with both arguments series in ``nvars`` variables."""
    unit = (0,) * nvars
    pow1, pow2 = [{unit: 1}], [{unit: 1}]
    top = max((max(e) for e in law), default=0)
    for _ in range(top):
        pow1.append(_trunc_mul(pow1[-1], first, degree, modulus))
        pow2.append(_trunc_mul(pow2[-1], second, degree, modulus))
    acc = {}
    for (i, j), c in law.items():
        for e, v in _trunc_mul(pow1[i], pow2[j], degree, modulus).items():
            acc[e] = acc.get(e, 0) + c * v
    return _reduce(acc, modulus)


def _witness(diff, names):
    first = min(diff, key=lambda e: (sum(e), tuple(-x for x in e)))
    return monomial_label(names, first)


def law_verdict(law: dict, degree: int, modulus: int = 0):
    """None for a formal group law, else (axiom, witness monomial)."""
    law = _reduce({e: c for e, c in law.items() if max(e) < degree}, modulus)
    for var in (0, 1):
        diff = {(e[var],): c for e, c in law.items() if e[1 - var] == 0}
        diff[(1,)] = diff.get((1,), 0) - 1
        diff = _reduce(diff, modulus)
        if diff:
            return "unit", _witness(diff, ("x", "y")[var:var + 1])
    keys = set(law) | {e[::-1] for e in law}
    diff = _reduce({e: law.get(e, 0) - law.get(e[::-1], 0) for e in keys}, modulus)
    if diff:
        return "comm", _witness(diff, ("x", "y"))
    x, y, w = {(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1}
    left = _compose(law, _compose(law, x, y, degree, modulus, 3), w, degree, modulus, 3)
    right = _compose(law, x, _compose(law, y, w, degree, modulus, 3), degree, modulus, 3)
    diff = _reduce({e: left.get(e, 0) - right.get(e, 0) for e in {*left, *right}}, modulus)
    if diff:
        return "assoc", _witness(diff, ("x", "y", "w"))
    return None


AXIOM_LABELS = {"unit": "unitality", "comm": "commutativity", "assoc": "associativity"}


def check_law(code: int, stdout: str, as_json: bool, verdict, degree: int) -> Tally:
    """Exit 0 and 'valid' for a law, exit 1 with the failing axiom otherwise."""
    if verdict is None:
        expect(code == 0, f"valid law exited {code}")
        if as_json:
            expect(json.loads(stdout) == {"valid": True, "degree": degree}, "wrong JSON verdict")
        else:
            expect(stdout == f"valid to degree {degree}\n", f"wrong verdict {stdout!r}")
    else:
        axiom, mono = verdict
        expect(code == 1, f"non-law ({axiom} at {mono}) exited {code}")
        if as_json:
            expect(json.loads(stdout) == {"valid": False, "axiom": axiom, "monomial": mono},
                   f"wrong JSON verdict {stdout!r}, expected {axiom} at {mono}")
        else:
            expect(stdout == f"{AXIOM_LABELS[axiom]} fails at {mono}\n", f"wrong verdict {stdout!r}")
    return Tally()
