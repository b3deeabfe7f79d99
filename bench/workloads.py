"""The three workloads as lists of CLI requests, each with its own check.

A workload is a fixed list of requests made from the seed; a run repeats the
whole list in rounds, each round in a fresh seeded order.  Every
request carries the argv passed to ``fglops`` and a check that judges the
exit code and output against :mod:`oracles`.  Inputs come only from the
seeded generator, and JSON inputs are written into the run's scratch
directory, so the program sees nothing else.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Callable, NamedTuple

import oracles as O
from oracles import Quotient, Tally, expect

# (t, z, D) points; why each was chosen is in README.md.
SEARCH_POINTS = [(5, 3, 12), (9, 5, 9)]
RELATION_POINTS = [(17, 9, 16), (33, 17, 32), (49, 25, 48), (63, 31, 62)]
RELATIONS_SEARCH_POINT = (17, 9, 6)
RELATION_SAMPLES = 3  # seeded candidates at which each relation table is checked
TAIL_N = (1400, 1600)  # range of n for the heavy `fgl nseries multiplicative` tail
REQUESTS_MIN_ROUNDS = 5  # 5 rounds x 40 requests >= 200 requests per run

# The input that hits the known fault: a polynomial coefficient ring without
# "vars" makes coeff_ring_from_json raise KeyError (a traceback, exit 1)
# instead of a clean "error: ..." with exit 2.  It does not depend on the seed.
FAULT_SERIES = {
    "ring": {"coeff": {"poly": {"base": "Z/2"}}, "vars": [{"name": "t", "trunc": 5}]},
    "terms": [{"exp": [1], "coef": "1"}],
}


class Request(NamedTuple):
    argv: tuple
    check: Callable[[int, str, str], Tally]


def exits_with_json(fn, *args):
    """Check for exit 0 and a JSON document that ``fn(obj, *args)`` accepts."""

    def check(code, out, err):
        expect(code == 0, f"exit {code}: {err.strip()[-300:]}")
        return fn(json.loads(out), *args)

    return check


def exits_with_text(expected: str):
    def check(code, out, err):
        expect(code == 0, f"exit {code}: {err.strip()[-300:]}")
        expect(out == expected, f"stdout {out!r}, expected {expected!r}")
        return Tally()

    return check


def rejects_input(code, out, err):
    """Input and usage errors exit 2 with a one-line diagnosis and no output."""
    expect(code == 2, f"exit {code} for bad input, expected 2")
    expect(out == "", f"bad input printed {out!r}")
    expect(err.startswith(("error:", "usage:")), f"bad input diagnosed as {err[:200]!r}")
    return Tally()


def truncs(t, z):
    return ("--t-trunc", str(t), "--z-trunc", str(z))


def obstruct_search(t, z, d) -> Request:
    argv = ("obstruct", "--search", "--json", "--degree", str(d), *truncs(t, z))
    return Request(argv, exits_with_json(O.check_search, t, z, d))


def obstruct_symbolic(t, z, d, samples) -> Request:
    argv = ("obstruct", "--symbolic", "--json", "--degree", str(d), *truncs(t, z))
    return Request(argv, exits_with_json(O.check_symbolic, t, z, d, samples))


def sample_candidates(rng: random.Random, degree: int, count: int):
    return [(1, *(rng.randint(0, 1) for _ in range(degree - 1))) for _ in range(count)]


class Workload:
    """The requests of one workload, made from one seed; a run repeats them in rounds."""

    def __init__(self, name: str, seed: int, scratch: Path):
        self.name, self.scratch = name, scratch
        self.rng = random.Random(f"{name}:{seed}")
        self.min_rounds = REQUESTS_MIN_ROUNDS if name == "requests" else 1
        if name == "search":
            self.requests = [obstruct_search(*point) for point in SEARCH_POINTS]
        elif name == "relations":
            self.requests = [obstruct_symbolic(t, z, d, sample_candidates(self.rng, d, RELATION_SAMPLES))
                             for t, z, d in RELATION_POINTS]
            self.requests.append(obstruct_search(*RELATIONS_SEARCH_POINT))
        elif name == "requests":
            self._write("fault.json", FAULT_SERIES)
            self.requests = RequestStream(self).requests()
        else:
            raise ValueError(f"unknown workload {name!r}")

    def round(self) -> list:
        """All requests once, as (index, request) in a fresh seeded order."""
        order = list(enumerate(self.requests))
        self.rng.shuffle(order)
        return order

    def _write(self, name: str, obj) -> str:
        (self.scratch / name).write_text(json.dumps(obj), encoding="utf-8")
        return name


class RequestStream:
    """The 40 short invocations of the `requests` workload."""

    def __init__(self, workload: Workload):
        self.w, self.rng, self.files = workload, workload.rng, 0

    def file(self, obj) -> str:
        self.files += 1
        return self.w._write(f"in-{self.files}.json", obj)

    def requests(self) -> list:
        r = self.rng
        reqs = [
            Request(("fgl", "check", "additive"), exits_with_text("valid to degree 20\n")),
            Request(("fgl", "check", "multiplicative", "--json"),
                    lambda c, o, e: O.check_law(c, o, True, None, 20)),
        ]
        reqs += [self.law_check(kind=None, as_json=bool(i % 2)) for i in range(4)]
        reqs.append(self.law_check(kind=r.choice(("unit", "comm", "assoc")), as_json=True))
        for _ in range(2):
            n = r.randint(0, 40)
            text = {0: "0", 1: "x"}.get(n, f"{n}*x")
            reqs.append(Request(("fgl", "nseries", "additive", str(n)), exits_with_text(text + "\n")))
            n = r.randint(2, 40)
            reqs.append(self.nseries_multiplicative(n))
        reqs += [self.powerop() for _ in range(10)]
        reqs += [self.chern_coeffs() for _ in range(5)]
        reqs += [self.chern_symbolic() for _ in range(2)]
        # Fixed sizes, so that candidates and relations per round do not depend on the seed.
        reqs += [obstruct_search(t, z, d) for t, z, d in ((5, 3, 3), (6, 3, 4), (7, 4, 5))]
        reqs += [obstruct_symbolic(t, z, d, O.search_candidates(d)) for t, z, d in ((5, 3, 3), (7, 4, 5))]
        reqs += [self.bad_input() for _ in range(2)]
        reqs.append(Request(("powerop", "fault.json"), rejects_input))
        reqs += [self.nseries_multiplicative(r.randint(*TAIL_N)) for _ in range(4)]
        return reqs

    def nseries_multiplicative(self, n: int) -> Request:
        argv = ("fgl", "nseries", "multiplicative", str(n), "--json")
        return Request(argv, exits_with_json(O.check_n_series, "multiplicative", n, 20))

    def law_check(self, kind, as_json: bool) -> Request:
        """x + y + c*xy is a law; each non-law family breaks one axiom."""
        r = self.rng
        modulus = r.choice((0, 3, 5, 7))
        degree = r.randint(4, 6)
        c = r.choice((1, 2)) if kind else r.randint(-3, 3)
        extra = {None: (1, 1), "unit": (r.randint(2, degree - 1), 0), "comm": (2, 1), "assoc": (2, 2)}[kind]
        terms = {(1, 0): 1, (0, 1): 1}
        terms[extra] = terms.get(extra, 0) + c
        if modulus:
            terms = {e: v % modulus for e, v in terms.items()}
        verdict = O.law_verdict(terms, degree, modulus)
        if (verdict and verdict[0]) != kind:
            raise AssertionError(f"generated law {terms} has verdict {verdict}, meant {kind}")
        coeff = f"Z/{modulus}" if modulus else "Z"
        path = self.file(O.series_json(("x", "y"), terms, coeff, (degree, degree)))
        argv = ("fgl", "check", path) + (("--json",) if as_json else ())
        return Request(argv, lambda code, out, err: O.check_law(code, out, as_json, verdict, degree))

    def powerop(self) -> Request:
        r = self.rng
        modulus = r.choice((0, 0, 3, 4, 6, 8))
        law = r.choice(("additive", "multiplicative"))
        tau = 2 if law == "additive" else r.choice((1, 2, 3))
        t, z = r.randint(4, 7), r.randint(2, 4)
        f = {}
        for _ in range(r.randint(1, 4)):
            f[(r.randint(0, 6),)] = r.randint(1, modulus - 1) if modulus else r.choice((-5, -3, -2, -1, 1, 2, 4))
        coeff = f"Z/{modulus}" if modulus else "Z"
        path = self.file(O.series_json(("t",), f, coeff, (8,)))
        argv = ("powerop", path, "--fgl", law, "--tau", str(tau), *truncs(t, z), "--json")
        ring = Quotient(t, z, modulus)
        lifted = {(e[0], 0): c for e, c in f.items()}
        return Request(argv, exits_with_json(O.check_power_op, lifted, ring, law, tau))

    def chern_coeffs(self) -> Request:
        r = self.rng
        coeffs = [r.choice((1, -1))] + [r.randint(-3, 3) for _ in range(r.randint(0, 4))]
        t, z = r.randint(3, 7), r.randint(2, 4)
        argv = ("chern", "--coeffs=" + ",".join(map(str, coeffs)), *truncs(t, z), "--json")
        return Request(argv, exits_with_json(O.check_chern, coeffs, Quotient(t, z)))

    def chern_symbolic(self) -> Request:
        r = self.rng
        d, t, z = r.randint(2, 4), r.randint(3, 6), r.randint(2, 4)
        point = [r.randint(-3, 3) for _ in range(d)]
        argv = ("chern", "--symbolic", str(d), *truncs(t, z), "--json")
        return Request(argv, exits_with_json(O.check_chern_symbolic, d, Quotient(t, z), point))

    def bad_input(self) -> Request:
        r = self.rng
        argv = r.choice((
            ("chern", f"--coeffs={r.choice((2, 3, -2))},1"),
            ("obstruct", "--search", "--t-trunc", str(r.randint(65, 99))),
            ("obstruct", "--degree", str(r.randint(2, 5))),
            ("powerop", f"absent-{r.randint(0, 99)}.json"),
            ("fgl", "nseries", "additive", str(-r.randint(1, 9))),
            ("fgl", "frobnicate"),
        ))
        return Request(argv, rejects_input)
