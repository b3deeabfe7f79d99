"""In-process tracing of fglops by wrapping public names where they are looked up.

A :class:`Tracer` replaces each traced function with a wrapper that opens a
span on entry and closes it on exit.  Spans nest on a stack: a span's self
time is its duration minus the time its child spans cover.  Spans of the
coarse layers are kept in memory with name, start, end and parent and are
written out when the run ends; the hot series operations are only totalled
per name, since keeping each of their hundreds of thousands of spans would
cost more memory than it tells.

Coefficient arithmetic is counted, not timed, in the traced pass: it runs
millions of times per round, and a timer around each call would multiply the
run's length and bury the other layers' self time under timer cost.  A
separate pass counts and times only the coefficient layer (outermost calls),
so ``coefficients.self_s`` includes that pass's own per-call timer cost.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import time
import traceback
from pathlib import Path

# (span name, module where the name is looked up, attribute, keep each span)
LAYERS = [
    ("obstruction.search", "fglops.cli", "exhaustive_search", True),
    ("obstruction.extract_relations", "fglops.cli", "extract_relations", True),
    ("obstruction.delta", "fglops.obstruction", "delta", True),
    ("obstruction.multilinear", "fglops.obstruction", "multilinear_mod2", True),
    ("chern.value_at", "fglops.chern", "ChernSeries.value_at", True),
    ("powerops.power_op", "fglops.powerops", "PowerOpContext.power_op", True),
    ("powerops.generator_image", "fglops.powerops", "PowerOpContext.generator_image", True),
    ("fgl.formal_sum", "fglops.fgl", "FormalGroupLaw.formal_sum", True),
    ("fgl.n_series", "fglops.fgl", "FormalGroupLaw.n_series", True),
    ("fgl.validate_law", "fglops.fgl", "validate_law", True),
    ("fgl.validate_law", "fglops.cli", "validate_law", True),
    ("series.substitute", "fglops.series", "Series.substitute", True),
    ("series.mul", "fglops.series", "Series.__mul__", False),
    ("series.mul", "fglops.series", "Series.__rmul__", False),
    ("series.add", "fglops.series", "Series.__add__", False),
    ("series.add", "fglops.series", "Series.__radd__", False),
    ("series.construct", "fglops.series", "Series.__init__", False),
    ("coefficients.poly_mul", "fglops.coefficients", "PolynomialRing.mul", False),
]
COEFFICIENT_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                   "__neg__", "__pow__", "invert", "reduce_mod")

# per-layer metric -> (span name, field of the span totals)
SPAN_METRICS = {
    "cli.self_s": ("cli", "self"),
    "obstruction.delta_calls": ("obstruction.delta", "calls"),
    "obstruction.delta_self_s": ("obstruction.delta", "self"),
    "obstruction.search_self_s": ("obstruction.search", "self"),
    "obstruction.extract_relations_s": ("obstruction.extract_relations", "total"),
    "obstruction.multilinear_calls": ("obstruction.multilinear", "calls"),
    "obstruction.multilinear_self_s": ("obstruction.multilinear", "self"),
    "chern.value_at_calls": ("chern.value_at", "calls"),
    "chern.value_at_self_s": ("chern.value_at", "self"),
    "powerops.power_op_calls": ("powerops.power_op", "calls"),
    "powerops.generator_image_calls": ("powerops.generator_image", "calls"),
    "powerops.power_op_self_s": ("powerops.power_op", "self"),
    "fgl.formal_sum_calls": ("fgl.formal_sum", "calls"),
    "fgl.formal_sum_self_s": ("fgl.formal_sum", "self"),
    "fgl.n_series_self_s": ("fgl.n_series", "self"),
    "fgl.validate_law_self_s": ("fgl.validate_law", "self"),
    "series.mul_calls": ("series.mul", "calls"),
    "series.mul_self_s": ("series.mul", "self"),
    "series.add_calls": ("series.add", "calls"),
    "series.add_self_s": ("series.add", "self"),
    "series.substitute_calls": ("series.substitute", "calls"),
    "series.substitute_self_s": ("series.substitute", "self"),
    "series.constructs": ("series.construct", "calls"),
    "series.construct_self_s": ("series.construct", "self"),
    "coefficients.poly_mul_calls": ("coefficients.poly_mul", "calls"),
    "coefficients.poly_mul_self_s": ("coefficients.poly_mul", "self"),
}
FIELDS = {"calls": 0, "total": 1, "self": 2}


class Tracer:
    """Span stack, per-name totals [calls, total s, self s] and kept spans."""

    def __init__(self):
        self.totals = {}
        self.spans = []  # (name, start, end, parent index or -1)
        self._stack = [[0.0, -1]]  # per open span: [child time, kept span index]
        self._depth = [0]  # nesting of counted calls, shared by all their wrappers
        self.term_pairs = self.kept_terms = 0

    def wrap(self, name, fn, keep):
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            if keep:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[0]
                if keep:
                    spans[frame[1]] = (name, start, end, parent[1])

        return wrapper

    def wrap_mul(self, fn):
        """Series products also count term pairs |f|*|g| and the terms kept."""
        timed = self.wrap("series.mul", fn, keep=False)

        def wrapper(f, g):
            result = timed(f, g)
            if result is not NotImplemented:
                self.term_pairs += len(f.terms) * (len(g.terms) if type(g) is type(f) else 1)
                self.kept_terms += len(result.terms)
            return result

        return wrapper

    def wrap_counted(self, name, fn):
        """Count every call; time only calls not nested in another of the layer."""
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        depth, clock = self._depth, time.perf_counter

        def wrapper(*args, **kwargs):
            totals[0] += 1
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[1] += clock() - start
                depth[0] = 0

        return wrapper

    def write_spans(self, path: Path, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tname\tstart_s\tend_s\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.write(f"{i}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}\t{parent}\n")


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


@contextlib.contextmanager
def patched(replacements):
    """Install (owner, name, wrapper-maker) replacements, undone on exit."""
    saved = []
    try:
        for owner, name, make in replacements:
            original = getattr(owner, name)
            saved.append((owner, name, original))
            setattr(owner, name, make(original))
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def layer_patches(tracer: Tracer):
    for span, module, attr, keep in LAYERS:
        owner, name = _resolve(module, attr)
        if span == "series.mul":
            yield owner, name, tracer.wrap_mul
        else:
            yield owner, name, lambda fn, span=span, keep=keep: tracer.wrap(span, fn, keep)


def coefficient_patches(tracer: Tracer):
    owner = importlib.import_module("fglops.coefficients").Coefficient
    for name in COEFFICIENT_OPS:
        yield owner, name, lambda fn: tracer.wrap_counted("coefficients", fn)


def run_round(requests, ledger, scratch: Path, main) -> float:
    """Drive each request through ``main(argv)`` in-process; returns wall seconds."""
    here = os.getcwd()
    os.chdir(scratch)
    elapsed = 0.0
    try:
        for req in requests:
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(list(req.argv))
                except Exception:  # an uncaught error is what a user would see as a traceback
                    traceback.print_exc()
                    code = 1
            elapsed += time.perf_counter() - start
            ledger.judge(req, code, out.getvalue(), err.getvalue())
    finally:
        os.chdir(here)
    return elapsed


def profile(requests, ledger, scratch: Path, spans_path: Path) -> dict:
    """Warm-up, untraced, traced and coefficient passes over one round; per-layer metrics."""
    import fglops.cli

    run_round(requests, ledger, scratch, fglops.cli.main)  # warm-up: first-call costs
    untraced = run_round(requests, ledger, scratch, fglops.cli.main)

    tracer = Tracer()
    candidates_before = ledger.candidates
    with patched(list(layer_patches(tracer))):
        origin = time.perf_counter()
        traced = run_round(requests, ledger, scratch, tracer.wrap("cli", fglops.cli.main, keep=True))
    candidates = ledger.candidates - candidates_before
    tracer.write_spans(spans_path, origin)

    counter = Tracer()
    with patched(list(coefficient_patches(counter))):
        coefficient_pass = run_round(requests, ledger, scratch, fglops.cli.main)

    metrics = {name: {"value": tracer.totals[span][FIELDS[kind]], "unit": "count" if kind == "calls" else "s"}
               for name, (span, kind) in SPAN_METRICS.items()}
    coefficients = counter.totals["coefficients"]
    metrics.update({
        "obstruction.candidates": {"value": candidates, "unit": "count"},
        "series.term_pairs": {"value": tracer.term_pairs, "unit": "count"},
        "series.kept_ratio": {"value": tracer.kept_terms / max(tracer.term_pairs, 1), "unit": "ratio"},
        "coefficients.ops": {"value": coefficients[0], "unit": "count"},
        "coefficients.self_s": {"value": coefficients[1], "unit": "s"},
        "trace.untraced_s": {"value": untraced, "unit": "s"},
        "trace.overhead_ratio": {"value": traced / untraced, "unit": "ratio"},
        "trace.coefficients_overhead_ratio": {"value": coefficient_pass / untraced, "unit": "ratio"},
        "trace.spans": {"value": len(tracer.spans), "unit": "count"},
    })
    return metrics
