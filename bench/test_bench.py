"""Self-tests for the benchmark: the oracles reproduce the paper, every check
accepts today's output and rejects a corrupted copy.

    python3 -m unittest discover -s bench -t bench
"""

from __future__ import annotations

import copy
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles as O  # noqa: E402
import tracing  # noqa: E402
from run import Ledger  # noqa: E402
from workloads import Workload  # noqa: E402

import fglops.cli  # noqa: E402


def cli_json(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = fglops.cli.main(list(argv))
    return code, json.loads(out.getvalue())


class PaperValues(unittest.TestCase):
    def test_computation_one_of_one_plus_t(self):
        got = O.computation_one([1], O.Quotient(5, 3))
        # 1 + 2t + t^2 + zt + zt^2 + z^2t + z^2t^2
        want = {(0, 0): 1, (1, 0): 2, (2, 0): 1, (1, 1): 1, (2, 1): 1, (1, 2): 1, (2, 2): 1}
        self.assertEqual(got, want)

    def test_key_relations_from_longhand_defects(self):
        ring = O.Quotient(5, 3)
        for cand in O.search_candidates(3):
            defect = ring.defect(cand)
            point = O.relation_point(cand)
            for exps, text in O.PAPER_ROWS.items():
                want = O.evaluate_poly(O.parse_poly(text), point) % 2
                self.assertEqual(defect.get(exps, 0) % 2, want, (cand, exps))


class ChecksAcceptTodaysOutput(unittest.TestCase):
    def test_requests_round(self):
        with tempfile.TemporaryDirectory() as tmp:
            workload = Workload("requests", 7, Path(tmp))
            ledger = Ledger()
            requests = workload.requests
            tracing.run_round(requests, ledger, Path(tmp), fglops.cli.main)
        self.assertTrue(ledger.correct)
        self.assertEqual((ledger.attempted, ledger.failed), (len(requests), 1))

    def test_search_and_symbolic(self):
        for t, z, d in [(5, 3, 4), (9, 5, 5)]:
            _, report = cli_json("obstruct", "--search", "--json", "--degree", str(d),
                                 "--t-trunc", str(t), "--z-trunc", str(z))
            self.assertEqual(O.check_search(report, t, z, d).candidates, 2 ** (d - 1))
            _, table = cli_json("obstruct", "--symbolic", "--json", "--degree", str(d),
                                "--t-trunc", str(t), "--z-trunc", str(z))
            tally = O.check_symbolic(table, t, z, d, O.search_candidates(d))
            self.assertEqual(tally.relations, len(report["relations"]))


class ChecksRejectCorruption(unittest.TestCase):
    def setUp(self):
        _, self.report = cli_json("obstruct", "--search", "--json", "--degree", "4")

    def test_flipped_failure_monomial(self):
        bad = copy.deepcopy(self.report)
        first = bad["failures"][3]
        first["monomial"] = "z^2*t" if first["monomial"] != "z^2*t" else "z*t^2"
        with self.assertRaises(O.Mismatch):
            O.check_search(bad, 5, 3, 4)

    def test_dropped_relation_row(self):
        for i in range(len(self.report["relations"])):
            bad = copy.deepcopy(self.report)
            del bad["relations"][i]
            with self.assertRaises(O.Mismatch, msg=f"row {i} dropped"):
                O.check_search(bad, 5, 3, 4)
            with self.assertRaises(O.Mismatch, msg=f"row {i} dropped"):
                O.check_symbolic(bad, 5, 3, 4, O.search_candidates(4))

    def test_changed_coefficient(self):
        cases = [
            (("chern", "--coeffs=1,-2,3", "--json"), O.check_chern, ([1, -2, 3], O.Quotient())),
            (("fgl", "nseries", "multiplicative", "30", "--json"), O.check_n_series,
             ("multiplicative", 30, 20)),
        ]
        for argv, check, args in cases:
            _, obj = cli_json(*argv)
            check(obj, *args)
            bad = copy.deepcopy(obj)
            term = bad["terms"][-1]
            term["coef"] = str(int(term["coef"]) + 1)
            with self.assertRaises(O.Mismatch, msg=" ".join(argv)):
                check(bad, *args)

    def test_changed_power_op_coefficient(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "f.json")
            f = {(1,): 3, (2,): -1}
            path.write_text(json.dumps(O.series_json(("t",), f)))
            _, obj = cli_json("powerop", str(path), "--fgl", "multiplicative", "--tau", "3", "--json")
        args = ({(1, 0): 3, (2, 0): -1}, O.Quotient(), "multiplicative", 3)
        O.check_power_op(obj, *args)
        bad = copy.deepcopy(obj)
        bad["terms"][0]["coef"] = str(int(bad["terms"][0]["coef"]) - 2)
        with self.assertRaises(O.Mismatch):
            O.check_power_op(bad, *args)

    def test_wrong_law_verdict(self):
        with self.assertRaises(O.Mismatch):
            O.check_law(0, "valid to degree 5\n", False, ("comm", "x^2*y"), 5)
        with self.assertRaises(O.Mismatch):
            O.check_law(1, json.dumps({"valid": False, "axiom": "unit", "monomial": "x^2"}),
                        True, ("unit", "x^3"), 5)


class Harness(unittest.TestCase):
    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp, "bench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "search", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"], cwd=tmp, capture_output=True,
                                  text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_span_self_time_excludes_children(self):
        tracer = tracing.Tracer()
        inner = tracer.wrap("inner", lambda: sum(range(20000)), keep=True)
        outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)], keep=True)
        outer()
        calls, total, self_s = tracer.totals["outer"]
        self.assertEqual((calls, tracer.totals["inner"][0]), (1, 3))
        self.assertAlmostEqual(self_s, total - tracer.totals["inner"][1], places=9)
        self.assertEqual([s[3] for s in tracer.spans], [-1, 0, 0, 0])


if __name__ == "__main__":
    unittest.main()
