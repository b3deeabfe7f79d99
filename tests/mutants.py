"""Hand mutants of the relation table and the search, and a runner that applies them.

Each entry of ``MUTANTS`` replaces one text, which occurs exactly once in
its file, with another, and names the test files that must then fail.  The
runner copies the repository to a temporary directory, applies each mutant
there in turn, runs pytest on its test files (one run at a time, stopping
at the first failure) and puts the file back.  A mutant is killed when
pytest fails.  An entry marked ``equivalent`` changes only the work done,
not any answer, so no test can kill it; it is run and reported all the same.

    python tests/mutants.py

prints one line per mutant and the kill count, and exits 1 when a mutant
that is not marked equivalent survives, or when the unmutated tests fail.
``tests/test_mutants.py`` checks that every old text still occurs exactly
once, so the list cannot go stale without a failing test.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

OBSTRUCTION = "src/fglops/obstruction.py"
TABLE_TESTS = ("tests/test_obstruction.py", "tests/test_relation_print.py")
SEARCH_TESTS = (
    "tests/test_obstruction.py", "tests/test_search_cap.py", "tests/test_z2_line.py",
    "tests/test_verdict_map.py", "tests/test_golden_cli.py",
)


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    why: str
    tests: tuple
    equivalent: bool = False


MUTANTS = [
    # _relation_masks
    Mutant("single-mask-one", OBSTRUCTION,
           "v ^= (lifts[k] ^ 1) << z_keys[k]", "v ^= lifts[k] << z_keys[k]",
           "drops the z^k of a single a_k's pairs (0, k) and (k, 0)", TABLE_TESTS),
    Mutant("pair-loop-short", OBSTRUCTION,
           "for k in range(degree, i, -1):", "for k in range(degree, i + 1, -1):",
           "the k loop stops one early, losing every pair (i, i + 1)", TABLE_TESTS),
    Mutant("law-box", OBSTRUCTION,
           "if c.value % 2 and a < t_trunc and b < z_trunc]",
           "if c.value % 2 and a < t_trunc - 1 and b < z_trunc]",
           "the law's box off by one: its terms x^(T-1)*y^b are lost", TABLE_TESTS),
    Mutant("pairs-out-of-order", OBSTRUCTION,
           "for i in range(degree - 1, 0, -1):", "for i in range(1, degree):",
           "the pairs by i ascending: the same sets, out of print order", TABLE_TESTS),
    Mutant("z-free-rows", OBSTRUCTION,
           "z_positive = box ^ t_row", "z_positive = box",
           "keeps the z^0 keys, which hold no relation", TABLE_TESTS),
    # _values_by_key and _rows
    Mutant("key-walk", OBSTRUCTION,
           "values_at[n].append(v)", "values_at[n - 1].append(v)",
           "files each mask one row key low", TABLE_TESTS),
    Mutant("row-exponents-swapped", OBSTRUCTION,
           "divmod(key, t_trunc)[::-1]", "divmod(key, t_trunc)",
           "labels a row (j, i) instead of (i, j)", TABLE_TESTS),
    # _printed_rows
    Mutant("row-text-sorted", OBSTRUCTION,
           '"+".join(vs)', '"+".join(sorted(vs))',
           "joins a row's monomials in text order, not print order", TABLE_TESTS),
    # boolean_relations
    Mutant("mask-bit-k", OBSTRUCTION,
           "sum(1 << (i - 1) for i in idx)", "sum(1 << i for i in idx)",
           "sets bit k for a_k instead of bit k - 1", TABLE_TESTS),
    # _check_mod2
    Mutant("tau-check-dropped", OBSTRUCTION,
           'raise ValueError(f"relations are read at tau = 2, got {ctx.tau}")', "pass",
           "reads the table at any tau", TABLE_TESTS),
    Mutant("odd-torsion", OBSTRUCTION,
           "cr.modulus % 2 == 0", "cr.modulus % 1 == 0",
           "takes Z/n for odd n, where nothing reduces mod 2", TABLE_TESTS),
    Mutant("t-torsion", OBSTRUCTION,
           "if torsions != [None, 2]:", "if torsions[1] != 2:",
           "takes a ring whose t has torsion", TABLE_TESTS),
    Mutant("unit-check-at-t-trunc-1", OBSTRUCTION,
           "if unit != ({1: 1} if t_trunc > 1 else {}):", "if unit != {1: 1}:",
           "refuses every law at t truncation 1, where t is zero", SEARCH_TESTS),
    # exhaustive_search
    Mutant("witness-from-top-bit", OBSTRUCTION,
           "first = (undecided & -undecided).bit_length() - 1",
           "first = undecided.bit_length() - 1",
           "the witness is the last undecided prefix, not the first", SEARCH_TESTS),
    Mutant("width-from-lowest-index", OBSTRUCTION,
           "width = max([1] + [idx[-1] for idx, _ in table])",
           "width = max([1] + [idx[0] for idx, _ in table])",
           "the prefix width from each mask's lowest index", SEARCH_TESTS),
    Mutant("row-truth-or", OBSTRUCTION,
           "fresh = functools.reduce(operator.xor, row_tables) & undecided",
           "fresh = functools.reduce(operator.or_, row_tables) & undecided",
           "a row is 1 where any of its masks is, not where an odd number are", SEARCH_TESTS),
    Mutant("coefficient-table-inverted", OBSTRUCTION,
           "* (((1 << run) - 1) << run))", "* ((1 << run) - 1))",
           "a_k's truth table is its complement", SEARCH_TESTS),
    Mutant("early-stop-dropped", OBSTRUCTION,
           "            if not undecided:\n                break\n", "",
           "walks the rows left once every prefix is decided; no answer changes, "
           "only an operation counter could see it", SEARCH_TESTS, equivalent=True),
    # _owners
    Mutant("owner-run-end", OBSTRUCTION,
           'q = bits.find("0", p)', 'q = bits.find("0", p) + 1',
           "each run of owned prefixes ends one late", SEARCH_TESTS),
    Mutant("owner-bits-reversed", OBSTRUCTION,
           'bits = bin(fresh)[:1:-1] + "0"', 'bits = bin(fresh)[2:] + "0"',
           "reads a row's prefixes from the top bit down", SEARCH_TESTS),
]


def _pytest(root: Path, tests) -> int:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "FGLOPS_"))}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # a cached mutant must not outlive its run
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=root, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, root / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        tests = sorted({test for mutant in MUTANTS for test in mutant.tests})
        if _pytest(root, tests):
            print("the unmutated tests fail; no mutant was run")
            return 1
        survived = 0
        for mutant in MUTANTS:
            path = root / mutant.file
            source = path.read_text(encoding="utf-8")
            if source.count(mutant.old) != 1:
                print(f"{mutant.name}: the old text occurs {source.count(mutant.old)} times")
                return 1
            mutated = source.replace(mutant.old, mutant.new)
            compile(mutated, str(path), "exec")  # a syntax error is no mutant
            start = time.perf_counter()
            path.write_text(mutated, encoding="utf-8")
            try:
                failed = _pytest(root, mutant.tests) != 0
            finally:
                path.write_text(source, encoding="utf-8")
            seconds = time.perf_counter() - start
            if failed:
                verdict = "killed"
            elif mutant.equivalent:
                verdict = "survived (equivalent)"
            else:
                verdict = "SURVIVED"
                survived += 1
            print(f"{mutant.name:28} {verdict:22} {seconds:5.1f} s  {mutant.why}")
        counted = sum(not mutant.equivalent for mutant in MUTANTS)
        print(f"{counted - survived} of {counted} killed, "
              f"{len(MUTANTS) - counted} marked equivalent")
        return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
