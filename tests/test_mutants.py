"""The hand mutants of ``tests/mutants.py`` still apply to today's source.

Running them is a separate command (``python tests/mutants.py``); here each
entry is only checked to be a mutant at all: its old text occurs exactly
once in its file, the new text differs and still compiles, and its test
files exist.
"""

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_mutant_applies_once(mutant):
    source = (ROOT / mutant.file).read_text(encoding="utf-8")
    assert source.count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.why
    compile(source.replace(mutant.old, mutant.new), mutant.file, "exec")
    assert mutant.tests and all((ROOT / test).is_file() for test in mutant.tests)
