"""The checked-in mutant list of tests/mutation.py stays applicable: a
refactor that moves or duplicates a mutant's text fails here, in the
suite, and not only when the mutation run is next made."""

import pytest

from mutation import MUTANTS, ROOT, mutated_source


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_applies_once_and_changes_the_code(mutant):
    # mutated_source exits naming the mutant when its text does not occur
    # exactly once, or when the mutated module parses to the same tree
    assert mutated_source(mutant)
    assert (ROOT / "tests" / mutant.test_file).is_file()
