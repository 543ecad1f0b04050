"""The mutation table of ``mutants.py`` matches the tree: each row's old text
occurs exactly once in its file, and each test it names exists.  A change
that moves the code a row plants its fault in, or deletes or renames a
test a row names, fails here until the table follows.  ``python
tests/mutants.py`` plants the rows themselves."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "mutants", Path(__file__).resolve().parent / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


def test_table_matches_the_tree():
    assert mutants.problems() == []
    assert [row.caught for row in mutants.MUTANTS].count(False) == 1
    assert len({row.name for row in mutants.MUTANTS}) == len(mutants.MUTANTS)
