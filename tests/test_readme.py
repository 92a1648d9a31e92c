"""The README's Python examples, run as doctests so they cannot go stale."""

import doctest
import pathlib

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted > 0
    assert failed == 0
