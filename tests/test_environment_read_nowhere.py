"""Results depend on arguments and options alone.

No module of src/dimon, cli.py included, reads the environment: none
reads os.environ or calls os.getenv, so no variable changes what a
library call returns or what a command does.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "dimon"


def _environment_reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            yield node.lineno
        elif isinstance(node, ast.alias) and node.name in ("environ", "getenv"):
            yield node.lineno


def test_no_module_reads_the_environment():
    reads = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _environment_reads(ast.parse(path.read_text()))
    ]
    assert reads == []
