"""Library results depend on their arguments alone.

No module of src/dimon but cli.py reads the environment: none reads
os.environ or calls os.getenv, so a variable such as DIMON_MAX_CLASSES
changes what the command line does and never what a library call
returns.
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


def test_only_the_cli_reads_the_environment():
    reads = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "cli.py"
        for line in _environment_reads(ast.parse(path.read_text()))
    ]
    assert reads == []
