"""No package name is kept alive by the tests alone.

Every top-level function and class of src/dimon/*.py, and every method
that is not a dunder, must be reached from src/dimon or dimonbench by a
name, an attribute or an import, or be exported in dimon.__all__.  The
scan goes by name only, so a method shares its reach with any other
attribute of the same name.  Click commands are reached through the
command group and are skipped.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dimon"


def _trees(*dirs):
    return {path: ast.parse(path.read_text()) for d in dirs for path in sorted(d.glob("*.py"))}


def _is_click_command(node):
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def _definitions(tree):
    """(qualified name, name) of each top-level def and class and each method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs) or _is_click_command(node):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
            if node.asname:
                yield node.asname


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_package_name_has_a_caller_outside_the_tests():
    package = _trees(PACKAGE)
    reached = {name for tree in _trees(PACKAGE, ROOT / "dimonbench").values()
               for name in _references(tree)}
    reached |= _exported(package[PACKAGE / "__init__.py"])
    unreached = [
        f"{path.stem}.{qualified}"
        for path, tree in package.items()
        for qualified, name in _definitions(tree)
        if name not in reached
    ]
    assert unreached == []
