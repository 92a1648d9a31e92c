"""No package name is kept alive by the tests alone.

Every top-level function and class of src/dimon/*.py, and every method
that is not a dunder, must be reached from src/dimon or dimonbench by a
name, an attribute or an import, or be exported in dimon.__all__.  The
scan goes by name only, so a method shares its reach with any other
attribute of the same name.  Click commands are reached through the
command group and are skipped.

Every dataclass field, property and cached property of a class there
must be read as an attribute, or passed as a keyword, somewhere in
src/dimon or dimonbench: a field that only the tests read is work done
for them alone.
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


def _decorator_names(node):
    """The last dotted name of each decorator, called or not."""
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        yield d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", None)


def _is_dataclass(node):
    return "dataclass" in _decorator_names(node)


def _is_property(node):
    return not {"property", "cached_property"}.isdisjoint(_decorator_names(node))


def _fields(tree):
    """(qualified name, name) of each dataclass field, property and
    cached property of a top-level class."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if (_is_dataclass(node) and isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)):
                yield f"{node.name}.{item.target.id}", item.target.id
            elif isinstance(item, ast.FunctionDef) and _is_property(item):
                yield f"{node.name}.{item.name}", item.name


def _reads(tree):
    """The attributes read and the keywords passed in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.arg


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


def test_every_field_is_read_outside_the_tests():
    package = _trees(PACKAGE)
    read = {name for tree in _trees(PACKAGE, ROOT / "dimonbench").values()
            for name in _reads(tree)}
    unread = [
        f"{path.stem}.{qualified}"
        for path, tree in package.items()
        for qualified, name in _fields(tree)
        if name not in read
    ]
    assert unread == []
