"""Every public name of the package has a caller outside its own tests.

The library, the demos, the benchmark's non-test files and the acceptance
criteria (the gates the library is held to) are parsed with ``ast``.  A name
in a ``dirh2`` module's ``__all__`` counts as used when it is read (as a
name or as an attribute) anywhere in those files except inside its own
definition, or when one of them outside the package imports it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dirh2"


def _callers():
    return [
        *sorted(PACKAGE.glob("*.py")),
        *sorted((ROOT / "demos").glob("*.py")),
        *(p for p in sorted((ROOT / "bench").glob("*.py")) if not p.name.startswith("test_")),
        ROOT / "tests" / "test_acceptance.py",
    ]


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


def _uses(path: Path, tree: ast.Module) -> set[str]:
    """Names read in ``path``, each outside any definition of that name, and
    for a file outside the package the names it imports."""
    used: set[str] = set()

    def visit(node, inside: tuple):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = (*inside, node.name)
        elif isinstance(node, ast.Name) and node.id not in inside:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and PACKAGE not in path.parents:
            used.update(alias.name for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, ())
    return used


def test_every_public_name_has_a_caller():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in _callers()}
    used = set().union(*(_uses(path, tree) for path, tree in trees.items()))
    unused = [
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        if PACKAGE in path.parents
        for name in _exported(tree)
        if name not in used
    ]
    assert not unused, f"public names without a caller outside their own tests: {unused}"
