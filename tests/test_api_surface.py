"""Every public top-level name in ``src/factorlab`` must have a caller.

A name counts as used when another package module or the benchmark in
``perfbench/`` refers to it, or when its own module refers to it beyond its
definition.  Names that only tests reach belong in the tests.

A reference is tied to the module it can mean.  ``mod.name`` and
``from .mod import name`` refer to ``mod``'s name only, and a bare ``name``
refers to the module it appears in (Python resolves it there), so
``pi_matrix.Y`` is no caller of ``ore.Y``.  An attribute on anything other
than a module name (``x.name``) may be any module's name.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "factorlab"
MODULES = sorted(PACKAGE.glob("*.py"))
MODULE_NAMES = {path.stem for path in MODULES}


def _references(tree: ast.AST, home: str) -> set[tuple[str | None, str]]:
    """(module, name) for each name read, attribute accessed and name imported
    in ``tree``, which belongs to module ``home``; the module is None when the
    reference may mean any module's name."""
    found: set[tuple[str | None, str]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add((home, node.id))
        elif isinstance(node, ast.Attribute):
            base = node.value
            owner = base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
            found.add((owner if owner in MODULE_NAMES else None, node.attr))
        elif isinstance(node, ast.ImportFrom):
            owner = (node.module or "").rpartition(".")[2]
            found.update((owner if owner in MODULE_NAMES else None, alias.name) for alias in node.names)
    return found


def _public_definitions(tree: ast.Module) -> list[str]:
    names: list[str] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if not name.startswith("_")]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


TREES = {path: _parse(path) for path in MODULES}
REFERENCES = set().union(
    *(_references(tree, path.stem) for path, tree in TREES.items()),
    *(_references(_parse(p), "perfbench") for p in sorted((ROOT / "perfbench").glob("*.py"))),
)


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.stem)
def test_every_public_name_has_a_caller(module):
    names = _public_definitions(TREES[module])
    unused = [n for n in names if (module.stem, n) not in REFERENCES and (None, n) not in REFERENCES]
    assert not unused, f"{module.stem}: public names only tests reach: {unused}"
