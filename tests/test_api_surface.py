"""Every public top-level name in ``src/factorlab`` must have a caller.

A name counts as used when another package module or the benchmark in
``perfbench/`` mentions it, or when its own module refers to it beyond its
definition.  Names that only tests reach belong in the tests.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "factorlab"
MODULES = sorted(PACKAGE.glob("*.py"))


def _identifiers(tree: ast.AST) -> set[str]:
    """Names read, attributes accessed and names imported anywhere in ``tree``."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
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
BENCHMARK = set().union(*(_identifiers(_parse(p)) for p in sorted((ROOT / "perfbench").glob("*.py"))))


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.stem)
def test_every_public_name_has_a_caller(module):
    elsewhere = BENCHMARK.union(*(_identifiers(tree) for path, tree in TREES.items() if path != module))
    own = _identifiers(TREES[module])
    unused = [name for name in _public_definitions(TREES[module]) if name not in elsewhere | own]
    assert not unused, f"{module.stem}: public names only tests reach: {unused}"
