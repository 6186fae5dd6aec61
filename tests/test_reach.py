"""Every function in ``src/factorlab`` is entered by the command line or by
the benchmark.

A child process runs every command in ``cli_golden.json``, as text and with
``--json``, and builds and runs each benchmark workload at its tiny sizes,
with a ``sys.setprofile`` hook that records every code object entered, module
imports included.  A ``def`` in the package that none of these runs enters
fails the test: code that only tests reach belongs in the tests.

The check is by function, not by statement.  An error path inside a function
that the runs enter (a ``raise`` on bad input, a refusal past a budget) is
not flagged; the CLI and unit tests reach those.  A function whose only job
is to build such an error is named in ``ERROR_BUILDERS``.

    python tests/test_reach.py           # prints the functions never entered
    python tests/test_reach.py --lines   # prints, per module, the statements
                                         # other than ``raise`` never executed

The statement report repeats the same runs under a ``sys.settrace`` line
hook.  It is a guide for choosing golden commands, not a gate.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "factorlab"

#: Functions no golden command or workload enters, each with the reason it stays.
ERROR_BUILDERS = (
    "xy_poly._too_long",  # the refusal of a number past MAX_COEFF_BITS; tests/test_cli.py reaches it
)


def definitions() -> dict[tuple[str, int], str]:
    """Each ``def`` in the package, keyed as its code object is
    (file, first line, decorators included), with its dotted name."""
    found: dict[tuple[str, int], str] = {}

    def walk(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[(str(path), line)] = f"{prefix}{child.name}"
                walk(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(), filename=str(path)), path, f"{path.stem}.")
    return found


def run_everything(set_hook, hook) -> None:
    """Run the golden commands, as text and with ``--json``, and the tiny
    workloads with ``hook`` installed by ``set_hook`` from before the
    package is imported; their output is discarded."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    commands = json.loads((ROOT / "tests" / "cli_golden.json").read_text())
    set_hook(hook)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            import run
            from spans import Direct
            from workloads import WORKLOADS

            lib = run.import_factorlab()
            for command in commands:
                argv = [arg for arg in shlex.split(command) if arg != "--json"]
                lib.cli.main(argv)
                lib.cli.main(argv + ["--json"])
            for name, build in WORKLOADS.items():
                for op in build(lib, run.round_rng(name, 1, 0), True):
                    op.check(op.run(Direct()))
    finally:
        set_hook(None)


def never_entered() -> list[str]:
    """The dotted names of the package functions no run enters."""
    entered: set[tuple[str, int]] = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    run_everything(sys.setprofile, hook)
    reached = {(str(Path(file).resolve()), line) for file, line in entered}
    return sorted(name for key, name in definitions().items() if key not in reached)


def statement_lines(tree: ast.Module) -> dict[int, range]:
    """Each statement other than ``raise`` and docstrings, by first line, with
    the lines on which running it reports a line event: a compound
    statement's header (decorators included), a simple statement's span."""
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {
        node.body[0] for node in ast.walk(tree) if isinstance(node, scopes) and ast.get_docstring(node) is not None
    }
    found: dict[int, range] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, ast.Raise) or node in docstrings:
            continue
        start = min([d.lineno for d in getattr(node, "decorator_list", [])] + [node.lineno])
        body = getattr(node, "body", None)
        stop = body[0].lineno if isinstance(body, list) else node.end_lineno + 1
        found[node.lineno] = range(start, max(stop, start + 1))
    return found


def never_executed() -> dict[str, list[int]]:
    """Per module, the first lines of the statements (other than ``raise``)
    that no run executes."""
    executed: set[tuple[str, int]] = set()
    package_files: dict[str, bool] = {}

    def line_hook(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return line_hook

    def hook(frame, event, arg):
        file = frame.f_code.co_filename
        if file not in package_files:
            package_files[file] = Path(file).resolve().parent == PACKAGE
        return line_hook if package_files[file] else None

    run_everything(sys.settrace, hook)
    lines_by_file: dict[str, set[int]] = {}
    for file, line in executed:
        lines_by_file.setdefault(str(Path(file).resolve()), set()).add(line)
    missed: dict[str, list[int]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        ran = lines_by_file.get(str(path), set())
        spans = statement_lines(ast.parse(path.read_text(), filename=str(path)))
        lines = sorted(line for line, span in spans.items() if ran.isdisjoint(span))
        if lines:
            missed[path.stem] = lines
    return missed


def test_every_function_is_entered_by_the_cli_or_the_benchmark():
    child = subprocess.run(
        [sys.executable, __file__],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=600,
    )
    assert child.returncode == 0, child.stderr
    missed = [name for name in json.loads(child.stdout) if name not in ERROR_BUILDERS]
    assert not missed, f"functions only tests reach: {missed}"


def test_error_builders_name_package_functions():
    assert set(ERROR_BUILDERS) <= set(definitions().values())


if __name__ == "__main__":
    if sys.argv[1:] == ["--lines"]:
        for module, lines in never_executed().items():
            source = (PACKAGE / f"{module}.py").read_text().splitlines()
            print(f"{module}: {len(lines)} statements")
            for line in lines:
                print(f"  {line:4d}  {source[line - 1].strip()}")
    else:
        print(json.dumps(never_entered()))
