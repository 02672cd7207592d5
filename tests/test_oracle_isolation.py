"""Production code must not import the test tree.

The reference oracles in ``tests/oracles`` are importable from tests and
benchmarks only; a module under ``src/repro`` that imports ``tests`` would
ship a reference path (and a dependency on the test tree) in the library.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.lineno, node.module


def test_no_src_module_imports_tests():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 50, f"found only {len(modules)} modules under {SRC}"
    offending = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offending += [
            f"{path.relative_to(SRC)}:{lineno} imports {name}"
            for lineno, name in _imported_modules(tree)
            if name.split(".")[0] == "tests"
        ]
    assert not offending, "production modules import the test tree:\n" + "\n".join(offending)
