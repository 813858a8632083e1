"""Every module of the package and of its tests reads each name it imports.

``__init__.py`` imports to re-export, and ``from __future__`` imports are
directives, so both are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for path in [*(ROOT / "src" / "odtalloc").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if path.name != "__init__.py"
)


def _unused_imports(source: str) -> list[str]:
    """Each name ``source`` imports and never reads, with the line of its import."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:  # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_scan_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import json\nimport os.path\nfrom math import pi as tau, sqrt\n"
        "sqrt = sqrt(os.sep)\n"
    )
    assert _unused_imports(source) == ["json (line 2)", "tau (line 4)"]
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_module_reads_every_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_cli_imports_no_private_solver_name():
    # the CLI does I/O only: it reaches the solver through its public names
    tree = ast.parse((ROOT / "src" / "odtalloc" / "cli.py").read_text(encoding="utf-8"))
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("solver", "odtalloc.solver")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
