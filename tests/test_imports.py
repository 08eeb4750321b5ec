"""Every name that a module of `src/` or `tests/` imports is used in it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names `source` imports (`__future__` features aside) and never
    reads, as "line: name"."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{line}: {name}" for line, name in sorted(imported) if name not in used]


def test_the_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os\nfrom math import pi, tau as t\n"
    assert unused_imports(source + "print(os.sep, t)\n") == ["3: pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == []
