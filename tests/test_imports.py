"""No module under src/ or tests/ imports a name it never uses.

A package's `__init__.py` re-exports what it imports, `from __future__`
imports act on the compiler, and an import line marked `# noqa: F401` is
kept on purpose; none of these count.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """`line: name` of each name the source imports and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            # `import a.b` binds `a`
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # a name read only in a string annotation, such as -> "Dataset"
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            annotations = [a.annotation for a in args] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for a in annotations:
            if isinstance(a, ast.Constant) and isinstance(a.value, str):
                used |= {n.id for n in ast.walk(ast.parse(a.value)) if isinstance(n, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    return [f"{line}: {name}" for line, name in unused]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from typing import Sequence\n"
        "from . import shim  # noqa: F401\n"
        "import numpy as np\n"
        "def f(x: 'Sequence') -> float:\n"
        "    return np.sqrt(x)\n"
    )
    assert unused_imports(source) == ["2: math", "3: os"]
