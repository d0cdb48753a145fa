"""Lint step: no module of the package or of the tests imports a name it never uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "stretched_gasket").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every name bound by an import and never referenced.

    A name listed in the module's ``__all__`` counts as referenced, so a
    package can re-export what it imports.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = "import json\nimport os.path\nfrom math import pi, tau\nimport numpy as np\n__all__ = ['tau']\nnp.zeros(os.sep)\n"
    assert unused_imports(source) == [(1, "json"), (3, "pi")]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in MODULES
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []
