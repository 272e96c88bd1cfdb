"""Every imported name is used: a scan of the package, the tests and the
scripts with ``ast``, standing in for a linter's unused-import rule.

``specden/__init__.py`` is left out, since its imports are the package's
re-exports. ``import a.b`` counts as used when the code names ``a.b``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = sorted(
    path
    for folder in ("src/specden", "tests", "scripts")
    for path in (ROOT / folder).rglob("*.py")
    if path != ROOT / "src/specden/__init__.py"
)


def _dotted(node):
    """'a.b.c' for the expression ``a.b.c``; None unless it starts at a name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def unused_imports(source: str):
    """(line, name) of each imported name the module never references."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, alias.asname or alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name) for alias in node.names
                      if alias.name != "*"]
    used = set()
    for node in ast.walk(tree):
        name = _dotted(node) if isinstance(node, (ast.Name, ast.Attribute)) else None
        if name:
            parts = name.split(".")
            used.update(".".join(parts[:k]) for k in range(1, len(parts) + 1))
    return [(line, name) for line, name in bound if name not in used]


def test_scan_reports_an_unused_import():
    source = "import os\nimport scipy.io\nimport scipy.sparse\nfrom math import pi, tau\n" \
             "scipy.sparse.eye(2)\nprint(tau)\n"
    assert unused_imports(source) == [(1, "os"), (2, "scipy.io"), (4, "pi")]


def test_every_import_is_used():
    assert len(SCANNED) > 20
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in SCANNED for line, name in unused_imports(path.read_text())]
    assert not unused, "imported and never used:\n" + "\n".join(unused)
