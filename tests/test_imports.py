"""Every name imported by a package module (but ``__init__.py``, which
re-exports), a test or a demo is referenced or listed in ``__all__``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = [p for p in (ROOT / "src" / "lozenge").glob("*.py") if p.name != "__init__.py"]
SCANNED += [*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")]


def unused_imports(source: str) -> list[str]:
    imported, used = {}, set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            used.update(elt.value for elt in node.value.elts)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    assert {"verify.py", "test_verify.py", "02_holey_hexagons.py"} <= {p.name for p in SCANNED}
    probe = "from a import b, c\nimport d.e\n__all__ = ['c']\nprint(d)\n"
    assert unused_imports(probe) == ["b (line 1)"]
    dead = {p.name: found for p in SCANNED if (found := unused_imports(p.read_text("utf-8")))}
    assert not dead, dead
