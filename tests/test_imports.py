"""Every name imported by a package module (but ``__init__.py``, which
re-exports), a test or a demo is referenced or listed in ``__all__``; and
every public function or class of the package is referenced from the
package, a demo or the benchmark harness, so the library holds only what
runs."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = [p for p in (ROOT / "src" / "lozenge").glob("*.py") if p.name != "__init__.py"]
SCANNED += [*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")]
MODULES = [p for p in SCANNED if p.parent.name == "lozenge"]
USERS = [*MODULES, *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]


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


def public_defs(tree: ast.Module) -> list[str]:
    return [
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def loaded_names(tree: ast.Module) -> set[str]:
    """Names and attributes the module loads; a definition's loads of its own
    name (a recursive call) are not a use of it."""
    loaded = set()
    for stmt in tree.body:
        names = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(stmt)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
        }
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        loaded |= names
    return loaded


def unreferenced(defining: dict[str, str], using: list[str]) -> list[str]:
    """``module.name`` of each public def in ``defining`` (module -> source)
    that no source in ``using`` loads."""
    used = set().union(*(loaded_names(ast.parse(src)) for src in using))
    return [
        f"{module}.{name}"
        for module, src in defining.items()
        for name in public_defs(ast.parse(src))
        if name not in used
    ]


def test_every_public_def_runs_outside_the_tests():
    assert {"verify.py", "05_svg_gallery.py", "workloads.py"} <= {p.name for p in USERS}
    # a recursive call, an ``__all__`` string and a private class are no use
    probe = "def used(): return kept()\ndef kept(): pass\ndef walk(n): return walk(n - 1)\n"
    probe += "class _Hidden: pass\n"
    assert unreferenced({"probe": probe}, [probe, "__all__ = ['walk']\nprint(used)\n"]) == ["probe.walk"]
    defining = {p.stem: p.read_text("utf-8") for p in MODULES}
    dead = unreferenced(defining, [p.read_text("utf-8") for p in USERS])
    assert not dead, dead
