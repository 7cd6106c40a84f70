"""Every name imported into a package module is used there, no module
imports inside a function but where that breaks an import cycle, every
private module-level name is referenced somewhere in the package, and
every function the package re-exports is referenced by a test, a demo or
the README.

The package's __init__ imports names only to re-export them, so it is
skipped by the import check. A name counts as used when it appears as an
identifier anywhere in the module, annotations included.
"""

import ast
import re
from pathlib import Path

import pytest

import matroidkit

PACKAGE = Path(matroidkit.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_is_reported():
    tree = ast.parse("import os\nfrom x import y, z as w\nprint(y)\n")
    assert _unused_imports(tree) == ["os (line 1)", "w (line 2)"]


# function-level imports, by module: each breaks an import cycle
# (constructions imports core, and a whirl's table is its wheel's)
CYCLE_IMPORTS = {"core.py": ["Recipe.rank_table_fast:_wheel"]}


def _function_imports(node: ast.AST, scope: str = "",
                      in_function: bool = False) -> list[str]:
    """The names imported inside a function, each as "qualified name of
    the function:name"; a class body is not a function."""
    out = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
            out += _function_imports(child, inner, in_function
                                     or not isinstance(child, ast.ClassDef))
        elif isinstance(child, (ast.Import, ast.ImportFrom)) and in_function:
            out += [f"{scope}:{alias.name}" for alias in child.names]
        else:
            out += _function_imports(child, scope, in_function)
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_imports_are_made_at_module_level(path):
    assert (_function_imports(ast.parse(path.read_text()))
            == CYCLE_IMPORTS.get(path.name, []))


def test_import_inside_a_function_is_reported():
    tree = ast.parse(
        "import os\n\nclass A:\n    import re\n\n    def f(self):\n"
        "        from x import y\n\n        def g():\n"
        "            import z.q\n\ndef h():\n    if os:\n"
        "        import w\n")
    assert _function_imports(tree) == ["A.f:y", "A.f.g:z.q", "h:w"]


def _private_definitions(path: Path) -> list[str]:
    """Module-level names defined in path that are private: named with a
    leading underscore, or defined in a private module such as _bits."""
    tree = ast.parse(path.read_text())
    private_module = path.stem.startswith("_") and not path.stem.startswith("__")
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("__")
            and (private_module or name.startswith("_"))]


def _references(tree: ast.Module) -> set[str]:
    """Every name tree reads, as a bare name, an attribute or an import."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_private_name_is_referenced():
    paths = sorted(PACKAGE.glob("*.py"))
    used = set().union(*(_references(ast.parse(p.read_text())) for p in paths))
    orphans = [f"{p.name}:{name}" for p in paths
               for name in _private_definitions(p) if name not in used]
    assert orphans == []


def test_orphaned_private_name_is_reported(tmp_path):
    path = tmp_path / "_helpers.py"
    path.write_text("_A = 1\nB = 2\n\ndef c():\n    return B\n")
    assert _private_definitions(path) == ["_A", "B", "c"]
    refs = _references(ast.parse(path.read_text()))
    assert [n for n in _private_definitions(path) if n not in refs] == ["_A", "c"]


def _exported_functions(package: Path) -> list[str]:
    """Names the package's __init__ re-exports that their module defines
    as functions; classes, exception types and constants are left out."""
    out = []
    for node in ast.parse((package / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = ast.parse((package / f"{node.module}.py").read_text())
            functions = {d.name for d in module.body
                         if isinstance(d, ast.FunctionDef)}
            out += [a.asname or a.name for a in node.names
                    if a.name in functions]
    return out


def _unreferenced(names: list[str], paths: list[Path]) -> list[str]:
    """The names that appear as a word in none of the files."""
    words = set().union(*(re.findall(r"\w+", p.read_text()) for p in paths))
    return [name for name in names if name not in words]


def test_every_exported_function_is_referenced():
    paths = [*sorted((ROOT / "tests").rglob("*.py")),
             *sorted((ROOT / "demos").glob("*.py")), ROOT / "README.md"]
    assert _unreferenced(_exported_functions(PACKAGE), paths) == []


def test_unreferenced_export_is_reported(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from .mod import LIMIT, Thing, helper, orphan\n")
    (package / "mod.py").write_text(
        "LIMIT = 1\n\nclass Thing:\n    pass\n\ndef helper():\n    pass\n"
        "\ndef orphan():\n    pass\n")
    readme = tmp_path / "README.md"
    readme.write_text("Call `helper()` on a `Thing`.\n")
    assert _exported_functions(package) == ["helper", "orphan"]
    assert _unreferenced(_exported_functions(package), [readme]) == ["orphan"]
