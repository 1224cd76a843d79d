"""No public API that only its own unit tests call.

Every public top-level function and class of a zecheck module must be
named somewhere outside its own definition: in zecheck's modules, in the
acceptance tests or in the benchmark scripts.  A name is an `ast.Name`, an
`ast.Attribute` or an import alias, so docstrings and comments do not
count, and neither do the re-exports in `__init__.py`.  Likewise every
name a module imports must be used in it, `__init__.py` and
`from __future__` aside.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zecheck"


def used_names(tree):
    """Every name, attribute and import alias below tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def callerless_public_api(package=PACKAGE, root=ROOT):
    """'module.name' of every public top-level function or class no code outside it names."""
    readers = [root / "tests" / "test_acceptance.py", *sorted((root / "perfbench").glob("*.py"))]
    outside = set().union(*(used_names(ast.parse(p.read_text())) for p in readers))
    # the names each top-level statement of each module uses, so that a definition's own
    # body is left out by skipping its statement
    statements = [(path.stem, node, used_names(node))
                  for path in sorted(package.glob("*.py")) if path.name != "__init__.py"
                  for node in ast.parse(path.read_text()).body]
    return [f"{module}.{node.name}" for module, node, _ in statements
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in outside
            and not any(node.name in names for _, other, names in statements if other is not node)]


def test_every_public_function_and_class_has_a_caller():
    assert callerless_public_api() == []


def test_a_definition_naming_only_itself_is_flagged(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_acceptance.py").write_text("from pkg.a import used\nused()\n")
    (package / "__init__.py").write_text("from .a import Reexported, lonely, used\n")
    (package / "a.py").write_text(
        '"""lonely is only named here, in a docstring."""\n'
        "def lonely(k):\n    return lonely(k - 1)  # recursion is not a caller\n"
        "def used():\n    return helper()\n"
        "def helper():\n    return 1\n"
        "class Reexported:\n    pass\n"
        "def _private():\n    pass\n"
    )
    assert callerless_public_api(package, tmp_path) == ["a.lonely", "a.Reexported"]


def imported_names(tree):
    """The name each import below tree binds, `from __future__` left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def unused_imports(package=PACKAGE):
    """'module.name' of every name a module imports and never reads; `__init__.py` re-exports."""
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in imported_names(tree) if name not in read]
    return unused


def test_no_module_imports_a_name_it_does_not_use():
    assert unused_imports() == []


def test_an_import_nothing_reads_is_flagged(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import helper\n")
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom math import pi, tau as turn\n"
        "def helper() -> np.ndarray:\n    import signal\n    return np.zeros(os.getpid())\n"
        '"""pi, turn and signal are only named in this string."""\n'
    )
    assert sorted(unused_imports(tmp_path)) == ["a.pi", "a.signal", "a.turn"]
