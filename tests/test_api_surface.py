"""No public API that only its own unit tests call.

Every public top-level function and class of a zecheck module must be
named somewhere outside its own definition: in zecheck's modules, in the
acceptance tests or in the benchmark scripts.  A name is an `ast.Name`, an
`ast.Attribute` or an import alias, so docstrings and comments do not
count, and neither does a binding in `__init__.py`.  The package namespace
is held to the same rule: every name `__init__.py` binds by a relative
import must be read as `zecheck.<name>` in the acceptance tests or the
benchmark scripts.  Likewise every name a module imports must be used in
it, `__init__.py` and `from __future__` aside, and every backticked
`module.name` in README.md and in zecheck's modules must name a live
attribute or a claim id.  `import zecheck` loads only the modules its
bindings need, and `report.TOOLKIT_VERSION` is pyproject.toml's version.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest

import zecheck
import zecheck.suites

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


def outside_readers(root):
    """The parsed acceptance tests and benchmark scripts."""
    paths = [root / "tests" / "test_acceptance.py", *sorted((root / "perfbench").glob("*.py"))]
    return [ast.parse(path.read_text()) for path in paths]


def callerless_public_api(package=PACKAGE, root=ROOT):
    """'module.name' of every public top-level function or class no code outside it names."""
    outside = set().union(*map(used_names, outside_readers(root)))
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


def unread_package_bindings(package=PACKAGE, root=ROOT):
    """'package.name' of every name `__init__.py` binds by a relative import and no
    acceptance test or benchmark script reads as `package.name`."""
    bound = [alias.asname or alias.name
             for node in ast.parse((package / "__init__.py").read_text()).body
             if isinstance(node, ast.ImportFrom) and node.level for alias in node.names]
    read = {node.attr for tree in outside_readers(root) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == package.name}
    return [f"{package.name}.{name}" for name in bound if name not in read]


def test_every_package_binding_is_read():
    assert unread_package_bindings() == []


def test_a_package_binding_nothing_reads_is_flagged(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "tests").mkdir()
    # a read from the module, or of another package's attribute, is not a read of pkg's binding
    (tmp_path / "tests" / "test_acceptance.py").write_text("from pkg.a import unread\nunread()\n")
    (tmp_path / "perfbench" / "probe.py").write_text(
        "import other\nimport pkg\npkg.read()\nother.unread()\n")
    (package / "__init__.py").write_text("import os\nfrom .a import read, unread\n")
    (package / "a.py").write_text("def read():\n    pass\ndef unread():\n    pass\n")
    assert unread_package_bindings(package, tmp_path) == ["pkg.unread"]


# `zecheck.<name>` for every name the package binds needs these modules, and no suite
IMPORT_ZECHECK = """
import sys
import zecheck
zecheck.build_channel(3, zecheck.enumerate_clifford(3))
print(" ".join(sorted(name for name in sys.modules if name.split(".")[0] == "zecheck")))
"""


def test_import_zecheck_loads_only_what_its_bindings_need():
    run = subprocess.run([sys.executable, "-c", IMPORT_ZECHECK], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, check=True)
    assert run.stdout.split() == [
        "zecheck", "zecheck.channel", "zecheck.designs", "zecheck.linalg", "zecheck.report"]


def test_the_toolkit_version_is_the_project_version():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert importlib.import_module("zecheck.report").TOOLKIT_VERSION == project["version"]


def imported_names(tree):
    """The name each import below tree binds, `from __future__` left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def unused_imports(package=PACKAGE):
    """'module.name' of every name a module imports and never reads; `__init__.py`, whose
    bindings are for readers outside it, aside."""
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


CLAIM_IDS = {spec.claim_id for spec in zecheck.suites._CLAIMS}


def stale_names(text, *scopes):
    """The backticked dotted names of text that do not resolve, claim ids aside.

    A name resolves in the first scope that holds its head; one whose head no
    scope holds, such as `itertools.groupby`, is not zecheck's and is skipped.
    """
    stale = []
    for name in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", text):
        head, *rest = name.split(".")
        scope = next((s for s in scopes if hasattr(s, head)), None)
        if name in CLAIM_IDS or scope is None:
            continue
        try:
            reduce(getattr, rest, getattr(scope, head))
        except AttributeError:
            stale.append(name)
    return stale


def test_every_backticked_name_is_live():
    # README names modules of the package, each an attribute of it once imported; a module
    # also names its own attributes
    modules = {path: zecheck if path.stem == "__init__" else importlib.import_module(
        f"zecheck.{path.stem}") for path in sorted(PACKAGE.glob("*.py"))}
    stale = {"README.md": stale_names((ROOT / "README.md").read_text(), zecheck)}
    for path, module in modules.items():
        stale[path.name] = stale_names(path.read_text(), zecheck, module)
    assert {where: names for where, names in stale.items() if names} == {}


def test_a_moved_name_is_flagged():
    text = ("`linalg.case_rngs`, `sampling.case_rngs`, `ppt.search_floor`, `_Context.draws`, "
            "`_Context.started2`, `itertools.groupby` and `suites.execute.missing`")
    assert stale_names(text, zecheck, zecheck.suites) == [
        "linalg.case_rngs", "_Context.started2", "suites.execute.missing"]
