"""Rules on the library's source: no module reaches into another object's
private attributes, and importing nftrack loads no thread or process pool
machinery."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nftrack"


def _top_level_names(tree: ast.Module) -> set:
    """Names a module defines at its top: functions, classes and assignment
    targets.  Imported names are not its own."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def private_reads(source: str) -> list:
    """Each `obj._attr` read in source (dunders aside) whose obj is not self,
    cls or a name the module itself defines at its top."""
    tree = ast.parse(source)
    own = {"self", "cls"} | _top_level_names(tree)
    return [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and node.attr.startswith("_") and not node.attr.endswith("__")
        and not (isinstance(node.value, ast.Name) and node.value.id in own)
    ]


def test_rule_flags_private_reads_of_foreign_objects():
    source = (
        "import numpy as np\n"
        "_cache = {}\n"
        "class A:\n"
        "    def f(self, other):\n"
        "        return self._x, _cache._y, A._z, other._w, np._v, other.__class__\n"
    )
    assert private_reads(source) == ["other._w", "np._v"]


def test_no_module_reads_private_attributes_of_other_objects():
    found = {
        path.name: reads
        for path in sorted(SRC.glob("*.py"))
        if (reads := private_reads(path.read_text()))
    }
    assert found == {}


# Packages that only a campaign's pools need: imported where used, so that
# `import nftrack` never pays for them.
POOL_PACKAGES = ("concurrent", "multiprocessing")


def eager_imports(source: str, packages=POOL_PACKAGES) -> list:
    """Each import of one of packages, or of a module in them, that is not
    inside a function."""
    tree = ast.parse(source)
    deferred = {
        id(node)
        for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
    }

    def named(module):
        return module is not None and module.split(".")[0] in packages

    return [
        ast.unparse(node)
        for node in ast.walk(tree)
        if id(node) not in deferred and (
            (isinstance(node, ast.Import) and any(named(a.name) for a in node.names))
            or (isinstance(node, ast.ImportFrom) and node.level == 0 and named(node.module)))
    ]


def test_rule_flags_pool_imports_outside_functions():
    source = (
        "import os, multiprocessing.pool\n"
        "from concurrent import futures\n"
        "if True:\n"
        "    from concurrent.futures import ThreadPoolExecutor\n"
        "class A:\n"
        "    import multiprocessing\n"
        "    def f(self):\n"
        "        import multiprocessing\n"
        "        from concurrent.futures import ProcessPoolExecutor\n"
        "def g():\n"
        "    import concurrent.futures\n"
    )
    assert eager_imports(source) == [
        "import os, multiprocessing.pool",
        "from concurrent import futures",
        "from concurrent.futures import ThreadPoolExecutor",
        "import multiprocessing",
    ]


def test_pool_packages_are_imported_only_inside_functions():
    found = {
        path.name: imports
        for path in sorted(SRC.glob("*.py"))
        if (imports := eager_imports(path.read_text()))
    }
    assert found == {}
