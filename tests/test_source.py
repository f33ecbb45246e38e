"""Rules on the library's source: no module reaches into another object's
private attributes, every private name is read somewhere, and importing
nftrack loads no thread or process pool machinery."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nftrack"


def _defined_names(node: ast.stmt) -> set:
    """Names a statement defines: a function, a class or assignment targets.
    Imported names are not its own."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _top_level_names(tree: ast.Module) -> set:
    """Names a module defines at its top."""
    return set().union(*map(_defined_names, tree.body))


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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _loads(tree: ast.AST) -> Counter:
    """How often each name is read below tree: Name and Attribute loads, and
    the names a from-import brings in."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            counts[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            counts.update(alias.name for alias in node.names)
    return counts


def _private_definitions(tree: ast.Module):
    """(label, name, node) of each private top-level function, class or
    assignment target, and of each private method of a top-level class."""
    for node in tree.body:
        for name in filter(_private, _defined_names(node)):
            yield name, name, node
        methods = node.body if isinstance(node, ast.ClassDef) else []
        for method in methods:
            if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) and _private(method.name):
                yield f"{node.name}.{method.name}", method.name, method


def unread_private_names(sources: dict) -> list:
    """module.label of each private definition in sources (module -> source)
    that no code reads outside the definition itself."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    loads = sum((_loads(tree) for tree in trees.values()), Counter())
    return sorted(
        f"{module}.{label}"
        for module, tree in trees.items()
        for label, name, node in _private_definitions(tree)
        if loads[name] == _loads(node)[name]
    )


def test_rule_flags_private_names_nothing_reads():
    sources = {
        "a": (
            "_read = 1\n"
            "_unread = 2\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1)\n"
            "class _Kept:\n"
            "    def _called(self):\n"
            "        return self._called_by_other()\n"
            "    def _called_by_other(self):\n"
            "        pass\n"
            "    def _unused(self):\n"
            "        pass\n"
            "    def __init__(self):\n"
            "        pass\n"
        ),
        "b": "from .a import _read, _Kept\nx = _Kept()._called()\n",
    }
    assert unread_private_names(sources) == ["a._Kept._unused", "a._recursive", "a._unread"]


def test_every_private_name_in_src_is_read():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


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
