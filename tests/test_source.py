"""Rules on the library's source: no module reaches into another object's
private attributes."""

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
