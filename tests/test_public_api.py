"""The package's export list: each name once, and none that only tests call."""

import ast
import inspect
from collections import Counter
from pathlib import Path

import evframe

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "evframe"

# Exports kept although no program code calls them.
UNCALLED_EXPORTS = {
    "save_weights": "the only writer of the bundles `cafr-forward --weights` reads",
    "iou_tlwh": "the scalar IoU contract that `_iou_matrix` is defined against",
}


def _is_export(value) -> bool:
    return (inspect.isclass(value) or inspect.isfunction(value)) and value.__module__.startswith(
        "evframe."
    )


def test_the_export_list_names_each_public_class_and_function_once():
    names = evframe.__all__
    assert [n for n, k in Counter(names).items() if k > 1] == []
    for name in names:
        assert _is_export(getattr(evframe, name)), name
    public = {n for n, v in vars(evframe).items() if not n.startswith("_") and _is_export(v)}
    assert public == set(names)
    # __init__.py spells each export once: as an import, not again as a string
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    spelled = Counter(
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    )
    spelled.update(
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    )
    assert {n: spelled[n] for n in names if spelled[n] != 1} == {}


def _references(path: Path, outside_own_definition: bool) -> set:
    """Names a file reads, as bare names or attributes (``ef.decode_head``).

    Import statements are not references. With ``outside_own_definition``, a
    name used only inside the function or class that defines it is not one.
    """
    found = set()

    def visit(node, defining):
        if outside_own_definition and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            defining = defining | {node.name}
        if isinstance(node, ast.Name) and node.id not in defining:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in defining:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(ast.parse(path.read_text()), frozenset())
    return found


def test_every_export_is_called_outside_the_unit_tests():
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= _references(path, outside_own_definition=True)
    for path in [*(ROOT / "perfbench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]:
        used |= _references(path, outside_own_definition=False)
    uncalled = set(evframe.__all__) - used
    assert uncalled == set(UNCALLED_EXPORTS)
