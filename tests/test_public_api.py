"""The package's export list: each name once, and none that only tests call;
no defaulted parameter, and no defaulted dataclass field, that only tests
pass; one home each for the budget refusal, the count refusal, the integer
test and the tile size; every library count parameter refused in the one
count message; and no JSON parse that lets deep nesting out as a bare
RecursionError."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import evframe
from evframe import (
    CorruptionSpec,
    CorruptionType,
    EventStream,
    FeaturePair,
    HeadConfig,
    Homography,
    ImagePNM,
    cafr_gradcheck,
    corrupt_dataset,
    decode_events,
    encode_image,
    init_cafr_weights,
    init_fpn_weights,
    level_anchors,
    warp_image,
)
from evframe.demo import make_scene
from evframe.errors import DomainError, check_budget, check_count
from evframe.tensor_math import philox

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "evframe"

# Exports kept although no program code calls them.
UNCALLED_EXPORTS = {
    "save_weights": "the only writer of the bundles `cafr-forward --weights` reads",
    "iou_tlwh": "the scalar IoU contract that `_iou` is defined against",
}

# Defaulted parameters kept although no program code passes them.
UNPASSED_PARAMETERS = {
    ("main", "argv"): "the console script calls main() on sys.argv; in-process callers pass a list",
}

# Defaulted dataclass fields kept although no program code sets them.
UNSET_FIELDS = {}


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


def _nodes(path: Path, outside_own_definition: bool):
    """Every node of a file, with the names of the functions and classes it
    is defined in (none unless ``outside_own_definition``)."""

    def visit(node, defining):
        if outside_own_definition and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            defining = defining | {node.name}
        yield node, defining
        for child in ast.iter_child_nodes(node):
            yield from visit(child, defining)

    return visit(ast.parse(path.read_text()), frozenset())


def _program_files():
    """(path, outside_own_definition) for every file of program code: a use
    inside the definition of what it uses does not count in the package."""
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            yield path, True
    for path in [*(ROOT / "perfbench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]:
        yield path, False


def _references(path: Path, outside_own_definition: bool) -> set:
    """Names a file reads, as bare names or attributes (``ef.decode_head``).

    Import statements are not references.
    """
    found = set()
    for node, defining in _nodes(path, outside_own_definition):
        if isinstance(node, ast.Name) and node.id not in defining:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in defining:
            found.add(node.attr)
    return found


def _passed(path: Path, outside_own_definition: bool) -> set:
    """(callee name, parameter) pairs a file's calls pass: the parameter is a
    keyword's name or a positional argument's index."""
    found = set()
    for node, defining in _nodes(path, outside_own_definition):
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            if callee not in defining:
                found.update((callee, k.arg) for k in node.keywords)
                found.update((callee, i) for i in range(len(node.args)))
    return found


def test_every_export_is_called_outside_the_unit_tests():
    used = set()
    for path, outside_own_definition in _program_files():
        used |= _references(path, outside_own_definition)
    uncalled = set(evframe.__all__) - used
    assert uncalled == set(UNCALLED_EXPORTS)


def _public_definitions(kind):
    """(name, value) for every public function or class of every evframe
    module that ``kind`` accepts."""
    for info in pkgutil.iter_modules(evframe.__path__):
        module = importlib.import_module(f"evframe.{info.name}")
        for name, value in vars(module).items():
            if kind(value) and value.__module__ == module.__name__:
                if not name.startswith("_"):
                    yield name, value


def _program_passes() -> set:
    passed = set()
    for path, outside_own_definition in _program_files():
        passed |= _passed(path, outside_own_definition)
    return passed


def test_every_defaulted_parameter_is_passed_outside_the_unit_tests():
    passed = _program_passes()
    unpassed = set()
    for name, fn in _public_definitions(inspect.isfunction):
        for i, (param, p) in enumerate(inspect.signature(fn).parameters.items()):
            by_position = p.kind != p.KEYWORD_ONLY and (name, i) in passed
            if p.default is not p.empty and (name, param) not in passed and not by_position:
                unpassed.add((name, param))
    assert unpassed == set(UNPASSED_PARAMETERS)


def test_every_defaulted_field_is_set_outside_the_unit_tests():
    passed = _program_passes()
    unset = set()
    for name, cls in _public_definitions(lambda v: inspect.isclass(v) and dataclasses.is_dataclass(v)):
        init_fields = [f for f in dataclasses.fields(cls) if f.init]
        for i, f in enumerate(init_fields):
            defaulted = not (f.default is f.default_factory is dataclasses.MISSING)
            by_position = not f.kw_only and (name, i) in passed
            if defaulted and (name, f.name) not in passed and not by_position:
                unset.add((name, f.name))
    assert unset == set(UNSET_FIELDS)


def test_only_the_budget_helper_raises_a_budget_refusal():
    raising = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                if any(
                    isinstance(part, ast.Constant) and "budget" in str(part.value)
                    for part in ast.walk(node.exc)
                ):
                    raising.add(f"{path.name}:{node.lineno}")
    assert raising == set()


def _outside_errors():
    """(file name, parsed module) of every package module but errors.py."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "errors.py":
            yield path.name, ast.parse(path.read_text())


def test_only_the_count_helper_raises_a_count_refusal():
    raising = set()
    for name, tree in _outside_errors():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                if any(
                    isinstance(part, ast.Constant) and "must be an int >=" in str(part.value)
                    for part in ast.walk(node.exc)
                ):
                    raising.add(f"{name}:{node.lineno}")
    assert raising == set()


# What may test whether a value is an integer, outside errors.py: only
# simulate_events, whose t_a and t_b may be any int64, not only counts.
INTEGER_TESTS = {("numbers", "Integral"), ("operator", "index")}
INTEGER_TEST_HOMES = {("event_core.py", "simulate_events")}


def test_only_the_count_helper_and_simulate_events_test_for_an_integer():
    found = set()
    for name, tree in _outside_errors():
        homes = [
            node for node in tree.body
            if isinstance(node, ast.FunctionDef) and (name, node.name) in INTEGER_TEST_HOMES
        ]
        allowed = {id(part) for home in homes for part in ast.walk(home)}
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                uses = {(node.value.id, node.attr)}
            elif isinstance(node, ast.ImportFrom):
                uses = {(node.module, alias.name) for alias in node.names}
            else:
                continue
            if uses & INTEGER_TESTS:
                found.add(f"{name}:{node.lineno}")
    assert found == set()


def test_only_errors_py_assigns_a_block_size():
    assigned = set()
    for name, tree in _outside_errors():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            for part in (p for t in targets for p in ast.walk(t)):
                if isinstance(part, ast.Name) and part.id.endswith("BLOCK_BYTES"):
                    assigned.add(f"{name}:{part.id}")
    assert assigned == set()


@pytest.mark.parametrize("need", [float("nan"), float("inf"), 11])
def test_the_budget_helper_refuses_what_is_not_within_the_budget(need):
    with pytest.raises(DomainError, match=rf"^a test stage needs {need} bytes, over the 10-byte budget$"):
        check_budget("a test stage", need, "byte", 10)
    check_budget("a test stage", 10, "byte", 10)


@pytest.mark.parametrize("value", [0, -3, 2.5, True, np.bool_(True), "3", None])
def test_the_count_helper_refuses_what_is_not_a_positive_integer(value):
    with pytest.raises(DomainError, match=rf"^k must be an int >= 1, got {re.escape(repr(value))}$"):
        check_count("k", value)
    assert type(check_count("k", np.uint8(3))) is int and check_count("k", 3) == 3


def _catches_recursion(handler: ast.ExceptHandler) -> bool:
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(t, ast.Name) and t.id == "RecursionError" for t in caught)


def test_every_json_parse_catches_deep_nesting():
    # json.loads recurses once per nesting level, so a file of 100 000 "["
    # raises RecursionError; every parse must turn it into a typed error
    unguarded = set()

    def visit(node, where, guarded):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "loads"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json"
            and not guarded
        ):
            unguarded.add(where)
        if isinstance(node, ast.Try):
            inner = guarded or any(_catches_recursion(h) for h in node.handlers)
            for child in node.body:
                visit(child, where, inner)
            for child in node.handlers + node.orelse + node.finalbody:
                visit(child, where, guarded)
        else:
            for child in ast.iter_child_nodes(node):
                visit(child, where, guarded)

    for path in PACKAGE.glob("*.py"):
        visit(ast.parse(path.read_text()), path.name, False)
    assert unguarded == set()



def _corrupt_one_image(workers, tmp_path):
    src = tmp_path / "src.pnm"
    src.write_bytes(encode_image(ImagePNM(16, 12, 3, philox(5).integers(0, 256, size=(12, 16, 3)))))
    corrupt_dataset([src], tmp_path / "out", workers=workers)


_PIXELS = np.zeros((2, 2, 1), np.uint8)
_IMAGE = ImagePNM(4, 3, 3, philox(6).integers(0, 256, size=(3, 4, 3)))
_PAIR = FeaturePair(philox(7).standard_normal((2, 2, 2)), philox(8).standard_normal((2, 2, 2)))
_EVENTS = b"t,x,y,p\n0,0,0,1\n"

# Every library count parameter: its site, its name, a call that passes it n
# (and a scratch directory), and a valid n.
COUNT_PARAMETERS = [
    ("EventStream", "sensor_width", lambda n, _: EventStream(n, 3, []), 4),
    ("EventStream", "sensor_height", lambda n, _: EventStream(4, n, []), 3),
    ("decode_events", "sensor_width", lambda n, _: decode_events(_EVENTS, n, 3), 4),
    ("decode_events", "sensor_height", lambda n, _: decode_events(_EVENTS, 4, n), 3),
    ("warp_image", "out_w", lambda n, _: warp_image(Homography(np.eye(3)), _IMAGE, n, 3), 4),
    ("warp_image", "out_h", lambda n, _: warp_image(Homography(np.eye(3)), _IMAGE, 4, n), 3),
    ("init_cafr_weights", "channels", lambda n, _: init_cafr_weights(n), 2),
    ("cafr_gradcheck", "probes", lambda n, _: cafr_gradcheck(_PAIR, init_cafr_weights(2), probes=n), 1),
    ("init_fpn_weights", "width", lambda n, _: init_fpn_weights([1] * 4, width=n), 2),
    ("init_fpn_weights", "in_channels", lambda n, _: init_fpn_weights([1, 1, n, 1], width=2), 1),
    ("level_anchors", "base_stride", lambda n, _: level_anchors([(2, 2)], n, HeadConfig(1, 1)), 4),
    ("CorruptionSpec", "severity", lambda n, _: CorruptionSpec(CorruptionType.FOG, n), 2),
    ("corrupt_dataset", "workers", _corrupt_one_image, 1),
    ("ImagePNM", "width", lambda n, _: ImagePNM(n, 2, 1, _PIXELS), 2),
    ("ImagePNM", "height", lambda n, _: ImagePNM(2, n, 1, _PIXELS), 2),
    ("ImagePNM", "channels", lambda n, _: ImagePNM(2, 2, n, _PIXELS), 1),
    ("make_scene", "width", lambda n, _: make_scene(n, 48), 64),
    ("make_scene", "height", lambda n, _: make_scene(64, n), 48),
]

# make_scene refuses a number under its 17x13 minimum first, in its own
# words, so only a non-integer above that, or a value that is no number,
# reaches the count refusal.
COUNT_REFUSALS = [
    pytest.param(param, call, value, id=f"{site}.{param}={value!r}")
    for site, param, call, good in COUNT_PARAMETERS
    for value in ((good + 0.5, float(good), str(good), None) if site == "make_scene" else (0, 2.5, True))
]


@pytest.mark.parametrize("param, call, value", COUNT_REFUSALS)
def test_every_count_parameter_refuses_with_the_one_count_message(tmp_path, param, call, value):
    with pytest.raises(DomainError) as exc:
        call(value, tmp_path)
    assert str(exc.value) == f"{param} must be an int >= 1, got {value!r}"


@pytest.mark.parametrize(
    "call, good", [pytest.param(call, good, id=f"{site}.{param}") for site, param, call, good in COUNT_PARAMETERS]
)
def test_every_count_parameter_takes_a_numpy_integer(tmp_path, call, good):
    call(np.int64(good), tmp_path)
