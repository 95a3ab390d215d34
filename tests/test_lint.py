"""Static checks on the package source, with the stdlib ``ast`` only."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "usp"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads and does not re-export.

    A name counts as read when it appears as a ``Name`` node anywhere,
    which includes the base of an attribute (``auth_mod.validate_token``)
    and annotations. Names listed in ``__all__`` are re-exports.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in read and name not in exported
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_sees_a_dead_name():
    source = (
        "from typing import Callable, Mapping\n"
        "import json\n"
        "from .auth import issue_token\n"
        "__all__ = ['issue_token']\n"
        "def f(m: Mapping) -> None:\n"
        "    json.dumps(m)\n"
    )
    assert unused_imports(source) == ["line 1: Callable"]


def private_imports(source: str) -> list[str]:
    """Private names (``_x``) a module imports from a sibling module."""
    return [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_private_import_check_sees_a_private_name():
    source = (
        "from .wire import HEADER_SIZE, _HEADER\n"
        "from ._compat import shim\n"
        "from os import _exit\n"
        "def f():\n"
        "    from .auth import _sign\n"
    )
    assert private_imports(source) == ["wire._HEADER", "auth._sign"]


def _is_time_time(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "time"
        and isinstance(node.value, ast.Name)
        and node.value.id == "time"
    )


def wall_clock_reads(source: str) -> list[str]:
    """Uses of ``time.time`` other than as the default in ``clock or time.time``.

    Wall time may stamp tokens and records through an injected clock; a
    deadline read from it would move when the clock is stepped.
    """
    tree = ast.parse(source)
    defaults = {
        id(node.values[1])
        for node in ast.walk(tree)
        if isinstance(node, ast.BoolOp)
        and isinstance(node.op, ast.Or)
        and len(node.values) == 2
        and isinstance(node.values[0], ast.Name)
        and node.values[0].id == "clock"
    }
    lines = sorted(
        node.lineno for node in ast.walk(tree) if _is_time_time(node) and id(node) not in defaults
    )
    return [f"line {line}" for line in lines]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_wall_clock_is_only_a_default_clock(path):
    assert wall_clock_reads(path.read_text(encoding="utf-8")) == []


def test_wall_clock_check_sees_a_deadline():
    source = (
        "import time\n"
        "def f(clock=None):\n"
        "    clock = clock or time.time\n"
        "    deadline = time.time() + 5\n"
        "    return other or time.time\n"
    )
    assert wall_clock_reads(source) == ["line 4", "line 5"]


def _is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return (isinstance(target, ast.Name) and target.id == "dataclass") or (
        isinstance(target, ast.Attribute) and target.attr == "dataclass"
    )


def write_only_fields(source: str, readers: list[str]) -> list[str]:
    """Fields of ``@dataclass`` classes in ``source`` that no reader reads.

    A field counts as read when its name appears as a loaded attribute
    (``x.field``) anywhere in ``readers``. A field that is only ever set,
    by a constructor or an assignment, is state nothing depends on.
    """
    read = {
        node.attr
        for text in readers
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{cls.name}.{stmt.target.id}"
        for cls in ast.walk(ast.parse(source))
        if isinstance(cls, ast.ClassDef) and any(map(_is_dataclass_decorator, cls.decorator_list))
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        if stmt.target.id not in read
    ]


def test_every_dataclass_field_is_read():
    root = SRC.parent.parent
    readers = [
        path.read_text(encoding="utf-8")
        for folder in (SRC, root / "tests", root / "perfbench")
        for path in sorted(folder.glob("*.py"))
    ]
    flagged = [
        f"{path.name}: {field}"
        for path in sorted(SRC.glob("*.py"))
        for field in write_only_fields(path.read_text(encoding="utf-8"), readers)
    ]
    assert flagged == []


def test_write_only_field_check_sees_a_field_only_set():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass(frozen=True)\n"
        "class Point:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    tags: list = field(default_factory=list)\n"
        "@dataclasses.dataclass\n"
        "class Plain:\n"
        "    z: int\n"
        "class NotData:\n"
        "    w: int\n"
        "def f(p: Point, q: Plain) -> int:\n"
        "    q.z = p.y = 1\n"
        "    return p.x + len(p.tags)\n"
    )
    assert write_only_fields(source, [source]) == ["Point.y", "Plain.z"]


ENDINGS = ("Closed", "Error")


def endings_built(source: str) -> list[str]:
    """Calls in ``source`` that construct a session ending (a Closed or an Error frame).

    Only the session machines decide how a handshake ends; a driver that
    built either would decide one itself.
    """
    calls = [
        (node.lineno, getattr(node.func, "id", None) or getattr(node.func, "attr", None))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
    ]
    return [f"line {line}: {name}" for line, name in sorted(c for c in calls if c[1] in ENDINGS)]


def test_the_driver_builds_no_ending():
    assert endings_built((SRC / "agent.py").read_text(encoding="utf-8")) == []


def test_ending_check_sees_a_closed_and_an_error():
    source = (
        "from . import wire\n"
        "from .session import Closed, CloseCause\n"
        "def f(state, chan):\n"
        "    if isinstance(state, Closed):\n"
        "        chan.send(wire.Error('no'))\n"
        "    return Closed(CloseCause.TIMEOUT)\n"
    )
    assert endings_built(source) == ["line 5: Error", "line 6: Closed"]
