"""A dependency-free image of the lint/type ratchet.

``ruff`` and ``mypy`` run in CI only — neither is installed where this
suite usually runs — so a module can leave the ratchet between CI runs
nobody here sees.  This check needs nothing but ``ast``: in every module
listed, each ``def`` annotates all its parameters and its return, and no
import is left unused.  It is the floor under ``disallow_untyped_defs``
and ruff's ``F401``, not a replacement for either.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules held to the floor; adding a path is the ratchet.
CHECKED = (
    "repro/serve/scheduler.py",
    "repro/batch/kem.py",
    "repro/schemes/base.py",
    "repro/schemes/lac.py",
    "repro/schemes/newhope.py",
    "repro/backend/base.py",
    "repro/backend/thread.py",
    "repro/backend/inline.py",
    "repro/backend/process.py",
    "repro/backend/cosim.py",
    "repro/serve/server.py",
    "repro/serve/slo.py",
    "repro/serve/config.py",
    "repro/ring/cache.py",
)


def _unannotated(tree):
    """``(line, what)`` for every missing parameter/return annotation."""
    missing = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        for index, param in enumerate(params):
            if index == 0 and param.arg in ("self", "cls"):
                continue
            if param.annotation is None:
                missing.append((node.lineno, f"{node.name}({param.arg})"))
        if node.returns is None:
            missing.append((node.lineno, f"{node.name} -> ?"))
    return missing


def _unused_imports(tree):
    """Imported names the module never reads and does not re-export."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # string annotations ("KemBackend | None") read names too
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(name for name in imported if name in node.value)
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted(
        (line, name)
        for name, line in imported.items()
        if name not in used and name not in exported
    )


@pytest.mark.parametrize("path", CHECKED)
def test_every_def_is_annotated_and_no_import_is_unused(path):
    tree = ast.parse((SRC / path).read_text(encoding="utf-8"))
    assert _unannotated(tree) == []
    assert _unused_imports(tree) == []


def test_the_check_sees_what_it_claims_to():
    tree = ast.parse(
        "import os\n"
        "import sys\n"
        "from typing import Any\n"
        "def f(a, b: int, *rest, key=None) -> Any:\n"
        "    return sys.argv\n"
        "class C:\n"
        "    def m(self, x: int):\n"
        "        return x\n"
    )
    assert _unannotated(tree) == [
        (4, "f(a)"), (4, "f(key)"), (4, "f(rest)"), (7, "m -> ?"),
    ]
    assert _unused_imports(tree) == [(1, "os")]
