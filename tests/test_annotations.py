"""A dependency-free image of the lint/type ratchet.

``ruff`` and ``mypy`` run in CI only — neither is installed where this
suite usually runs — so a module can leave the ratchet between CI runs
nobody here sees.  This check needs nothing but ``ast``: in every module
under ``src/repro``, each ``def`` annotates all its parameters and its
return, and no import is left unused.  It is
the floor under ``disallow_untyped_defs`` and ruff's ``F401``, not a
replacement for either.  A new module is held to it from its first line.

A second floor keeps the environment out: no module under ``src/repro``
reads the process environment, so every setting reaches the code
through an argument (for the service, through ``ServiceConfig``).

A third keeps the served path's imports to what it runs: a serving
process (and every spawned process-backend worker) loads no accelerator
model it never calls.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

MODULES = sorted(p.relative_to(SRC).as_posix() for p in (SRC / "repro").rglob("*.py"))


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


#: The ``os`` names that read the process environment.
ENV_READERS = ("environ", "getenv")


def _environment_reads(tree):
    """``(line, what)`` for every read of the process environment."""
    os_names = set()
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            os_names.update(a.asname or a.name for a in node.names if a.name == "os")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            reads += [
                (node.lineno, f"from os import {a.name}")
                for a in node.names
                if a.name in ENV_READERS
            ]
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ENV_READERS
            and isinstance(node.value, ast.Name)
            and node.value.id in os_names
        ):
            reads.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(reads)


def _parse(path):
    return ast.parse((SRC / path).read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", MODULES)
def test_every_def_is_annotated_and_no_import_is_unused(path):
    tree = _parse(path)
    assert _unannotated(tree) == []
    assert _unused_imports(tree) == []


@pytest.mark.parametrize("path", MODULES)
def test_no_module_reads_the_environment(path):
    assert _environment_reads(_parse(path)) == []


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
    assert _environment_reads(
        ast.parse(
            "import os\n"
            "import os as system\n"
            "from os import environ, getenv, path\n"
            "home = os.environ['HOME']\n"
            "shell = system.getenv('SHELL')\n"
            "cwd = os.getcwd()\n"
        )
    ) == [
        (3, "from os import environ"), (3, "from os import getenv"),
        (4, "os.environ"), (5, "system.getenv"),
    ]


#: ``repro.hw`` models only the tables, area and waveform tooling run.
OFFLINE_HW_MODULES = (
    "repro.hw.vcd",
    "repro.hw.area",
    "repro.hw.ntt_accel",
    "repro.hw.keccak_accel",
    "repro.hw.sha256_accel",
)


def test_the_served_path_loads_no_offline_hw_model():
    script = (
        "import sys\n"
        "import repro.serve, repro.backend, repro.schemes, repro.api\n"
        f"print(sorted(set({OFFLINE_HW_MODULES!r}) & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
