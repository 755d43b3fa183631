"""One layer order for ``src/repro``, and the code a cached result is keyed on.

Bottom up: the simulator layer, ``lab/``, ``serve/`` with ``submit.py``,
``api.py`` with ``harness/`` and ``fuzz/``, then ``cli.py``.  A module
imports only from its own layer or those below it — at top level or
inside a function.  The package root imports only the simulator
layer, so importing a module in a fresh interpreter loads nothing above
its layer either.  Only then can the result cache and every checkpoint
be keyed on the bottom of the stack (``repro.sim.checkpoint``'s
``FINGERPRINTED``) rather than on the whole package.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from repro.sim import checkpoint

SRC = Path(checkpoint.__file__).resolve().parent.parent

LAYERS = (
    ("sim", "core", "memory", "isa", "kernels", "metrics", "energy", "obs",
     "analysis"),
    ("lab",),
    ("serve", "submit"),
    ("api", "harness", "fuzz"),
    ("cli",),
)
RANK = {name: rank for rank, names in enumerate(LAYERS) for name in names}

#: What a result is computed by: the modules a run executes through.
ROOTS = ("repro.sim.gpu", "repro.sim.checkpoint", "repro.lab.worker")


def _imports(path: Path) -> Iterator[Tuple[int, str]]:
    """(line, module) of every ``repro`` import in ``path``, wherever it
    sits; ``from pkg import name`` names the submodule when there is one."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{alias.name}"
                     if _source(f"{node.module}.{alias.name}") else
                     node.module for alias in node.names]
        else:
            continue
        for name in names:
            if name.startswith("repro."):
                yield node.lineno, name


def _source(module: str) -> Optional[Path]:
    """The file of ``module`` relative to the package, if it is one."""
    rel = Path(*module.split(".")[1:])
    for candidate in (rel / "__init__.py", rel.with_suffix(".py")):
        if (SRC / candidate).is_file():
            return candidate
    return None


def _layer(rel: Path) -> Optional[int]:
    return RANK.get(rel.parts[0].split(".")[0])


def test_no_module_imports_above_its_layer():
    upward = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        # The package root is the simulator's; __main__ is the CLI's.
        mine = 0 if rel == Path("__init__.py") else _layer(rel)
        if mine is None:
            continue
        for line, name in _imports(path):
            theirs = RANK[name.split(".")[1]]
            if theirs > mine:
                upward.append(f"{rel}:{line} imports {name}")
    assert not upward, "imports above their layer:\n" + "\n".join(upward)


def _loaded_above(module: str) -> List[str]:
    """Modules above ``module``'s layer that importing it, in a fresh
    interpreter, leaves in ``sys.modules``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    script = (f"import json, sys, {module}\n"
              "print(json.dumps(sorted(name for name in sys.modules\n"
              "                        if name.startswith('repro.'))))")
    loaded = json.loads(subprocess.run(
        [sys.executable, "-c", script], env=env, check=True,
        capture_output=True, text=True, timeout=60).stdout)
    mine = RANK[module.split(".")[1]]
    return [name for name in loaded
            if RANK.get(name.split(".")[1], 0) > mine]


def test_the_simulator_loads_nothing_above_it():
    assert _loaded_above("repro.sim.gpu") == []
    assert _loaded_above("repro.sim.run") == []


def test_the_lab_worker_loads_nothing_above_the_lab():
    assert _loaded_above("repro.lab.worker") == []


def _hashed(rel: Path) -> bool:
    return (rel.parts[0] in checkpoint.FINGERPRINTED
            or rel.as_posix() in checkpoint.FINGERPRINTED)


def test_the_fingerprint_covers_what_computes_a_result():
    closure: List[Path] = []
    todo = [_source(name) for name in ROOTS]
    while todo:
        rel = todo.pop()
        if rel in closure:
            continue
        closure.append(rel)
        todo.extend(_source(name) for _, name in _imports(SRC / rel)
                    if _source(name))
    outside = sorted(str(rel) for rel in closure if not _hashed(rel))
    assert not outside, (
        "modules a run imports that code_fingerprint() does not hash: "
        + ", ".join(outside))
    assert len(closure) > 30  # the walk followed the imports


def test_only_an_edit_to_that_code_changes_the_fingerprint(tmp_path):
    assert checkpoint.code_fingerprint() == checkpoint._fingerprint(SRC)
    root = tmp_path / "repro"
    shutil.copytree(SRC, root,
                    ignore=shutil.ignore_patterns("__pycache__"))
    before = checkpoint._fingerprint(root)
    for rel, changes in (("serve/daemon.py", False), ("lab/core.py", False),
                         ("cli.py", False), ("harness/experiments.py", False),
                         ("sim/sm.py", True), ("core/adaptive.py", True),
                         ("lab/worker.py", True)):
        path = root / rel
        text = path.read_text()
        path.write_text(text + "\n# edited\n")
        after = checkpoint._fingerprint(root)
        path.write_text(text)
        assert (after != before) == changes, rel
