"""What the documentation tells a reader to import exists.

Every ``import repro…`` / ``from repro… import …`` statement in a fenced
```` ```python ```` block of ``README.md`` or ``docs/*.md`` is run in a
fresh interpreter, so a name that moved or left the package root fails
here rather than in a reader's first session.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import List, Tuple

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
FENCE = re.compile(r"^```python\n(.*?)^```", re.M | re.S)

#: Runs each statement on its own and prints those that raised.
RUNNER = """
import json, sys
failed = []
for where, statement in json.loads(sys.stdin.read()):
    try:
        exec(statement, {})
    except Exception as exc:
        failed.append(f"{where}: {statement}: {type(exc).__name__}: {exc}")
print(json.dumps(failed))
"""


def _is_repro(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "repro"
    return (isinstance(node, ast.Import)
            and any(a.name.split(".")[0] == "repro" for a in node.names))


def documented_imports() -> List[Tuple[str, str]]:
    """(file:line, statement) of every repro import in a python block."""
    found = []
    for doc in DOCS:
        text = doc.read_text()
        for block in FENCE.finditer(text):
            first = text.count("\n", 0, block.start(1)) + 1
            for node in ast.walk(ast.parse(block.group(1), str(doc))):
                if _is_repro(node):
                    found.append((f"{doc.relative_to(ROOT)}:"
                                  f"{first + node.lineno - 1}",
                                  ast.unparse(node)))
    return found


def test_documented_imports_resolve():
    statements = documented_imports()
    assert len(statements) >= 10  # the fences were found
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", RUNNER],
                          input=json.dumps(statements), env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    failed = json.loads(proc.stdout)
    assert not failed, "documented imports that fail:\n" + "\n".join(failed)
