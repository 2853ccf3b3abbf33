"""The package has no runtime dependencies: every absolute import in
src/univoque is from the standard library or from univoque itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "univoque"
ALLOWED = sys.stdlib_module_names | {"univoque"}


def test_imports_are_stdlib_or_univoque():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [f"{path.name}: {m}" for m in modules if m.split(".")[0] not in ALLOWED]
    assert outside == []


def test_cli_import_loads_no_random():
    """No module of the package draws random numbers, so importing the
    command line loads no `random`.  -S keeps site hooks out of the
    interpreter, so only the package's own import graph counts."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-S", "-c",
                           "import sys, univoque.cli; print('random' in sys.modules)"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")
