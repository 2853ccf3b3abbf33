"""The package has no runtime dependencies: every absolute import in
src/univoque is from the standard library or from univoque itself."""

import ast
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
