"""The package has no runtime dependencies: every absolute import in
src/univoque is from the standard library or from univoque itself.  Its
sources also keep one rule about where caller data is checked."""

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
    command line loads no `random`; only `table --format csv` writes csv,
    so it loads no `csv` either.  -S keeps site hooks out of the
    interpreter, so only the package's own import graph counts."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-S", "-c",
                           "import sys, univoque.cli; "
                           "print(sorted({'random', 'csv'} & set(sys.modules)))"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def _calls_by_scope(tree: ast.AST, name: str) -> list[str]:
    """The qualified scope of each call of `name`, bare or as an
    attribute (a method call)."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                   getattr(node.func, "attr", None)):
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_int_polynomial_checks_only_caller_data():
    """The checking constructor IntPolynomial(...) reads every coefficient
    with operator.index; it runs only where caller data enters
    (BetaValue.parse).  Every internal build, from coefficients that are
    already ints, takes IntPolynomial._trusted."""
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        calls += [(path.name, scope) for scope in _calls_by_scope(tree, "IntPolynomial")]
    assert calls == [("expansions.py", "BetaValue.parse")]


def test_one_reader_of_the_orbit_and_one_membership_loop():
    """Only GreedyExpansion._certified_prefix steps the orbit of 1
    (greedy_digits steps an orbit of its own x), and only the membership
    loop expansions._unique_necklaces runs the pruned necklace search;
    it and is_unique_expansion are the only callers of admits.  So each
    digit of 1 read, necklace searched and undecided word has one
    source."""
    calls = {"extend": [], "_pruned_necklaces": [], "admits": []}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for name, found in calls.items():
            found += sorted((path.name, scope) for scope in _calls_by_scope(tree, name))
    assert calls == {
        "extend": [("expansions.py", "GreedyExpansion._certified_prefix"),
                   ("expansions.py", "greedy_digits")],
        "_pruned_necklaces": [("expansions.py", "_unique_necklaces")],
        "admits": [("expansions.py", "_unique_necklaces"),
                   ("expansions.py", "is_unique_expansion")],
    }
