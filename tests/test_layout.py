"""Source-layout guards: the polynomial basis, dense operators and the
least-squares solve stay where they belong.

`fir.py` is the only module that builds a Vandermonde matrix, only the
eigendecomposition and the eigenvalue solve may densify a shift operator
(everything else applies it through sparse shift products; the dense oracles
live in the tests), and `fir._gelsd`, under `fir._solve_real_lstsq` and its
stacked form, is the one caller of lstsq: the gelsd gufunc of numpy's
private `_umath_linalg`, which no other module names. The command line
reaches argparse through its public interface only.
"""

import argparse
import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "graphfilt"
DENSE_ALLOWED = {"spectral.eigendecompose", "spectral.eigenvalues"}
LSTSQ_ALLOWED = {"fir._gelsd"}


def sources():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources under {SRC}"
    return paths


class Calls(ast.NodeVisitor):
    """Dotted names of the scopes that call a function of a given name, one
    per call, whether it is called bare or as an attribute."""

    def __init__(self, module, name):
        self.scope = [module]
        self.name = name
        self.found = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if called == self.name:
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def callers(name):
    found = []
    for path in sources():
        visitor = Calls(path.stem, name)
        visitor.visit(ast.parse(path.read_text()))
        found += visitor.found
    return found


def test_vandermonde_is_built_once_in_fir():
    pattern = re.compile(r"\*\*\s*np\.arange\(")
    sites = [
        f"{path.name}:{lineno}"
        for path in sources()
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]
    assert len(sites) == 1 and sites[0].startswith("fir.py:"), (
        f"grid powers built at {sites}; use fir.vandermonde")


def test_dense_operator_only_in_oracles_and_eigendecomposition():
    assert set(callers("dense")) - DENSE_ALLOWED == set(), "apply shifts with shift_apply"


def test_lstsq_called_only_by_the_real_solve():
    assert callers("lstsq") == sorted(LSTSQ_ALLOWED), "solve with fir._solve_real_lstsq"


def test_private_linalg_named_only_in_fir():
    sites = [path.name for path in sources() if "_umath_linalg" in path.read_text()]
    assert sites == ["fir.py"], f"_umath_linalg named in {sites}; solve through fir"


def test_cli_names_no_private_argparse_attribute():
    private = {name for obj in (argparse, argparse.ArgumentParser(), argparse.Action(["-x"], "x"))
               for name in dir(obj) if name.startswith("_") and not name.endswith("__")}
    tree = ast.parse((SRC / "cli.py").read_text())
    named = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert named & private == set(), "parse with argparse's public interface"
