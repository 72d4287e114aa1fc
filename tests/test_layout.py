"""Source-layout guards: the polynomial basis and dense operators stay where
they belong.

`fir.py` is the only module that builds a Vandermonde matrix, and only the
eigendecomposition and the exact-solve oracles may densify a shift operator;
everything else applies it through sparse shift products.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "graphfilt"
DENSE_ALLOWED = {
    "spectral.eigendecompose",
    "experiments.interpolation_matrix",
    "graphs.normality_defect",
}


def sources():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources under {SRC}"
    return paths


class DenseCalls(ast.NodeVisitor):
    """Dotted names of the scopes that call `.dense()`, one per call."""

    def __init__(self, module):
        self.scope = [module]
        self.found = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node):
        if isinstance(node.func, ast.Attribute) and node.func.attr == "dense":
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


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
    callers = []
    for path in sources():
        visitor = DenseCalls(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        callers += visitor.found
    assert set(callers) - DENSE_ALLOWED == set(), "apply shifts with shift_apply"
