"""``linalg`` is the one owner of the factorizations that can break down,
and of the substitutions that solve with their factors.

Every generalized symmetric eigensolve goes through
``linalg.generalized_eigh`` and every Cholesky factorization through
``linalg.cholesky``, so each breakdown is raised as ``NotSPDError`` naming its
matrix in one place. Every triangular or Cholesky solve goes through
``linalg.CholeskyFactor.solve``, so the choice of kernel and of the
substitution's orientation is made in one place. A module that calls
``eigh``, a LAPACK Cholesky or a substitution itself fails here, with the
file, line and name in the message; a general solve (``np.linalg.solve``)
is not a substitution and stays allowed.

``linalg`` is also the one module that imports SciPy's private compiled
sparse kernels, and only the three it checks its inputs for.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "splinemg").glob("*.py"))
#: scipy/numpy names of a symmetric eigensolve, a Cholesky factorization
#: or a triangular or Cholesky substitution
OWNED = {"eigh", "eigvalsh", "dpbtrf", "dpotrf", "cho_factor",
         "cholesky_banded", "dpbtrs", "dpotrs", "dtbtrs", "dtrtrs", "dtbsv",
         "solve_banded", "solveh_banded", "cho_solve", "cho_solve_banded",
         "solve_triangular"}
FOREIGN = {"numpy.linalg", "scipy.linalg", "scipy.linalg.lapack"}


def _owned_uses(tree: ast.Module):
    """(line, name) of every read or import of an owned name, and of
    ``cholesky`` read from or imported out of numpy's or scipy's linalg."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in OWNED:
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute) and (node.attr in OWNED or (
                node.attr == "cholesky"
                and ast.unparse(node.value).endswith("linalg")
                and ast.unparse(node.value) != "linalg")):
            yield node.lineno, ast.unparse(node)
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.lineno, f"{node.module}.{alias.name}")
                        for alias in node.names if alias.name in OWNED or (
                            alias.name == "cholesky"
                            and node.module in FOREIGN))


def test_only_linalg_calls_eigh_or_a_lapack_cholesky():
    assert any(path.name == "linalg.py" for path in SOURCES)
    uses = [f"{path.name}:{line} uses {name}" for path in SOURCES
            if path.name != "linalg.py"
            for line, name in _owned_uses(ast.parse(path.read_text()))]
    assert uses == []


def test_the_rule_sees_every_form_of_a_call():
    source = ("import scipy.linalg\nimport numpy as np\n"
              "from scipy.linalg import eigh, cholesky\n"
              "from .linalg import cholesky as own\n"
              "scipy.linalg.eigh(a, b)\nnp.linalg.cholesky(a)\n"
              "lapack.dpbtrf(a)\nlinalg.cholesky(a)\n"
              "from scipy.linalg.lapack import dtbtrs\n"
              "from scipy.linalg import solveh_banded as banded\n"
              "lapack.dpbtrs(c, b)\nscipy.linalg.cho_solve(c, b)\n"
              "blas.dtbsv(c, b)\nsolve_triangular(l, b)\n"
              "np.linalg.solve(a, b)\n")
    assert sorted(_owned_uses(ast.parse(source))) == [
        (3, "scipy.linalg.cholesky"), (3, "scipy.linalg.eigh"),
        (5, "scipy.linalg.eigh"), (6, "np.linalg.cholesky"),
        (7, "lapack.dpbtrf"), (9, "scipy.linalg.lapack.dtbtrs"),
        (10, "scipy.linalg.solveh_banded"), (11, "lapack.dpbtrs"),
        (12, "scipy.linalg.cho_solve"), (13, "blas.dtbsv"),
        (14, "solve_triangular")]


#: SciPy's private compiled kernels that ``linalg.sparse_matvec`` and
#: ``linalg.csr_transpose`` call on arrays they check first; tests/test_linalg.py
#: holds each use to SciPy's public ``@`` or ``.T.tocsr()`` bit for bit
PRIVATE_SCIPY = {"scipy.sparse._sparsetools.csr_matvec",
                 "scipy.sparse._sparsetools.csr_tocsc",
                 "scipy.sparse._sparsetools.dia_matvec"}


def _private_scipy_uses(tree: ast.Module):
    """(line, name) of every import or read of a name out of a private
    SciPy module (a dotted part that starts with an underscore)."""
    def private(name):
        return name.split(".")[0] == "scipy" and any(
            part.startswith("_") for part in name.split("."))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and private(node.module or ""):
            yield from ((node.lineno, f"{node.module}.{alias.name}")
                        for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names
                        if private(alias.name))
        elif isinstance(node, ast.Attribute) and private(ast.unparse(node)) \
                and not private(ast.unparse(node.value)):
            yield node.lineno, ast.unparse(node)


def test_only_linalg_imports_scipys_private_kernels():
    uses = {path.name: {name for _, name in _private_scipy_uses(
        ast.parse(path.read_text()))} for path in SOURCES}
    assert uses.pop("linalg.py") == PRIVATE_SCIPY
    assert {name: found for name, found in uses.items() if found} == {}


def test_the_private_rule_sees_every_form_of_an_import():
    source = ("from scipy.sparse._sparsetools import dia_matvec\n"
              "import scipy.sparse._sparsetools as st\n"
              "scipy.sparse._sparsetools.csr_matvec(a)\n"
              "from scipy.sparse import csr_matrix\nimport scipy.sparse\n"
              "from ._private import x\n")
    assert sorted(_private_scipy_uses(ast.parse(source))) == [
        (1, "scipy.sparse._sparsetools.dia_matvec"),
        (2, "scipy.sparse._sparsetools"),
        (3, "scipy.sparse._sparsetools")]
