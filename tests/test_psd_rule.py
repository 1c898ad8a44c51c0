"""`qstate.py` is the only home of the Hermitian and PSD rule: no other
package module calls a Hermitian eigensolver, `cli.py` reaches the rule
through `qstate.psd_part`, importing no private name and no tolerance, and
no function but `psd_part` reads the "psd" tolerance."""

import ast
import pathlib

import pytest

from stokesinv import cli, qstate

PACKAGE = pathlib.Path(qstate.__file__).parent
EIGENSOLVERS = {"eigh", "eigvalsh"}


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != pathlib.Path(qstate.__file__).name)


def _eigensolver_calls(source: str) -> list:
    """(line, name) of every call of `eigh` or `eigvalsh`, by attribute or by
    an imported name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in EIGENSOLVERS:
                found.append((node.lineno, name))
    return sorted(found)


def _private_or_tolerance_imports(source: str) -> list:
    """(line, name) of every imported name that starts with `_` or is
    `TOLERANCES`."""
    return [
        (node.lineno, a.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for a in node.names
        if a.name.startswith("_") or a.name == "TOLERANCES"
    ]


def test_lint_flags_a_line_put_back():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import eigh\n"
        "from .errors import TOLERANCES, check\n"
        "from .qstate import DensityMatrix, _check_psd, _hermitian_part\n"
        "def read(m):\n"
        '    """Calls eigvalsh once."""\n'
        "    least = np.linalg.eigvalsh(m)[0]\n"
        "    vals, vecs = eigh(m)\n"
        "    return np.linalg.eigvals(m)\n"
    )
    assert _eigensolver_calls(source) == [(7, "eigvalsh"), (8, "eigh")]
    assert _private_or_tolerance_imports(source) == [
        (3, "TOLERANCES"), (4, "_check_psd"), (4, "_hermitian_part"),
    ]


@pytest.mark.parametrize("path", _modules(), ids=lambda p: p.name)
def test_no_hermitian_eigensolver_outside_qstate(path):
    assert _eigensolver_calls(path.read_text()) == []


def test_cli_imports_no_private_name_and_no_tolerance():
    assert _private_or_tolerance_imports(pathlib.Path(cli.__file__).read_text()) == []


def _psd_tolerance_reads(source: str) -> list:
    """The enclosing function (or "<module>") of every `TOLERANCES["psd"]` read
    in `source`, by name or by attribute."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if (
            isinstance(node, ast.Subscript)
            and getattr(node.value, "id", getattr(node.value, "attr", None)) == "TOLERANCES"
            and isinstance(node.slice, ast.Constant)
            and node.slice.value == "psd"
        ):
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


def test_lint_flags_the_old_psd_ok_put_back():
    source = (
        "class DensityMatrix:\n"
        "    @property\n"
        "    def psd_ok(self) -> bool:\n"
        "        least = np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.conj().T))[0]\n"
        '        return bool(-least <= TOLERANCES["psd"])\n'
        "def clip(x):\n"
        '    return max(x, -errors.TOLERANCES["psd"], TOLERANCES["document"])\n'
    )
    assert _psd_tolerance_reads(source) == ["psd_ok", "clip"]


def test_psd_tolerance_is_read_only_in_psd_part():
    reads = {p.name: _psd_tolerance_reads(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: scopes for name, scopes in reads.items() if scopes} == {"qstate.py": ["psd_part"]}
