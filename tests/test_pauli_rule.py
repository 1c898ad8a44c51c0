"""`stokes.py` is the only home of the Pauli basis: no other package module
reads its private table `_SIGMA` or writes out a Pauli matrix, alone or in a
two-qubit Kronecker product, so sigma_y^xn is applied everywhere as
`stokes`'s signed index reversal."""

import ast
import itertools
import pathlib

import numpy as np
import pytest

from stokesinv import stokes

from oracles import PAULIS

PACKAGE = pathlib.Path(stokes.__file__).parent
TABLES = {"SIGMA", "_SIGMA"}
# sigma_1..sigma_3 and every two-qubit product but I x I, up to sign
PRODUCTS = [PAULIS[i] for i in range(1, 4)] + [
    np.kron(PAULIS[i], PAULIS[j]) for i, j in itertools.product(range(4), repeat=2) if i or j
]


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != pathlib.Path(stokes.__file__).name)


def _is_pauli_literal(node) -> bool:
    """A list or tuple display whose value is +-P for one of PRODUCTS."""
    try:
        m = np.array(ast.literal_eval(node), dtype=complex)
    except (ValueError, TypeError, SyntaxError):
        return False
    return any(m.shape == p.shape and np.array_equal(m, s * p) for p in PRODUCTS for s in (1, -1))


def _pauli_uses(source: str) -> list:
    """(line, what) of every read or import of a Pauli table by name and of
    every Pauli matrix or product written out as a literal."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in TABLES:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in TABLES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in TABLES]
        elif isinstance(node, (ast.List, ast.Tuple)) and _is_pauli_literal(node):
            found.append((node.lineno, "literal"))
    return sorted(found)


def test_lint_flags_the_dense_spin_flip_put_back():
    source = (
        "import numpy as np\n"
        "from .qstate import SIGMA, sqrt_psd\n"
        "from .stokes import _SIGMA, _parity_signs\n"
        "_FLIP2 = np.kron(SIGMA[2], SIGMA[2])\n"
        "_YY = np.kron(stokes._SIGMA[2], _SIGMA[2])\n"
        "_DENSE = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])\n"
        "_SY = np.array([[0, -1j], [1j, 0]])\n"
        "_EIG = np.array([[1, 1], [1j, -1j]])\n"
        "def flip(root):\n"
        '    """Not SIGMA but its reversal."""\n'
        "    return root[:, ::-1] * -_parity_signs(2)\n"
    )
    assert _pauli_uses(source) == [
        (2, "SIGMA"), (3, "_SIGMA"), (4, "SIGMA"), (4, "SIGMA"),
        (5, "_SIGMA"), (5, "_SIGMA"), (6, "literal"), (7, "literal"),
    ]


def test_the_lint_finds_the_table_in_stokes():
    uses = _pauli_uses(pathlib.Path(stokes.__file__).read_text())
    assert {what for _, what in uses} == {"_SIGMA", "literal"}


@pytest.mark.parametrize("path", _modules(), ids=lambda p: p.name)
def test_no_pauli_basis_outside_stokes(path):
    assert _pauli_uses(path.read_text()) == []
