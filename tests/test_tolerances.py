"""The tolerance table in `stokesinv.errors` is the only home of a tolerance:
no small float literal elsewhere in the package, and no entry nothing reads."""

import ast
import math
import pathlib

import pytest

from stokesinv import errors
from stokesinv.errors import TOLERANCES, EnsembleAnnihilated, NonHermitianInput, check

PACKAGE = pathlib.Path(errors.__file__).parent
TABLE_MODULE = pathlib.Path(errors.__file__).name
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != TABLE_MODULE)


def _tolerance_literals(source: str) -> list:
    """(line, value) of every float constant with 0 < |value| <= 1e-6;
    docstrings are string constants, so they are not counted."""
    return [
        (node.lineno, node.value)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < abs(node.value) <= 1e-6
    ]


def test_lint_flags_a_literal_put_back():
    source = "def f(x):\n    '''within 1e-10'''\n    return x <= 1e-10 or x > -1e-8\n"
    assert _tolerance_literals(source) == [(3, 1e-10), (3, 1e-8)]


@pytest.mark.parametrize("path", _modules(), ids=lambda p: p.name)
def test_no_tolerance_literal_outside_the_table(path):
    assert _tolerance_literals(path.read_text()) == []


def _string_constants(source: str) -> set:
    """Every string constant in `source` but the docstrings: a name a
    docstring quotes is not read."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None
    }
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and id(node) not in docstrings
    }


def test_lint_ignores_a_name_only_a_docstring_quotes():
    source = (
        '"""Checks "hermitian"."""\n'
        "class C:\n"
        '    """Within "monogamy"."""\n'
        "    def f(self, x):\n"
        '        """Clamped below "psd"."""\n'
        '        return check("document", x)\n'
    )
    assert _string_constants(source) == {"document"}


def test_every_entry_is_read():
    read = set().union(*(_string_constants(p.read_text()) for p in _modules()))
    unread = [name for name in TOLERANCES if name not in read]
    assert unread == []


def test_tangle_range_admits_the_amplitude_norm_slack():
    """A pure document with |psi|^2 = 1 + d, which "amplitude_norm" accepts,
    has tangles up to (1 + d)^2."""
    assert TOLERANCES["tangle_range"] >= (1 + TOLERANCES["amplitude_norm"]) ** 2 - 1


def test_check_directions():
    check("psd", TOLERANCES["psd"], NonHermitianInput, "at the tolerance")
    with pytest.raises(NonHermitianInput, match="psd .*: x 1$"):
        check("psd", 1.0, NonHermitianInput, "x")
    check("annihilation", 1.0, EnsembleAnnihilated, "above the floor")
    with pytest.raises(EnsembleAnnihilated):
        check("annihilation", TOLERANCES["annihilation"], EnsembleAnnihilated, "at the floor")
    for name in ("psd", "annihilation"):
        with pytest.raises(NonHermitianInput):
            check(name, math.nan, NonHermitianInput, "nan")
