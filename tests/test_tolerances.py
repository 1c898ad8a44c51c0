"""The tolerance table in `stokesinv.errors` is the only home of a tolerance:
no small float literal elsewhere in the package, no entry nothing reads, and
no entry whose checks raise two exception classes, but for the two names
passed into `qstate`'s Hermitian and PSD rule, which checks both."""

import ast
import math
import pathlib

import pytest

from stokesinv import errors, qstate
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


def _raised_classes(source: str) -> dict:
    """Tolerance name -> the exception classes of the `check` calls in
    `source` that pass it as a string constant."""
    classes: dict = {}
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "check"
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            classes.setdefault(node.args[0].value, set()).add(ast.unparse(node.args[2]))
    return classes


def test_lint_flags_a_rule_with_two_classes():
    source = (
        'check("tangle_range", x, OutOfRange, "x")\n'
        'check("tangle_range", -t, IdentityViolation, "minus t")\n'
        'check(name, y, NonHermitianInput, "y")\n'
    )
    assert _raised_classes(source) == {"tangle_range": {"OutOfRange", "IdentityViolation"}}


def test_each_entry_raises_one_class():
    classes: dict = {}
    for path in _modules():
        for name, raised in _raised_classes(path.read_text()).items():
            classes.setdefault(name, set()).update(raised)
    assert {name: raised for name, raised in classes.items() if len(raised) > 1} == {}


def _scoped_calls(source: str) -> list:
    """(enclosing function's name, or "<module>"; call) of every call in `source`."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call):
            found.append((scope, node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


def _callee(call) -> str:
    return getattr(call.func, "id", getattr(call.func, "attr", ""))


def _passed_in_classes(source: str) -> dict:
    """Enclosing function -> the exception classes of the `check` calls in it
    whose tolerance name is passed in, not written as a string constant."""
    classes: dict = {}
    for scope, call in _scoped_calls(source):
        if _callee(call) != "check":
            continue
        name = call.args[0]
        if not (isinstance(name, ast.Constant) and isinstance(name.value, str)):
            classes.setdefault(scope, set()).add(ast.unparse(call.args[2]))
    return classes


def _names_passed_to(source: str, funcs) -> dict:
    """Function in `funcs` -> (caller, last argument: the tolerance name) of each call to it."""
    passed: dict = {}
    for scope, call in _scoped_calls(source):
        if _callee(call) in funcs:
            passed.setdefault(_callee(call), set()).add((scope, ast.unparse(call.args[-1])))
    return passed


# The checks whose tolerance name is a parameter: the Hermitian and PSD rule.
PASSED_IN = {"_hermitian_part": {"NonHermitianInput"}, "psd_part": {"NotPositiveSemidefinite"}}


def _merged(helper, *extra) -> dict:
    found: dict = {}
    for path in _modules():
        for key, items in helper(path.read_text(), *extra).items():
            found.setdefault(key, set()).update(items)
    return found


def test_passed_in_names_reach_two_checks():
    assert _merged(_passed_in_classes) == PASSED_IN


def test_only_psd_and_document_are_passed_in():
    # so "psd" and "document" each raise both classes: the anti-Hermitian
    # residue, then minus the least eigenvalue
    assert _merged(_names_passed_to, PASSED_IN) == {
        "_hermitian_part": {("psd_part", "name")},
        "psd_part": {("sqrt_psd", "'psd'"), ("state_from_json", "'document'")},
    }


def test_lint_flags_a_third_passed_in_check():
    source = pathlib.Path(qstate.__file__).read_text() + (
        "\ndef clamp(t, name):\n"
        "    check(name, -t, OutOfRange, 'minus t')\n"
        "    return psd_part(t, 'unimodular')\n"
    )
    assert _passed_in_classes(source) == dict(PASSED_IN, clamp={"OutOfRange"})
    assert ("clamp", "'unimodular'") in _names_passed_to(source, PASSED_IN)["psd_part"]


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
