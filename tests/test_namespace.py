"""The package root binds its five modules and `__version__`, nothing else:
every function is reached through the one module that defines it; every
other package module uses each name it imports; every public name of a
library module is reached by the package or the benchmark workloads; every
exception class is raised somewhere in the package; and each state type holds
its array alone, reading its qubit count off it."""

import ast
import dataclasses
import pathlib

import pytest

from stokesinv import cli, qstate, stokes

INIT = pathlib.Path(cli.__file__).with_name("__init__.py")
MODULES = {"estimator", "measures", "qstate", "slocc", "stokes"}
WORKLOADS = INIT.parents[2] / "bench" / "workloads.py"


def _extra_bindings(source: str) -> list:
    """(line, name) of every top-level binding other than `from . import` of
    a package module under its own name and the `__version__` assignment."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            found += [(node.lineno, a.asname or a.name) for a in node.names if a.asname or a.name not in MODULES]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(node.lineno, a.asname or a.name) for a in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        else:
            stores = [n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
            found += [(node.lineno, name) for name in stores if name != "__version__"]
    return found


def _imported_modules(source: str) -> set:
    return {
        a.name
        for node in ast.parse(source).body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for a in node.names
    }


def test_lint_flags_a_re_export_put_back():
    source = (
        '"""Package docstring."""\n'
        "from . import estimator, measures, qstate, slocc, stokes\n"
        "from . import cli, stokes as st\n"
        "from .stokes import stokes_tensor\n"
        "from .qstate import SIGMA as PAULI\n"
        "import numpy\n"
        '__version__ = "0.1.0"\n'
        "minkowski_invariant = stokes.minkowski_invariant\n"
        "def spin_flip(rho):\n"
        "    return stokes.spin_flip(rho)\n"
    )
    assert _extra_bindings(source) == [
        (3, "cli"), (3, "st"), (4, "stokes_tensor"), (5, "PAULI"), (6, "numpy"),
        (8, "minkowski_invariant"), (9, "spin_flip"),
    ]


def test_init_binds_only_the_modules_and_version():
    source = INIT.read_text()
    assert _extra_bindings(source) == []
    assert _imported_modules(source) == MODULES


def _unused_imports(source: str) -> list:
    """(line, name) of every name an import binds that no expression reads;
    `from __future__` imports bind nothing."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [(line, name) for line, name in bound if name not in read]


def test_lint_flags_an_import_left_behind():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .stokes import (\n"
        "    minkowski_invariant,\n"
        "    spin_flip,\n"
        "    stokes_tensor,\n"
        ")\n"
        "def f(s):\n"
        '    """Calls spin_flip."""\n'
        "    return np.sum(minkowski_invariant(s))\n"
    )
    assert _unused_imports(source) == [(2, "os"), (4, "spin_flip"), (4, "stokes_tensor")]


@pytest.mark.parametrize(
    "path", sorted(p for p in INIT.parent.glob("*.py") if p != INIT), ids=lambda p: p.name
)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def _unreached(module: str, sources: dict) -> list:
    """(line, name) of every public top-level function, class or constant of
    `module` that no source in `sources` (file name -> text) reads: as a bare
    name in the module's own file, as `module.name`, or by `from .module import`."""
    used = set()
    for file_name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if file_name == module + ".py":
                    used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == module:
                    used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
                used |= {a.name for a in node.names}
    defined = []
    for node in ast.parse(sources[module + ".py"]).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return [(line, name) for line, name in defined if not name.startswith("_") and name not in used]


def test_lint_flags_a_name_put_back():
    sources = {
        "measures.py": (
            "from .qstate import partial_trace\n"
            "SCALE = 2.0\n"
            "def concurrence(rho):\n"
            "    return SCALE * partial_trace(rho, [1])\n"
            "def tangle_pure2(psi):\n"
            "    return concurrence(psi) ** 2\n"
            "def bipartite_tangle(psi, cut):\n"
            "    return 0.0\n"
            "def ckw_report(psi):\n"
            "    return {}\n"
        ),
        "qstate.py": "def partial_trace(rho, keep):\n    return rho\n",
        "cli.py": "from . import measures\nfrom .measures import bipartite_tangle\nmeasures.ckw_report\n",
        "workloads.py": "from stokesinv import measures\ntangle_pure2 = None\n",
    }
    assert _unreached("measures", sources) == [(5, "tangle_pure2")]
    assert _unreached("qstate", sources) == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_public_name_is_reached(module):
    sources = {p.name: p.read_text() for p in INIT.parent.glob("*.py")}
    sources[WORKLOADS.name] = WORKLOADS.read_text()
    assert _unreached(module, sources) == []


def _unraised(errors_source: str, sources) -> list:
    """(line, name) of every `StokesInvError` subclass of `errors_source` that
    no source in `sources` raises, as `raise X(...)` or `check(..., X, ...)`."""
    classes = {"StokesInvError"}
    defined = []
    for node in ast.parse(errors_source).body:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(b, ast.Name) and b.id in classes for b in node.bases
        ):
            classes.add(node.name)
            defined.append((node.lineno, node.name))
    raised = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                exc = node.exc.func
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check":
                exc = node.args[2] if len(node.args) > 2 else None
            else:
                continue
            if isinstance(exc, ast.Name):
                raised.add(exc.id)
    return [(line, name) for line, name in defined if name not in raised]


def test_lint_flags_an_exception_class_put_back():
    errors_source = (
        "class StokesInvError(Exception):\n    exit_code = 3\n"
        "class ParseError(StokesInvError):\n    exit_code = 2\n"
        "class BadStateName(ParseError):\n    pass\n"
        "class OutOfRange(StokesInvError):\n    pass\n"
        "class Dormant(StokesInvError):\n    pass\n"
        "class NotPositiveSemidefinite(StokesInvError):\n    pass\n"
        "class Unrelated(Exception):\n    pass\n"
    )
    sources = [
        'raise ParseError("bad")\n',
        'if x:\n    raise BadStateName("n < 1") from None\n',
        'check("psd", v, NotPositiveSemidefinite, "least")\n',
        "exc = OutOfRange()  # built, not raised\n",
        '"""raise Dormant("docstring")"""\n',
    ]
    assert _unraised(errors_source, sources) == [(7, "OutOfRange"), (9, "Dormant")]


def test_every_exception_class_is_raised():
    errors_path = INIT.with_name("errors.py")
    sources = [p.read_text() for p in INIT.parent.glob("*.py") if p != errors_path]
    assert _unraised(errors_path.read_text(), sources) == []


@pytest.mark.parametrize(
    "cls, array",
    [(qstate.PureState, "amplitudes"), (qstate.DensityMatrix, "matrix"), (stokes.StokesTensor, "values")],
    ids=lambda x: getattr(x, "__name__", x),
)
def test_each_state_type_takes_only_its_array(cls, array):
    assert [f.name for f in dataclasses.fields(cls) if f.init] == [array]
