"""`cli.py` is the only home of the JSON documents: no other package module
imports `json` or defines a document method; the library returns arrays and
dataclasses."""

import ast
import pathlib

import pytest

from stokesinv import cli

PACKAGE = pathlib.Path(cli.__file__).parent
DOCUMENT_METHODS = {"to_json_dict", "from_json_dict"}


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != pathlib.Path(cli.__file__).name)


def _document_code(source: str) -> list:
    """(line, name) of every `json` import and every function or method
    named like a document reader or writer."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name.split(".")[0] == "json"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json":
            found.append((node.lineno, node.module))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in DOCUMENT_METHODS:
            found.append((node.lineno, node.name))
    return found


def test_lint_flags_a_method_put_back():
    source = (
        "import json\n"
        "from json import dumps\n"
        "class Report:\n"
        '    """Its to_json_dict is gone."""\n'
        "    def to_json_dict(self):\n"
        "        return {}\n"
        "    @classmethod\n"
        "    def from_json_dict(cls, doc):\n"
        "        return cls()\n"
    )
    assert _document_code(source) == [(1, "json"), (2, "json"), (5, "to_json_dict"), (8, "from_json_dict")]


@pytest.mark.parametrize("path", _modules(), ids=lambda p: p.name)
def test_no_document_code_outside_the_cli(path):
    assert _document_code(path.read_text()) == []
