"""The readers in `cli.py` state each input rule as the rule: an entry is
unpacked into exactly the fields it must have, so no `except` clause catches
the `IndexError` or `KeyError` of an index that only implies the rule, and
`parse_state` splits a spec once, with no count of its fields."""

import ast
import pathlib

from stokesinv import cli

LOOKUP_ERRORS = {"IndexError", "KeyError", "LookupError"}


def _implied_rules(source: str) -> list:
    """(line, name) of every lookup error an `except` clause names, and of
    every `len` call in `parse_state`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            found += [(node.lineno, c.id) for c in caught if isinstance(c, ast.Name) and c.id in LOOKUP_ERRORS]
        elif isinstance(node, ast.FunctionDef) and node.name == "parse_state":
            found += [
                (c.lineno, "len") for c in ast.walk(node)
                if isinstance(c, ast.Call) and isinstance(c.func, ast.Name) and c.func.id == "len"
            ]
    return sorted(found)


def test_lint_flags_a_rule_put_back():
    source = (
        "def parse_state(spec):\n"
        '    parts = spec.split(":")\n'
        '    if parts[0] == "ghz" and len(parts) == 2:\n'
        "        return int(parts[1])\n"
        "def decode(x):\n"
        "    try:\n"
        "        return complex(x[0], x[1])\n"
        "    except (IndexError, KeyError, TypeError):\n"
        "        return None\n"
        "    except LookupError:\n"
        "        return None\n"
    )
    assert _implied_rules(source) == [(3, "len"), (8, "IndexError"), (8, "KeyError"), (10, "LookupError")]


def test_the_readers_state_their_rules():
    assert _implied_rules(pathlib.Path(cli.__file__).read_text()) == []
