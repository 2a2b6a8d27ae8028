"""Every function and method under ``src/repro`` is used somewhere.

A name counts as used when it occurs, as a whole word, anywhere in the
repository's Python files besides its own definitions: a call, an
attribute read, a string a wrapper looks it up by, or a docstring.  A
name that occurs only where it is defined is dead code.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "bench", "benchmarks", "examples")


def _python_files(top):
    return sorted((ROOT / top).rglob("*.py"))


def defined_names():
    """``{name: definitions}`` for every function and method under
    ``src/repro``, dunders excluded."""
    names = Counter()
    for path in _python_files("src/repro"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    names[name] += 1
    return names


def word_counts():
    """Whole-word occurrences of every identifier in the searched trees."""
    words = Counter()
    for top in SEARCHED:
        for path in _python_files(top):
            words.update(re.findall(r"\w+", path.read_text()))
    return words


def test_every_definition_is_named_elsewhere():
    defined = defined_names()
    assert len(defined) > 400  # the scan found the source tree
    words = word_counts()
    dead = sorted(
        name for name, count in defined.items() if words[name] <= count
    )
    assert not dead, f"defined but never used: {', '.join(dead)}"
