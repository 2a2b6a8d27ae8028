"""Every function, method and import under ``src/repro`` is used.

A function or method counts as used when its name occurs, as a whole
word, anywhere in the repository's Python files besides its own
definitions: a call, an attribute read, a string a wrapper looks it up
by, or a docstring.  A name that occurs only where it is defined is dead
code.  A name a module imports must be read in that module; package
``__init__.py`` files are exempt, since their imports are re-exports.
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


def imported_names(tree):
    """``{name: line}`` for every name an import statement binds,
    ``from __future__`` imports excluded."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                names[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree):
    """Every annotation expression in the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def read_names(tree):
    """Every name the module reads, in code or in a quoted annotation
    (``Optional["CaptureModel"]``)."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                names.update(
                    name.id for name in ast.walk(quoted)
                    if isinstance(name, ast.Name)
                )
    return names


def test_every_import_is_used():
    unused = []
    for path in _python_files("src/repro"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = read_names(tree)
        unused += [
            f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported_names(tree).items()
            if name not in used
        ]
    assert not unused, "imported but never used: " + ", ".join(sorted(unused))
