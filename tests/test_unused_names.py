"""Guard against program code that only tests call.

Every function and class defined under ``src/passrecall`` must be named
somewhere in ``src/`` or ``bench/``: by a plain name, an attribute or an
import.  A method must be read there as an attribute, ``obj.name``, so a
parameter or a local that shares its name does not hide it.  Dunder names
are exempt, since Python calls them itself.

The check reads names only.  A method whose name other code reads as an
attribute of something else passes it: a ``count`` method would pass beside
``str.count``, and so would a function that only its own body calls.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Names defined for tests on purpose, each with its reason.
ALLOWLIST = {
    "from_streams": (
        "the reference scorer: it counts every stream through add_stream, "
        "and test_scorer checks corpus_scorer's shortcut tables against it"
    ),
}


def _trees(folder):
    for path in sorted((ROOT / folder).rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _used_names() -> dict[bool, set[str]]:
    """The names ``src/`` and ``bench/`` use, keyed by whether the
    definition is a method: a method's entry holds only attribute names."""
    names, attributes = set(), set()
    for folder in ("src", "bench"):
        for _, tree in _trees(folder):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
    return {False: names | attributes, True: attributes}


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions():
    """(path, node, is_method) of every function, method and class under
    src/passrecall."""
    for path, tree in _trees("src/passrecall"):
        methods = {
            child
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for child in node.body
            if isinstance(child, FUNCTIONS)
        }
        for node in ast.walk(tree):
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                yield path, node, node in methods


def test_every_definition_is_named_outside_tests():
    used = _used_names()
    unused = [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path, node, is_method in _definitions()
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used[is_method]
        and node.name not in ALLOWLIST
    ]
    assert unused == []


def test_allowlisted_names_are_defined_and_unused():
    # An entry goes once code starts to use its name or the name is deleted.
    used = _used_names()
    defined = {node.name: is_method for _, node, is_method in _definitions()}
    for name in ALLOWLIST:
        assert name in defined and name not in used[defined[name]], name
