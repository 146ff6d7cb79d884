"""Guard against program code that only tests call.

Every function, method and class defined under ``src/passrecall`` must be
named somewhere in ``src/`` or ``bench/``: by a plain name, an attribute or
an import.  Dunder names are exempt, since Python calls them itself.

The check reads names only.  A method whose name other code uses for
something else passes it: a ``count`` method would pass beside
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


def _used_names() -> set[str]:
    used = set()
    for folder in ("src", "bench"):
        for _, tree in _trees(folder):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name.rpartition(".")[2])
    return used


def _definitions():
    """(path, node) of every function, method and class under src/passrecall."""
    for path, tree in _trees("src/passrecall"):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield path, node


def test_every_definition_is_named_outside_tests():
    used = _used_names()
    unused = [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path, node in _definitions()
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
        and node.name not in ALLOWLIST
    ]
    assert unused == []


def test_allowlisted_names_are_defined_and_unused():
    # An entry goes once code starts to use its name or the name is deleted.
    used = _used_names()
    defined = {node.name for _, node in _definitions()}
    for name in ALLOWLIST:
        assert name in defined and name not in used, name
