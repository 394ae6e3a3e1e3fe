"""No code in `src/zenosim` whose only caller is a test.

Every module-level function, class and constant of `src/zenosim/*.py` is
named somewhere in `src/` outside its own definition: read as a name, an
attribute (`gates.photon_h`), or a string equal to it (`getattr(gates,
name)` looks gates up by their names), unless `zenosim.__all__` exports
it.  An import is not a use, and neither is a reference from inside the
definition's own body.  `ALLOWED` lists the names kept on purpose without
a caller; the test also fails on an entry that has gained one, so the list
shrinks with the code.  The scan parses the eight modules once, in about
0.05 s of Tier-1.
"""

import ast
from collections import Counter
from pathlib import Path

import zenosim

_SRC = Path(zenosim.__file__).parent

# kept for the failure attribution that will call it (the norm deficit's
# split by cause)
ALLOWED = {"state.norm_deficit"}


def _defined(tree: ast.Module):
    """(name, definition node) of each module-level function, class and
    assigned name, dunders left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        yield name.id, name


def _named(node: ast.AST) -> Counter:
    """How often each identifier is named under `node`: as a name, an
    attribute or a whole string."""
    counts = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            counts[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            counts[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            counts[sub.value] += 1
    return counts


def unreferenced(sources: dict[str, str], exported: set[str]) -> set[str]:
    """`module.name` of each module-level definition in `sources` (module
    name -> source text) that no module names outside the definition
    itself and that `exported` does not hold."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    everywhere = sum(map(_named, trees.values()), Counter())
    return {f"{module}.{name}" for module, tree in trees.items()
            for name, node in _defined(tree)
            if name not in exported and everywhere[name] == _named(node)[name]}


def test_every_definition_has_a_caller_in_src():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(_SRC.glob("*.py"))}
    found = unreferenced(sources, set(zenosim.__all__))
    assert found - ALLOWED == set(), f"named only by their definitions: {sorted(found - ALLOWED)}"
    assert ALLOWED - found == set(), f"allowed, but now named in src: {sorted(ALLOWED - found)}"


def test_the_scan_sees_a_definition_named_only_by_itself_or_a_test():
    sources = {
        "a": "LIMIT = 3\n"
             "def used(): return LIMIT\n"
             "def recursive(n): return recursive(n - 1)\n"
             "def by_name(): pass\n"
             "class Exported: pass\n",
        "b": "from .a import by_name, recursive\n"
             "def caller(): return getattr(a, 'by_name'), a.used()\n",
    }
    assert unreferenced(sources, {"Exported", "caller"}) == {"a.recursive"}
