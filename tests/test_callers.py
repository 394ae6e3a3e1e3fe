"""No code in `src/zenosim` whose only caller is a test.

Every module-level function, class and constant of `src/zenosim/*.py` is
named somewhere in `src/` outside its own definition: read as a name, an
attribute (`gates.photon_h`), or a string equal to it (`getattr(gates,
name)` looks gates up by their names).  An import is not a use, and
neither is a reference from inside the definition's own body or a string
in `__all__`.  A name that `zenosim.__all__` exports passes also when
`bench/` names it (read the same way) or when README's code does (its
fenced blocks and inline code spans), since those are the library's
callers outside `src/`; a test never counts.  `ALLOWED` lists the names
kept on purpose without a caller; the test also fails on an entry that has
gained one, so the list shrinks with the code.  The scan parses the eight
modules and `bench/` once, in about 0.1 s of Tier-1.

The same scan holds `tests/helpers.py` to the tests: each of its
module-level definitions is named by a `tests/test_*.py` module, or by
`helpers.py` outside the definition itself.  Each module-level definition
of a `tests/test_*.py` module whose name does not start with `test_` is
named by a test module outside the definition itself, so that no part of a
retired reference, and no table whose tests went, stays behind.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import zenosim

_SRC = Path(zenosim.__file__).parent
_ROOT = Path(__file__).resolve().parents[1]

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


def _used(tree: ast.Module) -> Counter:
    """`_named` over a module, leaving out its `__all__` list."""
    return sum((_named(node) for node in tree.body
                if not (isinstance(node, ast.Assign)
                        and any(isinstance(t, ast.Name) and t.id == "__all__"
                                for t in node.targets))), Counter())


def unreferenced(sources: dict[str, str], exported: set[str], outside: Counter) -> set[str]:
    """`module.name` of each module-level definition in `sources` (module
    name -> source text) that no module names outside the definition
    itself, unless `exported` holds it and `outside` (the names that
    callers outside the sources use) counts it."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    everywhere = sum(map(_used, trees.values()), Counter())
    return {f"{module}.{name}" for module, tree in trees.items()
            for name, node in _defined(tree)
            if everywhere[name] == _named(node)[name]
            and not (name in exported and outside[name])}


def readme_code_names(text: str) -> Counter:
    """The identifiers in the fenced blocks and inline code spans of a
    markdown text."""
    code = re.findall(r"```.*?```|`[^`\n]+`", text, re.DOTALL)
    return Counter(re.findall(r"[A-Za-z_]\w*", "\n".join(code)))


def _outside_src() -> Counter:
    bench = (ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((_ROOT / "bench").glob("*.py")))
    return (sum(map(_named, bench), Counter())
            + readme_code_names((_ROOT / "README.md").read_text(encoding="utf-8")))


def test_every_definition_has_a_caller_in_src():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(_SRC.glob("*.py"))}
    found = unreferenced(sources, set(zenosim.__all__), _outside_src())
    assert found - ALLOWED == set(), f"named only by their definitions: {sorted(found - ALLOWED)}"
    assert ALLOWED - found == set(), f"allowed, but now named in src: {sorted(ALLOWED - found)}"


def _test_modules() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8")
            for path in sorted((_ROOT / "tests").glob("test_*.py"))}


def test_every_helper_has_a_caller_in_the_tests():
    # a test-side helper that no test module names, and that `helpers.py`
    # names only in its own definition, is left over from code that went
    text = (_ROOT / "tests" / "helpers.py").read_text(encoding="utf-8")
    tests = sum((_named(ast.parse(source)) for source in _test_modules().values()), Counter())
    defined = {name for name, _ in _defined(ast.parse(text))}
    found = unreferenced({"helpers": text}, defined, tests)
    assert found == set(), f"named by no test and only by their definitions: {sorted(found)}"


def test_every_test_module_definition_has_a_caller():
    # pytest calls a test module's `test_*` functions; any other definition
    # (a table, a helper, an `assert_*` check) that no test module names
    # outside its own definition is left over from code that went
    found = {name for name in unreferenced(_test_modules(), set(), Counter())
             if not name.partition(".")[2].startswith("test_")}
    assert found == set(), f"named only by their definitions: {sorted(found)}"


def test_the_scan_sees_a_definition_named_only_by_itself_or_a_test():
    sources = {
        "a": "LIMIT = 3\n"
             "def used(): return LIMIT\n"
             "def recursive(n): return recursive(n - 1)\n"
             "def by_name(): pass\n"
             "class Exported: pass\n"
             "def benched(): pass\n",
        "b": "from .a import by_name, recursive\n"
             "__all__ = ['Exported', 'benched', 'caller']\n"
             "def caller(): return getattr(a, 'by_name'), a.used()\n"
             "def private(): pass\n",
    }
    # `__all__` names `Exported` in src, which is no use; a caller outside
    # src counts for exported names only
    outside = Counter({"benched": 1, "caller": 1, "private": 1})
    assert unreferenced(sources, {"Exported", "benched", "caller"}, outside) == {
        "a.recursive", "a.Exported", "b.private"}


def test_readme_names_are_read_from_code_only():
    text = "run the demo\n\n```python\nx = qicz(s)\n```\nsee `zenosim.compare(p)` and run\n"
    assert readme_code_names(text) == Counter(
        {"x": 1, "qicz": 1, "s": 1, "python": 1, "zenosim": 1, "compare": 1, "p": 1})
