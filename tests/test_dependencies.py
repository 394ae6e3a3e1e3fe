"""Every module that `src/zenosim`, `tests/` and `tools/` import is one of
the standard library's, the package's own, or a dependency that
`pyproject.toml` declares: numpy anywhere, and the test extras (pytest,
hypothesis) in `tests/` only, beside the test modules themselves.  The
imports are read from the source by `ast`, at top level or inside a
function, so an import that no test run reaches is read too."""

import ast
import re
import sys
import tomllib
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_PROJECT = tomllib.loads((_ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]


def _names(requirements: list[str]) -> set[str]:
    # "numpy>=2" -> "numpy"
    return {re.match(r"[\w.-]+", line).group().lower().replace("-", "_")
            for line in requirements}


_RUNTIME = {"zenosim"} | _names(_PROJECT["dependencies"])
# what each tree may import beyond the standard library
ALLOWED = {
    "src/zenosim": _RUNTIME,
    "tests": (_RUNTIME | _names(_PROJECT["optional-dependencies"]["test"])
              | {path.stem for path in (_ROOT / "tests").glob("*.py")}),
    "tools": _RUNTIME,
}


def imported(path: Path) -> set[str]:
    """The top-level names of the modules `path` imports; a relative import
    is its own package's, and names none."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.partition(".")[0])
    return found


@pytest.mark.parametrize("tree", sorted(ALLOWED))
def test_every_import_is_declared(tree):
    allowed = ALLOWED[tree] | set(sys.stdlib_module_names)
    files = sorted((_ROOT / tree).glob("*.py"))
    assert files
    strays = [f"{path.relative_to(_ROOT)}: {name}"
              for path in files for name in sorted(imported(path) - allowed)]
    assert not strays, strays
