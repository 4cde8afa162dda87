"""The library's public names are all used outside the tests.

A top-level public name of `src/mapthermo` (function, class or constant not
starting with an underscore) counts as used when it appears as a word in
the package outside its own definition, in `scripts/`, in `perfbench/` or
in the README. A name that only the tests use belongs in the tests
(`tests/reference.py` holds the per-point references and test-only
helpers).
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mapthermo"


def _words(text: str) -> Counter:
    return Counter(re.findall(r"\w+", text))


def _definitions(path: Path) -> dict[str, tuple[int, int]]:
    """Top-level public names of a module and the line span defining each."""
    spans = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                             ast.Name):
            targets = [node.target.id]  # FAST_CHECKS, FULL_CHECKS
        else:
            continue
        start = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        for name in targets:
            if not name.startswith("_"):
                spans[name] = (start, node.end_lineno)
    return spans


def _outside_users() -> Counter:
    files = [ROOT / "README.md"]
    for folder in ("scripts", "perfbench"):
        files += [p for p in (ROOT / folder).rglob("*")
                  if p.is_file() and p.suffix in (".py", ".md", ".json")]
    words = Counter()
    for path in files:
        words += _words(path.read_text())
    return words


def test_every_public_name_is_used_outside_the_tests():
    modules = sorted(PACKAGE.glob("*.py"))
    package_words = Counter()
    for path in modules:
        package_words += _words(path.read_text())
    outside = _outside_users()
    test_only = []
    for path in modules:
        lines = path.read_text().splitlines()
        for name, (start, end) in _definitions(path).items():
            own = _words("\n".join(lines[start - 1:end]))[name]
            if package_words[name] - own == 0 and outside[name] == 0:
                test_only.append(f"{path.name}: {name}")
    assert not test_only, ("public names not used outside the tests (move "
                           "them to tests/reference.py): "
                           + ", ".join(test_only))
