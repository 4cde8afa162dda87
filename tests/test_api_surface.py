"""The library's public names are all used outside the tests.

A top-level public name of `src/mapthermo` (function, class or constant not
starting with an underscore) counts as used when the package's code refers
to it outside its own definition (as a name, an attribute or an imported
name; a docstring or comment that mentions it does not count), and a public
method or property of one of its classes when the package's code reads it
as an attribute outside its definition; either also counts as used when it
appears as a word in `scripts/` or in `perfbench/`. A mention in the README
is not a use: a name that only the tests and the README use belongs in the
tests (`tests/reference.py` holds the per-point references and test-only
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


def _definitions(tree: ast.Module) -> dict[str, tuple[int, int]]:
    """Top-level public names of a module and the line span defining each."""
    spans = {}
    for node in tree.body:
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


def _members(tree: ast.Module) -> dict[str, tuple[str, int, int]]:
    """Public methods and properties of a module's top-level classes, by
    qualified name, with their name and the line span defining each."""
    spans = {}
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if (isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("_")):
                start = min([node.lineno] + [d.lineno for d in
                                             node.decorator_list])
                spans[f"{cls.name}.{node.name}"] = (node.name, start,
                                                    node.end_lineno)
    return spans


def _attribute_loads(tree: ast.Module) -> list[tuple[str, int]]:
    """Each attribute a module's code reads, with its line: the only way
    code uses a method or property (a name, a parameter or a keyword of the
    same spelling is not a use of it)."""
    return [(node.attr, node.end_lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)]


def _code_references(tree: ast.Module) -> list[tuple[str, int]]:
    """Each name a module's code reads, with its line: loaded names and
    attributes, and the names its imports bind."""
    refs = _attribute_loads(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.alias):
            refs.append((node.name, node.lineno))
    return refs


def _outside_users() -> Counter:
    files = []
    for folder in ("scripts", "perfbench"):
        files += [p for p in (ROOT / folder).rglob("*")
                  if p.is_file() and p.suffix in (".py", ".md", ".json")]
    words = Counter()
    for path in files:
        words += _words(path.read_text())
    return words


def _trees() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))}


def test_every_public_name_is_used_outside_the_tests():
    trees = _trees()
    definitions = {path: _definitions(tree) for path, tree in trees.items()}
    package_refs = Counter()
    for path, tree in trees.items():
        for name, line in _code_references(tree):
            start, end = definitions[path].get(name, (0, -1))
            if not start <= line <= end:
                package_refs[name] += 1
    outside = _outside_users()
    test_only = [f"{path.name}: {name}"
                 for path, spans in definitions.items() for name in spans
                 if package_refs[name] == 0 and outside[name] == 0]
    assert not test_only, ("public names not used outside the tests (move "
                           "them to tests/reference.py): "
                           + ", ".join(test_only))


def test_every_public_method_is_used_outside_the_tests():
    trees = _trees()
    refs = [(path, name, line) for path, tree in trees.items()
            for name, line in _attribute_loads(tree)]
    outside = _outside_users()
    test_only = []
    for path, tree in trees.items():
        for qualname, (name, start, end) in _members(tree).items():
            used = any(ref == name and not (where == path
                                            and start <= line <= end)
                       for where, ref, line in refs)
            if not used and outside[name] == 0:
                test_only.append(f"{path.name}: {qualname}")
    assert not test_only, ("public methods and properties not used outside "
                           "the tests (move them to tests/reference.py): "
                           + ", ".join(test_only))
