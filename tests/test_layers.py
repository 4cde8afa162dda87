"""The modules follow the layers: a model run never compiles the map-file
format.

`trajectory` holds the pipeline's maps and generators; `dynamics` holds
the column-stacked form of maps and the map-file format. Read as source:
no module but `validation` imports `dynamics` when it loads, and `cli`
imports it inside the functions that read map files only.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mapthermo"


def imports_dynamics(node: ast.AST) -> bool:
    """Whether `node` is an import statement that loads `dynamics`."""
    if isinstance(node, ast.ImportFrom):
        module = "." * node.level + (node.module or "")
        return module in (".dynamics", "mapthermo.dynamics") or (
            module in (".", "mapthermo")
            and any(alias.name == "dynamics" for alias in node.names))
    return isinstance(node, ast.Import) and any(
        alias.name == "mapthermo.dynamics" for alias in node.names)


def loading_nodes(tree: ast.Module):
    """The nodes a module runs when it loads: all but function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def parsed(name: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{name}.py").read_text())


def test_only_validation_imports_dynamics_when_it_loads():
    importers = [path.stem for path in sorted(PACKAGE.glob("*.py"))
                 if any(map(imports_dynamics,
                            loading_nodes(parsed(path.stem))))]
    assert importers == ["validation"]


def test_cli_imports_dynamics_inside_the_map_file_functions_only():
    tree = parsed("cli")
    assert not any(map(imports_dynamics, loading_nodes(tree)))
    importers = {node.name for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)
                 and any(map(imports_dynamics, ast.walk(node)))}
    assert importers == {"_map_path", "load_map_trajectory", "_cmd_map_info"}
