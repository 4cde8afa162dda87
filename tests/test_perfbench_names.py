"""The names the benchmark harness (`perfbench/`) takes from the package
exist where it looks for them.

Tier-1 collects only `tests/`, so a refactor that moves a name perfbench
imports or wraps would pass here while every benchmark sample fails. The
harness is read as source, never imported or edited: its imports of
`mapthermo`, the `cli` attributes its traced run wraps (`_CLI_SPANS` in
`child.py`) and the other names `child.py` wraps or calls by name.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# what child.py wraps or calls by name beyond its imports and _CLI_SPANS
CHILD_NAMES = [
    ("mapthermo.dynamics", "read_map_file"),
    ("mapthermo.observables", "generator_splits"),
    ("mapthermo.observables", "cumulative_simpson"),
    ("mapthermo.observables", "ThermoPipeline.work_heat_observables"),
    ("mapthermo.observables", "ThermoPipeline.path_operator_series"),
    ("mapthermo.fluctuations", "FluctuationReport.check_invariants"),
]


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text())


def _imports() -> list[tuple[str, str, str]]:
    """(file, module, name) of every `from mapthermo... import name`."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(_tree(path.name)):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "mapthermo"):
                found += [(path.name, node.module, alias.name)
                          for alias in node.names]
    return found


def _cli_spans() -> list[str]:
    for node in _tree("child.py").body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "_CLI_SPANS"
                        for t in node.targets)):
            return [attr for attr, _ in ast.literal_eval(node.value)]
    raise AssertionError("child.py defines no _CLI_SPANS")


def _exists(module: str, dotted: str) -> bool:
    """Whether `dotted` names something in `module`, a submodule included."""
    try:
        obj = importlib.import_module(module)
        for part in dotted.split("."):
            if not hasattr(obj, part) and hasattr(obj, "__path__"):
                importlib.import_module(f"{obj.__name__}.{part}")
            obj = getattr(obj, part)
    except (ImportError, AttributeError):
        return False
    return True


def test_every_name_perfbench_takes_from_the_package_exists():
    imports, spans = _imports(), _cli_spans()
    assert imports and spans   # the harness was read
    wanted = (imports + [("child.py", "mapthermo.cli", attr) for attr in spans]
              + [("child.py", module, name) for module, name in CHILD_NAMES])
    missing = [f"{where}: {module}.{name}" for where, module, name in wanted
               if not _exists(module, name)]
    assert not missing, ("names the benchmark harness takes from the package "
                         "are gone: " + ", ".join(missing))
