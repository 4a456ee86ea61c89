"""Package modules import only from lower layers."""
import ast
from pathlib import Path

import densiflock

# Lowest first; a module may import only from layers before its own.
LAYERS = [
    {"errors", "analytic"},
    {"domains"},
    {"dynamics"},
    {"graph"},
    {"integrate"},
    {"scenarios"},
    {"config"},
    {"cli"},
]
RANK = {name: rank for rank, layer in enumerate(LAYERS) for name in layer}
PACKAGE = Path(densiflock.__file__).parent


def _runtime_imports(tree):
    """Package modules named by relative imports outside `if TYPE_CHECKING:` blocks."""
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            node.body = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import module
                yield from (alias.name for alias in node.names)
            else:
                yield node.module.split(".")[0]


def test_imports_point_to_lower_layers():
    upward = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":  # the facade re-exports every layer
            continue
        tree = ast.parse(path.read_text())
        for target in _runtime_imports(tree):
            if RANK[target] >= RANK[path.stem]:
                upward.append(f"{path.stem} -> {target}")
    assert RANK.keys() == {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert upward == []
