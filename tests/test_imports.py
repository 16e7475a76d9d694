"""Import hygiene: no module of the package imports a name it never uses."""

import ast
from pathlib import Path

import sumkit

# perfbench/layers.py wraps these module attributes by name, so their modules
# import them without calling them; they go once the package counts its own
# layers (ROADMAP item 6)
WRAPPED_BY_NAME = {
    ("methods", "adaptive_quadrature_batch"),
    ("regularity", "adaptive_quadrature_batch"),
    ("holo", "_adaptive"),
}


def _unused_imports(path: Path) -> set:
    """The names path's imports bind that no expression of the module reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names}
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export
    modules = [path for path in sorted(Path(sumkit.__file__).parent.glob("*.py"))
               if path.name != "__init__.py"]
    unused = {(path.stem, name) for path in modules for name in _unused_imports(path)}
    assert unused == WRAPPED_BY_NAME
