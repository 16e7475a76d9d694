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


def _private_definitions(tree: ast.Module) -> set:
    """The private names (one leading underscore) a module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {name.id for target in targets for name in ast.walk(target)
                      if isinstance(name, ast.Name)}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _reads(tree: ast.Module) -> set:
    """Every name a module reads: loaded names, attributes and names imported from elsewhere."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            | {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names})


def test_every_private_definition_is_read_somewhere_in_the_package():
    # a simplification that leaves a private helper, class or constant behind fails here
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(Path(sumkit.__file__).parent.glob("*.py"))}
    read = set().union(*(_reads(tree) for tree in trees.values()))
    unread = {(module, name) for module, tree in trees.items()
              for name in _private_definitions(tree) - read}
    assert unread == set()
