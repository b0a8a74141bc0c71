"""The reference oracles stay off the runtime surface: no runtime module of
the package imports `ordfuse.reference`, and `ordfuse/__init__.py` does not
re-export any name that `reference.py` defines."""

import ast
from pathlib import Path

import pytest

import ordfuse

PACKAGE = Path(ordfuse.__file__).parent
RUNTIME_MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "reference.py")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported_modules(tree: ast.Module):
    """Absolute names of every module, or module member, an import statement names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module
            else:  # relative imports inside the flat package resolve to ordfuse
                base = "ordfuse" + (f".{node.module}" if node.module else "")
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def _defined_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def _bound_names(tree: ast.Module) -> set[str]:
    names = _defined_names(tree)
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return names


@pytest.mark.parametrize("path", RUNTIME_MODULES, ids=lambda p: p.name)
def test_runtime_module_does_not_import_reference(path):
    offending = [
        name for name in _imported_modules(_parse(path))
        if name == "ordfuse.reference" or name.startswith("ordfuse.reference.")
    ]
    assert not offending, f"{path.name} imports {offending}"


def test_package_does_not_reexport_reference_names():
    reference_names = _defined_names(_parse(PACKAGE / "reference.py"))
    assert reference_names, "reference.py defines nothing"
    leaked = reference_names & _bound_names(_parse(PACKAGE / "__init__.py"))
    assert not leaked, f"ordfuse/__init__.py re-exports {sorted(leaked)}"


# Defined in a runtime module, referenced by no runtime module, and kept on
# purpose; each entry says who uses it.
UNREFERENCED_ALLOWED = {
    "concavity_check": "bench/worker.py checks every saved policy with it",
    "PolicyTable.load": "bench/worker.py loads every saved policy",
    "sample_participants": "bench/tracing.py traces it, and a traced function "
                           "that is missing fails a benchmark run",
    "participation_pmf": "bench/tracing.py traces it, and a traced function "
                         "that is missing fails a benchmark run",
}


def _definitions(tree: ast.Module):
    """(qualified name, name) of every top-level function and class and of
    every method other than the dunder methods Python calls implicitly."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name


def _referenced_names(tree: ast.Module) -> set[str]:
    """Every bare name and attribute name the module's code reads, except an
    attribute read off a name that `import X` binds: `json.load` or
    `np.sort` is no use of a method called `load` or `sort`."""
    modules = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names
    }
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not (
            isinstance(node.value, ast.Name) and node.value.id in modules
        ):
            names.add(node.attr)
    return names


def test_every_runtime_definition_is_referenced():
    # a re-export in __init__.py is not a use
    referenced = set().union(*(
        _referenced_names(_parse(p)) for p in RUNTIME_MODULES if p.name != "__init__.py"
    ))
    unreferenced = sorted(
        qualified
        for path in RUNTIME_MODULES
        for qualified, name in _definitions(_parse(path))
        if name not in referenced and qualified not in UNREFERENCED_ALLOWED
    )
    assert not unreferenced, f"nothing in the runtime references {unreferenced}"
