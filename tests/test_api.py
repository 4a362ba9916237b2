"""The package's public names are its modules' ``__all__`` lists, once each,
and its source holds no ``assert`` statement."""

import ast
import inspect
from pathlib import Path

import dpl
from dpl import circle_maps, double_points, space_forms, sweeps, unfolding

MODULES = (circle_maps, double_points, space_forms, sweeps, unfolding)


def test_package_exports_each_module_all_once():
    names = [name for m in MODULES for name in m.__all__]
    assert dpl.__all__ == names
    assert len(set(names)) == len(names)
    for m in MODULES:
        for name in m.__all__:
            assert getattr(dpl, name) is getattr(m, name), f"{m.__name__}.{name}"
    assert "make_event" in sweeps.__all__


def test_public_callables_take_no_private_parameters():
    for name in dpl.__all__:
        obj = getattr(dpl, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except ValueError:  # builtin exception classes carry no signature
            continue
        private = [p for p in params if p.startswith("_")]
        assert not private, f"{name} takes {private}"


def test_library_has_no_assert_statement():
    # ``python -O`` strips assert statements; a consistency check raises
    # AssertionError itself, so it runs under every flag
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(dpl.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_private_definition_is_used_in_the_library():
    # a private function, method, class or module constant that only the
    # tests read is a fork kept for their sake; a reference inside the
    # definition itself (recursion) does not count
    defined, used = [], []
    for path in sorted(Path(dpl.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node.name, path.name, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.append((node.id, path.name, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.append((node.attr, path.name, node.lineno))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for name in ast.walk(ast.Tuple(targets)):
                    if isinstance(name, ast.Name):
                        span = (path.name, node.lineno, node.end_lineno)
                        defined.append((name.id, *span))
    unused = [
        f"{file}:{first} {name}"
        for name, file, first, last in defined
        if name.startswith("_") and not name.startswith("__")
        if not any(
            n == name and not (f == file and first <= line <= last)
            for n, f, line in used
        )
    ]
    assert unused == []
