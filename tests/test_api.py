"""The package's public names are its modules' ``__all__`` lists, once each."""

import inspect

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
