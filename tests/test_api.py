"""The package's public names are its modules' ``__all__`` lists, once each."""

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
