"""Double-point analysis of piecewise-linear circle maps.

Exact rational tooling for generic degree-d self-maps of the circle: their
fold structure, the double-point curve in the torus, parity invariants of
that curve, arc unfolding, Euler-graph resolutions, the catalog of finite
rotation groups acting freely on the 3-sphere, and certified disk movies
for families of disjoint circles.

The package exports every public name of its modules: each module's
``__all__`` is the one list of its public names.  ``import dpl`` loads none
of them.  A name loads on its first read (PEP 562): the modules are imported
in the order below until one lists it, and the package keeps what it found.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULES = ("circle_maps", "double_points", "space_forms", "sweeps", "unfolding")


def __getattr__(name: str):
    if name == "__all__":
        value = [n for m in _MODULES for n in import_module(f"{__name__}.{m}").__all__]
    elif name in _MODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        for m in _MODULES:
            module = import_module(f"{__name__}.{m}")
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    # every public name, read yet or not, so that dir() and help() list them
    return sorted({*globals(), *__getattr__("__all__")})
