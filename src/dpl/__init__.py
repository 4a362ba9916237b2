"""Double-point analysis of piecewise-linear circle maps.

Exact rational tooling for generic degree-d self-maps of the circle: their
fold structure, the double-point curve in the torus, parity invariants of
that curve, arc unfolding, Euler-graph resolutions, the catalog of finite
rotation groups acting freely on the 3-sphere, and certified disk movies
for families of disjoint circles.

The package exports every public name of its modules: each module's
``__all__`` is the one list of its public names.
"""

from .circle_maps import *
from .double_points import *
from .space_forms import *
from .sweeps import *
from .unfolding import *

__version__ = "0.1.0"

__all__ = [
    *circle_maps.__all__,
    *double_points.__all__,
    *space_forms.__all__,
    *sweeps.__all__,
    *unfolding.__all__,
]
