"""The property registry behind both ``dpl selftest`` and the test suite.

``PROPERTIES`` maps each name to ``check(seed) -> list[str]``: the claims
that failed on the inputs the check builds from ``seed`` alone, or an empty
list when the property holds.  A seed that ``dpl selftest`` lists under
``failing_seeds`` therefore reproduces as ``PROPERTIES[name](seed)``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from typing import Callable

from .circle_maps import (
    Angle,
    PLCircleMap,
    TransverseArc,
    classify_preimage,
    downward_pair_count,
    mod1,
    random_map,
    value_gaps,
)
from .double_points import arc_lift_check, double_point_curve
from .space_forms import (
    CATALOG,
    build_group,
    cover_realizable,
    dcover_consistency,
    involution_count,
)
from .sweeps import embedding_certificate, random_movie, validate_movie
from .unfolding import (
    UnfoldingBlocked,
    eliminate_negative_arcs,
    eulerian_resolution,
    pair_count_check,
    random_admissible_graph,
    trace_circuits,
)


def _rng(seed: int) -> random.Random:
    """A check's own draws.  ``random_map(seed, ...)`` seeds ``Random(seed)``
    itself, and sharing that stream would tie each draw to the map's degree."""
    return random.Random(f"dpl.properties {seed}")


def _failed(*claims: tuple[bool, str]) -> list[str]:
    return [claim for holds, claim in claims if not holds]


def _regular_value(f: PLCircleMap, rng: random.Random) -> Angle:
    y = Angle(Fraction(rng.randrange(97), 97))
    while not f.is_regular_value(y):
        y = y.plus(Fraction(1, 193))
    return y


def _regular_arc(f: PLCircleMap, rng: random.Random) -> TransverseArc:
    a = _regular_value(f, rng)
    b = a.plus(Fraction(rng.randrange(1, 9), 9))
    while not f.is_regular_value(b) or b == a:
        b = b.plus(Fraction(1, 193))
    return TransverseArc(a, b)


def fiber_degree(seed: int) -> list[str]:
    f = random_map(seed, 8, 3)
    y = _regular_value(f, _rng(seed))
    ok = f.signed_fiber_count(y) == f.degree
    return _failed((ok, f"the signed fiber over {y} counts the degree"))


def arc_balance(seed: int) -> list[str]:
    f, rng = random_map(seed, 8, 3), _rng(seed)
    claims = []
    for g in (f, f.reflect()):
        lo, width = rng.choice(value_gaps(g))
        in_gap = TransverseArc(Angle(lo + width / 3), Angle(lo + width * 2 / 3))
        for arc in (_regular_arc(g, rng), in_gap):
            cls = classify_preimage(g, arc)
            ok = cls.positive_count - cls.negative_count == g.degree
            claims.append((ok, f"components over {arc} balance to {g.degree}"))
    return _failed(*claims)


def curve_windings(seed: int) -> list[str]:
    f = random_map(seed, 8, 3)
    comps = double_point_curve(f).components
    arcs = [c for c in comps if c.kind == "arc"]
    even = all(c.p1_degree == c.p2_degree for c in comps if c.kind == "circle")
    return _failed(
        (len(arcs) == len(f.folds), "one arc component per fold"),
        (not any(c.p1_degree or c.p2_degree for c in arcs), "arcs do not wind"),
        (even or f.degree == 0, "circles wind equally around both factors"),
    )


def swap_pairing(seed: int) -> list[str]:
    curve = double_point_curve(random_map(seed, 6, 3))
    swap, comps = curve.swap_pairing, curve.components
    claims = []
    for c in comps:
        m = comps[swap[c.index]]
        flipped = (m.p1_degree, m.p2_degree) == (c.p2_degree, c.p1_degree)
        ok = flipped and swap[m.index] == c.index
        claims.append((ok, f"swap pairs {c.index} with {m.index} and back"))
    return _failed(*claims)


def closure_orientability(seed: int) -> list[str]:
    f = random_map(seed, 8, 3)
    closures = double_point_curve(f).closure_components
    return _failed(
        (2 * len(closures) == len(f.folds), "each closure joins two fold ends"),
        (all(cc.orientable for cc in closures), "every closure is orientable"),
    )


def _sweep_free_reach(f: PLCircleMap, arc: TransverseArc) -> bool:
    """Whether growing ``arc`` can bring its end onto a level with no full
    downward sweep: the end moves counterclockwise, short of the start.

    Written apart from ``unfolding._sweep_free_end_reachable`` on purpose:
    growth raises UnfoldingBlocked exactly when that function says False,
    and the checks below (and a test) hold that verdict against this one.
    """
    b, slack = arc.ccw_end.value, 1 - arc.width
    return any(
        mod1(lo - b) < slack or mod1(lo - b) + gw > 1
        for lo, gw in value_gaps(f)
        if downward_pair_count(f, lo + gw / 2) == 0
    )


def unfold_termination(seed: int) -> list[str]:
    f = random_map(seed, 6, 2)
    base = f if f.degree >= 0 else f.reflect()
    arc = _regular_arc(base, _rng(seed))
    if not _sweep_free_reach(base, arc):
        # every grown arc keeps a negative component; the default arc does not
        try:
            eliminate_negative_arcs(f, arc)
        except UnfoldingBlocked:
            arc = None
        else:
            return [f"{arc} unfolds, though no reachable end is sweep-free"]
    try:
        final, trace = eliminate_negative_arcs(f, arc)
    except UnfoldingBlocked as exc:
        return [f"unfolding is not blocked: {exc}"]
    cls, last = classify_preimage(base, final), trace.steps[-1]
    want = (0, base.degree)
    return _failed(
        (
            (cls.negative_count, cls.positive_count) == want,
            f"no negative and {base.degree} positive components over {final}",
        ),
        ((last.negative_count, last.positive_count) == want, "the trace ends there"),
    )


def pair_counts(seed: int) -> list[str]:
    f = random_map(seed, 6, 2)
    base = f if f.degree >= 0 else f.reflect()
    arc = _regular_arc(base, _rng(seed))
    if not _sweep_free_reach(base, arc):
        arc = None  # no grown arc unfolds (checked by unfold_termination)
    try:
        final, _ = eliminate_negative_arcs(base, arc)
    except UnfoldingBlocked as exc:
        return [f"unfolding is not blocked: {exc}"]
    ok = pair_count_check(base, final).ok
    return _failed((ok, f"pair counts match the fiber over {final}"))


def arc_lifting(seed: int) -> list[str]:
    lift = arc_lift_check(random_map(seed, _rng(seed).choice((6, 8)), 3))
    return _failed((not lift.violation, "every compact piece through an arc lifts"))


def euler_circuits(seed: int) -> list[str]:
    g = random_admissible_graph(seed, _rng(seed).randint(1, 9))
    claims = []
    for c in range(len(g.components)):
        res = eulerian_resolution(g, c)
        circuits = trace_circuits(g, res.pairing, c)
        edges = sorted(g.component_edges(c))
        ok = len(circuits) == 1 and sorted(circuits[0]) == sorted(res.circuit) == edges
        claims.append((ok, f"component {c} resolves into one circuit on its edges"))
    return _failed(*claims)


# Each catalog group's table is built and checked once per process; the
# suite's seeds draw from a few dozen (family, n).
_catalog_group = cache(build_group)


def group_tables(seed: int) -> list[str]:
    rng = _rng(seed)
    family = rng.choice(CATALOG)
    top = {"cyclic": 24, "binary_dihedral": 5}.get(family)
    g = _catalog_group(family, rng.randint(1, top) if top else None)
    odd = g.order % 2
    return _failed(
        (involution_count(g) == 1 - odd, f"{g.name}: one involution iff even order"),
        (cover_realizable(g) == odd, f"{g.name}: cover realizable iff odd order"),
    )


def cover_consistency(seed: int) -> list[str]:
    degree = _rng(seed).randint(1, 9)
    ok = dcover_consistency(degree).ok
    return _failed((ok, f"the degree-{degree} cover matches the group model"))


def movie_certificates(seed: int) -> list[str]:
    checked = validate_movie(random_movie(seed, max_events=10))
    report = embedding_certificate(checked)
    return _failed((report.ok, f"the disks stay disjoint: {report.failures}"))


PROPERTIES: dict[str, Callable[[int], list[str]]] = {
    check.__name__: check
    for check in (
        fiber_degree,
        arc_balance,
        curve_windings,
        swap_pairing,
        closure_orientability,
        unfold_termination,
        pair_counts,
        arc_lifting,
        euler_circuits,
        group_tables,
        cover_consistency,
        movie_certificates,
    )
}
