"""Arc unfolding, balanced paths, pair counting, and Eulerian resolutions.

The centerpiece is :func:`eliminate_negative_arcs`: grow a transverse arc,
one fold-gap at a time, until its preimage has no negative components.  Each
growth step is witnessed by a balanced path - an embedded domain path from a
negative arc to a level-matched positive one along which the lift of the map
returns to its starting height.  Growth keeps the arcs nested, so the final
arc contains the initial one as an open subset.

Greedy growth is complete.  A step takes the first candidate arc with fewer
negative components that can still move its end onto a level with no full
downward sweep (two downward crossings of the level in a row).  A sweep pins
a negative component onto every arc ending at its level (Lemma A below), so
when no such level is reachable no grown arc unfolds, and the step raises
UnfoldingBlocked; the bundled generator rejects maps swept at every level.
While one is reachable the step never stalls, by this lemma.

Lemma.  Take regular levels b, b', s, a in counterclockwise order from b and
write N(x, y) for the number of negative components over the arc (x, y).  If
N(s, b') = 0, then N(a, b') + N(s, b) <= N(a, b).

Proof.  Lift the levels to s < a < b < b' < s + 1.  A negative component over
(x, y) is a domain stretch on which the lift falls from y to x inside (x, y).
A sweep at b' would give (s, b') one, so each downward crossing of b' starts
an excursion below b' that returns upward, and none reaches s (its fall from
b' to s would be one too).  A negative component over (a, b') starts at a
downward crossing of b', so it lies in one excursion; after its last crossing
of b it falls from b to a inside (a, b), a negative component over (a, b):
charge it there.  A negative component over (s, b) stays in (s, b), which
holds no lift of b', and it reaches s, so it lies off every excursion below
b'; it starts with a fall from b to a inside (a, b), again a negative
component over (a, b): charge it there.  Charges of one kind land on
distinct components, those of the first kind lie in excursions below b' and
those of the second do not, so no component is charged twice.

Consequence.  Let b' be a sweep-free level that the end of (a, b) can reach.
The excursions below b' bottom out above b' - 1, so a regular s just past b'
lies below all of them and short of a, and N(s, b') = 0.  If N(a, b) > 0,
the lemma leaves one of N(a, b'), N(s, b) below it (when one is not, the
other is zero).  Counts change only when an endpoint crosses a critical
value, and the candidates offer a new endpoint in each gap the arc can grow
into, on the near side of the other endpoint, so that arc's counts are a
candidate's.  A candidate matching (a, b') ends in the gap of b'; one
matching (s, b) keeps that gap within reach.  Either passes the step's guard.

Lemma A.  If a regular level y outside the arc (a, b) is swept, then
N(a, b) > 0.

Proof.  Take consecutive crossings x1 < x2 of y, both downward.  On [x1, x2]
the lift falls from a lift Y of y to Y - 1 and meets neither in between, so
it stays in [Y - 1, Y], which holds lifts A < B of a and b.  After its last
visit to B in [x1, x2] the lift stays below B, and up to its first visit to
A after that it stays above A: that stretch falls from b to a inside (a, b),
a negative component.

Consequences.  If N(a, b) = 0, every value gap meeting [b, a] is sweep-free
(a gap is open, so one holding b or a reaches past it, out of the arc).  So
an arc with no negative component keeps a sweep-free end in reach, and
passes the step's guard.  Growth never adds a negative component: one over a
wider arc falls through the lifts B and A of the narrower arc's ends, and
from its last visit to B up to its next visit to A it is one over the
narrower arc.  So every growth candidate of an unfolded arc is unfolded too,
and regular-value growth, which grows only unfolded arcs, is never blocked.

Lemma B.  On a map of degree d >= 0, take a negative component over (a, b)
ending at s, where the lift falls through a lift L of a.  Some positive
component starts in (s, s + 1) at lift level L.

Proof.  The lift is below L just after s and above L + d >= L just before
s + 1, so its last crossing p of L in (s, s + 1) is upward: p enters the arc
over a, and its component stays in (L, L + b - a) up to the next cut
q <= s + 1 (s + 1 is a cut).  It cannot leave over a, at L.  No crossing of
L lies in (p, s + 1), and at s + 1 either d > 0 and the lift is L + d,
outside that window, or d = 0 and the cut ends the negative component, which
entered over b.  So it leaves over b: a positive component at level L.  The
counterclockwise walk from s meets its start, so every negative component of
a growth step has a balanced path in that direction.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Union

from .circle_maps import (
    Angle,
    DuplicateVertexValue,
    EndpointNotRegular,
    InfeasibleParameters,
    NonIncreasingDomain,
    PLCircleMap,
    PreimageClassification,
    RationalLike,
    TransverseArc,
    UnfoldingBlocked,
    ZeroSlopeSegment,
    _as_angle,
    _grid_of,
    _lap_rows,
    _scaled,
    _sweep_free_gap,
    classify_preimage,
    frac,
    mod1,
    value_gaps,
)
from .double_points import _chains, _glued_pieces, _groups, double_point_curve

__all__ = [
    "NoOppositeArc",
    "PreconditionUnmet",
    "UnfoldingBlocked",
    "BalancedPath",
    "UnfoldStep",
    "UnfoldTrace",
    "find_balanced_path",
    "eliminate_negative_arcs",
    "PairCountRow",
    "PairCountReport",
    "pair_count_check",
    "IntervalPLMap",
    "IntervalMapPair",
    "make_interval_map",
    "CornerReport",
    "corner_connectivity",
    "EulerGraph",
    "build_euler_graph",
    "EulerResolution",
    "eulerian_resolution",
    "resolution_choices",
    "trace_circuits",
    "random_admissible_graph",
]


class NoOppositeArc(ValueError):
    """No opposite-sign arc balances the chosen one."""


class PreconditionUnmet(ValueError):
    """The operation's entry condition does not hold for this input."""


# --------------------------------------------------------------------------
# balanced paths


@dataclass(frozen=True)
class BalancedPath:
    """An embedded domain path pairing two opposite arcs at equal lift level.

    ``start_point``/``end_point`` are lift coordinates of the walk (the walk
    covers less than a full turn); ``direction`` is +1 for counterclockwise.
    ``one_sided`` records that the lift never crosses ``level`` strictly
    between the endpoints.
    """

    start_component: int
    end_component: int
    direction: int
    start_point: Fraction
    end_point: Fraction
    level: Fraction
    path_min: Fraction
    path_max: Fraction
    one_sided: bool
    skipped: tuple[int, ...]


def _lift_extrema(
    f: PLCircleMap, lo: Fraction, hi: Fraction
) -> tuple[Fraction, Fraction]:
    """Exact min and max of the lift over [lo, hi]."""
    (xs, ls), n, grid = f._ints, f.lap_count, f._grid
    low, high = sorted((f.lift_evaluate(lo), f.lift_evaluate(hi)))
    # vertex i of turn k sits at X_i + k D on the grid; those strictly
    # between lo D and hi D lie above its floor and below its ceiling
    bottom, top = f._step(lo), -f._step(-hi)
    turn = (bottom - xs[0]) // grid
    i, top = bisect_right(xs, bottom - turn * grid), top - turn * grid
    values = []
    while xs[i] < top:
        values.append(ls[i] + turn * f.degree * grid)
        i += 1
        if i > n:  # X_n is X_0 one turn on
            i, turn, top = 1, turn + 1, top - grid
    if values:
        low = min(low, Fraction(min(values), grid))
        high = max(high, Fraction(max(values), grid))
    return low, high


def _try_direction(
    f: PLCircleMap,
    cls: PreimageClassification,
    start_index: int,
    direction: int,
) -> BalancedPath | None:
    """The first balanced partner the walk from the component meets, if any.

    Components are disjoint and listed in domain order, so the walk from
    the component's far end (its end counterclockwise, its start clockwise)
    meets the others in cyclic index order, reversed clockwise.  It meets
    each one's near end at its listed position, a turn on for those it
    reaches by wrapping past an end of the list, shifted as the far end is
    into [x_0, x_0 + 1).
    """
    comps = cls.components
    comp = comps[start_index]
    opposite = "negative" if comp.kind == "positive" else "positive"
    far = comp.end if direction == 1 else comp.start
    s = f.to_fundamental(far)
    level = f.lift_evaluate(s)
    passed = []
    for k in range(1, len(comps)):
        j = start_index + k * direction
        idx = j % len(comps)
        other = comps[idx]
        if other.kind == opposite:
            near = other.start if direction == 1 else other.end
            pos = near + (s - far) + j // len(comps)
            if f.lift_evaluate(pos) == level:
                lo, hi = (s, pos) if direction == 1 else (pos, s)
                path_min, path_max = _lift_extrema(f, lo, hi)
                return BalancedPath(
                    start_component=start_index,
                    end_component=idx,
                    direction=direction,
                    start_point=s,
                    end_point=pos,
                    level=level,
                    path_min=path_min,
                    path_max=path_max,
                    one_sided=(path_max <= level) or (path_min >= level),
                    skipped=tuple(sorted(passed)),
                )
        if other.kind in ("positive", "negative"):
            passed.append(idx)
    return None


def find_balanced_path(
    f: PLCircleMap,
    arc: TransverseArc,
    start_index: int,
    classification: PreimageClassification | None = None,
) -> BalancedPath:
    """First-occurrence balanced partner for the chosen arc component.

    Scans counterclockwise first, then clockwise.  For a negative component
    of a map with nonnegative degree the counterclockwise scan always
    succeeds (Lemma B in the module docstring).  ``classification`` is used
    only if it was made for the arc traversed counterclockwise; otherwise
    the arc is classified again.
    """
    canonical = TransverseArc(arc.ccw_start, arc.ccw_end)
    cls = classification
    if cls is None or cls.arc != canonical:
        cls = classify_preimage(f, canonical)
    comp = cls.components[start_index]
    if comp.kind not in ("positive", "negative"):
        raise PreconditionUnmet(f"component {start_index} is {comp.kind}, not an arc")
    opposite = "negative" if comp.kind == "positive" else "positive"
    if not any(c.kind == opposite for c in cls.components):
        raise NoOppositeArc("no opposite-sign arcs exist")
    for direction in (1, -1):
        path = _try_direction(f, cls, start_index, direction)
        if path is not None:
            return path
    raise NoOppositeArc("no opposite-sign arc balances at the required lift level")


# --------------------------------------------------------------------------
# unfolding


@dataclass(frozen=True)
class UnfoldStep:
    arc: TransverseArc
    negative_count: int
    positive_count: int
    path: BalancedPath | None
    extended_start: Angle | None
    extended_end: Angle | None


@dataclass(frozen=True)
class UnfoldTrace:
    """Nested arcs with their counts; negative counts sink to zero and stay."""

    steps: tuple[UnfoldStep, ...]
    final_arc: TransverseArc
    mode: str
    reflected: bool

    def __post_init__(self) -> None:
        # every arc's counterclockwise ends as ints over one common denominator
        arcs = [(s.arc.ccw_start.value, s.arc.ccw_end.value) for s in self.steps]
        grid = _grid_of(arcs)
        starts, ends = _scaled(arcs, grid)
        for t, (prev, cur) in enumerate(zip(self.steps, self.steps[1:])):
            if prev.negative_count > 0 and cur.negative_count >= prev.negative_count:
                raise AssertionError("negative count failed to decrease")
            # from cur's start, prev's start and then prev's end come no later
            # than cur's end, all counterclockwise
            p0, c0 = starts[t], starts[t + 1]
            if (p0 - c0) % grid + (ends[t] - p0) % grid > (ends[t + 1] - c0) % grid:
                raise AssertionError("trace arcs are not nested")


Candidate = tuple[Fraction, str, Fraction]  # (width, side, new endpoint)


def _growth_candidates(
    f: PLCircleMap, arc: TransverseArc, side: str
) -> Iterator[Candidate]:
    """Wider arcs moving one endpoint past a fold residue, narrowest first.

    A ``start`` candidate for residue r places the new start just below r
    (halfway into the gap underneath, capped so the width stays below one);
    any negative component whose exit slide bottoms out at r turns neutral
    once the start clears r.  ``end`` candidates mirror this above r.  Each
    candidate point lies in the gap next to its own residue, so no two
    residues offer the same arc.

    Candidates are made on demand, in width order.  The start side walks
    the residues clockwise from the one below the start, through the part
    of the circle outside the arc, and stops at the first residue inside
    the arc.  Each step of the walk adds a whole gap to the distance from
    r to the end, while the new start sits at most half of the gap below
    r, so widths rise strictly along the walk.  The end side mirrors this,
    walking counterclockwise from the residue above the end.

    The first residue inside the arc could offer a wider arc too, when its
    half gap clears the endpoint; it is left out.  Its new endpoint stays
    in the endpoint's own value gap, so no component changes kind and the
    count it offers is the arc's own.  Nor is such a start ever the first
    one wider than a balanced path's ``need``: the path's lift turns at a
    fold value at or below the floor of the start's gap.
    """
    a, b = arc.ccw_start.value, arc.ccw_end.value
    residues, widths, _ = f._level_table
    n, grid = len(residues), f._grid
    # The arc's grid Q holds both ends and every residue; a new point, half
    # a gap from its residue, lies on the grid 2Q.
    Q = math.lcm(grid, a.denominator, b.denominator)
    A, B = a.numerator * Q // a.denominator, b.numerator * Q // b.denominator
    s, w, two = Q // grid, (B - A) % Q, 2 * Q
    grow_end = side == "end"
    # the residue just below the endpoint that moves
    below = bisect_right(residues, (B if grow_end else A) // s) - 1
    for step in range(n):
        k = (below + 1 + step if grow_end else below - step) % n
        r = residues[k] * s
        if grow_end:
            reach = (r - A) % Q
            delta = min(widths[k] * s, Q - reach)
            point = 2 * r + delta
        else:
            reach = (B - r) % Q
            delta = min(widths[k - 1] * s, Q - reach)
            point = 2 * r - delta
        if reach < w:  # the residue lies inside the arc
            return
        yield Fraction(2 * reach + delta, two), side, Fraction(point % two, two)


def _candidate_order(
    f: PLCircleMap, arc: TransverseArc, need: Fraction
) -> Iterator[Candidate]:
    """The first start candidate wider than ``need``, then the narrower
    start candidates and the end candidates, narrowest first.

    Only the start candidates up to it are made before it, and the end
    candidates on demand.  Wider start candidates are never made.  The
    first pick's start lies below the lowest value of the balanced path
    that ``need`` measures, so that path's negative component turns
    neutral, and by Lemma A no new one comes: it always has fewer negative
    components.  The step's guard can refuse it only for want of a
    sweep-free end in reach, and a wider start leaves the end less room.
    """
    starts = _growth_candidates(f, arc, "start")
    passed = []
    for cand in starts:
        if cand[0] > need:
            yield cand
            break
        passed.append(cand)
    yield from heapq.merge(passed, _growth_candidates(f, arc, "end"))


def _candidate_arc(
    arc: TransverseArc, side: str, point: Fraction
) -> TransverseArc:
    if side == "start":
        return TransverseArc(Angle(point), arc.ccw_end)
    return TransverseArc(arc.ccw_start, Angle(point))


def _sweep_free_end_reachable(f: PLCircleMap, arc: TransverseArc) -> bool:
    """Whether the arc's end can grow onto a level with no full downward sweep.

    The end moves counterclockwise, short of the start.  False means the
    arc and every grown arc keep a negative component (Lemma A in the
    module docstring), so a growth step never accepts such a candidate.
    """
    residues, _, sweeps = f._level_table
    a, b = arc.ccw_start.value, arc.ccw_end.value
    # The crossing word is constant on a gap, so the part of b's own gap
    # above b is swept like b; the gaps of the residues passed on the way
    # to a are entered at their low ends.
    above = bisect_right(residues, f._step(b))
    passed = bisect_right(residues, f._step(a)) - above + (a < b) * len(residues)
    return any(sweeps[(above + i) % len(sweeps)] == 0 for i in range(-1, passed))


def _plain_eliminate(
    f: PLCircleMap, arc: TransverseArc
) -> tuple[TransverseArc, list[UnfoldStep], PreimageClassification]:
    """The grown arc, the steps taken and the grown arc's classification.

    Each step classifies candidates, made on demand in the order of
    :func:`_candidate_order`, and takes the first with fewer negative
    components that keeps a sweep-free end in reach.  ``need`` asks for a
    start below the lowest value of the balanced path that witnesses the
    first negative component; Lemma B says that path exists.  The reach
    guard is needed: a first pick can lower the count and still leave no
    sweep-free end in reach, and growth from there would stall.
    """
    cur = TransverseArc(arc.ccw_start, arc.ccw_end)
    cls = classify_preimage(f, cur)
    steps: list[UnfoldStep] = []
    while cls.negative_count > 0:
        start_index = next(
            i for i, c in enumerate(cls.components) if c.kind == "negative"
        )
        path = _try_direction(f, cls, start_index, 1)
        need = cur.width + (path.level - path.path_min)
        for _, side, point in _candidate_order(f, cur, need):
            cand = _candidate_arc(cur, side, point)
            new_cls = classify_preimage(f, cand)
            if (
                new_cls.negative_count < cls.negative_count
                and _sweep_free_end_reachable(f, cand)
            ):
                break
        else:
            # the module's first lemma: a stall means no sweep-free end is in reach
            assert not _sweep_free_end_reachable(f, cur), "greedy growth stalled"
            raise UnfoldingBlocked(
                "every reachable end position is crossed by a full downward sweep"
            )
        steps.append(
            UnfoldStep(
                arc=cur,
                negative_count=cls.negative_count,
                positive_count=cls.positive_count,
                path=path,
                extended_start=cand.start if cand.start != cur.start else None,
                extended_end=cand.end if cand.end != cur.end else None,
            )
        )
        cur, cls = cand, new_cls
    steps.append(UnfoldStep(cur, 0, cls.positive_count, None, None, None))
    return cur, steps, cls


def _default_arc(f: PLCircleMap) -> TransverseArc:
    """A short arc placed inside the first sweep-free fold-value gap."""
    gap = _sweep_free_gap(f)
    if gap is None:
        raise UnfoldingBlocked(
            "every level of the target circle is crossed by a full downward sweep"
        )
    lo, gw = gap
    return TransverseArc(Angle(lo + gw * 3 / 8), Angle(lo + gw * 5 / 8))


def _arc_around(f: PLCircleMap, z: Angle) -> TransverseArc:
    if f.fold_free:
        return TransverseArc(z.plus(Fraction(-1, 4)), z.plus(Fraction(1, 4)))
    for r, gw in value_gaps(f):
        nxt = r + gw
        zv = r + mod1(z.value - r)
        if r < zv < nxt:
            return TransverseArc(Angle((r + zv) / 2), Angle((zv + nxt) / 2))
    raise EndpointNotRegular(f"{z} is a critical value")


def _blocking_neutrals(
    cls: PreimageClassification, fiber: tuple[Fraction, ...]
) -> list[int]:
    """Indices of the neutral components of ``cls`` that meet ``fiber``."""
    out = []
    for x in fiber:
        comp = cls.component_containing(x)
        if comp is not None and comp.kind == "neutral":
            idx = cls.components.index(comp)
            if idx not in out:
                out.append(idx)
    return out


def eliminate_negative_arcs(
    f: PLCircleMap,
    arc: TransverseArc | None = None,
    mode: str = "plain",
    value: Union[RationalLike, Angle, None] = None,
) -> tuple[TransverseArc, UnfoldTrace]:
    """Grow the arc until its preimage has no negative components.

    When no arc is given, a short one is placed inside a sweep-free fold
    gap, where growth is guaranteed to finish.  The grown arc always
    contains the original one as an open subset.  Modes:

    - ``plain`` grows ``arc``, or the default arc, until no component is
      negative;
    - ``regular-value`` ignores ``arc``, builds the initial arc around
      ``value`` and keeps growing until every component meeting that
      value's fiber is a positive arc or a circle.

    Maps of negative degree are handled through the orientation-reversing
    change of domain coordinate x -> -x: the trace is computed for the
    reflected map (flag ``reflected``), path witnesses are reported back in
    the original coordinates, and target-side arcs need no translation.
    """
    if mode not in ("plain", "regular-value"):
        raise ValueError(f"unknown mode {mode!r}")
    if f.degree < 0:
        final_arc, trace = eliminate_negative_arcs(f.reflect(), arc, mode, value)
        steps = tuple(replace(s, path=_reflect_path(s.path)) for s in trace.steps)
        return final_arc, UnfoldTrace(steps, final_arc, mode, reflected=True)

    if mode == "regular-value":
        if value is None:
            raise InfeasibleParameters("regular-value mode needs a value")
        z = _as_angle(value)
        cur, steps, cls = _plain_eliminate(f, _arc_around(f, z))
        # A neutral component enters and leaves the arc over one endpoint,
        # so it holds a local extremum of the lift, which is a fold: there
        # are at most lap_count blockers.  Each round strictly lowers their
        # number, so the loop ends within lap_count + 1 rounds.
        fiber = f.fiber(z)
        blockers = _blocking_neutrals(cls, fiber)
        while blockers:
            side_value = cls.components[blockers[0]].endpoint_values[0]
            grow_start = side_value == cur.ccw_start
            want = "start" if grow_start else "end"
            for _, side, point in _growth_candidates(f, cur, want):
                cand = _candidate_arc(cur, side, point)
                # growing the unfolded cur adds no negative component (see the
                # consequences of Lemma A), so the candidate is unfolded as is
                cand_cls = classify_preimage(f, cand)
                cand_blockers = _blocking_neutrals(cand_cls, fiber)
                if len(cand_blockers) < len(blockers):
                    grown = (cand.start, None) if grow_start else (None, cand.end)
                    counts = (cand_cls.negative_count, cand_cls.positive_count)
                    # cur ends the steps so far; its step now carries the extension
                    steps[-1] = UnfoldStep(cur, 0, cls.positive_count, None, *grown)
                    steps.append(UnfoldStep(cand, *counts, None, None, None))
                    cur, cls, blockers = cand, cand_cls, cand_blockers
                    break
            else:
                raise UnfoldingBlocked(
                    "no extension frees the regular value from neutral components"
                )
        return cur, UnfoldTrace(tuple(steps), cur, mode, reflected=False)

    if arc is None:
        arc = _default_arc(f)
    cur, steps, _ = _plain_eliminate(f, arc)
    return cur, UnfoldTrace(tuple(steps), cur, mode, reflected=False)


def _reflect_path(path: BalancedPath | None) -> BalancedPath | None:
    """Translate a path witness back through the domain reflection x -> -x."""
    if path is None:
        return None
    return replace(
        path,
        direction=-path.direction,
        start_point=-path.start_point,
        end_point=-path.end_point,
    )


# --------------------------------------------------------------------------
# pair counting on an unfolded arc


@dataclass(frozen=True)
class PairCountRow:
    component: int
    expected: int
    actual: int


@dataclass(frozen=True)
class PairCountReport:
    base_value: Angle
    fiber_points: tuple[Fraction, ...]
    rows: tuple[PairCountRow, ...]
    ok: bool
    classification: PreimageClassification


def pair_count_check(f: PLCircleMap, arc: TransverseArc) -> PairCountReport:
    """First-projection winding equals the count of marked pairs, per component.

    The arc must be unfolded: exactly deg(f) positive components and no
    negative ones.  Pick the preimages x_1 < x_2 < ... of the arc's start on
    the positive components; each ordered pair (x_1, x_i) is a point of the
    double-point curve, and each component must carry exactly its winding's
    worth of them (open arcs: none).  The report keeps the arc's
    classification.
    """
    if f.degree < 0:
        raise PreconditionUnmet("reflect the map to nonnegative degree first")
    canonical = TransverseArc(arc.ccw_start, arc.ccw_end)
    cls = classify_preimage(f, canonical)
    if cls.negative_count != 0 or cls.positive_count != f.degree:
        raise PreconditionUnmet(
            f"need exactly deg(f)={f.degree} positive components and no negative "
            f"ones; got p={cls.positive_count}, m={cls.negative_count}"
        )
    curve = double_point_curve(f)
    entries = sorted(c.start for c in cls.components if c.kind == "positive")
    counts = {c.index: 0 for c in curve.components}
    if entries:
        x1 = entries[0]
        l1 = f.lift_evaluate(x1)
        lap1 = f.lap_of(x1)
        for xi in entries[1:]:
            k = l1 - f.lift_evaluate(xi)
            if k.denominator != 1:
                raise AssertionError("pair levels differ by a non-integer")
            idx = curve.component_of_segment_key((lap1, f.lap_of(xi), int(k)))
            counts[idx] += 1
    rows = tuple(
        PairCountRow(c.index, c.p1_degree, counts[c.index]) for c in curve.components
    )
    return PairCountReport(
        base_value=canonical.start,
        fiber_points=tuple(entries),
        rows=rows,
        ok=all(r.expected == r.actual for r in rows),
        classification=cls,
    )


# --------------------------------------------------------------------------
# interval map pairs and corner connectivity


@dataclass(frozen=True)
class IntervalPLMap:
    """A PL map between intervals, stored like the circle maps minus the wrap.

    Instances come from :func:`make_interval_map`, which straightens every
    run of same-sign laps, or from ``_with_collar``, which keeps those inner
    breakpoints; so every inner breakpoint is a fold.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]

    @cached_property
    def interior_fold_values(self) -> frozenset[Fraction]:
        return frozenset(v for _, v in self.breakpoints[1:-1])

    def _rows(self, grid: int) -> list[tuple]:
        """:func:`~dpl.circle_maps._lap_rows` on a grid that holds every breakpoint."""
        xs = [x for x, _ in self.breakpoints]
        return _lap_rows(xs, *_scaled(self.breakpoints, grid), grid)


def make_interval_map(
    breakpoints: Iterable[tuple[RationalLike, RationalLike]],
) -> IntervalPLMap:
    pts = [(frac(x), frac(v)) for x, v in breakpoints]
    if len(pts) < 2:
        raise NonIncreasingDomain("need at least the two endpoint breakpoints")
    if any(b[0] <= a[0] for a, b in zip(pts, pts[1:])):
        raise NonIncreasingDomain("breakpoint positions must strictly increase")
    signs = []
    for a, b in zip(pts, pts[1:]):
        dv = b[1] - a[1]
        if dv == 0:
            raise ZeroSlopeSegment(f"segment starting at {a[0]} has zero slope")
        signs.append(1 if dv > 0 else -1)
    keep = [pts[0]] + [
        pts[i] for i in range(1, len(pts) - 1) if signs[i - 1] != signs[i]
    ] + [pts[-1]]
    lo, hi = keep[0], keep[-1]
    if lo != (Fraction(0), Fraction(0)) or hi != (Fraction(1), Fraction(1)):
        raise PreconditionUnmet("interval maps must fix 0 and 1")
    if any(not (0 <= v <= 1) for _, v in keep):
        raise PreconditionUnmet("values must stay inside [0, 1]")
    return IntervalPLMap(tuple(keep))


@dataclass(frozen=True)
class IntervalMapPair:
    first: IntervalPLMap
    second: IntervalPLMap


@dataclass(frozen=True)
class CornerReport:
    connected: bool
    witness: tuple[tuple[Fraction, Fraction], ...]
    collar_extended: bool
    component_count: int


def _with_collar(m: IntervalPLMap) -> IntervalPLMap:
    """The map extended by the identity on [-1/4, 0] and [1, 5/4].

    The values stay in [0, 1], so both end laps rise; the corners (0, 0)
    and (1, 1) are then no folds, and the collar's straight pieces replace
    them.
    """
    collar = ((Fraction(-1, 4), Fraction(-1, 4)), (Fraction(5, 4), Fraction(5, 4)))
    return IntervalPLMap(collar[:1] + m.breakpoints[1:-1] + collar[1:])


def corner_connectivity(pair: IntervalMapPair) -> CornerReport:
    """Whether the two corner solutions (0,0) and (1,1) share a component.

    The solution set {f(x) = g(y)} is a 1-manifold with boundary on the square
    boundary provided the pair is generic (no shared fold value).  When 0 or 1
    is itself a fold value, both maps are extended by an identity collar so
    the corners become regular; the report records that.
    """
    fa, fb = pair.first, pair.second
    shared = fa.interior_fold_values & fb.interior_fold_values
    if shared:
        raise DuplicateVertexValue(f"the two maps share the fold value {min(shared)}")
    boundary_hit = {Fraction(0), Fraction(1)} & (
        fa.interior_fold_values | fb.interior_fold_values
    )
    collar = bool(boundary_hit)
    if collar:
        fa, fb = _with_collar(fa), _with_collar(fb)
    lo = fa.breakpoints[0][0]
    hi = fa.breakpoints[-1][0]

    # one grid for both maps, so that their values compare as ints
    grid = _grid_of(fa.breakpoints + fb.breakpoints)
    pieces, succ = _glued_pieces(fa._rows(grid), fb._rows(grid), None, grid)
    runs = _chains(range(len(pieces)), succ)
    # Both first laps rise from the corner (lo, lo), so the first piece
    # starts there, has no predecessor and begins the first run.
    first = runs[0]
    witness = [pieces[first[0]][3]] + [pieces[si][4] for si in first]
    if witness[0] != (lo, lo):
        raise AssertionError("corner solutions missing")
    return CornerReport(
        connected=witness[-1] == (hi, hi),
        witness=tuple(witness),
        collar_extended=collar,
        component_count=len(runs),
    )


# --------------------------------------------------------------------------
# admissible graphs and Eulerian resolutions


@dataclass(frozen=True)
class EulerGraph:
    """A directed multigraph with in- and out-degree two everywhere.

    ``free_loops`` counts circles carrying no vertex at all; each is its own
    component with the empty resolution.  Vertices, each vertex's in/out
    edges and the components are derived from ``edges`` on first read and
    kept.
    """

    edges: tuple[tuple[int, int], ...]
    free_loops: int = 0

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(set(itertools.chain.from_iterable(self.edges))))

    @cached_property
    def _in_out(self) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
        """Each vertex's incoming and outgoing edge indices, in index order."""
        ins: dict[int, list[int]] = {v: [] for v in self.vertices}
        outs: dict[int, list[int]] = {v: [] for v in self.vertices}
        for i, (a, b) in enumerate(self.edges):
            outs[a].append(i)
            ins[b].append(i)
        return ins, outs

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, _groups(self.vertices, self.edges)))

    @cached_property
    def _edges_by_component(self) -> tuple[tuple[int, ...], ...]:
        """Each component's edge indices, in index order; () for each free loop."""
        outs = self._in_out[1]
        # an edge belongs to its tail's component
        by_component = [
            tuple(sorted(itertools.chain.from_iterable(map(outs.__getitem__, c))))
            for c in self.components
        ]
        return tuple(by_component + [()] * self.free_loops)

    @property
    def component_count(self) -> int:
        return len(self.components) + self.free_loops

    def component_edges(self, component: int) -> tuple[int, ...]:
        """The component's edge indices; empty exactly for a free loop.

        Every call that takes a component index checks it here: one outside
        ``0 <= component < component_count`` raises InfeasibleParameters.
        """
        by_component = self._edges_by_component
        if not 0 <= component < len(by_component):
            raise InfeasibleParameters(f"no component {component}")
        return by_component[component]


def build_euler_graph(
    edges: Iterable[tuple[int, int]], free_loops: int = 0
) -> EulerGraph:
    edges = tuple([(int(a), int(b)) for a, b in edges])
    if free_loops < 0:
        raise InfeasibleParameters("free_loops must be nonnegative")
    g = EulerGraph(edges=edges, free_loops=free_loops)
    ins, outs = g._in_out
    for v in g.vertices:
        if len(ins[v]) != 2 or len(outs[v]) != 2:
            raise InfeasibleParameters(
                f"vertex {v} has in/out degree {len(ins[v])}/{len(outs[v])}"
            )
    return g


Pairing = tuple[tuple[int, tuple[tuple[int, int], tuple[int, int]]], ...]


@dataclass(frozen=True)
class EulerResolution:
    component: int
    pairing: Pairing
    circuit: tuple[int, ...]


def eulerian_resolution(g: EulerGraph, component: int = 0) -> EulerResolution:
    """An in/out pairing turning the chosen component into a single circuit.

    Built from an Euler circuit: pair each incoming edge with the outgoing
    edge the circuit takes next.  Free-loop components get the empty pairing.
    """
    component_edges = g.component_edges(component)
    if not component_edges:
        return EulerResolution(component=component, pairing=(), circuit=())
    verts = g.components[component]
    ins, outs = g._in_out
    # Hierholzer's walk from the first vertex: ``estack`` holds the edges of
    # the open trail and ``v`` is its head.  From a head with an unused
    # out-edge the walk takes the unused one of higher index; at a stuck head
    # it retires the trail's last edge e to the circuit and backs up to e's
    # tail.  The circuit is retired back to front, so the edge retired before
    # e is the one the circuit takes after e: ``pair[e]`` holds that pair,
    # and the first edge retired pairs with the last.
    edges = g.edges
    used = [False] * len(edges)
    pair: list = [None] * len(edges)
    estack: list[int] = []
    circuit: list[int] = []
    v, before = verts[0], -1
    while True:
        early, late = outs[v]
        e = early if used[late] else late
        if not used[e]:
            used[e] = True
            estack.append(e)
            v = edges[e][1]
        elif estack:
            e = estack.pop()
            pair[e], before = (e, before), e
            circuit.append(e)
            v = edges[e][0]
        else:
            break
    if len(circuit) != len(component_edges):
        raise AssertionError("component is not connected")
    pair[circuit[0]] = (circuit[0], before)
    circuit.reverse()
    pairing = tuple([(v, (pair[ins[v][0]], pair[ins[v][1]])) for v in verts])
    return EulerResolution(component=component, pairing=pairing, circuit=tuple(circuit))


def resolution_choices(g: EulerGraph, component: int = 0):
    """All 2^V in/out pairings of the component, for exhaustive checking.

    The index is checked at the call; a free loop has the one empty pairing.
    """
    if not g.component_edges(component):
        return iter([()])
    ins, outs = g._in_out
    alternatives = []
    for v in g.components[component]:
        (i1, i2), (o1, o2) = ins[v], outs[v]
        alternatives.append(((v, ((i1, o1), (i2, o2))), (v, ((i1, o2), (i2, o1)))))
    # Pairings come in the order of a binary counter whose bit b picks
    # vertex b's alternative, so the first vertex varies fastest.
    return (choice[::-1] for choice in itertools.product(*reversed(alternatives)))


def trace_circuits(
    g: EulerGraph, pairing: Pairing, component: int = 0
) -> tuple[tuple[int, ...], ...]:
    """Circuits induced by a pairing on the chosen component's edges.

    A free loop is one circuit with no edges.  A pair naming an index
    outside ``0 .. len(g.edges) - 1`` raises InfeasibleParameters.
    """
    component_edges = g.component_edges(component)
    if not component_edges:
        return ((),)
    edge_count = len(g.edges)
    nxt = [-1] * edge_count
    for _, ps in pairing:
        for e_in, e_out in ps:
            if not (0 <= e_in < edge_count and 0 <= e_out < edge_count):
                raise InfeasibleParameters(f"the pair {e_in} -> {e_out} names no edge")
            nxt[e_in] = e_out
    return tuple(_chains(component_edges, nxt))


def random_admissible_graph(seed: int, n_vertices: int) -> EulerGraph:
    """Union of two uniformly random permutations: in/out degree two everywhere."""
    if n_vertices < 0:
        raise InfeasibleParameters("vertex count must be nonnegative")
    if n_vertices == 0:
        return EulerGraph(edges=(), free_loops=1)
    rng = random.Random(seed)
    sigma = rng.sample(range(n_vertices), n_vertices)
    tau = rng.sample(range(n_vertices), n_vertices)
    edges = [(i, sigma[i]) for i in range(n_vertices)]
    edges += [(i, tau[i]) for i in range(n_vertices)]
    return build_euler_graph(edges)
