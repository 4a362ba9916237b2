"""Arc unfolding, balanced paths, pair counting, and surgery bookkeeping.

The centerpiece is :func:`eliminate_negative_arcs`: grow a transverse arc,
one fold-gap at a time, until its preimage has no negative components.  Each
growth step is witnessed by a balanced path - an embedded domain path from a
negative arc to a level-matched positive one along which the lift of the map
returns to its starting height.  Growth keeps the arcs nested, so the final
arc contains the initial one as an open subset.

Greedy growth alone is not complete: killing one negative component can
convert a neutral one elsewhere.  When no single extension makes progress,
the finishing move relocates the arc's end into a level gap free of full
downward sweeps and drops the start below every remaining dip, which is
exactly the set of arcs that can reach zero.  A map whose every level gap
carries a full downward sweep admits no unfoldable arc at all; that raises
UnfoldingBlocked, and the bundled generator rejects such draws.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Union

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
    ZeroSlopeSegment,
    _sweep_free_gap,
    classify_preimage,
    downward_pair_count,
    frac,
    mod1,
    value_gaps,
)
from .double_points import (
    _chains,
    _equal_value_pieces,
    _groups,
    _lap_rows,
    double_point_curve,
)

__all__ = [
    "NoOppositeArc",
    "PreconditionUnmet",
    "Infeasible",
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
    "surgery_parity",
]


class NoOppositeArc(ValueError):
    """No opposite-sign arc balances the chosen one."""


class PreconditionUnmet(ValueError):
    """The operation's entry condition does not hold for this input."""


class Infeasible(ValueError):
    """No object with the requested counts exists."""


class UnfoldingBlocked(RuntimeError):
    """No arc extension reduces the negative count; unfolding cannot proceed."""


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
    values = [f.lift_evaluate(lo), f.lift_evaluate(hi)]
    for x, _ in f.breakpoints:
        k = math.ceil(lo - x)
        while x + k < hi:
            if x + k > lo:
                values.append(f.lift_evaluate(x + k))
            k += 1
    return min(values), max(values)


def _try_direction(
    f: PLCircleMap,
    cls: PreimageClassification,
    start_index: int,
    direction: int,
) -> BalancedPath | None:
    comp = cls.components[start_index]
    opposite = "negative" if comp.kind == "positive" else "positive"
    s = f.to_fundamental(comp.end if direction == 1 else comp.start)
    level = f.lift_evaluate(s)

    def ahead(x: Fraction) -> Fraction:
        """Where the walk from s in its direction meets x, within one turn."""
        e = f.to_fundamental(x)
        if direction == 1:
            return e if e > s else e + 1
        return e if e < s else e - 1

    candidates = [
        (ahead(other.start if direction == 1 else other.end), idx)
        for idx, other in enumerate(cls.components)
        if idx != start_index and other.kind == opposite
    ]
    candidates.sort(reverse=(direction == -1))
    for pos, idx in candidates:
        if f.lift_evaluate(pos) != level:
            continue
        lo, hi = (s, pos) if direction == 1 else (pos, s)
        path_min, path_max = _lift_extrema(f, lo, hi)
        skipped = [
            jdx
            for jdx, other in enumerate(cls.components)
            if jdx not in (start_index, idx)
            and other.kind in ("positive", "negative")
            and any(lo < ahead(e) < hi for e in (other.start, other.end))
        ]
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
            skipped=tuple(skipped),
        )
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
    succeeds, and the resulting path is one-sided.
    """
    canonical = TransverseArc(arc.ccw_start, arc.ccw_end)
    cls = classification
    if cls is None or cls.arc.orientation != 1:
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
        for prev, cur in zip(self.steps, self.steps[1:]):
            if prev.negative_count > 0 and cur.negative_count >= prev.negative_count:
                raise AssertionError("negative count failed to decrease")
            if not _arc_contains_arc(cur.arc, prev.arc):
                raise AssertionError("trace arcs are not nested")


def _arc_contains_arc(big: TransverseArc, small: TransverseArc) -> bool:
    off = big.ccw_start.ccw_to(small.ccw_start)
    return off + small.width <= big.width


def _residue_candidates(
    f: PLCircleMap, arc: TransverseArc
) -> list[tuple[Fraction, str, Fraction]]:
    """Wider arcs, one per (fold residue, endpoint side), sorted by width.

    The start-side candidate for residue r places the new start just below r
    (halfway into the gap underneath, capped so the width stays below one);
    any negative component whose exit slide bottoms out at r turns neutral
    once the start clears r.  End-side candidates mirror this above r.
    """
    a, b = arc.ccw_start.value, arc.ccw_end.value
    w = arc.width
    gaps = value_gaps(f)
    out = []
    # each candidate point lies in the gap next to its own residue, so no
    # two residues offer the same arc
    for i, (r, gap_above) in enumerate(gaps):
        gap_below = gaps[i - 1][1]
        width_to_r = mod1(b - r)
        delta = min(gap_below, 1 - width_to_r) / 2
        w2 = width_to_r + delta
        if w < w2 < 1:
            out.append((w2, "start", mod1(r - delta)))
        width_from_r = mod1(r - a)
        delta = min(gap_above, 1 - width_from_r) / 2
        w3 = width_from_r + delta
        if w < w3 < 1:
            out.append((w3, "end", mod1(r + delta)))
    return sorted(out)


def _candidate_arc(
    arc: TransverseArc, side: str, point: Fraction
) -> TransverseArc:
    if side == "start":
        return TransverseArc(Angle(point), arc.ccw_end)
    return TransverseArc(arc.ccw_start, Angle(point))


def _sweep_free_end(f: PLCircleMap, arc: TransverseArc) -> Angle | None:
    """Nearest admissible end position with no full downward sweep.

    Candidates are the current end and, in growth order, the midpoint of
    each overlap between a fold-value gap and the arc's complement.  None
    when every reachable position keeps a sweep: then every grown arc keeps
    a negative component, so greedy growth steps to such an arc only when
    it has none left.
    """
    b = arc.ccw_end
    if downward_pair_count(f, b) == 0:
        return b
    slack = 1 - arc.width
    options: list[tuple[Fraction, Angle]] = []
    # The crossing word is constant on a gap, so the part of b's own gap
    # above b is swept like b; every other gap is entered at its low end.
    for lo, gw in value_gaps(f):
        lo_cut = mod1(lo - b.value)
        hi_cut = min(lo_cut + gw, slack)
        if lo_cut < hi_cut:
            options.append((lo_cut, b.plus((lo_cut + hi_cut) / 2)))
    for _, candidate in sorted(options, key=lambda t: t[0]):
        if downward_pair_count(f, candidate) == 0:
            return candidate
    return None


def _finishing_arc(f: PLCircleMap, arc: TransverseArc) -> TransverseArc:
    """A grown arc with no negative components, in one move.

    With the end in a sweep-free gap, a negative component can only be the
    first piece of a domain stretch that enters through the end value and
    dips before leaving through it again; pushing the start below every such
    dip (but not past the current start) clears them all at once.
    """
    b = _sweep_free_end(f, arc)
    if b is None:
        raise UnfoldingBlocked(
            "every reachable end position is crossed by a full downward sweep"
        )
    reach = mod1(arc.ccw_start.value - b.value)  # >0: start stays past the end
    ceiling = reach
    cuts = sorted(f._fiber_laps(b).items())
    for i, (x, lap) in enumerate(cuts):
        if f.slopes[lap] > 0:
            continue
        nxt, nxt_lap = cuts[(i + 1) % len(cuts)]
        nxt += 1 if i + 1 == len(cuts) else 0
        assert f.slopes[nxt_lap] > 0, "end position is not sweep-free"
        for vx, vl in f.breakpoints:
            shifted = vx + math.floor(x - vx) + 1
            if x < shifted < nxt:
                ceiling = min(ceiling, mod1(vl - b.value))
    for k in range(63, 0, -1):  # prefer the least start growth
        a = b.plus(ceiling * k / 64)
        if f.is_regular_value(a):
            return TransverseArc(a, b)
    raise UnfoldingBlocked("could not place the start below the remaining dips")


def _plain_eliminate(
    f: PLCircleMap, arc: TransverseArc
) -> tuple[TransverseArc, list[UnfoldStep], PreimageClassification]:
    """The grown arc, the steps taken and the grown arc's classification."""
    cur = TransverseArc(arc.ccw_start, arc.ccw_end)
    cls = classify_preimage(f, cur)
    steps: list[UnfoldStep] = []
    while cls.negative_count > 0:
        start_index = next(
            i for i, c in enumerate(cls.components) if c.kind == "negative"
        )
        try:
            path = find_balanced_path(f, cur, start_index, cls)
        except NoOppositeArc:
            path = None
        ranked = _residue_candidates(f, cur)
        ordered = ranked
        if path is not None:
            need = cur.width + (path.level - path.path_min)
            primary = [c for c in ranked if c[1] == "start" and c[0] > need][:1]
            ordered = primary + [c for c in ranked if c not in primary]
        accepted = None
        for _, side, point in ordered:
            cand = _candidate_arc(cur, side, point)
            new_cls = classify_preimage(f, cand)
            if new_cls.negative_count < cls.negative_count and (
                new_cls.negative_count == 0 or _sweep_free_end(f, cand) is not None
            ):
                accepted = (cand, new_cls)
                break
        if accepted is None:
            cand = _finishing_arc(f, cur)
            new_cls = classify_preimage(f, cand)
            assert new_cls.negative_count == 0, "finishing move left a negative"
            accepted = (cand, new_cls)
        cand, new_cls = accepted
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
    f: PLCircleMap, cls: PreimageClassification, z: Angle
) -> list[int]:
    """Indices of the neutral components of ``cls`` that meet z's fiber."""
    out = []
    for x in f.fiber(z):
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
        z = Angle(value) if not isinstance(value, Angle) else value
        cur, steps, cls = _plain_eliminate(f, _arc_around(f, z))
        # A neutral component enters and leaves the arc over one endpoint,
        # so it holds a local extremum of the lift, which is a fold: there
        # are at most lap_count blockers.  Each round strictly lowers their
        # number, so the loop ends within lap_count + 1 rounds.
        blockers = _blocking_neutrals(f, cls, z)
        while blockers:
            side_value = cls.components[blockers[0]].endpoint_values[0]
            grow_start = side_value == cur.ccw_start
            want = "start" if grow_start else "end"
            for _, side, point in _residue_candidates(f, cur):
                if side != want:
                    continue
                cand = _candidate_arc(cur, side, point)
                try:
                    cand_final, cand_steps, cand_cls = _plain_eliminate(f, cand)
                except UnfoldingBlocked:
                    continue
                cand_blockers = _blocking_neutrals(f, cand_cls, z)
                if len(cand_blockers) < len(blockers):
                    steps.append(
                        UnfoldStep(
                            arc=cur,
                            negative_count=0,
                            positive_count=cls.positive_count,
                            path=None,
                            extended_start=cand.start if grow_start else None,
                            extended_end=None if grow_start else cand.end,
                        )
                    )
                    steps.extend(cand_steps)
                    cur, cls, blockers = cand_final, cand_cls, cand_blockers
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


def pair_count_check(f: PLCircleMap, arc: TransverseArc) -> PairCountReport:
    """First-projection winding equals the count of marked pairs, per component.

    The arc must be unfolded: exactly deg(f) positive components and no
    negative ones.  Pick the preimages x_1 < x_2 < ... of the arc's start on
    the positive components; each ordered pair (x_1, x_i) is a point of the
    double-point curve, and each component must carry exactly its winding's
    worth of them (open arcs: none).
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
    )


# --------------------------------------------------------------------------
# interval map pairs and corner connectivity


@dataclass(frozen=True)
class IntervalPLMap:
    """A PL map between intervals, stored like the circle maps minus the wrap."""

    breakpoints: tuple[tuple[Fraction, Fraction], ...]

    @cached_property
    def slopes(self) -> tuple[Fraction, ...]:
        pts = self.breakpoints
        return tuple(
            (pts[i + 1][1] - pts[i][1]) / (pts[i + 1][0] - pts[i][0])
            for i in range(len(pts) - 1)
        )

    @cached_property
    def interior_fold_values(self) -> frozenset[Fraction]:
        out = set()
        for i in range(1, len(self.breakpoints) - 1):
            if self.slopes[i - 1] * self.slopes[i] < 0:
                out.add(self.breakpoints[i][1])
        return frozenset(out)

    def lap(self, j: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        (xa, la), (xb, lb) = self.breakpoints[j], self.breakpoints[j + 1]
        return xa, xb, la, lb


def make_interval_map(
    breakpoints: Iterable[tuple[RationalLike, RationalLike]],
    _check_boundary: bool = True,
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
    if _check_boundary:
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
    pts = (
        ((Fraction(-1, 4), Fraction(-1, 4)),)
        + m.breakpoints
        + ((Fraction(5, 4), Fraction(5, 4)),)
    )
    return make_interval_map(pts, _check_boundary=False)


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

    rows_a = _lap_rows(fa, len(fa.breakpoints) - 1)
    rows_b = _lap_rows(fb, len(fb.breakpoints) - 1)
    segs = [piece[3:] for piece in _equal_value_pieces(rows_a, rows_b, False)]

    # Canonically oriented segments glue end to start; loose ends of the
    # open runs must lie on the square's boundary.
    starts: dict[tuple[Fraction, Fraction], int] = {}
    for si, (p, _) in enumerate(segs):
        if p in starts:
            raise AssertionError(f"non-manifold solution set at {p}")
        starts[p] = si
    succ = {si: starts[q] for si, (_, q) in enumerate(segs) if q in starts}
    runs = _chains(range(len(segs)), succ)
    loose: dict[tuple[Fraction, Fraction], list[tuple[Fraction, Fraction]]] = {}
    for run in runs:
        if run[-1] in succ:
            continue
        pts = [segs[run[0]][0]] + [segs[si][1] for si in run]
        for p in (pts[0], pts[-1]):
            if not (p[0] in (lo, hi) or p[1] in (lo, hi)):
                raise AssertionError(f"non-manifold solution set at {p}")
        loose[pts[0]] = pts
        loose[pts[-1]] = pts[::-1]

    corner0, corner1 = (lo, lo), (hi, hi)
    if corner0 not in loose or corner1 not in loose:
        raise AssertionError("corner solutions missing")
    witness = loose[corner0]
    return CornerReport(
        connected=witness[-1] == corner1,
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
    component with the empty resolution.  Vertices and each vertex's in/out
    edges are tabulated at construction, components on first use.
    """

    edges: tuple[tuple[int, int], ...]
    free_loops: int = 0
    vertices: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # each vertex's incoming and outgoing edge indices, in index order
    _in_out: tuple[dict[int, list[int]], dict[int, list[int]]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        vertices = tuple(sorted(set(itertools.chain.from_iterable(self.edges))))
        ins: dict[int, list[int]] = {v: [] for v in vertices}
        outs: dict[int, list[int]] = {v: [] for v in vertices}
        for i, (a, b) in enumerate(self.edges):
            outs[a].append(i)
            ins[b].append(i)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "_in_out", (ins, outs))

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, _groups(self.vertices, self.edges)))

    @property
    def component_count(self) -> int:
        return len(self.components) + self.free_loops

    @cached_property
    def _edges_by_component(self) -> tuple[tuple[int, ...], ...]:
        where = {v: c for c, verts in enumerate(self.components) for v in verts}
        out: list[list[int]] = [[] for _ in self.components]
        for i, (a, _) in enumerate(self.edges):
            out[where[a]].append(i)
        return tuple(map(tuple, out)) + ((),) * self.free_loops

    def component_edges(self, component: int) -> tuple[int, ...]:
        """The component's edge indices; empty exactly for a free loop.

        Every call that takes a component index checks it here: one outside
        ``0 <= component < component_count`` raises InfeasibleParameters.
        """
        if not 0 <= component < self.component_count:
            raise InfeasibleParameters(f"no component {component}")
        return self._edges_by_component[component]


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
    # Hierholzer's walk from the first vertex: ``v`` is the walk's head,
    # ``vstack`` the vertices behind it and ``estack`` the edges between
    edges = g.edges
    pool = {v: outs[v][:] for v in verts}
    vstack: list[int] = []
    estack: list[int] = []
    circuit: list[int] = []
    v = verts[0]
    out = pool[v]
    while True:
        if out:
            e = out.pop()
            estack.append(e)
            vstack.append(v)
            v = edges[e][1]
            out = pool[v]
        elif estack:
            circuit.append(estack.pop())
            v = vstack.pop()
            out = pool[v]
        else:
            break
    circuit.reverse()
    if len(circuit) != len(component_edges):
        raise AssertionError("component is not connected")
    after = dict(zip(circuit, circuit[1:] + circuit[:1]))
    pairing = tuple([(v, tuple([(e, after[e]) for e in ins[v]])) for v in verts])
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

    A free loop is one circuit with no edges.
    """
    component_edges = g.component_edges(component)
    if not component_edges:
        return ((),)
    nxt = {e_in: e_out for _, ps in pairing for e_in, e_out in ps}
    return tuple(map(tuple, _chains(component_edges, nxt)))


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


# --------------------------------------------------------------------------
# surgery parity


def surgery_parity(c_in: int, c_out: int, n: int) -> tuple[bool, int]:
    """Whether n surgeries can take c_in circles to c_out ones orientably.

    Each surgery changes the circle count by exactly one in the orientable
    regime, so feasibility needs n >= |c_out - c_in| with matching parity;
    a parity mismatch forces at least one count-preserving, side-swapping
    move.  Returns (orientable_only_feasible, minimum_nonorientable_moves).
    """
    if c_in < 1 or c_out < 1 or n < 0:
        raise InfeasibleParameters("counts must be positive and n nonnegative")
    delta = abs(c_out - c_in)
    if n < delta:
        raise Infeasible(f"{n} surgeries cannot change the count by {delta}")
    if (n - delta) % 2 == 0:
        return (True, 0)
    return (False, 1)
