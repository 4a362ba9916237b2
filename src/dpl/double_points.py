"""The double-point curve of a generic PL circle map and its invariants.

For a map f the curve lives in the torus: all ordered pairs (x, y), x != y,
with f(x) = f(y).  Genericity makes it a disjoint union of circles and open
arcs whose ends limit onto diagonal points (c, c) at fold vertices c.  Every
piece is cut out of lap-pair rectangles by lines ``lift_i(x) - lift_j(y) = k``
and carries a canonical orientation: the direction (sign s_j, sign s_i),
which is the +90-degree rotation of the value gradient (s_i, -s_j).  That
choice is coherent along components, and swapping the two coordinates maps
oriented pieces to oriented pieces, exchanging the two projection degrees.

The closure of the curve (arcs glued at their diagonal points) consists of
circles; the canonical orientation reverses at every diagonal passage, so a
closure component is orientable exactly when it passes the diagonal an even
number of times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Hashable, Iterable, Iterator, Sequence

from .circle_maps import PLCircleMap, RationalLike, frac

__all__ = [
    "CurveSegment",
    "CurveComponent",
    "ClosureComponent",
    "QuotientComponent",
    "DoublePointCurve",
    "RealizabilityReport",
    "ArcLiftReport",
    "DegeneratePosition",
    "double_point_curve",
    "closure_orientability",
    "hopf_invariant",
    "controlled_hopf",
    "arc_lift_check",
    "realizability_report",
    "planar_self_crossings",
    "planar_curve_hopf",
]


class DegeneratePosition(ValueError):
    """The polygon is not in general position (tangency, concurrency, ...)."""


Point = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class CurveSegment:
    """A maximal straight piece of the curve inside one lap-pair rectangle.

    ``lap_x``/``lap_y`` index the laps governing the two coordinates,
    ``shift`` is the integer separating the two lift levels.  Endpoints are
    ordered along the canonical orientation.
    """

    lap_x: int
    lap_y: int
    shift: int
    start: Point
    end: Point

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.lap_x, self.lap_y, self.shift)


@dataclass(frozen=True)
class CurveComponent:
    index: int
    kind: str  # "circle" | "arc"
    segments: tuple[CurveSegment, ...]
    p1_degree: int
    p2_degree: int
    # For arcs: the fold vertices whose diagonal points the two ends limit to,
    # in traversal order.  None for circles.
    diagonal_ends: tuple[Fraction, Fraction] | None


@dataclass(frozen=True)
class ClosureComponent:
    """A circle of the curve closure: open arcs glued at diagonal points."""

    arcs: tuple[int, ...]
    diagonal_points: tuple[Fraction, ...]
    flips: int
    orientable: bool


@dataclass(frozen=True)
class QuotientComponent:
    """A component of the curve modulo the coordinate swap."""

    members: tuple[int, ...]
    compact: bool
    cover_trivial: bool  # the 2:1 preimage upstairs is disconnected
    lifts_through_arc: bool  # the image misses some target point


def _lap_rows(m, count: int) -> list[tuple]:
    """Each lap of a circle or interval map, read once for clipping.

    A row is (rising, lowest value, x where it is taken, highest value, x
    where it is taken, inverse slope, x-intercept of the inverse), so that
    the lap takes value v at ``v * inverse + intercept``.
    """
    rows = []
    for j in range(count):
        xlo, xhi, l0, l1 = m.lap(j)
        inv = (xhi - xlo) / (l1 - l0)
        c = xlo - l0 * inv
        if l0 < l1:
            rows.append((True, l0, xlo, l1, xhi, inv, c))
        else:
            rows.append((False, l1, xhi, l0, xlo, inv, c))
    return rows


def _equal_value_pieces(
    rows_x: Sequence[tuple], rows_y: Sequence[tuple], shifted: bool
) -> Iterator[tuple[int, int, int, Point, Point]]:
    """Clip {A_i(x) = B_j(y) + k} to every lap rectangle i x j, in (i, j, k) order.

    ``shifted``: every integer k, leaving out the diagonal (i = j, k = 0),
    for the two coordinates of one circle map; otherwise k = 0 only.  Yields
    (i, j, k, start, end), ordered so that the x-displacement has the sign
    of B's slope (the canonical orientation); empty and one-point overlaps
    are skipped.
    Each end of a piece lies on an edge of its rectangle, so one of its
    coordinates is a lap end and only the other needs arithmetic.
    """
    for i, (up_a, alo, xa_lo, ahi, xa_hi, ia, ca) in enumerate(rows_x):
        for j, (up_b, blo, yb_lo, bhi, yb_hi, ib, cb) in enumerate(rows_y):
            if shifted:
                ks = range(math.ceil(alo - bhi), math.floor(ahi - blo) + 1)
            else:
                ks = (0,)
            for k in ks:
                if shifted and k == 0 and i == j:
                    continue  # the diagonal itself
                vlo, vhi = blo + k, bhi + k
                on_b_lo, on_b_hi = vlo > alo, vhi < ahi
                if not on_b_lo:
                    vlo = alo
                if not on_b_hi:
                    vhi = ahi
                if vlo >= vhi:
                    continue
                lo = (vlo * ia + ca, yb_lo) if on_b_lo else (xa_lo, (vlo - k) * ib + cb)
                hi = (vhi * ia + ca, yb_hi) if on_b_hi else (xa_hi, (vhi - k) * ib + cb)
                yield (i, j, k, lo, hi) if up_a == up_b else (i, j, k, hi, lo)


def _chains(nodes: Iterable[Hashable], succ: dict) -> list[list]:
    """Split the partial injection ``succ`` on ``nodes`` into maximal runs.

    ``succ[a] = b`` glues the end of piece a to the start of piece b.  Open
    runs start at every node without a predecessor; closed runs (a run is
    closed when its last node is in ``succ``) start at their first node in
    the order of ``nodes``.  Two pieces continuing into the same one raise
    AssertionError.
    """
    targets = set(succ.values())
    if len(targets) != len(succ):
        raise AssertionError("two pieces continue into the same one")
    nodes = list(nodes)
    seen: set = set()
    runs = []
    for start in [n for n in nodes if n not in targets] + nodes:
        if start in seen:
            continue
        run, node = [], start
        while node not in seen:
            seen.add(node)
            run.append(node)
            node = succ.get(node, start)
        runs.append(run)
    return runs


def _groups(nodes: Iterable[Hashable], links: Iterable[tuple]) -> list[list]:
    """Disjoint-set classes of ``nodes`` under ``links``, each sorted, by least member.

    Each node points at its class's member list; a link appends the smaller
    list to the larger one.
    """
    owner = {n: [n] for n in nodes}
    for a, b in links:
        big, small = owner[a], owner[b]
        if big is small:
            continue
        if len(big) < len(small):
            big, small = small, big
        big.extend(small)
        for n in small:
            owner[n] = big
    # a live list still starts with the node it was made for; classes are
    # disjoint, so sorting them orders them by least member
    return sorted([sorted(m) for n, m in owner.items() if m[0] == n])


def _raw_segments(f: PLCircleMap) -> list[CurveSegment]:
    """Every straight piece of the curve, sorted by key."""
    rows = _lap_rows(f, f.lap_count)
    return [CurveSegment(*piece) for piece in _equal_value_pieces(rows, rows, True)]


def _torus_key(x1: Fraction, p: Point) -> tuple[Fraction, Fraction]:
    """The point with each coordinate equal to x1 = x_0 + 1 moved to x_0."""
    rx = p[0] - 1 if p[0] == x1 else p[0]
    ry = p[1] - 1 if p[1] == x1 else p[1]
    return (rx, ry)


@dataclass(frozen=True)
class DoublePointCurve:
    """All components of the double-point curve of one map, with structure.

    ``swap_pairing[i]`` is the component index of the coordinate-swapped copy
    of component i; swap-invariant components are fixed points.  Closure and
    quotient data are derived views of the same pieces.
    """

    map: PLCircleMap
    components: tuple[CurveComponent, ...]
    swap_pairing: tuple[int, ...]
    closure_components: tuple[ClosureComponent, ...]

    @cached_property
    def _component_by_key(self) -> dict[tuple[int, int, int], int]:
        out: dict[tuple[int, int, int], int] = {}
        for comp in self.components:
            for seg in comp.segments:
                out[seg.key] = comp.index
        return out

    def component_of_segment_key(self, key: tuple[int, int, int]) -> int:
        return self._component_by_key[key]

    def swap_invariant(self, index: int) -> bool:
        return self.swap_pairing[index] == index

    @cached_property
    def quotient_components(self) -> tuple[QuotientComponent, ...]:
        out: list[QuotientComponent] = []
        swapped = enumerate(self.swap_pairing)
        for members in _groups(range(len(self.components)), swapped):
            compact = all(self.components[i].kind == "circle" for i in members)
            out.append(
                QuotientComponent(
                    members=tuple(members),
                    compact=compact,
                    cover_trivial=len(members) == 2,
                    lifts_through_arc=not _image_covers_circle(
                        self.map, self.components[members[0]]
                    ),
                )
            )
        return tuple(out)


def _image_covers_circle(f: PLCircleMap, comp: CurveComponent) -> bool:
    """Whether the values f(x) along the component cover the whole circle.

    The chain is continuous, so summing each segment's value change traces a
    lift of its image to the line; that lift sweeps one interval, and the
    image covers the circle exactly when the interval is at least 1 long.
    """
    slopes = f.slopes
    value = low = high = 0
    for seg in comp.segments:
        value += (seg.end[0] - seg.start[0]) * slopes[seg.lap_x]
        if value < low:
            low = value
        elif value > high:
            high = value
    return high - low >= 1


# The key under which a map keeps its curve in its ``__dict__``, beside its
# cached_property fields; the map's fields, equality, hash and repr ignore it.
_CURVE = "_double_point_curve"


def double_point_curve(f: PLCircleMap) -> DoublePointCurve:
    """The full double-point curve of a generic map, built once per map object.

    Every later call with the same map object, and every verdict given it,
    returns the same curve.
    """
    curve = f.__dict__.get(_CURVE)
    if curve is None:
        curve = f.__dict__[_CURVE] = _build_curve(f)
    return curve


def _build_curve(f: PLCircleMap) -> DoublePointCurve:
    segs = _raw_segments(f)
    x1 = f.breakpoints[0][0] + 1
    starts: dict[tuple[Fraction, Fraction], int] = {}
    for si, seg in enumerate(segs):
        key = _torus_key(x1, seg.start)
        if key[0] != key[1]:
            if key in starts:
                raise AssertionError(f"non-manifold gluing at {key}")
            starts[key] = si
    # Canonical orientations agree along components, so off the diagonal
    # every segment end is the start of the next segment.
    ends = [_torus_key(x1, seg.end) for seg in segs]
    succ = {si: starts[key] for si, key in enumerate(ends) if key in starts}

    # Components are numbered by the key of their first segment (an arc's
    # diagonal start, a circle's least segment); segments are sorted by key,
    # so sorting the runs gives that order.
    components: list[CurveComponent] = []
    for index, run in enumerate(sorted(_chains(range(len(segs)), succ))):
        chain = tuple(segs[si] for si in run)
        if run[-1] in succ:
            p1 = sum(s.end[0] - s.start[0] for s in chain)
            p2 = sum(s.end[1] - s.start[1] for s in chain)
            if p1.denominator != 1 or p2.denominator != 1:
                raise AssertionError("non-integer winding on a closed component")
            components.append(
                CurveComponent(index, "circle", chain, int(p1), int(p2), None)
            )
            continue
        c_from, c_to = _torus_key(x1, chain[0].start), ends[run[-1]]
        if c_from[0] != c_from[1] or c_to[0] != c_to[1]:
            raise AssertionError(f"open piece {c_from} -> {c_to} off the diagonal")
        ends_at = (c_from[0], c_to[0])
        components.append(CurveComponent(index, "arc", chain, 0, 0, ends_at))

    by_key = {seg.key: comp.index for comp in components for seg in comp.segments}
    swap_pairing = tuple(
        by_key[(j, i, -k)] for i, j, k in (c.segments[0].key for c in components)
    )
    return DoublePointCurve(
        map=f,
        components=tuple(components),
        swap_pairing=swap_pairing,
        closure_components=_closure_components(components),
    )


def _closure_components(
    components: Sequence[CurveComponent],
) -> tuple[ClosureComponent, ...]:
    arcs = [c for c in components if c.kind == "arc"]
    # Each diagonal point receives exactly two arc-ends; record their types.
    point_ends: dict[Fraction, list[tuple[int, str]]] = {}
    for comp in arcs:
        c_from, c_to = comp.diagonal_ends  # type: ignore[misc]
        point_ends.setdefault(c_from, []).append((comp.index, "outgoing"))
        point_ends.setdefault(c_to, []).append((comp.index, "incoming"))
    for c, lst in point_ends.items():
        if len(lst) != 2:
            raise AssertionError(f"diagonal point {c} has {len(lst)} arc-ends")

    glued = [(a, b) for (a, _), (b, _) in point_ends.values()]
    out = []
    for members in _groups((c.index for c in arcs), glued):
        pts = sorted(c for c, lst in point_ends.items() if lst[0][0] in members)
        # A passage flips orientation when both ends point the same way
        # (both outgoing at a value maximum, both incoming at a minimum).
        flips = sum(1 for c in pts if point_ends[c][0][1] == point_ends[c][1][1])
        out.append(
            ClosureComponent(
                arcs=tuple(members),
                diagonal_points=tuple(pts),
                flips=flips,
                orientable=flips % 2 == 0,
            )
        )
    return tuple(out)


def closure_orientability(f: PLCircleMap, component: int) -> bool:
    return double_point_curve(f).closure_components[component].orientable


def hopf_invariant(f: PLCircleMap) -> int:
    """Parity of the number of compact swap-invariant components."""
    curve = double_point_curve(f)
    return (
        sum(
            1
            for c in curve.components
            if c.kind == "circle" and curve.swap_invariant(c.index)
        )
        % 2
    )


def controlled_hopf(f: PLCircleMap) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Per compact quotient component: 1 when its double cover is connected."""
    return tuple(
        (q.members, 0 if q.cover_trivial else 1)
        for q in double_point_curve(f).quotient_components
        if q.compact
    )


@dataclass(frozen=True)
class ArcLiftReport:
    rows: tuple[QuotientComponent, ...]
    violation: bool


def arc_lift_check(f: PLCircleMap) -> ArcLiftReport:
    """A compact quotient piece mapping through an arc must lift (trivial cover)."""
    rows = double_point_curve(f).quotient_components
    violation = any(
        q.compact and q.lifts_through_arc and not q.cover_trivial for q in rows
    )
    return ArcLiftReport(rows=rows, violation=violation)


@dataclass(frozen=True)
class RealizabilityReport:
    criterion_pass: bool
    criterion_witness: int | None
    classical_pass: bool
    agreement: bool
    note: str | None


def realizability_report(f: PLCircleMap) -> RealizabilityReport:
    """Compare the double-point criterion with the classical degree test.

    The criterion rejects a map when some swap-invariant circle component has
    odd first-projection winding.  The classical test accepts exactly the
    degrees outside {0, 1, -1}.  Disagreements are annotated, never hidden:
    circle maps are the known low-dimensional edge case for the criterion.
    """
    curve = double_point_curve(f)
    witness = None
    for c in curve.components:
        if (
            c.kind == "circle"
            and curve.swap_invariant(c.index)
            and c.p1_degree % 2 != 0
        ):
            witness = c.index
            break
    criterion_pass = witness is None
    classical_pass = f.degree not in (0, 1, -1)
    agreement = criterion_pass == classical_pass
    note = None
    if not agreement and criterion_pass:
        note = (
            f"criterion passes but degree {f.degree} lies in {{0, 1, -1}}: "
            "for circle maps the double-point criterion is inconclusive in this "
            "range, so the classical verdict stands"
        )
    elif not agreement and not criterion_pass:
        comp = curve.components[witness]  # type: ignore[index]
        note = (
            f"criterion fails on swap-invariant component {witness} with odd "
            f"first-projection degree {comp.p1_degree}; the classical degree "
            "test alone would accept this map"
        )
    return RealizabilityReport(
        criterion_pass=criterion_pass,
        criterion_witness=witness,
        classical_pass=classical_pass,
        agreement=agreement,
        note=note,
    )


# --- immersed polygons in the plane ---------------------------------------


def _cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _segment_crossing(
    a: Point, b: Point, c: Point, d: Point
) -> Point | None:
    """Transverse interior crossing of [a,b] and [c,d]; DegeneratePosition otherwise."""
    r = (b[0] - a[0], b[1] - a[1])
    s = (d[0] - c[0], d[1] - c[1])
    denom = r[0] * s[1] - r[1] * s[0]
    if denom == 0:
        if _cross(a, b, c) == 0 and (
            max(min(a[0], b[0]), min(c[0], d[0])) <= min(max(a[0], b[0]), max(c[0], d[0]))
            and max(min(a[1], b[1]), min(c[1], d[1]))
            <= min(max(a[1], b[1]), max(c[1], d[1]))
        ):
            raise DegeneratePosition("collinear overlapping edges")
        return None
    t = ((c[0] - a[0]) * s[1] - (c[1] - a[1]) * s[0]) / denom
    u = ((c[0] - a[0]) * r[1] - (c[1] - a[1]) * r[0]) / denom
    if t <= 0 or t >= 1 or u <= 0 or u >= 1:
        if (0 <= t <= 1) and (0 <= u <= 1):
            raise DegeneratePosition("edge endpoint touches another edge")
        return None
    return (a[0] + t * r[0], a[1] + t * r[1])


def planar_self_crossings(
    polygon: Iterable[tuple[RationalLike, RationalLike]],
) -> tuple[Point, ...]:
    """Exact transverse self-crossings of a closed polygon in general position."""
    pts = [(frac(x), frac(y)) for x, y in polygon]
    n = len(pts)
    if n < 3:
        raise DegeneratePosition("a closed curve needs at least 3 vertices")
    if len(set(pts)) != n:
        raise DegeneratePosition("repeated vertex")
    edges = [(pts[i], pts[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        a, b = edges[i]
        c = edges[(i + 1) % n][1]
        if _cross(a, b, c) == 0 and (
            (a[0] - b[0]) * (c[0] - b[0]) + (a[1] - b[1]) * (c[1] - b[1]) > 0
        ):
            raise DegeneratePosition("consecutive edges fold back onto each other")
    crossings: list[Point] = []
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            p = _segment_crossing(*edges[i], *edges[j])
            if p is not None:
                crossings.append(p)
    if len(set(crossings)) != len(crossings):
        raise DegeneratePosition("three or more edges concurrent at a point")
    return tuple(crossings)


def planar_curve_hopf(
    polygon: Iterable[tuple[RationalLike, RationalLike]],
) -> int:
    """Parity of the number of double points of an immersed closed polygon."""
    return len(planar_self_crossings(polygon)) % 2
