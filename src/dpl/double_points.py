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

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from typing import Hashable, Iterable, Iterator, NamedTuple, Sequence

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


class CurveSegment(NamedTuple):
    """A maximal straight piece of the curve inside one lap-pair rectangle.

    ``lap_x``/``lap_y`` index the laps governing the two coordinates,
    ``shift`` is the integer separating the two lift levels.  Endpoints are
    ordered along the canonical orientation.  A named tuple: it equals the
    plain tuple of its fields.
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
    # whether the values f(x) along the component cover the whole circle;
    # read off the segments, so equality and repr leave it out
    covers: bool = field(repr=False, compare=False)


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


def _equal_value_pieces(
    rows_x: Sequence[tuple], rows_y: Sequence[tuple], degree: int | None, grid: int
) -> Iterator[tuple]:
    """Clip {A_i(x) = B_j(y) + k} to every lap rectangle i x j, in (i, j, k) order.

    ``rows_x``/``rows_y``: :func:`~dpl.circle_maps._lap_rows` rows of both
    maps on one ``grid``.  ``degree``: the degree of the one circle map both
    coordinates read, for every integer k, leaving out the diagonal (i = j,
    k = 0); None for an interval pair, k = 0 only.  Yields (i, j, k, start,
    end, after, turns_x, turns_y, change), ordered so that the
    x-displacement has the sign s_b of B's slope and the y-displacement that
    of A's, s_a (the canonical orientation); empty and one-point overlaps
    are skipped.
    Values are compared as ints on the grid.  Each end of a piece lies on an
    edge of its rectangle, so one of its coordinates is a lap end and only
    the other is built, as one Fraction.

    ``after`` keys the rectangle the curve enters at the end: across B's
    edge into lap j + s_a, or else across A's edge into lap i + s_b.  On the
    circle a lap index past either end wraps mod n and shifts k by the
    degree; off an interval pair's square it keys no rectangle.  A
    rectangle holds at most one piece, and the one entered starts where
    this one ends.  Genericity leaves corners only on the diagonal, and a
    piece ending there keys the diagonal rectangle, which holds none.

    ``turns_x``/``turns_y`` are the wraps of the two lap indices, -1, 0 or
    1 (0 on an interval pair): 1 when the piece ends on the seam x_0 + 1
    and the next one starts at x_0, -1 the other way round.  This is the
    only place that decides a seam crossing.  ``change`` is the value's
    change along the piece, times ``grid``: the two ints compared last,
    taken in the piece's direction.
    """
    n = len(rows_x)
    # A glued point ends one piece and starts the next, which builds the
    # same coordinate from the same ints: each is built once, then kept.
    point = cache(Fraction)

    for i, (up_a, alo, xa_lo, ahi, xa_hi, dxa, ca, dena) in enumerate(rows_x):
        s_a = 1 if up_a else -1
        for j, (up_b, blo, yb_lo, bhi, yb_hi, dxb, cb, denb) in enumerate(rows_y):
            s_b = 1 if up_b else -1
            if degree is None:
                ks = (0,)
            else:
                ks = range(-((bhi - alo) // grid), (ahi - blo) // grid + 1)
            for k in ks:
                if degree is not None and k == 0 and i == j:
                    continue  # the diagonal itself
                shift = k * grid
                vlo, vhi = blo + shift, bhi + shift
                on_b_lo, on_b_hi = vlo > alo, vhi < ahi
                if not on_b_lo:
                    vlo = alo
                if not on_b_hi:
                    vhi = ahi
                if vlo >= vhi:
                    continue
                if on_b_lo:
                    lo = (point(vlo * dxa + ca, dena), yb_lo)
                else:
                    lo = (xa_lo, point((vlo - shift) * dxb + cb, denb))
                if on_b_hi:
                    hi = (point(vhi * dxa + ca, dena), yb_hi)
                else:
                    hi = (xa_hi, point((vhi - shift) * dxb + cb, denb))
                if up_a == up_b:
                    start, end, on_b, change = lo, hi, on_b_hi, vhi - vlo
                else:
                    start, end, on_b, change = hi, lo, on_b_lo, vlo - vhi
                ii, jj = (i, j + s_a) if on_b else (i + s_b, j)
                kk, turns_x, turns_y = k, 0, 0
                if degree is not None:  # wrap a lap index past either end
                    turns_x, ii = divmod(ii, n)
                    turns_y, jj = divmod(jj, n)
                    kk += (turns_y - turns_x) * degree
                yield i, j, k, start, end, (ii, jj, kk), turns_x, turns_y, change


def _glued_pieces(
    rows_x: Sequence[tuple], rows_y: Sequence[tuple], degree: int | None, grid: int
) -> tuple[list[tuple], list[int]]:
    """The pieces of :func:`_equal_value_pieces`, and what each end glues to.

    ``succ[a]`` is the index of the piece the curve enters at a's end, -1
    where that rectangle holds none (a diagonal end, or the square's edge).
    """
    pieces = list(_equal_value_pieces(rows_x, rows_y, degree, grid))
    index = {piece[:3]: a for a, piece in enumerate(pieces)}
    return pieces, [index.get(piece[5], -1) for piece in pieces]


def _chains(nodes: Sequence[int], succ: list[int]) -> list[tuple[int, ...]]:
    """Split the partial injection ``succ`` into maximal runs from ``nodes``.

    Pieces are the ints ``0 .. len(succ) - 1``.  ``succ[a] = b`` glues the
    end of piece a to the start of piece b, and ``succ[a] = -1`` leaves a's
    end loose.  Open runs start at every node of ``nodes`` without a
    predecessor; closed runs (a run is closed when its last node has a
    successor) start at their first node in the order of ``nodes``.  A run
    follows ``succ`` past ``nodes`` until it ends loose or meets a piece
    already walked.  Two pieces continuing into the same one raise
    AssertionError.
    """
    hit = set(succ)
    hit.discard(-1)
    if len(hit) != len(succ) - succ.count(-1):
        raise AssertionError("two pieces continue into the same one")
    if not hit.issuperset(nodes):
        nodes = [n for n in nodes if n not in hit] + list(nodes)
    # one flag per piece, then a raised one, which a loose end's -1 reads
    seen = [False] * len(succ) + [True]
    runs = []
    for start in nodes:
        if seen[start]:
            continue
        run, node = [], start
        while not seen[node]:
            seen[node] = True
            run.append(node)
            node = succ[node]
        runs.append(tuple(run))
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


@dataclass(frozen=True)
class DoublePointCurve:
    """All components of the double-point curve of one map, with structure.

    ``swap_pairing[i]`` is the component index of the coordinate-swapped copy
    of component i; swap-invariant components are fixed points.  Closure and
    quotient data are derived views of the components, each built on first
    read and kept.
    """

    map: PLCircleMap
    components: tuple[CurveComponent, ...]

    @cached_property
    def _component_by_key(self) -> dict[tuple[int, int, int], int]:
        return {s.key: c.index for c in self.components for s in c.segments}

    @cached_property
    def swap_pairing(self) -> tuple[int, ...]:
        # segment (i, j, k) swaps to segment (j, i, -k)
        keys = (c.segments[0].key for c in self.components)
        return tuple(self._component_by_key[(j, i, -k)] for i, j, k in keys)

    def component_of_segment_key(self, key: tuple[int, int, int]) -> int:
        return self._component_by_key[key]

    def swap_invariant(self, index: int) -> bool:
        return self.swap_pairing[index] == index

    @cached_property
    def quotient_components(self) -> tuple[QuotientComponent, ...]:
        # The swap is an involution: each class is a fixed point or a pair,
        # met first at its least member.
        out: list[QuotientComponent] = []
        for i, j in enumerate(self.swap_pairing):
            if j < i:
                continue
            members = (i,) if i == j else (i, j)
            compact = all(self.components[m].kind == "circle" for m in members)
            out.append(
                QuotientComponent(
                    members=members,
                    compact=compact,
                    cover_trivial=len(members) == 2,
                    lifts_through_arc=not self.components[members[0]].covers,
                )
            )
        return tuple(out)

    @cached_property
    def closure_components(self) -> tuple[ClosureComponent, ...]:
        arcs = [c for c in self.components if c.kind == "arc"]
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
    """Glue the clipper's pieces into components and read off their structure.

    Everything comes from the clipper's ints and the points it built.  A
    closed chain's windings are the sums of its pieces' ``turns_x`` and
    ``turns_y``, the seam crossings counted with their signs.  A
    component's summed value ``change`` traces a lift of its image to the
    line; that lift sweeps one interval, and the image covers the circle
    exactly when the interval is at least ``grid`` long.  Each coordinate of
    a piece lies in its lap's closed range inside [x_0, x_0 + 1], so an arc
    end's fundamental representative is the coordinate itself, with x_0 + 1
    folded to x_0.
    """
    rows = f._lap_table
    pieces, succ = _glued_pieces(rows, rows, f.degree, f._grid)
    grid, x0, x1 = f._grid, f._xs[0], f._xs[-1]
    # Components are numbered by the key of their first segment (an arc's
    # diagonal start, a circle's least segment); pieces are sorted by key,
    # so sorting the runs gives that order.
    components: list[CurveComponent] = []
    for index, run in enumerate(sorted(_chains(range(len(pieces)), succ))):
        segs = []
        p1 = p2 = value = low = high = 0
        for a in run:
            i, j, k, start, end, _, turns_x, turns_y, change = pieces[a]
            segs.append(CurveSegment(i, j, k, start, end))
            p1 += turns_x
            p2 += turns_y
            value += change
            if value < low:
                low = value
            elif value > high:
                high = value
        chain, covers = tuple(segs), high - low >= grid
        if succ[run[-1]] >= 0:
            comp = CurveComponent(index, "circle", chain, p1, p2, None, covers)
        else:
            # x_0 + 1 is the point x_0 of the circle
            ends = [x0 if c == x1 else c for c in (*chain[0].start, *chain[-1].end)]
            if ends[0] != ends[1] or ends[2] != ends[3]:
                raise AssertionError(f"open piece ends {ends} off the diagonal")
            ends = (ends[0], ends[2])
            comp = CurveComponent(index, "arc", chain, 0, 0, ends, covers)
        components.append(comp)

    return DoublePointCurve(map=f, components=tuple(components))


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
