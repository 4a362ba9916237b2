"""Exact piecewise-linear self-maps of the circle.

The circle is R/Z.  Points are exact rationals (fractions.Fraction) at the
API; nothing in this package touches floating point.  A map is stored as the
cyclic sequence of its linear laps: breakpoints (x_i, l_i) with x_i strictly
increasing in [0, 1) and l_i the lift value at x_i, closed up by
lift(x + 1) = lift(x) + degree.

Inside, the hot paths run in ints on the map's grid (1/D)Z, D the LCM of
every breakpoint denominator: construction validates the vertices as ints
x_i D and l_i D, and each map keeps them (``PLCircleMap._ints``); each lap
is a row of ints (:func:`_lap_rows`); the critical levels are int residues
on the grid (``PLCircleMap._level_table``), into which a level p/q is
bisected at the floor or ceiling of pD/q; a value of the lift is one int
numerator over one denominator (``PLCircleMap.lift_evaluate``), a level's
preimages are int numerators over per-lap denominators
(``PLCircleMap._level_cuts``); and a Fraction is built only where a caller
receives one.

Construction normalizes the breakpoint list so that every interior vertex is
a genuine fold (slope sign change); runs of same-sign segments are
straightened into a single linear lap.  Genericity, in the sense used
throughout this package, means vertex values are pairwise distinct on the
target circle.  That makes the double-point curve a 1-manifold away from the
diagonal, which the rest of the package relies on.
"""

from __future__ import annotations

import math
import operator
import random
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence, Union

__all__ = [
    "Angle",
    "PLCircleMap",
    "TransverseArc",
    "PreimageComponent",
    "PreimageClassification",
    "NonIncreasingDomain",
    "ZeroSlopeSegment",
    "DuplicateVertexValue",
    "EndpointNotRegular",
    "InfeasibleParameters",
    "frac",
    "mod1",
    "make_map",
    "classify_preimage",
    "crossing_word",
    "downward_pair_count",
    "value_gaps",
    "random_map",
]

RationalLike = Union[Fraction, int, str]


class NonIncreasingDomain(ValueError):
    """Breakpoint x-coordinates are not strictly increasing inside [0, 1)."""


class ZeroSlopeSegment(ValueError):
    """A segment of the lift is constant; constant stretches are banned."""


class DuplicateVertexValue(ValueError):
    """Two vertices share a value on the target circle (genericity violation)."""


class EndpointNotRegular(ValueError):
    """An arc endpoint (or sample value) hits a critical value of the map."""


class InfeasibleParameters(ValueError):
    """No valid object exists with the requested parameters."""


class UnfoldingBlocked(RuntimeError):
    """No arc extension reduces the negative count; unfolding cannot proceed.

    Raised and exported by :mod:`dpl.unfolding`; it lives here so that a
    caller can catch it without importing that module.
    """


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def frac(x: RationalLike) -> Fraction:
    """An exact rational from a Fraction, an int or a ``"p"``/``"p/q"`` string.

    Anything else raises ValueError.  Floats and booleans would round or
    coerce silently, and an exponent string such as ``"1e999999999"`` would
    build a huge integer.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str) and _RATIONAL.fullmatch(x):
        _, _, den = x.partition("/")
        if den and int(den) == 0:
            raise ValueError(f"{x!r} has a zero denominator")
        return Fraction(x)
    raise ValueError(f"not an integer or a 'p/q' string: {x!r}")


def mod1(x: Fraction) -> Fraction:
    return x - math.floor(x)


@dataclass(frozen=True, order=True, init=False)
class Angle:
    """A point of the circle R/Z, stored by its representative in [0, 1)."""

    value: Fraction

    def __init__(self, value: Union[RationalLike, "Angle"]) -> None:
        if isinstance(value, Angle):
            value = value.value
        object.__setattr__(self, "value", mod1(frac(value)))

    def plus(self, delta: RationalLike) -> "Angle":
        return Angle(self.value + frac(delta))

    def ccw_to(self, other: "Angle") -> Fraction:
        """Counterclockwise distance from self to other, in [0, 1)."""
        return mod1(_as_angle(other).value - self.value)

    def __str__(self) -> str:
        return str(self.value)


def _as_angle(x: Union[RationalLike, Angle]) -> Angle:
    return x if isinstance(x, Angle) else Angle(x)


@dataclass(frozen=True, init=False)
class TransverseArc:
    """A proper open arc of the target circle, traversed start -> end.

    ``orientation`` +1 means the traversal runs counterclockwise from start
    to end, -1 clockwise.  The arc is the open set of points strictly between
    the endpoints in the traversal direction.  Endpoint regularity is a
    property of an (arc, map) pair and is checked where the arc is used.
    """

    start: Angle
    end: Angle
    orientation: int

    def __init__(self, start, end, orientation: int = 1) -> None:
        start, end = _as_angle(start), _as_angle(end)
        if orientation not in (1, -1):
            raise InfeasibleParameters("orientation must be +1 or -1")
        if start == end:
            raise InfeasibleParameters("an arc must be a proper subset: start == end")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        object.__setattr__(self, "orientation", orientation)

    @property
    def ccw_start(self) -> Angle:
        return self.start if self.orientation == 1 else self.end

    @property
    def ccw_end(self) -> Angle:
        return self.end if self.orientation == 1 else self.start

    @property
    def width(self) -> Fraction:
        return self.ccw_start.ccw_to(self.ccw_end)

    def contains(self, x: Union[RationalLike, Angle]) -> bool:
        t = self.ccw_start.ccw_to(_as_angle(x))
        return 0 < t < self.width

    def midpoint(self) -> Angle:
        return self.ccw_start.plus(self.width / 2)

    def __str__(self) -> str:
        arrow = "->" if self.orientation == 1 else "<-"
        return f"({self.start} {arrow} {self.end})"


class _LevelTable(NamedTuple):
    """A map's value gaps and their sweep counts on its grid D, computed once per map.

    Gap i runs from ``residues[i] / D`` for ``widths[i] / D``; the last one
    wraps past 0.  A folded map's residues are its critical levels; a
    fold-free map has one gap, the whole circle from 0.  ``sweeps[i]`` is
    gap i's downward-pair count (see :func:`downward_pair_count`), counted
    for every gap in one pass over the map's :class:`_LapIndex`.
    """

    residues: tuple[int, ...]
    widths: tuple[int, ...]
    sweeps: tuple[int, ...]


class _LapIndex(NamedTuple):
    """Each lap's lowest and highest value, as integers, computed once per map.

    ``residues`` are the lap ends' values mod 1 on the grid D, sorted ints:
    a folded map's critical levels, a fold-free map's anchor value.  Row j
    of ``ends`` is (m_lo, a, m_hi, b): lap j runs from m_lo + residues[a] / D
    up to m_hi + residues[b] / D.  For a level y in [0, 1), let k be the
    index of the last residue <= yD (-1 below residues[0]).  At a regular y
    the lap then takes the value y + m_lo + [a > k] first, and meets the
    level m_hi - m_lo + 1 - [b <= k] - [a > k] times in all, one turn apart.
    """

    residues: tuple[int, ...]
    ends: tuple[tuple[int, int, int, int], ...]


def _grid_of(points: Iterable[tuple[Fraction, Fraction]]) -> int:
    """D, the LCM of every coordinate's denominator: all points lie on (1/D)Z^2."""
    return math.lcm(*(v.denominator for point in points for v in point))


def _scaled(
    points: Sequence[tuple[Fraction, Fraction]], grid: int
) -> tuple[list[int], list[int]]:
    """Each point's coordinates times ``grid``, as two lists of ints.

    ``grid`` must be a multiple of every coordinate's denominator.
    """
    xs = [x.numerator * (grid // x.denominator) for x, _ in points]
    return xs, [l.numerator * (grid // l.denominator) for _, l in points]


def _closed(
    points: Sequence[tuple[Fraction, Fraction]], degree: int, grid: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The vertices' ints on ``grid``, closed up one turn on by vertex 0."""
    xs, ls = _scaled(points, grid)
    return (*xs, xs[0] + grid), (*ls, ls[0] + degree * grid)


def _lap_rows(
    xs: Sequence[Fraction], X: Sequence[int], L: Sequence[int], grid: int
) -> list[tuple]:
    """Each lap of a circle or interval map on the grid (1/grid)Z, read once.

    Lap j runs from vertex j to vertex j + 1: from x = xs[j] = X[j] / grid,
    at the value L[j] / grid, to the next.  A row is (rising, V_lo, x_lo,
    V_hi, x_hi, dX, c, den): the lap's lowest and highest values are
    V_lo / grid and V_hi / grid, taken at x_lo and x_hi, and it takes the
    value V / grid at x = (V * dX + c) / den, with den > 0.  All but x_lo
    and x_hi are ints.
    """
    rows = []
    for xlo, xhi, x0, x1, v0, v1 in zip(xs, xs[1:], X, X[1:], L, L[1:]):
        g = math.gcd(x1 - x0, v1 - v0)
        dx, dv = (x1 - x0) // g, (v1 - v0) // g
        if dv < 0:
            dx, dv = -dx, -dv
            row = (False, v1, xhi, v0, xlo)
        else:
            row = (True, v0, xlo, v1, xhi)
        # x = (x0 + (V - v0) * (x1 - x0) / (v1 - v0)) / grid
        rows.append((*row, dx, x0 * dv - v0 * dx, grid * dv))
    return rows


@dataclass(frozen=True)
class PLCircleMap:
    """A generic piecewise-linear self-map of the circle.

    Instances come from :func:`make_map` and are always normalized: every
    vertex of a folded map is a fold, and a fold-free (monotone) map keeps a
    single anchor vertex.  ``breakpoints[i] = (x_i, l_i)`` gives the lift
    value l_i at x_i; the closing condition is lift(x_0 + 1) = l_0 + degree.
    Immutable; all methods are pure.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]
    degree: int

    @property
    def lap_count(self) -> int:
        return len(self.breakpoints)

    @cached_property
    def _xs(self) -> tuple[Fraction, ...]:
        xs = [x for x, _ in self.breakpoints]
        xs.append(xs[0] + 1)
        return tuple(xs)

    @cached_property
    def _ls(self) -> tuple[Fraction, ...]:
        ls = [l for _, l in self.breakpoints]
        ls.append(ls[0] + self.degree)
        return tuple(ls)

    @cached_property
    def slopes(self) -> tuple[Fraction, ...]:
        xs, ls = self._xs, self._ls
        return tuple(
            (ls[i + 1] - ls[i]) / (xs[i + 1] - xs[i]) for i in range(self.lap_count)
        )

    @property
    def fold_free(self) -> bool:
        return self.lap_count == 1

    @cached_property
    def folds(self) -> tuple[tuple[Fraction, Angle], ...]:
        """Fold vertices as (domain point, critical value on the circle)."""
        if self.fold_free:
            return ()
        return tuple((x, Angle(l)) for x, l in self.breakpoints)

    @cached_property
    def critical_values(self) -> frozenset[Angle]:
        return frozenset(v for _, v in self.folds)

    @cached_property
    def _ints(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The vertices on the grid D: X_i = x_i D and L_i = l_i D for i = 0..n.

        Vertex n closes the circle: X_n = X_0 + D and L_n = L_0 + degree D.
        :func:`make_map` stores the ints it validated; this builds them for a
        map made directly.
        """
        return _closed(self.breakpoints, self.degree, self._grid)

    @cached_property
    def _level_table(self) -> _LevelTable:
        residues = (0,) if self.fold_free else self._lap_index.residues
        ends = residues[1:] + (residues[0] + self._grid,)
        widths = tuple(nxt - r for r, nxt in zip(residues, ends))
        return _LevelTable(residues, widths, self._gap_sweeps())

    def _gap(self, k: int) -> tuple[Fraction, Fraction]:
        """Value gap k of the level table, as (start, width)."""
        residues, widths, _ = self._level_table
        return Fraction(residues[k], self._grid), Fraction(widths[k], self._grid)

    @cached_property
    def _gaps(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple(map(self._gap, range(len(self._level_table.widths))))

    def _step(self, v: Fraction) -> int:
        """floor(vD), the numerator of the last grid point at or below v."""
        return v.numerator * self._grid // v.denominator

    @cached_property
    def _lap_index(self) -> _LapIndex:
        n, grid, ls = self.lap_count, self._grid, self._ints[1]
        # vertex n is vertex 0 one turn on: degree more, at the same residue
        floors, rests = zip(*[divmod(l, grid) for l in ls])
        order = sorted(range(n), key=rests.__getitem__)
        rank = [0] * (n + 1)
        for k, i in enumerate(order):
            rank[i] = k
        rank[n] = rank[0]
        ends = []
        for j in range(n):
            lo, hi = (j, j + 1) if ls[j] < ls[j + 1] else (j + 1, j)
            ends.append((floors[lo], rank[lo], floors[hi], rank[hi]))
        return _LapIndex(tuple(rests[i] for i in order), tuple(ends))

    def _gap_sweeps(self) -> tuple[int, ...]:
        """Each value gap's downward-pair count, from integer arithmetic only.

        The crossing word at a level is each lap's slope sign, repeated as
        often as the lap meets the level, in lap order.  Its descending
        pairs are its descending letters less its descents followed by a
        rise, and a rise can follow a descent only across laps.  Below
        every residue each lap meets the level m_hi - m_lo times; passing
        residue k adds a meeting to the laps whose bottom is there and takes
        one from those whose top is there.
        """
        residues, ends = self._lap_index
        ls = self._ints[1]
        falling = bytes(ls[j] > ls[j + 1] for j in range(self.lap_count))
        bottoms: list[list[int]] = [[] for _ in residues]
        tops: list[list[int]] = [[] for _ in residues]
        for j, (_, a, _, b) in enumerate(ends):
            bottoms[a].append(j)
            tops[b].append(j)
        counts = [m_hi - m_lo for m_lo, _, m_hi, _ in ends]
        descending = sum(c for c, down in zip(counts, falling) if down)
        sweeps = []
        for k in range(len(residues)):
            for j in bottoms[k]:
                counts[j] += 1
                descending += falling[j]
            for j in tops[k]:
                counts[j] -= 1
                descending -= falling[j]
            met = bytes(down for c, down in zip(counts, falling) if c)
            sweeps.append(descending - (met + met[:1]).count(b"\1\0"))
        return tuple(sweeps)

    def lap(self, j: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """(x_lo, x_hi, lift at x_lo, lift at x_hi) of lap j."""
        return self._xs[j], self._xs[j + 1], self._ls[j], self._ls[j + 1]

    @cached_property
    def _grid(self) -> int:
        """D, the LCM of every breakpoint x and lift denominator."""
        return _grid_of(self.breakpoints)

    @cached_property
    def _lap_table(self) -> tuple[tuple, ...]:
        """One :func:`_lap_rows` row per lap, on the map's grid, built once per map."""
        return tuple(_lap_rows(self._xs, *self._ints, self._grid))

    def to_fundamental(self, x: RationalLike) -> Fraction:
        """Translate x by an integer into [x_0, x_0 + 1)."""
        x = frac(x)
        return x - math.floor(x - self._xs[0])

    def lap_of(self, x: RationalLike) -> int:
        """Index of the lap whose half-open interval [x_j, x_{j+1}) contains x."""
        x = self.to_fundamental(x)
        return bisect_right(self._xs, x) - 1

    def lift_evaluate(self, x: RationalLike) -> Fraction:
        x = frac(x)
        q, grid, (xs, ls) = x.denominator, self._grid, self._ints
        # x = t / one with one = grid q; on turn k, x - k = base / one is in
        # [x_0, x_0 + 1)
        t, one = x.numerator * grid, grid * q
        k = (t - xs[0] * q) // one
        base = t - k * one
        j = bisect_right(xs, base // q) - 1
        dx, dl = xs[j + 1] - xs[j], ls[j + 1] - ls[j]
        # lift = (L_j + k degree grid + (base / q - X_j) dl / dx) / grid
        value = (ls[j] + k * self.degree * grid) * q * dx + (base - xs[j] * q) * dl
        return Fraction(value, one * dx)

    def evaluate(self, x: Union[RationalLike, Angle]) -> Angle:
        if isinstance(x, Angle):
            x = x.value
        return Angle(self.lift_evaluate(x))

    def is_regular_value(self, y: Union[RationalLike, Angle]) -> bool:
        # a folded map's critical values are its sorted vertex residues; a
        # level off the grid is none of them
        v = _as_angle(y).value
        t, off = divmod(v.numerator * self._grid, v.denominator)
        residues = () if off or self.fold_free else self._lap_index.residues
        k = bisect_left(residues, t)
        return residues[k : k + 1] != (t,)

    @cached_property
    def _cut_memo(self) -> dict[tuple[int, int], tuple[tuple[int, ...], ...]]:
        return {}

    def _level_cuts(self, yv: Fraction) -> tuple[tuple[int, ...], ...]:
        """Each preimage of the level yv in [0, 1), in domain order from x_0, in ints.

        A cut (j, key, N, den) lies at x = N / den on lap j, where the lap
        takes the value yv + m; key is m times twice the lap's slope sign,
        so (j, key) orders the cuts along the domain.  A lap holds
        [x_j, x_{j+1}): where the level passes through a vertex, the lap
        ending there leaves it to the lap starting there, so the last lap
        leaves x_0 + 1 to x_0 on lap 0.

        The :class:`_LapIndex` gives each lap's first and last value on
        yv's level; laps that miss the level cost nothing.  At a critical
        level a lap also meets the level at an end that lies on it, so its
        top is ranked against the residues below the level, those below the
        ceiling of pD/q for yv = p/q, and its bottom against those at or
        below it, at or below the floor of pD/q.  Lap j
        takes the value yv + m at ((p + m q) D dX + c q) / (q den), from its
        :func:`_lap_rows` row on the grid D.  Cuts are kept per map, keyed
        by (p, q).
        """
        p, q = yv.numerator, yv.denominator
        cuts = self._cut_memo.get((p, q))
        if cuts is not None:
            return cuts
        residues, ends = self._lap_index
        t = p * self._grid
        at_or_below = bisect_right(residues, t // q) - 1
        below = bisect_left(residues, -(-t // q)) - 1
        # the residue on the level, if the level passes through a vertex
        vertex = at_or_below if below < at_or_below else None
        grid, found = self._grid, []
        for j, ((m_lo, a, m_hi, b), row) in enumerate(zip(ends, self._lap_table)):
            lo, hi = m_lo + (a > at_or_below), m_hi - (b <= below)
            rising, _, _, _, _, dx, c, den = row
            if rising:
                hi -= b == vertex
                ms, sign = range(lo, hi + 1), 2
            else:
                lo += a == vertex
                ms, sign = range(hi, lo - 1, -1), -2
            n, step, qden = p * grid * dx + c * q, q * grid * dx, q * den
            found += [(j, sign * m, n + m * step, qden) for m in ms]
        cuts = self._cut_memo[p, q] = tuple(found)
        return cuts

    def fiber(self, y: Union[RationalLike, Angle]) -> tuple[Fraction, ...]:
        """All preimages of the target point y, inside [x_0, x_0 + 1), sorted.

        They are the points of y's :meth:`_level_cuts`, one per preimage, in
        domain order from x_0; a fold vertex on y is listed once.
        """
        cuts = self._level_cuts(_as_angle(y).value)
        return tuple([Fraction(n, den) for _, _, n, den in cuts])

    def signed_fiber_count(self, y: Union[RationalLike, Angle]) -> int:
        """Sum of lap-slope signs over the fiber of a regular value; equals degree."""
        return sum(crossing_word(self, y))

    def reflect(self) -> "PLCircleMap":
        """The map x -> f(-x): degree negates, folds mirror through 0."""
        pts = []
        for x, _ in self.breakpoints:
            p = mod1(-x)
            pts.append((p, self.lift_evaluate(-p)))
        return make_map(sorted(pts), -self.degree)


def make_map(
    breakpoints: Iterable[tuple[RationalLike, RationalLike]], degree: int
) -> PLCircleMap:
    """Validate and normalize a breakpoint presentation.

    Validation order matters: the domain is checked first, then vertex-value
    genericity on the raw list (so a presentation with both a duplicate value
    and a flat segment reports DuplicateVertexValue), then zero slopes, and
    finally same-sign runs are straightened so surviving vertices are folds.
    """
    pts = [(frac(x), frac(l)) for x, l in breakpoints]
    if not pts:
        raise NonIncreasingDomain("need at least one breakpoint")
    d = operator.index(degree)
    # every check runs in ints, on the grid D of all the points given
    m, grid = len(pts), _grid_of(pts)
    xs, ls = _closed(pts, d, grid)
    if any(not (0 <= x < grid) for x in xs[:m]):
        raise NonIncreasingDomain("breakpoint x-coordinates must lie in [0, 1)")
    if any(b <= a for a, b in zip(xs, xs[1:m])):
        raise NonIncreasingDomain("breakpoint x-coordinates must strictly increase")
    if len({l % grid for l in ls[:m]}) != m:
        raise DuplicateVertexValue(
            "vertex values must be pairwise distinct on the target circle"
        )
    rising = []
    for i in range(m):
        if ls[i + 1] == ls[i]:
            raise ZeroSlopeSegment(f"segment starting at x={pts[i][0]} has zero slope")
        rising.append(ls[i + 1] > ls[i])
    keep = [i for i in range(m) if rising[i - 1] != rising[i]] or [0]
    f = PLCircleMap(breakpoints=tuple(pts[i] for i in keep), degree=d)
    if len(keep) == m:
        # the map keeps the grid and ints just checked; a straightened map,
        # whose grid may be coarser, builds its own
        f.__dict__.update(_grid=grid, _ints=(xs, ls))
    return f


@dataclass(frozen=True)
class PreimageComponent:
    """One component of the preimage of an open arc.

    ``start < end <= start + 1`` are lift coordinates on the domain circle;
    a ``circle`` component is the whole domain (the map's image lies inside
    the arc).  ``endpoint_values`` are the arc endpoints hit by the closure
    endpoints, None for circles.
    """

    kind: str  # positive | negative | neutral | circle
    start: Fraction
    end: Fraction
    endpoint_values: tuple[Angle, Angle] | None

    def contains(self, x: Fraction) -> bool:
        """Whether the open component contains the domain point x (mod 1)."""
        if self.kind == "circle":
            return True
        for cand in (x, x + 1, x - 1):
            if self.start < cand < self.end:
                return True
        return False


@dataclass(frozen=True)
class PreimageClassification:
    arc: TransverseArc
    components: tuple[PreimageComponent, ...]

    @property
    def positive_count(self) -> int:
        return sum(1 for c in self.components if c.kind == "positive")

    @property
    def negative_count(self) -> int:
        return sum(1 for c in self.components if c.kind == "negative")

    @property
    def neutral_count(self) -> int:
        return sum(1 for c in self.components if c.kind == "neutral")

    @property
    def circle_count(self) -> int:
        return sum(1 for c in self.components if c.kind == "circle")

    def component_containing(self, x: Fraction) -> PreimageComponent | None:
        for c in self.components:
            if c.contains(x):
                return c
        return None


def classify_preimage(f: PLCircleMap, arc: TransverseArc) -> PreimageClassification:
    """Split f^{-1}(arc) into positive / negative / neutral arcs and circles.

    Positive components cross the arc following its traversal direction,
    negative ones against it, neutral ones enter and back out over a single
    endpoint.  Components are listed in domain order from the map's anchor.
    """
    for endpoint in (arc.start, arc.end):
        if not f.is_regular_value(endpoint):
            raise EndpointNotRegular(f"arc endpoint {endpoint} is a critical value")
    a, b = arc.ccw_start, arc.ccw_end
    # Each cut is (lap, key, f(x) == a, N, den); the other endpoint is
    # f(x) == b.  Where a lap takes a + m at key 2m times its slope sign,
    # it takes b + m between a + m and a + m + 1 if a < b, else between
    # a + m - 1 and a + m, so an odd key puts b's cuts among a's.
    rows = f._lap_table
    off = 1 if a.value < b.value else -1
    cuts = [(j, key, True, n, den) for j, key, n, den in f._level_cuts(a.value)]
    cuts += [
        (j, key + (off if rows[j][0] else -off), False, n, den)
        for j, key, n, den in f._level_cuts(b.value)
    ]
    cuts.sort()
    comps: list[PreimageComponent] = []
    if not cuts:
        x0 = f.breakpoints[0][0]
        if arc.contains(f.evaluate(x0)):
            comps.append(PreimageComponent("circle", x0, x0 + 1, None))
    for idx, (lap, _, at_a, n, den) in enumerate(cuts):
        # leaving a upward or b downward enters the arc
        if at_a != rows[lap][0]:
            continue
        # the cut after the last one is the first, one turn on
        _, _, q_at_a, qn, qden = cuts[(idx + 1) % len(cuts)]
        if idx + 1 == len(cuts):
            qn += qden
        if at_a != q_at_a:
            kind = "positive" if at_a else "negative"
        else:
            kind = "neutral"
        if arc.orientation == -1 and kind != "neutral":
            kind = "negative" if kind == "positive" else "positive"
        ends = (a if at_a else b, a if q_at_a else b)
        start, end = Fraction(n, den), Fraction(qn, qden)
        comps.append(PreimageComponent(kind, start, end, ends))
    return PreimageClassification(arc=arc, components=tuple(comps))


def crossing_word(
    f: PLCircleMap, y: Union[RationalLike, Angle]
) -> tuple[int, ...]:
    """Slope signs over the fiber of a regular value, in domain order."""
    ya = _as_angle(y)
    if not f.is_regular_value(ya):
        raise EndpointNotRegular(f"{ya} is a critical value")
    rows = f._lap_table
    return tuple(1 if rows[j][0] else -1 for j, *_ in f._level_cuts(ya.value))


def downward_pair_count(f: PLCircleMap, y: Union[RationalLike, Angle]) -> int:
    """Cyclically adjacent descending pairs in the crossing word at a level.

    Such a pair is a full downward sweep: between the two crossings the map
    descends through every target point.  Each sweep pins one negative
    preimage component onto every arc ending at this level, whatever the
    start, so an arc can be unfolded only where this count is zero.

    The count is the same at every level of a value gap.  Each map counts
    every gap once, in its level table, and this reads the table.
    """
    ya = _as_angle(y)
    if not f.is_regular_value(ya):
        raise EndpointNotRegular(f"{ya} is a critical value")
    residues, _, sweeps = f._level_table
    # below residues[0] is the wrap-around gap, the last one
    return sweeps[(bisect_right(residues, f._step(ya.value)) - 1) % len(sweeps)]


def value_gaps(f: PLCircleMap) -> tuple[tuple[Fraction, Fraction], ...]:
    """Maximal critical-value-free arcs of the target, as (start, width).

    The crossing word is constant on each gap, so one interior probe decides
    properties of the whole gap.  A fold-free map yields the full circle.
    Each map computes its gaps once, from the ints of its level table.
    """
    return f._gaps


def _sweep_free_gap(f: PLCircleMap) -> tuple[Fraction, Fraction] | None:
    """The first value gap without a full downward sweep, or None."""
    sweeps = f._level_table.sweeps
    return f._gap(sweeps.index(0)) if 0 in sweeps else None


def random_map(seed: int, max_folds: int, max_degree: int) -> PLCircleMap:
    """Deterministic pseudo-random generic map.

    Degree is drawn from [-max_degree, max_degree], the (even) fold count from
    what the degree allows.  Monotone rises and falls on the side opposite the
    degree surplus are kept below one full turn, and draws whose every level
    is crossed by a full downward sweep (or upward, for negative degree) are
    rejected, so generated maps always admit arc unfolding.
    """
    if max_folds < 0 or max_degree < 0:
        raise InfeasibleParameters("bounds must be nonnegative")
    if max_degree == 0 and max_folds < 2:
        raise InfeasibleParameters("a fold-free map has |degree| >= 1")
    rng = random.Random(seed)
    for _ in range(64):
        d = rng.randint(-max_degree, max_degree)
        even_cap = max_folds - (max_folds % 2)
        choices = list(range(2, even_cap + 1, 2))
        if d != 0:
            choices = [0] + choices
        if not choices:
            continue
        nf = rng.choice(choices)
        denom = rng.choice((32, 48, 64, 80, 96))
        if nf == 0:
            x0 = Fraction(rng.randrange(denom), denom)
            l0 = Fraction(rng.randrange(denom), denom)
            return make_map([(x0, l0)], d)  # monotone: trivially unfold-ready
        h = nf // 2
        dx = 8 * nf
        xs = [Fraction(n, dx) for n in sorted(rng.sample(range(dx), nf))]
        base_up = [Fraction(rng.randint(8, 56), 64) for _ in range(h)]
        base_dn = [Fraction(rng.randint(8, 56), 64) for _ in range(h)]
        if d >= 0:
            dn = base_dn
            scale = (sum(dn) + d) / sum(base_up)
            up = [u * scale for u in base_up]
        else:
            up = base_up
            scale = (sum(up) - d) / sum(base_dn)
            dn = [v * scale for v in base_dn]
        lifts = [Fraction(rng.randrange(denom), denom)]
        for i in range(h):
            lifts.append(lifts[-1] + up[i])
            lifts.append(lifts[-1] - dn[i])
        lifts.pop()  # the popped entry equals lifts[0] + d by construction
        try:
            candidate = make_map(list(zip(xs, lifts)), d)
        except DuplicateVertexValue:
            continue
        probe = candidate if d >= 0 else candidate.reflect()
        if _sweep_free_gap(probe) is not None:
            return candidate
    raise InfeasibleParameters("could not generate a generic map with these bounds")
