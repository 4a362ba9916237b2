import dataclasses
import math
from fractions import Fraction as F

import pytest

import dpl.double_points
from dpl import (
    Angle,
    DegeneratePosition,
    arc_lift_check,
    classify_preimage,
    closure_orientability,
    controlled_hopf,
    double_point_curve,
    eliminate_negative_arcs,
    hopf_invariant,
    make_map,
    pair_count_check,
    planar_curve_hopf,
    planar_self_crossings,
    random_map,
    realizability_report,
    TransverseArc,
)
from dpl.circle_maps import _grid_of
from dpl.double_points import CurveSegment, DoublePointCurve

from test_unfolding import corner_pairs


def tent():
    return make_map([(0, 0), (F(1, 2), F(3, 4))], 0)


def four_fold_deg2():
    return make_map(
        [(0, 0), (F(1, 4), F(11, 8)), (F(1, 2), F(9, 8)), (F(3, 4), F(39, 16))], 2
    )


# ---------------------------------------------------------------- curve shape


def test_curve_is_hashable_and_stores_components_as_a_tuple():
    curve = double_point_curve(four_fold_deg2())
    assert isinstance(curve.components, tuple)
    assert hash(curve) == hash(double_point_curve(four_fold_deg2()))
    assert curve == double_point_curve(four_fold_deg2())


def test_tent_curve_is_two_swapped_arcs():
    curve = double_point_curve(tent())
    assert len(curve.components) == 2
    for c in curve.components:
        assert c.kind == "arc"
        assert c.p1_degree == 0 and c.p2_degree == 0
        assert len(c.segments) == 1
    assert curve.swap_pairing == (1, 0)
    assert not curve.swap_invariant(0)
    assert not curve.swap_invariant(1)


def test_tent_closure_joins_the_arc_pair():
    f = tent()
    closures = double_point_curve(f).closure_components
    assert len(closures) == 1
    assert closures[0].arcs == (0, 1)
    assert closures[0].flips == 2
    assert closures[0].orientable
    assert closure_orientability(f, 0)


def test_double_cover_curve_is_one_invariant_circle():
    f = make_map([(0, 0)], 2)
    curve = double_point_curve(f)
    assert [(c.kind, c.p1_degree, c.p2_degree) for c in curve.components] == [
        ("circle", 1, 1)
    ]
    assert curve.swap_invariant(0)
    assert hopf_invariant(f) == 1


def test_d_cover_curve_has_d_minus_1_circles():
    for d in (3, 4, 5):
        curve = double_point_curve(make_map([(0, 0)], d))
        assert len(curve.components) == d - 1
        assert all(c.kind == "circle" for c in curve.components)
        assert all(c.p1_degree == 1 for c in curve.components)


def test_four_fold_curve_mixes_circle_and_arcs():
    curve = double_point_curve(four_fold_deg2())
    kinds = sorted(c.kind for c in curve.components)
    assert kinds == ["arc", "arc", "arc", "arc", "circle"]
    circle = next(c for c in curve.components if c.kind == "circle")
    assert (circle.p1_degree, circle.p2_degree) == (1, 1)
    assert len(circle.segments) == 16
    for c in curve.components:
        if c.kind == "arc":
            assert (c.p1_degree, c.p2_degree) == (0, 0)
            assert len(c.segments) == 3


# ---------------------------------------------------------------- hopf parity


def test_hopf_parities():
    assert hopf_invariant(tent()) == 0
    assert hopf_invariant(make_map([(0, 0)], 2)) == 1
    assert hopf_invariant(four_fold_deg2()) == 1
    for d in range(2, 8):
        assert hopf_invariant(make_map([(0, 0)], d)) == (d - 1) % 2


def test_controlled_hopf_lists_compact_invariant_pieces():
    assert controlled_hopf(tent()) == ()
    rows = controlled_hopf(make_map([(0, 0)], 2))
    assert len(rows) == 1
    f = make_map([(0, 0)], 4)
    assert sum(b for _, b in controlled_hopf(f)) % 2 == hopf_invariant(f)


# ---------------------------------------------------------------- quotient/lift


def test_tent_quotient_is_one_crosscut():
    rows = double_point_curve(tent()).quotient_components
    assert len(rows) == 1
    q = rows[0]
    assert not q.compact
    assert q.cover_trivial
    assert q.lifts_through_arc


# ---------------------------------------------------------------- realizability


def test_realizability_low_degree_disagreement_is_annotated():
    rep = realizability_report(tent())
    assert rep.criterion_pass
    assert not rep.classical_pass
    assert not rep.agreement
    assert rep.note is not None and "inconclusive" in rep.note


def test_realizability_high_degree_agrees():
    rep = realizability_report(make_map([(0, 0)], 3))
    assert rep.criterion_pass and rep.classical_pass and rep.agreement
    assert rep.note is None


def test_realizability_disagreement_always_carries_a_witness():
    # folded degree-2 maps can fail the criterion on their invariant circle;
    # the report must then name that component instead of agreeing silently
    rep = realizability_report(four_fold_deg2())
    if not rep.agreement:
        assert rep.criterion_witness is not None
        assert rep.note is not None and "swap-invariant" in rep.note


def test_realizability_witness_on_plain_cover():
    rep = realizability_report(make_map([(0, 0)], 2))
    assert not rep.criterion_pass
    assert rep.criterion_witness == 0
    assert rep.classical_pass
    assert rep.note is not None


# ---------------------------------------------------------------- planar polygons


def test_figure_eight_has_one_crossing():
    fig8 = [(0, 0), (2, 2), (0, 2), (2, 0)]
    assert planar_self_crossings(fig8) == ((F(1), F(1)),)
    assert planar_curve_hopf(fig8) == 1


def test_unicursal_hexagram_has_three_crossings():
    hexagram = [(4, 0), (-2, 4), (-2, -4), (-4, 0), (2, 4), (2, -4)]
    assert len(planar_self_crossings(hexagram)) == 3
    assert planar_curve_hopf(hexagram) == 1


def test_embedded_polygon_has_no_crossings():
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert planar_self_crossings(square) == ()
    assert planar_curve_hopf(square) == 0


def test_degenerate_polygons_are_rejected():
    with pytest.raises(DegeneratePosition):
        planar_self_crossings([(0, 0), (1, 1)])
    with pytest.raises(DegeneratePosition):
        planar_self_crossings([(0, 0), (1, 0), (0, 0), (1, 1)])
    with pytest.raises(DegeneratePosition, match="fold back"):
        # the closing edge from (2, 2) runs back along the first edge
        planar_self_crossings([(0, 0), (4, 4), (4, 0), (2, 2)])


@pytest.mark.parametrize(
    "polygon, message",
    [
        pytest.param(
            [(0, 0), (2, 0), (3, 1), (3, 0), (1, 0), (1, -1)],
            "collinear overlapping edges",
            id="collinear",
        ),
        pytest.param(
            # the vertex (2, 0) lies inside the first edge
            [(0, 0), (4, 0), (4, 2), (2, 0), (0, 2)],
            "edge endpoint touches another edge",
            id="touching",
        ),
        pytest.param(
            # three edges through the origin
            [(-2, 0), (2, 0), (0, 2), (0, -2), (3, 3), (-3, -3)],
            "three or more edges concurrent at a point",
            id="concurrent",
        ),
    ],
)
def test_planar_self_crossings_refuses_non_generic_polygons(polygon, message):
    with pytest.raises(DegeneratePosition, match=message):
        planar_self_crossings(polygon)


# ---------------------------------------------------------------- the walker


@pytest.mark.parametrize(
    "nodes, succ, runs",
    [
        # open runs first, then closed ones
        (range(6), [1, -1, 3, 2, 5, -1], [(0, 1), (4, 5), (2, 3)]),
        (range(7), [2, -1, 4, 0, -1, 6, 5], [(1,), (3, 0, 2, 4), (5, 6)]),
        # closed runs start at their first node in the order of ``nodes``
        ((2, 1, 0, 3), [1, 0, 3, 2], [(2, 3), (1, 0)]),
        ((3, 1, 2, 0), [1, 2, 0, 3], [(3,), (1, 2, 0)]),
        # a -1 loose end
        ((0,), [-1], [(0,)]),
        # runs that leave ``nodes``, open and closed
        ((0, 1), [1, 2, -1], [(0, 1, 2)]),
        ((0,), [1, 0], [(0, 1)]),
        # a run stops at a piece an earlier run took
        ((2, 1), [1, 2, -1], [(2,), (1,)]),
    ],
)
def test_chains_splits_a_partial_injection_into_runs(nodes, succ, runs):
    assert dpl.double_points._chains(nodes, succ) == runs


def test_chains_refuses_two_pieces_continuing_into_one():
    with pytest.raises(AssertionError):
        dpl.double_points._chains(range(3), [2, 2, -1])


def _torus(p, x1):
    """The point with each coordinate equal to x1 = x_0 + 1 moved to x_0."""
    return tuple(c - 1 if c == x1 else c for c in p)


def _point_glued(pieces, x1):
    """Glue by torus points: an end continues into the piece that starts
    at the same point of the torus, unless that point is on the diagonal."""
    starts = {}
    for index, piece in enumerate(pieces):
        p = _torus(piece[3], x1)
        if p[0] != p[1]:
            assert p not in starts, p
            starts[p] = index
    return [starts.get(_torus(piece[4], x1), -1) for piece in pieces]


def test_lap_rectangle_gluing_matches_torus_point_gluing():
    glued = loose = 0
    for seed in range(300):
        f = random_map(seed, 12, 4)
        for g in (f, f.reflect()):
            rows = g._lap_table
            pieces, succ = dpl.double_points._glued_pieces(rows, rows, g.degree, g._grid)
            assert succ == _point_glued(pieces, g.breakpoints[0][0] + 1), (seed, g)
            loose += succ.count(-1)
            glued += len(succ) - succ.count(-1)
    assert loose > 3000 and glued > 30000, (loose, glued)


def _clipped_by_fractions(laps_x, laps_y, circle_degree=None):
    """{lift_i(x) = lift_j(y) + k} on each lap rectangle, in plain Fractions.

    A lap is ((x0, a0), (x1, a1)).  On a circle map every k whose value
    ranges overlap is solved, the diagonal (i = j, k = 0) left out; on an
    interval pair only k = 0.  Each piece runs from its lower value to its
    upper one when both laps slope the same way, else back.
    """
    pieces = []
    for i, ((x0, a0), (x1, a1)) in enumerate(laps_x):
        for j, ((y0, b0), (y1, b1)) in enumerate(laps_y):
            if circle_degree is None:
                ks = [0]
            else:
                low = math.ceil(min(a0, a1) - max(b0, b1))
                ks = range(low, math.floor(max(a0, a1) - min(b0, b1)) + 1)
            for k in ks:
                if circle_degree is not None and i == j and k == 0:
                    continue
                lo = max(min(a0, a1), min(b0, b1) + k)
                hi = min(max(a0, a1), max(b0, b1) + k)
                if lo >= hi:
                    continue

                def at(v):
                    return (
                        x0 + (v - a0) / (a1 - a0) * (x1 - x0),
                        y0 + (v - k - b0) / (b1 - b0) * (y1 - y0),
                    )

                ends = (at(lo), at(hi)) if (a1 > a0) == (b1 > b0) else (at(hi), at(lo))
                pieces.append((i, j, k, *ends))
    return pieces


def _circle_laps(f):
    (x0, l0), *_ = pts = list(f.breakpoints)
    pts.append((x0 + 1, l0 + f.degree))
    return list(zip(pts, pts[1:]))


def test_clipper_matches_a_plain_fraction_clipper():
    maps = [random_map(seed, 12, 4) for seed in range(100)]
    maps += [random_map(seed, 40, 5) for seed in range(8)]
    for f in maps:
        for g in (f, f.reflect()):
            laps = _circle_laps(g)
            want = _clipped_by_fractions(laps, laps, g.degree)
            rows = g._lap_table
            got = dpl.double_points._equal_value_pieces(rows, rows, g.degree, g._grid)
            assert [piece[:5] for piece in got] == want, g


def test_interval_clipper_matches_a_plain_fraction_clipper():
    pairs = 0
    for seed, first, second in corner_pairs():
        laps = [list(zip(m.breakpoints, m.breakpoints[1:])) for m in (first, second)]
        grid = _grid_of(first.breakpoints + second.breakpoints)
        rows = [m._rows(grid) for m in (first, second)]
        got = dpl.double_points._equal_value_pieces(*rows, None, grid)
        assert [piece[:5] for piece in got] == _clipped_by_fractions(*laps), seed
        pairs += 1
    assert pairs > 500, pairs


# ---------------------------------------------------------------- Fraction oracles


def _fraction_windings(comp, x1):
    """A chain's windings counted on its Fraction points: on each coordinate,
    its segment ends at x1 = x_0 + 1 minus its segment starts there."""
    p1 = sum((s.end[0] == x1) - (s.start[0] == x1) for s in comp.segments)
    p2 = sum((s.end[1] == x1) - (s.start[1] == x1) for s in comp.segments)
    return p1, p2


def _fraction_diagonal_ends(comp, x1):
    """An arc's two diagonal points, as fold vertices in [x_0, x_0 + 1)."""
    ends = [_torus(comp.segments[0].start, x1), _torus(comp.segments[-1].end, x1)]
    assert all(p[0] == p[1] for p in ends), ends
    return tuple(p[0] for p in ends)


def _fraction_covers(f, comp):
    """Whether the values f(x) along the component cover the whole circle.

    Summing each segment's value change (end.x - start.x) * slope traces a
    lift of the image to the line; the image covers the circle exactly when
    that lift sweeps an interval at least 1 long.
    """
    value = low = high = 0
    for seg in comp.segments:
        value += (seg.end[0] - seg.start[0]) * f.slopes[seg.lap_x]
        low, high = min(low, value), max(high, value)
    return high - low >= 1


def _fraction_mismatches(f):
    """Where the curve's windings, arc ends or lift flags differ from the
    Fraction oracles above."""
    x1 = f.breakpoints[0][0] + 1
    curve = double_point_curve(f)
    found = []
    for c in curve.components:
        if c.kind == "circle":
            want = (*_fraction_windings(c, x1), None)
        else:
            want = (0, 0, _fraction_diagonal_ends(c, x1))
        if (c.p1_degree, c.p2_degree, c.diagonal_ends) != want:
            found.append((c.index, want))
    for q in curve.quotient_components:
        if q.lifts_through_arc == _fraction_covers(f, curve.components[q.members[0]]):
            found.append((q.members, q.lifts_through_arc))
    return found


def _oracle_maps():
    for seed in range(300):
        f = random_map(seed, 12, 4)
        yield from (f, f.reflect())
    for seed in range(4):
        f = random_map(seed, 40, 5)
        yield from (f, f.reflect())
    for d in range(-4, 6):
        if d not in (0, 1):
            yield make_map([(0, 0)], d)


def test_curve_structure_matches_the_fraction_oracles():
    circles = wound = arcs = lifting = covering = 0
    for f in _oracle_maps():
        assert _fraction_mismatches(f) == [], f
        curve = double_point_curve(f)
        for c in curve.components:
            circles += c.kind == "circle"
            wound += c.p1_degree != 0 or c.p2_degree != 0
            arcs += c.kind == "arc"
        for q in curve.quotient_components:
            lifting += q.lifts_through_arc
            covering += not q.lifts_through_arc
    counts = (circles, wound, arcs, lifting, covering)
    assert min(counts) > 100, counts


def _to_fundamental_ends(f, comp):
    """An arc's two diagonal points, each end's coordinates moved into
    [x_0, x_0 + 1) by ``f.to_fundamental``."""
    c_from = tuple(map(f.to_fundamental, comp.segments[0].start))
    c_to = tuple(map(f.to_fundamental, comp.segments[-1].end))
    assert c_from[0] == c_from[1] and c_to[0] == c_to[1], (c_from, c_to)
    return c_from[0], c_to[0]


def _build_mismatches(f):
    """Where the curve's arc ends differ from ``to_fundamental``, or its
    segments from ``CurveSegment`` records built by the dataclass from the
    clipper's pieces."""
    curve = double_point_curve(f)
    found = [
        (c.index, c.diagonal_ends)
        for c in curve.components
        if c.kind == "arc" and c.diagonal_ends != _to_fundamental_ends(f, c)
    ]
    rows = f._lap_table
    pieces, _ = dpl.double_points._glued_pieces(rows, rows, f.degree, f._grid)
    segments = [s for c in curve.components for s in c.segments]
    built = sorted(segments, key=lambda s: s.key)
    fields = [field.name for field in dataclasses.fields(CurveSegment)]
    found += [s for s in built if list(vars(s)) != fields]
    if built != [CurveSegment(*p[:5]) for p in pieces]:
        found.append(("segments", len(built), len(pieces)))
    return found


def _from_zero(f):
    """f with its domain turned so that its first vertex sits at x = 0."""
    x0 = f.breakpoints[0][0]
    return make_map([(x - x0, l) for x, l in f.breakpoints], f.degree)


def test_arc_ends_and_segments_match_to_fundamental_and_the_dataclass():
    maps = [random_map(seed, 12, 4) for seed in range(200)]
    maps += [random_map(seed, 40, 5) for seed in range(4)]
    maps += [make_map([(x, F(1, 7))], d) for x in (0, F(3, 5)) for d in (-3, 2, 5)]
    arcs = seam = zero = fold_free = 0
    for f in maps:
        for g in (f, f.reflect(), _from_zero(f)):
            assert _build_mismatches(g) == [], g
            x0 = g.breakpoints[0][0]
            zero += x0 == 0
            fold_free += g.fold_free
            for c in double_point_curve(g).components:
                if c.kind == "arc":
                    arcs += 1
                    ends = (*c.segments[0].start, *c.segments[-1].end)
                    seam += x0 + 1 in ends
    assert min(arcs, seam, zero, fold_free) > 30, (arcs, seam, zero, fold_free)


# ---------------------------------------------------------------- consistency


def test_component_lookup_roundtrip():
    curve = double_point_curve(four_fold_deg2())
    for c in curve.components:
        for seg in c.segments:
            assert curve.component_of_segment_key(seg.key) == c.index


def test_curve_remembers_its_map():
    f = tent()
    assert double_point_curve(f).map == f


def test_unfolded_arc_counts_match_circle_windings():
    """Positive components over an unfolded arc pair off with circle windings."""
    f = four_fold_deg2()
    curve = double_point_curve(f)
    arc = TransverseArc(Angle(F(61, 128)), Angle(F(31, 64)))
    cls = classify_preimage(f, arc)
    circles = [c for c in curve.components if c.kind == "circle"]
    assert cls.positive_count - cls.negative_count == f.degree
    assert sum(c.p1_degree for c in circles) >= f.degree - 1


# ---------------------------------------------------------------- the cached curve


def test_curve_is_built_once_per_map():
    f = random_map(7, 12, 4)
    assert double_point_curve(f) is double_point_curve(f)


def test_verdicts_reuse_the_cached_curve(monkeypatch):
    f = random_map(11, 12, 4)
    curve = double_point_curve(f)
    builds = []
    raw = dpl.double_points._glued_pieces

    def counted(*rows):
        builds.append(rows)
        return raw(*rows)

    monkeypatch.setattr(dpl.double_points, "_glued_pieces", counted)
    hopf_invariant(f)
    realizability_report(f)
    arc_lift_check(f)
    assert double_point_curve(f) is curve
    assert builds == []
    double_point_curve(f.reflect())
    assert len(builds) == 1


def test_closures_are_built_on_first_read_and_kept():
    fields = [field.name for field in dataclasses.fields(DoublePointCurve)]
    assert fields == ["map", "components"]
    f = four_fold_deg2()
    hopf_invariant(f)
    realizability_report(f)
    arc_lift_check(f)
    arc, _ = eliminate_negative_arcs(f)
    pair_count_check(f, arc)
    curve = double_point_curve(f)
    assert "closure_components" not in vars(curve)
    closures = curve.closure_components
    assert closures and vars(curve)["closure_components"] is closures
    assert curve.closure_components is closures


def test_equal_maps_get_their_own_equal_curves():
    f = random_map(5, 12, 4)
    g = random_map(5, 12, 4)
    assert f == g and f is not g
    assert double_point_curve(f) is not double_point_curve(g)
    assert double_point_curve(f) == double_point_curve(g)
    assert double_point_curve(f.reflect()) is not double_point_curve(f)
    assert double_point_curve(f.reflect()).map == f.reflect()


def test_caching_the_curve_leaves_the_map_unchanged():
    f, g = random_map(9, 12, 4), random_map(9, 12, 4)
    before = (f == g, hash(f), repr(f))
    double_point_curve(f)
    assert (f == g, hash(f), repr(f)) == before
    assert hash(f) == hash(g) and repr(f) == repr(g)
