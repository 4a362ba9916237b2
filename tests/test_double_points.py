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
    hopf_invariant,
    make_map,
    planar_curve_hopf,
    planar_self_crossings,
    random_map,
    realizability_report,
    TransverseArc,
)


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
    with pytest.raises(DegeneratePosition):
        # the vertex (2, 2) lands on the interior of the first edge
        planar_self_crossings([(0, 0), (4, 4), (4, 0), (2, 2)])


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
    raw = dpl.double_points._raw_segments

    def counted(g):
        builds.append(g)
        return raw(g)

    monkeypatch.setattr(dpl.double_points, "_raw_segments", counted)
    hopf_invariant(f)
    realizability_report(f)
    arc_lift_check(f)
    assert double_point_curve(f) is curve
    assert builds == []
    double_point_curve(f.reflect())
    assert len(builds) == 1


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
