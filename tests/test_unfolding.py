from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from dpl import (
    Angle,
    EndpointNotRegular,
    InfeasibleParameters,
    TransverseArc,
    build_euler_graph,
    classify_preimage,
    corner_connectivity,
    eliminate_negative_arcs,
    eulerian_resolution,
    find_balanced_path,
    make_interval_map,
    make_map,
    pair_count_check,
    resolution_choices,
    surgery_parity,
    trace_circuits,
)
from dpl.unfolding import (
    Infeasible,
    IntervalMapPair,
    NoOppositeArc,
    PreconditionUnmet,
    UnfoldingBlocked,
    _finishing_arc,
    _try_direction,
)


def tent():
    return make_map([(0, 0), (F(1, 2), F(3, 4))], 0)


def deep_tent():
    # the downward lap crosses every level below 3/5 twice in a row
    return make_map([(0, 0), (F(1, 2), F(8, 5))], 0)


# ---------------------------------------------------------------- balanced paths


def test_tent_balanced_path_is_one_sided():
    f = tent()
    arc = TransverseArc(Angle(F(1, 4)), Angle(F(3, 8)))
    cls = classify_preimage(f, arc)
    neg = next(i for i, c in enumerate(cls.components) if c.kind == "negative")
    path = find_balanced_path(f, arc, neg, cls)
    assert path.one_sided
    assert path.skipped == ()
    assert path.start_component == neg
    assert cls.components[path.end_component].kind == "positive"
    assert path.direction == 1
    assert path.start_point < path.end_point
    from dpl import mod1

    assert mod1(path.level) == arc.ccw_start.value
    assert f.evaluate(mod1(path.start_point)) == f.evaluate(mod1(path.end_point))


def test_balanced_path_needs_an_arc_component():
    f = tent()
    arc = TransverseArc(Angle(F(7, 8)), Angle(F(3, 8)))  # already unfolded
    cls = classify_preimage(f, arc)
    assert cls.neutral_count == 1
    neutral = next(i for i, c in enumerate(cls.components) if c.kind == "neutral")
    with pytest.raises(PreconditionUnmet):
        find_balanced_path(f, arc, neutral, cls)


def test_balanced_path_absent_partner():
    f = make_map([(0, 0)], 2)  # no folds: positive components only
    arc = TransverseArc(Angle(F(1, 8)), Angle(F(1, 4)))
    cls = classify_preimage(f, arc)
    with pytest.raises(NoOppositeArc):
        find_balanced_path(f, arc, 0, cls)


def test_balanced_path_classifies_the_arc_when_not_given_a_classification():
    # No negative component starts counterclockwise of component 0's end at
    # its level, so the clockwise scan finds the partner.
    f = make_map([(F(3, 16), F(43, 48)), (F(5, 16), F(257, 96))], 1)
    arc = TransverseArc(Angle(F(5, 32)), Angle(F(9, 32)))
    cls = classify_preimage(f, arc)
    assert [c.kind for c in cls.components] == ["positive", "positive", "negative"]
    path = find_balanced_path(f, arc, 0)
    assert (path.direction, path.end_component, path.skipped) == (-1, 2, ())
    assert (path.start_point, path.end_point) == (F(563, 2736), F(-5, 48))
    assert path == find_balanced_path(f, arc, 0, cls)
    # a clockwise traversal's classification is replaced by the arc's own
    reverse = classify_preimage(f, TransverseArc(arc.end, arc.start, -1))
    assert find_balanced_path(f, arc, 0, reverse) == path


def test_clockwise_scan_lists_the_arcs_it_passes():
    bps = [(0, 0), (F(1, 4), F(1, 4)), (F(1, 2), F(-3, 2)), (F(3, 4), F(3, 4))]
    f = make_map(bps, 0)
    cls = classify_preimage(f, TransverseArc(Angle(F(1, 16)), Angle(F(3, 16))))
    kinds = ["positive", "negative", "negative", "positive", "positive", "negative"]
    assert [c.kind for c in cls.components] == kinds
    # From component 2's start, 45/112, the walk runs down past 0 to
    # component 3's end, 83/144 - 1, over components 1, 0, 5 and 4.
    path = _try_direction(f, cls, 2, -1)
    assert (path.start_point, path.end_point) == (F(45, 112), F(-61, 144))
    assert (path.end_component, path.skipped) == (3, (0, 1, 4, 5))
    assert path.level == path.path_min == F(-13, 16) and path.path_max == F(3, 4)
    assert path.one_sided


# ---------------------------------------------------------------- unfolding


def test_tent_unfold_trace_is_the_frozen_one():
    f = tent()
    arc, trace = eliminate_negative_arcs(f, TransverseArc(Angle(F(1, 4)), Angle(F(3, 8))))
    assert arc == TransverseArc(Angle(F(7, 8)), Angle(F(3, 8)))
    assert arc.width == F(1, 2)
    assert not trace.reflected
    assert [s.negative_count for s in trace.steps] == [1, 0]
    assert trace.steps[0].extended_start == Angle(F(7, 8))
    assert trace.steps[0].path is not None


def test_unfold_default_arc_lands_in_a_quiet_gap():
    arc, trace = eliminate_negative_arcs(deep_tent())
    assert trace.steps[-1].negative_count == 0
    assert trace.steps[-1].positive_count == 0  # degree 0
    # the chosen arc must avoid the swept band below 3/5
    assert F(3, 5) <= trace.steps[0].arc.ccw_end.value < 1


def test_unfold_blocked_when_every_end_is_swept():
    f = deep_tent()
    trapped = TransverseArc(Angle(F(11, 20)), Angle(F(1, 20)))
    with pytest.raises(UnfoldingBlocked):
        eliminate_negative_arcs(f, trapped)


def test_finishing_move_clears_every_negative_at_once():
    # Greedy growth has not needed this move on any input tried, so it is
    # pinned directly: the end moves up to the first sweep-free level, 4/5,
    # and the start stops just short of the dip's lowest value, 0.
    f = deep_tent()
    start = TransverseArc(Angle(F(1, 10)), Angle(F(1, 5)))
    assert classify_preimage(f, start).negative_count == 2
    arc = _finishing_arc(f, start)
    assert arc == TransverseArc(Angle(F(319, 320)), Angle(F(4, 5)))
    assert classify_preimage(f, arc).negative_count == 0


def test_unfold_negative_degree_goes_through_reflection():
    f = make_map([(0, 0), (F(1, 3), F(-5, 4)), (F(2, 3), F(-7, 4))], -2)
    arc, trace = eliminate_negative_arcs(f)
    assert trace.reflected
    assert trace.steps[-1].negative_count == 0
    assert trace.steps[-1].positive_count == 2


def test_unfold_regular_value_mode_clears_the_fiber():
    f = tent()
    arc, trace = eliminate_negative_arcs(f, mode="regular-value", value=F(1, 8))
    assert trace.mode == "regular-value"
    cls = classify_preimage(f, arc)
    for x in f.fiber(F(1, 8)):
        comp = cls.component_containing(x)
        assert comp is not None and comp.kind in ("positive", "circle")


def test_unfold_regular_value_mode_refuses_a_critical_value():
    for value in (0, F(3, 4)):  # the tent's two fold values
        with pytest.raises(EndpointNotRegular, match="is a critical value"):
            eliminate_negative_arcs(tent(), mode="regular-value", value=value)
    with pytest.raises(InfeasibleParameters):
        eliminate_negative_arcs(tent(), mode="regular-value")


def test_unfold_rejects_unknown_mode():
    for mode in ("inside-out", "open-subset"):
        with pytest.raises(ValueError):
            eliminate_negative_arcs(tent(), mode=mode)


# ---------------------------------------------------------------- pair counts


def test_pair_count_rows_tent():
    f = tent()
    arc, _ = eliminate_negative_arcs(f, TransverseArc(Angle(F(1, 4)), Angle(F(3, 8))))
    report = pair_count_check(f, arc)
    assert report.ok
    assert report.fiber_points == ()
    assert [(r.expected, r.actual) for r in report.rows] == [(0, 0), (0, 0)]


def test_pair_count_rows_deg2():
    f = make_map(
        [(0, 0), (F(1, 4), F(11, 8)), (F(1, 2), F(9, 8)), (F(3, 4), F(39, 16))], 2
    )
    arc, _ = eliminate_negative_arcs(f)
    report = pair_count_check(f, arc)
    assert report.ok
    assert len(report.fiber_points) == 2
    assert sorted(r.expected for r in report.rows) == [0, 0, 0, 0, 1]


def test_pair_count_requires_unfolded_arc():
    f = tent()
    with pytest.raises(PreconditionUnmet):
        pair_count_check(f, TransverseArc(Angle(F(1, 4)), Angle(F(3, 8))))
    neg = make_map([(0, 0), (F(1, 3), F(-5, 4)), (F(2, 3), F(-7, 4))], -2)
    arc, _ = eliminate_negative_arcs(neg)
    with pytest.raises(PreconditionUnmet):
        pair_count_check(neg, arc)


# ---------------------------------------------------------------- interval pairs


def test_corner_connectivity_identity_pair():
    idn = make_interval_map([(0, 0), (1, 1)])
    zig = make_interval_map([(0, 0), (F(1, 3), F(2, 3)), (F(2, 3), F(1, 3)), (1, 1)])
    report = corner_connectivity(IntervalMapPair(idn, zig))
    assert report.connected
    assert not report.collar_extended
    assert report.component_count == 1
    assert report.witness[0] == (F(0), F(0))
    assert report.witness[-1] == (F(1), F(1))


def test_corner_connectivity_two_zigzags():
    zig = make_interval_map([(0, 0), (F(1, 3), F(2, 3)), (F(2, 3), F(1, 3)), (1, 1)])
    zag = make_interval_map([(0, 0), (F(1, 4), F(3, 4)), (F(1, 2), F(1, 4)), (1, 1)])
    report = corner_connectivity(IntervalMapPair(zig, zag))
    assert report.connected
    assert report.component_count == 1


def test_corner_connectivity_collar_cases():
    idn = make_interval_map([(0, 0), (1, 1)])
    zag = make_interval_map([(0, 0), (F(1, 4), F(3, 4)), (F(1, 2), F(1, 4)), (1, 1)])
    touch = make_interval_map([(0, 0), (F(1, 2), 1), (F(3, 4), F(1, 2)), (1, 1)])
    r1 = corner_connectivity(IntervalMapPair(idn, touch))
    assert r1.connected and r1.collar_extended and r1.component_count == 1
    r2 = corner_connectivity(IntervalMapPair(zag, touch))
    assert r2.connected and r2.collar_extended and r2.component_count == 2


def test_corner_connectivity_rejects_shared_fold_values():
    a = make_interval_map([(0, 0), (F(1, 3), F(1, 2)), (F(1, 2), F(1, 4)), (1, 1)])
    b = make_interval_map([(0, 0), (F(1, 4), F(1, 2)), (F(3, 4), F(1, 8)), (1, 1)])
    from dpl import DuplicateVertexValue

    with pytest.raises(DuplicateVertexValue):
        corner_connectivity(IntervalMapPair(a, b))


def test_interval_map_validation():
    from dpl import NonIncreasingDomain, ZeroSlopeSegment

    with pytest.raises(NonIncreasingDomain):
        make_interval_map([(0, 0)])
    with pytest.raises(ZeroSlopeSegment):
        make_interval_map([(0, 0), (F(1, 2), 0), (1, 1)])
    with pytest.raises(PreconditionUnmet):
        make_interval_map([(0, F(1, 8)), (1, 1)])


# ---------------------------------------------------------------- euler graphs


def test_build_euler_graph_checks_degrees():
    with pytest.raises(InfeasibleParameters):
        build_euler_graph([(0, 1), (1, 0)])
    with pytest.raises(InfeasibleParameters):
        build_euler_graph([], free_loops=-1)


def test_two_vertex_graph_resolves_to_one_circuit():
    g = build_euler_graph([(0, 1), (0, 1), (1, 0), (1, 0)])
    res = eulerian_resolution(g)
    assert sorted(res.circuit) == [0, 1, 2, 3]
    assert len(trace_circuits(g, res.pairing)) == 1


def test_resolution_choices_enumerate_all_pairings():
    g = build_euler_graph([(0, 1), (0, 1), (1, 0), (1, 0)])
    choices = list(resolution_choices(g))
    assert len(choices) == 4  # 2^2 vertices
    singles = [p for p in choices if len(trace_circuits(g, p)) == 1]
    assert eulerian_resolution(g).pairing in singles
    counts = sorted(len(trace_circuits(g, p)) for p in choices)
    assert counts[0] == 1 and counts[-1] >= 2


def test_trace_circuits_follows_pairings_that_do_not_permute_the_edges():
    g = build_euler_graph([(0, 1), (0, 1), (1, 0), (1, 0)])
    full = next(iter(resolution_choices(g)))
    assert trace_circuits(g, full) == ((0, 2), (1, 3))
    # vertex 1 unpaired: open runs from the edges nothing leads into
    assert trace_circuits(g, full[:1]) == ((2, 0), (3, 1))
    # a run may leave the component's edges
    stray = ((0, ((2, 0), (3, 1))), (1, ((0, 2), (1, 7))))
    assert trace_circuits(g, stray) == ((3, 1, 7), (0, 2))
    with pytest.raises(AssertionError):
        trace_circuits(g, ((0, ((2, 0), (3, 0))),))


def test_free_loops_are_their_own_components():
    g = build_euler_graph([(0, 0), (0, 0)], free_loops=2)
    assert g.component_count == 3
    res = eulerian_resolution(g, component=2)
    assert res.pairing == () and res.circuit == ()
    assert trace_circuits(g, (), component=2) == ((),)
    assert list(resolution_choices(g, 2)) == [()]
    assert g.component_edges(2) == ()


def test_disconnected_graph_resolves_per_component():
    g = build_euler_graph([(0, 0), (0, 0), (1, 1), (1, 1)])
    assert len(g.components) == 2
    for c in range(2):
        res = eulerian_resolution(g, c)
        assert len(trace_circuits(g, res.pairing, c)) == 1


def test_component_out_of_range():
    g = build_euler_graph([(0, 0), (0, 0)])
    pairing = eulerian_resolution(g).pairing
    calls = (
        lambda c: eulerian_resolution(g, c),
        lambda c: resolution_choices(g, c),
        lambda c: trace_circuits(g, pairing, c),
        g.component_edges,
    )
    for call in calls:
        for component in (5, -1):
            with pytest.raises(InfeasibleParameters):
                call(component)


# ---------------------------------------------------------------- surgery parity


def test_surgery_parity_frozen_triple():
    assert surgery_parity(4, 12, 15) == (False, 1)


def test_surgery_parity_orientable_cases():
    assert surgery_parity(4, 12, 8) == (True, 0)
    assert surgery_parity(3, 3, 2) == (True, 0)
    assert surgery_parity(3, 3, 3) == (False, 1)


def test_surgery_parity_infeasible():
    with pytest.raises(Infeasible):
        surgery_parity(4, 12, 7)
    with pytest.raises(InfeasibleParameters):
        surgery_parity(0, 3, 3)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=80),
)
def test_surgery_parity_matches_its_definition(c_in, c_out, n):
    delta = abs(c_out - c_in)
    if n < delta:
        with pytest.raises(Infeasible):
            surgery_parity(c_in, c_out, n)
        return
    feasible, minimum = surgery_parity(c_in, c_out, n)
    assert feasible == ((n - delta) % 2 == 0)
    assert minimum == (0 if feasible else 1)
