import dataclasses
import itertools
import math
import random
from bisect import bisect_right
from fractions import Fraction as F
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

import dpl.unfolding
from dpl import (
    Angle,
    EndpointNotRegular,
    InfeasibleParameters,
    NonIncreasingDomain,
    TransverseArc,
    UnfoldStep,
    UnfoldTrace,
    build_euler_graph,
    classify_preimage,
    corner_connectivity,
    eliminate_negative_arcs,
    eulerian_resolution,
    find_balanced_path,
    make_interval_map,
    make_map,
    pair_count_check,
    random_admissible_graph,
    random_map,
    resolution_choices,
    surgery_parity,
    trace_circuits,
)
from dpl.circle_maps import _grid_of, downward_pair_count, mod1, value_gaps
from dpl.double_points import _glued_pieces
from dpl.properties import _sweep_free_reach
from dpl.sweeps import Infeasible
from dpl.unfolding import (
    EulerGraph,
    IntervalMapPair,
    NoOppositeArc,
    PreconditionUnmet,
    UnfoldingBlocked,
    _candidate_arc,
    _candidate_order,
    _growth_candidates,
    _lift_extrema,
    _plain_eliminate,
    _sweep_free_end_reachable,
    _try_direction,
    _with_collar,
)

from test_acceptance import _balanced_graphs
from test_circle_maps import _off_grid
from test_golden import _random_interval_breakpoints


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
    with pytest.raises(NoOppositeArc, match="no opposite-sign arcs exist"):
        find_balanced_path(f, arc, 0, cls)
    # Opposite arcs exist, but at negative degree Lemma B does not hold:
    # neither walk from component 2 meets the one positive arc at its level.
    f = make_map([(F(1, 8), F(1, 4)), (F(3, 4), F(67, 64))], -2)
    arc = TransverseArc(Angle(F(33, 64)), Angle(F(25, 32)))
    cls = classify_preimage(f, arc)
    assert [c.kind for c in cls.components] == ["positive"] + ["negative"] * 3
    with pytest.raises(NoOppositeArc, match="required lift level"):
        find_balanced_path(f, arc, 2, cls)


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


def test_balanced_path_ignores_another_arcs_classification():
    f = tent()
    arc = TransverseArc(Angle(F(1, 4)), Angle(F(3, 8)))
    foreign = classify_preimage(f, TransverseArc(Angle(F(1, 8)), Angle(F(5, 8))))
    path = find_balanced_path(f, arc, 0)
    assert find_balanced_path(f, arc, 0, foreign) == path
    # the foreign arc's positive component would start at 5/12, on 5/8
    assert (path.start_point, path.level) == (F(1, 4), F(3, 8))


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


def test_growth_witness_need_not_be_one_sided():
    # Lemma B promises a counterclockwise partner, not a one-sided path:
    # the second step's path rises above its level and falls below it
    _, trace = eliminate_negative_arcs(random_map(199, 6, 2))
    path = trace.steps[1].path
    assert (path.direction, path.start_component, path.end_component) == (1, 3, 1)
    assert path.path_min < path.level < path.path_max
    assert not path.one_sided


def _scanned_extrema(f, lo, hi):
    """Min and max of the lift over [lo, hi], trying every translate of
    every breakpoint that could lie strictly inside."""
    values = [f.lift_evaluate(lo), f.lift_evaluate(hi)]
    for x, l in f.breakpoints:
        k = math.ceil(lo - x)
        while x + k < hi:
            if x + k > lo:
                values.append(l + k * f.degree)
            k += 1
    return min(values), max(values)


def test_lift_extrema_match_the_scan_over_every_breakpoint():
    maps = [random_map(seed, 12, 4) for seed in range(4)]
    maps += [tent(), make_map([(F(3, 5), F(-7, 4))], -2)]
    pairs = 0
    for f in maps:
        # vertices several turns away, and points between them
        points = [x + k for x, _ in f.breakpoints for k in (-5, 0, 3)]
        points += [F(n, 17) for n in range(-90, 90, 19)]
        for lo, hi in itertools.combinations_with_replacement(sorted(set(points)), 2):
            assert _lift_extrema(f, lo, hi) == _scanned_extrema(f, lo, hi), (f, lo, hi)
            pairs += 1
    assert pairs > 2000


def _fraction_extrema(f, lo, hi):
    """_lift_extrema as first written, walking the vertices in Fractions."""
    xs, ls, n, d = f._xs, f._ls, f.lap_count, f.degree
    values = [f.lift_evaluate(lo), f.lift_evaluate(hi)]
    turn = math.floor(lo - xs[0])
    i, top = bisect_right(xs, lo - turn), hi - turn
    while xs[i] < top:
        values.append(ls[i] + turn * d)
        i += 1
        if i > n:
            i, turn, top = 1, turn + 1, top - 1
    return min(values), max(values)


def _oracle_maps():
    maps = [random_map(seed, 40, 5) for seed in range(30)]
    maps += [make_map([(F(3, 5), F(-7, 4))], d) for d in (-2, 1, 3)]
    return [g for f in maps for g in (f, f.reflect())]


def test_lift_extrema_match_their_fraction_oracle():
    rng = random.Random("extrema oracle")
    for f in _oracle_maps():
        for _ in range(30):
            lo, hi = sorted(_off_grid(rng, 2))
            assert _lift_extrema(f, lo, hi) == _fraction_extrema(f, lo, hi), (f, lo, hi)


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


def _arc_contains_arc(big, small):
    """Whether ``small`` lies inside ``big``, measured with ``Angle.ccw_to``."""
    off = big.ccw_start.ccw_to(small.ccw_start)
    return off + small.width <= big.width


def _trace_accepts(small, big):
    """Whether a trace takes ``small`` and then ``big`` as consecutive arcs."""
    steps = tuple(UnfoldStep(arc, 0, 0, None, None, None) for arc in (small, big))
    try:
        UnfoldTrace(steps, big, "plain", reflected=False)
    except AssertionError:
        return False
    return True


def test_trace_nesting_check_matches_the_angle_oracle():
    # every arc between points of mixed denominators, both ways round
    points = [F(0), F(1, 4), F(1, 3), F(1, 2), F(3, 5), F(2, 3), F(5, 6)]
    arcs = [
        TransverseArc(a, b, orientation)
        for a, b in itertools.permutations(points, 2)
        for orientation in (1, -1)
    ]
    nested = 0
    for small, big in itertools.product(arcs, repeat=2):
        want = _arc_contains_arc(big, small)
        assert _trace_accepts(small, big) == want, (small, big)
        nested += want
    assert 500 < nested < len(arcs) ** 2 - 500, nested


def test_unfold_default_arc_lands_in_a_quiet_gap():
    arc, trace = eliminate_negative_arcs(deep_tent())
    assert trace.steps[-1].negative_count == 0
    assert trace.steps[-1].positive_count == 0  # degree 0
    # the chosen arc must avoid the swept band below 3/5
    assert F(3, 5) <= trace.steps[0].arc.ccw_end.value < 1


def test_unfold_blocked_when_every_end_is_swept():
    f = deep_tent()
    trapped = TransverseArc(Angle(F(11, 20)), Angle(F(1, 20)))
    with pytest.raises(UnfoldingBlocked, match="every reachable end position"):
        eliminate_negative_arcs(f, trapped)


def test_unfold_blocked_without_an_arc_when_every_level_is_swept():
    # the downward lap falls through every level twice in a row
    f = make_map([(0, 0), (F(1, 2), F(5, 2))], 0)
    assert all(downward_pair_count(f, lo + gw / 2) for lo, gw in value_gaps(f))
    with pytest.raises(UnfoldingBlocked, match="every level of the target circle"):
        eliminate_negative_arcs(f)


def _gap_thirds(f):
    """Regular levels at 1/3 and 2/3 of each value gap."""
    return [Angle(lo + gw * k / 3) for lo, gw in value_gaps(f) for k in (1, 2)]


def _negatives(f, x, y):
    return classify_preimage(f, TransverseArc(x, y)).negative_count


def _sorted_candidates(f, arc):
    """Every wider arc that moves one endpoint past a fold residue outside
    the arc, by width: the new start halfway into the gap below a residue,
    or the new end halfway into the gap above it, capped to keep the width
    below one."""
    a, b, w = arc.ccw_start.value, arc.ccw_end.value, arc.width
    gaps = value_gaps(f)
    out = []
    for i, (r, above) in enumerate(gaps):
        below = gaps[i - 1][1]
        to_end = (b - r) % 1
        half = min(below, 1 - to_end) / 2
        if w < to_end:
            out.append((to_end + half, "start", (r - half) % 1))
        from_start = (r - a) % 1
        half = min(above, 1 - from_start) / 2
        if w < from_start:
            out.append((from_start + half, "end", (r + half) % 1))
    return sorted(out)


def _fraction_candidates(f, arc, side):
    """_growth_candidates as first written, on the Fraction value gaps."""
    a, b = arc.ccw_start.value, arc.ccw_end.value
    w = arc.width
    gaps = value_gaps(f)
    n = len(gaps)
    grow_end = side == "end"
    below = bisect_right(gaps, b if grow_end else a, key=itemgetter(0)) - 1
    for step in range(n):
        k = (below + 1 + step if grow_end else below - step) % n
        r = gaps[k][0]
        if grow_end:
            reach = mod1(r - a)
            delta = min(gaps[k][1], 1 - reach) / 2
            point = mod1(r + delta)
        else:
            reach = mod1(b - r)
            delta = min(gaps[k - 1][1], 1 - reach) / 2
            point = mod1(r - delta)
        if reach < w:
            return
        yield reach + delta, side, point


def test_growth_candidates_match_their_fraction_oracle():
    """On arcs with ends off the grid, and with one end on a fold value."""
    rng = random.Random("candidate oracle")
    for f in _oracle_maps():
        folds = [r for r, _ in value_gaps(f)]
        for _ in range(10):
            a, b = map(Angle, _off_grid(rng, 2))
            r = Angle(rng.choice(folds))
            for ends in ((a, b), (r, b), (a, r)):
                if ends[0] == ends[1]:
                    continue
                arc = TransverseArc(*ends)
                for side in ("start", "end"):
                    want = list(_fraction_candidates(f, arc, side))
                    assert list(_growth_candidates(f, arc, side)) == want, (f, arc)


def test_growth_candidates_come_in_width_order():
    arcs = 0
    for shape, seeds in (((6, 2), 100), ((12, 4), 60), ((40, 5), 16)):
        for seed in range(seeds):
            f = random_map(seed, *shape)
            rng = random.Random(seed)
            levels = _gap_thirds(f)
            pairs = list(itertools.permutations(levels, 2))
            for a, b in rng.sample(pairs, min(6, len(pairs))):
                arc = TransverseArc(a, b)
                want = _sorted_candidates(f, arc)
                for side in ("start", "end"):
                    got = list(_growth_candidates(f, arc, side))
                    assert got == [c for c in want if c[1] == side], (f, arc)
                for need in (arc.width, (arc.width + 1) / 2):
                    wider = [c for c in want if c[1] == "start" and c[0] > need]
                    rest = [c for c in want if c not in wider]
                    assert list(_candidate_order(f, arc, need)) == wider[:1] + rest
                arcs += 1
    assert arcs > 900


def _first_need(f, arc, cls):
    """The width a start candidate must pass to clear the balanced path of
    the arc's first negative component."""
    first = next(i for i, c in enumerate(cls.components) if c.kind == "negative")
    path = _try_direction(f, cls, first, 1)
    return arc.width + (path.level - path.path_min)


def _inner_moves(f, arc):
    """What the first residue inside the arc offers: the endpoint moved
    halfway across the gap past it (capped below a full turn), when that
    widens the arc."""
    a, b, w = arc.ccw_start.value, arc.ccw_end.value, arc.width
    gaps = value_gaps(f)
    out = []
    for i, (r, above) in enumerate(gaps):
        below = gaps[i - 1][1]
        to_end, from_start = (b - r) % 1, (r - a) % 1
        if from_start < below and to_end < w:  # the first residue above a
            half = min(below, 1 - to_end) / 2
            if to_end + half > w:
                out.append((to_end + half, "start", (r - half) % 1))
        if to_end < above and from_start < w:  # the last residue below b
            half = min(above, 1 - from_start) / 2
            if from_start + half > w:
                out.append((from_start + half, "end", (r + half) % 1))
    return out


def _kinds(f, arc):
    return sorted(c.kind for c in classify_preimage(f, arc).components)


def test_a_move_inside_the_endpoints_gap_changes_no_kind():
    # so no such candidate lowers the count, and none is a first pick
    moves = starts = 0
    for seed in range(60):
        f = random_map(seed, (6, 12, 40)[seed % 3], 4)
        base = f if f.degree >= 0 else f.reflect()
        rng = random.Random(seed)
        pairs = list(itertools.permutations(_gap_thirds(base), 2))
        for a, b in rng.sample(pairs, min(10, len(pairs))):
            arc = TransverseArc(a, b)
            cls = classify_preimage(base, arc)
            for width, side, point in _inner_moves(base, arc):
                assert _kinds(base, _candidate_arc(arc, side, point)) == _kinds(
                    base, arc
                ), (base, arc, side)
                moves += 1
                if side == "start" and cls.negative_count:
                    assert width <= _first_need(base, arc, cls), (base, arc)
                    starts += 1
    assert moves > 400 and starts > 80, (moves, starts)


def test_the_first_pick_lowers_the_count_and_wider_starts_reach_less():
    picks = refused = 0
    for f in _swept_bases(24):
        rng = random.Random(repr(f))
        pairs = list(itertools.permutations(_gap_thirds(f), 2))
        for a, b in rng.sample(pairs, min(30, len(pairs))):
            arc = TransverseArc(a, b)
            starts = list(_growth_candidates(f, arc, "start"))
            reach = [
                _sweep_free_end_reachable(f, _candidate_arc(arc, "start", point))
                for _, _, point in starts
            ]
            # once a start loses the reach, every wider one has lost it too
            assert reach == sorted(reach, reverse=True), (f, arc)
            refused += reach.count(False)
            cls = classify_preimage(f, arc)
            if not cls.negative_count:
                continue
            need = _first_need(f, arc, cls)
            wider = [c for c in starts if c[0] > need]
            if wider:
                pick = _candidate_arc(arc, "start", wider[0][2])
                lowered = classify_preimage(f, pick).negative_count
                assert lowered < cls.negative_count, (f, arc)
                picks += 1
    assert picks > 200 and refused > 100, (picks, refused)


def test_acceptance_guard_refuses_a_first_pick_out_of_reach(monkeypatch):
    f = random_map(24, 14, 3)
    assert (f.degree, f.lap_count) == (2, 12)
    arc = TransverseArc(Angle(F(3401, 38208)), Angle(F(1303, 3184)))
    cls = classify_preimage(f, arc)
    # the first pick lowers the negatives from 3 to 1 but keeps no
    # sweep-free end in reach, so the step takes an end candidate instead
    pick = next(_candidate_order(f, arc, _first_need(f, arc, cls)))
    assert pick[1:] == ("start", F(13169, 19104))
    pick_arc = _candidate_arc(arc, "start", pick[2])
    assert (cls.negative_count, classify_preimage(f, pick_arc).negative_count) == (3, 1)
    assert not _sweep_free_end_reachable(f, pick_arc)
    final, trace = eliminate_negative_arcs(f, arc)
    assert trace.steps[0].extended_end == Angle(F(35579, 76416))
    assert len(trace.steps) - 1 == 3
    assert final == TransverseArc(Angle(F(38101, 38208)), Angle(F(70829, 76416)))
    # without the guard the step takes the pick, and growth stalls there
    monkeypatch.setattr(dpl.unfolding, "_sweep_free_end_reachable", lambda f, a: True)
    with pytest.raises(AssertionError, match="greedy growth stalled"):
        eliminate_negative_arcs(f, arc)


def test_growth_lemma_holds_on_seeded_configurations():
    # levels b, b', s, a counterclockwise from b: when (s, b') has no
    # negative component, N(a, b') + N(s, b) <= N(a, b)
    checked = live = 0
    for seed in range(48):
        f = random_map(seed, (6, 8, 12)[seed % 3], 3)
        base = f if f.degree >= 0 else f.reflect()
        levels = _gap_thirds(base)
        if len(levels) < 4:
            continue
        rng = random.Random(seed)
        for _ in range(4):
            four = sorted(rng.sample(levels, 4), key=lambda y: y.value)
            for k in range(4):
                b, b2, s, a = four[k:] + four[:k]
                if _negatives(base, s, b2) == 0:
                    n_ab = _negatives(base, a, b)
                    grown = _negatives(base, a, b2) + _negatives(base, s, b)
                    assert grown <= n_ab, (seed, b, b2, s, a)
                    checked += 1
                    live += n_ab > 0
    assert checked > 500 and live > 200


def _swept_bases(count):
    """Maps of nonnegative degree, each with a swept value gap."""
    maps = (random_map(seed, (6, 8, 12)[seed % 3], 3) for seed in itertools.count())
    bases = (f if f.degree >= 0 else f.reflect() for f in maps)
    swept = (
        f for f in bases
        if any(downward_pair_count(f, lo + gw / 2) for lo, gw in value_gaps(f))
    )
    return list(itertools.islice(swept, count))


def test_lemma_a_no_negative_component_means_no_sweep_outside():
    # an arc with no negative component has no swept level outside it, so
    # its own end is a sweep-free level in reach
    unfolded = 0
    for f in _swept_bases(16):
        levels = _gap_thirds(f)
        for a, b in itertools.permutations(levels, 2):
            arc = TransverseArc(a, b)
            if classify_preimage(f, arc).negative_count:
                continue
            outside = [y for y in levels if not arc.contains(y) and y not in (a, b)]
            assert not any(downward_pair_count(f, y) for y in outside), (f, arc)
            assert _sweep_free_end_reachable(f, arc), (f, arc)
            unfolded += 1
    assert unfolded > 1000


def test_growth_candidates_of_an_unfolded_arc_are_unfolded():
    # what regular-value mode does: unfold each candidate of an unfolded arc
    candidates = 0
    for f in _swept_bases(40):
        final, _ = eliminate_negative_arcs(f)
        for side in ("start", "end"):
            for _, _, point in _growth_candidates(f, final, side):
                cand = _candidate_arc(final, side, point)
                grown, steps, cls = _plain_eliminate(f, cand)
                assert (grown, len(steps), cls.negative_count) == (cand, 1, 0)
                assert _sweep_free_end_reachable(f, cand)
                candidates += 1
    assert candidates > 200


def test_lemma_b_every_negative_component_has_a_counterclockwise_partner():
    negatives = 0
    for seed in range(120):
        f = random_map(seed, (8, 12, 40)[seed % 3], 4)
        base = f if f.degree >= 0 else f.reflect()
        rng = random.Random(seed)
        pairs = list(itertools.permutations(_gap_thirds(base), 2))
        for a, b in rng.sample(pairs, min(12, len(pairs))):
            cls = classify_preimage(base, TransverseArc(a, b))
            for i, comp in enumerate(cls.components):
                if comp.kind != "negative":
                    continue
                path = _try_direction(base, cls, i, 1)
                assert path is not None, (base, a, b, i)
                assert cls.components[path.end_component].kind == "positive"
                assert path.level == base.lift_evaluate(path.start_point)
                negatives += 1
    assert negatives > 800


def test_unfolding_is_blocked_exactly_out_of_sweep_free_reach():
    # maps with a swept gap, every arc between two gap-third levels
    verdicts = []
    maps = (random_map(seed, 6, 2) for seed in range(300))
    bases = (f if f.degree >= 0 else f.reflect() for f in maps)
    swept = (
        f for f in bases
        if any(downward_pair_count(f, lo + gw / 2) for lo, gw in value_gaps(f))
    )
    for f in itertools.islice(swept, 6):
        for a, b in itertools.permutations(_gap_thirds(f), 2):
            arc = TransverseArc(a, b)
            try:
                eliminate_negative_arcs(f, arc)
                blocked = False
            except UnfoldingBlocked:
                blocked = True
            assert blocked == (not _sweep_free_reach(f, arc)), (f, arc)
            verdicts.append(blocked)
    assert 0 < sum(verdicts) < len(verdicts)


def test_sweep_free_end_reachable_matches_the_reach_oracle():
    # every arc between gap-third levels, on maps with swept gaps as well
    maps = [random_map(seed, 12, 4) for seed in range(20)]
    maps += [deep_tent(), make_map([(F(3, 5), F(-7, 4))], -2)]
    verdicts = []
    for f in maps + [f.reflect() for f in maps]:
        for a, b in itertools.permutations(_gap_thirds(f), 2):
            arc = TransverseArc(a, b)
            verdict = _sweep_free_end_reachable(f, arc)
            assert verdict == _sweep_free_reach(f, arc), (f, arc)
            verdicts.append(verdict)
    assert 0 < verdicts.count(False) < len(verdicts) / 2


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


def test_regular_value_traces_list_each_arc_once():
    # each extension is carried by the step of the arc it grows
    extended = 0
    for seed in range(60):
        f = random_map(seed, 8, 3)
        lo, width = value_gaps(f)[0]
        try:
            _, trace = eliminate_negative_arcs(f, None, "regular-value", lo + width / 2)
        except UnfoldingBlocked:
            continue
        arcs = [s.arc for s in trace.steps]
        assert all(a != b for a, b in zip(arcs, arcs[1:])), seed
        extended += sum(s.path is None for s in trace.steps[:-1])
    assert extended > 10, extended


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


def corner_pairs():
    """The generic interval pairs of seeds 0-599, collared as
    ``corner_connectivity`` collars them, with their seeds."""
    for seed in range(600):
        rng = random.Random(seed)
        first, second = (
            make_interval_map(_random_interval_breakpoints(rng, rng.choice(denoms)))
            for denoms in ((12, 20), (12, 21))
        )
        folds = first.interior_fold_values | second.interior_fold_values
        if first.interior_fold_values & second.interior_fold_values:
            continue
        if {0, 1} & folds:
            first, second = _with_collar(first), _with_collar(second)
        yield seed, first, second


def test_corner_gluing_matches_point_gluing():
    # an end continues into the piece that starts at the same point
    pairs = collared = 0
    for seed, first, second in corner_pairs():
        collared += first.breakpoints[0][0] < 0  # a collar starts at -1/4
        grid = _grid_of(first.breakpoints + second.breakpoints)
        rows = [m._rows(grid) for m in (first, second)]
        pieces, succ = _glued_pieces(*rows, None, grid)
        starts = {piece[3]: index for index, piece in enumerate(pieces)}
        assert len(starts) == len(pieces)
        assert succ == [starts.get(piece[4], -1) for piece in pieces], seed
        pairs += 1
    assert pairs > 500 and collared > 150, (pairs, collared)


def _collar_by_straightening(m):
    """The collar as first built: pad the breakpoints with (-1/4, -1/4) and
    (5/4, 5/4), then keep the two ends and every fold between them."""
    pts = ((F(-1, 4), F(-1, 4)),) + m.breakpoints + ((F(5, 4), F(5, 4)),)
    folds = tuple(
        b for a, b, c in zip(pts, pts[1:], pts[2:]) if (b[1] - a[1]) * (c[1] - b[1]) < 0
    )
    return pts[:1] + folds + pts[-1:]


def test_collar_matches_straightened_padding():
    collared = 0
    for seed in range(600):
        rng = random.Random(seed)
        pair = [
            make_interval_map(_random_interval_breakpoints(rng, rng.choice(denoms)))
            for denoms in ((12, 20), (12, 21))
        ]
        if {0, 1} & (pair[0].interior_fold_values | pair[1].interior_fold_values):
            for m in pair:
                assert _with_collar(m).breakpoints == _collar_by_straightening(m), seed
            collared += 1
    assert collared > 150, collared


def test_interval_map_validation():
    from dpl import NonIncreasingDomain, ZeroSlopeSegment

    with pytest.raises(NonIncreasingDomain):
        make_interval_map([(0, 0)])
    with pytest.raises(ZeroSlopeSegment):
        make_interval_map([(0, 0), (F(1, 2), 0), (1, 1)])
    with pytest.raises(PreconditionUnmet):
        make_interval_map([(0, F(1, 8)), (1, 1)])


@pytest.mark.parametrize(
    "make, error, message",
    [
        pytest.param(
            lambda: make_interval_map([(0, 0), (F(1, 2), F(1, 2)), (F(1, 2), 1)]),
            NonIncreasingDomain,
            "breakpoint positions must strictly increase",
            id="positions",
        ),
        pytest.param(
            lambda: make_interval_map([(0, 0), (F(1, 2), F(3, 2)), (1, 1)]),
            PreconditionUnmet,
            r"values must stay inside \[0, 1\]",
            id="values",
        ),
        pytest.param(
            lambda: random_admissible_graph(0, -1),
            InfeasibleParameters,
            "vertex count must be nonnegative",
            id="vertex count",
        ),
    ],
)
def test_unfolding_refuses_malformed_input(make, error, message):
    with pytest.raises(error, match=message):
        make()


# ---------------------------------------------------------------- euler graphs


def test_build_euler_graph_checks_degrees():
    with pytest.raises(InfeasibleParameters):
        build_euler_graph([(0, 1), (1, 0)])
    with pytest.raises(InfeasibleParameters):
        build_euler_graph([], free_loops=-1)
    # the message names the least offending vertex, an in-only one included
    with pytest.raises(InfeasibleParameters, match=r"^vertex 3 has in/out degree 1/0$"):
        build_euler_graph([(1, 1), (1, 1), (4, 3)])
    with pytest.raises(InfeasibleParameters, match=r"^vertex 1 has in/out degree 2/1$"):
        build_euler_graph([(0, 0), (0, 0), (2, 1), (2, 1), (1, 2)])


def test_euler_graph_equality_hash_repr_and_components():
    edges = [(3, 3), (3, 3), (0, 1), (0, 1), (1, 0), (1, 0)]
    g = build_euler_graph([[str(a), b] for a, b in edges], free_loops=2)
    assert g.edges == tuple(edges) and g.vertices == (0, 1, 3)
    assert g == EulerGraph(edges=tuple(edges), free_loops=2)
    assert g != EulerGraph(edges=tuple(edges), free_loops=1)
    assert g != EulerGraph(edges=tuple(edges[::-1]), free_loops=2)
    assert hash(g) == hash((tuple(edges), 2))
    assert repr(g) == (
        "EulerGraph(edges=((3, 3), (3, 3), (0, 1), (0, 1), (1, 0), (1, 0)),"
        " free_loops=2)"
    )
    assert g.components == ((0, 1), (3,))
    assert g.component_count == 4
    assert [g.component_edges(c) for c in range(4)] == [(2, 3, 4, 5), (0, 1), (), ()]
    assert build_euler_graph([]).component_count == 0


def test_euler_graph_derives_its_tables_on_first_read():
    assert [f.name for f in dataclasses.fields(EulerGraph)] == ["edges", "free_loops"]
    assert "__post_init__" not in vars(EulerGraph)
    derived = ("vertices", "_in_out", "components", "_edges_by_component")
    for seed in range(120):  # test_golden's GRAPH_SEEDS
        g = random_admissible_graph(seed, seed % 9)
        fresh = EulerGraph(edges=g.edges, free_loops=g.free_loops)
        assert not any(name in vars(fresh) for name in derived)
        for c in range(g.component_count):
            g.component_edges(c)
        # equality, hash and repr read the two fields only
        fields = (g.edges, g.free_loops)
        assert g == fresh and hash(g) == hash(fresh) == hash(fields)
        assert repr(g) == repr(fresh) == "EulerGraph(edges=%r, free_loops=%r)" % fields
        assert all(name in vars(g) for name in derived)


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
    # a pair naming an index outside the graph's edges is refused
    for bad in ((1, 7), (1, -1), (4, 1), (-1, 1)):
        stray = ((0, ((2, 0), (3, 1))), (1, ((0, 2), bad)))
        with pytest.raises(InfeasibleParameters):
            trace_circuits(g, stray)
    with pytest.raises(AssertionError):
        trace_circuits(g, ((0, ((2, 0), (3, 0))),))
    # a run may leave its component for another component's edges
    two = build_euler_graph([(0, 0), (0, 0), (1, 1), (1, 1)])
    stray = ((0, ((0, 1), (1, 2))), (1, ((2, 3), (3, 0))))
    assert trace_circuits(two, stray, 0) == ((0, 1, 2, 3),)
    assert trace_circuits(two, stray, 1) == ((2, 3, 0, 1),)
    assert trace_circuits(two, stray[:1], 0) == ((0, 1, 2),)


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


def _bareiss_det(m):
    """The determinant of a square int matrix, by fraction-free elimination."""
    m = [row[:] for row in m]
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, len(m)) if m[i][k]), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                # exact: Bareiss's division by the previous pivot leaves no remainder
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if m else 1


def _best_count(edges, verts):
    """Euler circuits of a connected digraph with in/out degree two (BEST).

    The count is t_w * prod((outdeg - 1)!) = t_w, the arborescences towards
    any root w: the determinant of the out-degree Laplacian without w's row
    and column.  A loop adds one to the degree and one to the adjacency, so
    it cancels.
    """
    at = {v: i for i, v in enumerate(verts)}
    laplacian = [[0] * len(verts) for _ in verts]
    for a, b in edges:
        laplacian[at[a]][at[a]] += 1
        laplacian[at[a]][at[b]] -= 1
    return _bareiss_det([row[1:] for row in laplacian[1:]])


def test_single_circuit_pairings_match_the_best_count():
    """The pairings traced to one circuit are the Euler circuits, counted by
    the BEST theorem, on every balanced graph with five or fewer vertices."""
    graphs = 0
    for n in range(1, 6):
        for rows in _balanced_graphs(n):
            edges = [(i, head) for i, row in enumerate(rows) for head in row]
            g = build_euler_graph(edges)
            graphs += 1
            for c, verts in enumerate(g.components):
                comp = [g.edges[e] for e in g.component_edges(c)]
                singles = sum(
                    len(trace_circuits(g, p, c)) == 1 for p in resolution_choices(g, c)
                )
                assert singles == _best_count(comp, verts), (edges, c)
    assert graphs == 1 + 3 + 21 + 282 + 6210


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
