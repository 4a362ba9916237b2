import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from dpl import (
    Angle,
    DuplicateVertexValue,
    EndpointNotRegular,
    InfeasibleParameters,
    NonIncreasingDomain,
    PLCircleMap,
    TransverseArc,
    ZeroSlopeSegment,
    classify_preimage,
    crossing_word,
    downward_pair_count,
    frac,
    make_map,
    mod1,
    random_map,
    value_gaps,
)


def tent():
    return make_map([(0, 0), (F(1, 2), F(3, 4))], 0)


# ---------------------------------------------------------------- helpers


def test_frac_accepts_strings_and_ints():
    assert frac("3/4") == F(3, 4)
    assert frac("-7") == F(-7)
    assert frac(2) == F(2)
    assert frac(F(1, 3)) == F(1, 3)
    for refused in (" 1/2 ", "1.5", "1e3", "+1", "1/-2", "1/0", "", True, 0.5, None):
        with pytest.raises(ValueError):
            frac(refused)


def test_mod1_wraps_into_unit_interval():
    assert mod1(F(7, 4)) == F(3, 4)
    assert mod1(F(-1, 4)) == F(3, 4)
    assert mod1(F(3)) == 0


def test_angle_normalizes_and_orders():
    a = Angle(F(5, 4))
    assert a.value == F(1, 4)
    assert a == Angle("1/4")
    assert a.plus(F(7, 8)) == Angle(F(1, 8))
    assert Angle(0).ccw_to(Angle(F(3, 4))) == F(3, 4)
    assert Angle(F(3, 4)).ccw_to(Angle(0)) == F(1, 4)


def test_arc_geometry():
    arc = TransverseArc(Angle(F(7, 8)), Angle(F(1, 8)))
    assert arc.width == F(1, 4)
    assert arc.contains(0)
    assert not arc.contains(F(1, 8))  # open at the endpoints
    assert not arc.contains(F(1, 2))
    assert arc.midpoint() == Angle(0)


def test_arc_orientation_flip():
    arc = TransverseArc(Angle(F(1, 8)), Angle(F(7, 8)), orientation=-1)
    assert arc.ccw_start == Angle(F(7, 8))
    assert arc.ccw_end == Angle(F(1, 8))
    assert arc.width == F(1, 4)


def test_arc_rejects_degenerate_input():
    with pytest.raises(InfeasibleParameters):
        TransverseArc(Angle(0), Angle(1))  # 1 == 0 on the circle
    with pytest.raises(InfeasibleParameters):
        TransverseArc(Angle(0), Angle(F(1, 2)), orientation=2)


# ---------------------------------------------------------------- make_map


def test_make_map_rejects_bad_vertex_data():
    with pytest.raises(NonIncreasingDomain):
        make_map([], 1)
    with pytest.raises(NonIncreasingDomain):
        make_map([(0, 0), (0, F(1, 2))], 0)
    with pytest.raises(ZeroSlopeSegment):
        make_map([(0, 0)], 0)  # a constant map has a flat lap
    with pytest.raises(DuplicateVertexValue):
        # both folds sit at level 0 mod 1
        make_map([(0, 0), (F(1, 2), 1)], 0)


def test_tent_basic_shape():
    f = tent()
    assert f.degree == 0
    assert f.slopes == (F(3, 2), F(-3, 2))
    assert sorted(a.value for a in f.critical_values) == [0, F(3, 4)]
    assert f.evaluate(F(1, 4)) == Angle(F(3, 8))
    assert f.lift_evaluate(F(5, 4)) == F(3, 8)
    assert f.fiber(F(3, 8)) == (F(1, 4), F(3, 4))


def test_fold_free_map_is_rotation_like():
    f = make_map([(F(1, 8), F(1, 3))], 3)
    assert f.slopes == (3,)
    assert f.folds == ()
    assert len(f.fiber(F(1, 7))) == 3


def test_regular_values_exclude_critical_levels():
    f = tent()
    assert not f.is_regular_value(Angle(0))
    assert not f.is_regular_value(Angle(F(3, 4)))
    assert f.is_regular_value(Angle(F(1, 3)))


def test_fiber_is_sorted_within_one_period():
    f = tent()
    pts = f.fiber(Angle(F(1, 2)))
    assert list(pts) == sorted(pts)
    assert all(0 <= x < 1 for x in pts)


def test_signed_fiber_count_is_the_degree():
    f = make_map([(0, 0), (F(1, 4), F(11, 8)), (F(1, 2), F(9, 8)), (F(3, 4), F(39, 16))], 2)
    for y in (F(1, 16), F(1, 5), F(5, 12), F(99, 100)):
        if f.is_regular_value(Angle(y)):
            assert f.signed_fiber_count(y) == 2


# ---------------------------------------------------------------- reflect


def test_reflect_negates_degree_and_composes_with_minus():
    f = make_map([(0, 0), (F(1, 4), F(11, 8)), (F(1, 2), F(9, 8)), (F(3, 4), F(39, 16))], 2)
    g = f.reflect()
    assert g.degree == -2
    for k in range(1, 25):
        x = F(k, 25)
        assert g.evaluate(x) == f.evaluate(mod1(-x)), x


def test_reflect_is_an_involution():
    f = tent()
    assert f.reflect().reflect() == f


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_reflect_pointwise_on_random_maps(seed):
    f = random_map(seed, 8, 3)
    g = f.reflect()
    assert g.degree == -f.degree
    for k in range(1, 12):
        x = F(k, 13)
        assert g.evaluate(x) == f.evaluate(mod1(-x))


# ---------------------------------------------------------------- classification


def test_tent_arc_classification():
    f = tent()
    cls = classify_preimage(f, TransverseArc(Angle(F(1, 4)), Angle(F(3, 8))))
    kinds = sorted(c.kind for c in cls.components)
    assert kinds == ["negative", "positive"]
    assert cls.positive_count - cls.negative_count == f.degree
    for c in cls.components:
        assert c.start < c.end <= c.start + 1


def test_classification_rejects_critical_endpoint():
    with pytest.raises(EndpointNotRegular):
        classify_preimage(tent(), TransverseArc(Angle(0), Angle(F(1, 4))))


def test_component_membership_lookup():
    f = tent()
    cls = classify_preimage(f, TransverseArc(Angle(F(1, 4)), Angle(F(3, 8))))
    c = cls.component_containing(F(1, 5))
    assert c is not None and c.contains(F(1, 5))
    assert cls.component_containing(F(1, 2)) is None


def test_neutral_components_are_at_most_the_folds():
    """A neutral component enters and leaves the arc over one endpoint, so
    the lift has a local extremum on it, which is a fold.  Regular-value
    unfolding relies on this bound to end; some arcs attain it."""
    rng = random.Random("neutral bound")

    def regular(f):
        y = Angle(F(rng.randrange(997), 997))
        while not f.is_regular_value(y):
            y = y.plus(F(1, 1999))
        return y

    attained = False
    for laps, degree in ((6, 2), (8, 3), (12, 4), (40, 5)):
        for seed in range(40):
            f = random_map(seed, laps, degree)
            for _ in range(5):
                a, b = regular(f), regular(f)
                if a == b:
                    continue
                neutral = classify_preimage(f, TransverseArc(a, b)).neutral_count
                assert neutral <= len(f.folds), (seed, laps, degree, a, b)
                attained = attained or neutral == len(f.folds) > 0
    assert attained


def _preimages(f, y: Angle) -> list[F]:
    """The preimages of y in [x_0, x_0 + 1), solved lap by lap."""
    x0 = f.breakpoints[0][0]
    out = set()
    for j in range(f.lap_count):
        xa, xb, la, lb = f.lap(j)
        t = y.value + math.ceil(min(la, lb) - y.value)
        while t <= max(la, lb):
            x = xa + (t - la) * (xb - xa) / (lb - la)
            out.add(x - 1 if x >= x0 + 1 else x)
            t += 1
    return sorted(out)


def _midpoint_classification(f, arc: TransverseArc) -> list[tuple]:
    """(kind, start, end, endpoint values) of each component of f^{-1}(arc),
    found by evaluating f at the midpoint and the ends of every stretch
    between consecutive preimages of the arc's endpoints."""
    a, b = arc.ccw_start, arc.ccw_end
    cuts = sorted(set(_preimages(f, a)) | set(_preimages(f, b)))
    if not cuts:
        x0 = f.breakpoints[0][0]
        inside = arc.contains(f.evaluate(Angle(x0)))
        return [("circle", x0, x0 + 1, None)] if inside else []
    out = []
    for p, q in zip(cuts, cuts[1:] + [cuts[0] + 1]):
        if not arc.contains(f.evaluate(Angle((p + q) / 2))):
            continue
        ends = (f.evaluate(Angle(p)), f.evaluate(Angle(q)))
        kind = {(a, b): "positive", (b, a): "negative"}.get(ends, "neutral")
        if arc.orientation == -1:
            kind = {"positive": "negative", "negative": "positive"}.get(kind, kind)
        out.append((kind, p, q, ends))
    return out


def _oracle_cases():
    """Seeded maps and arcs, each arc traversed both ways, plus the arc around
    the tent's image (no cuts), its complement, and arcs ending at the anchor
    value of a fold-free map."""
    rng = random.Random("classify oracle")
    cases = []
    for seed in range(40):
        f = random_map(seed, 12, 4)
        for g in (f, f.reflect()):
            for _ in range(3):
                a, b = Angle(F(rng.randrange(97), 97)), Angle(F(rng.randrange(97), 97))
                if a != b and g.is_regular_value(a) and g.is_regular_value(b):
                    cases += [(g, TransverseArc(a, b)), (g, TransverseArc(b, a, -1))]
    for g, a, b in (
        (tent(), F(15, 16), F(13, 16)),
        (tent(), F(13, 16), F(15, 16)),
        (make_map([(F(1, 8), F(1, 3))], 3), F(1, 3), F(1, 2)),
        (make_map([(F(1, 8), F(1, 3))], -2), F(1, 5), F(1, 3)),
    ):
        cases += [(g, TransverseArc(a, b)), (g, TransverseArc(b, a, -1))]
    return cases


def test_classification_matches_the_midpoint_rule(monkeypatch):
    cases = _oracle_cases()
    expected = [_midpoint_classification(f, arc) for f, arc in cases]
    kinds = {
        (arc.orientation, c[0]) for (_, arc), want in zip(cases, expected) for c in want
    }
    assert {(-1, "positive"), (-1, "negative"), (1, "circle")} <= kinds
    assert [] in expected

    def refused(self, x):
        raise AssertionError("classify_preimage evaluated the map")

    for (f, arc), want in zip(cases, expected):
        with monkeypatch.context() as m:
            if _preimages(f, arc.start) or _preimages(f, arc.end):
                # an arc with cuts is classified from its endpoints' fibers alone
                m.setattr(PLCircleMap, "evaluate", refused)
                m.setattr(PLCircleMap, "lift_evaluate", refused)
            got = classify_preimage(f, arc).components
        assert [(c.kind, c.start, c.end, c.endpoint_values) for c in got] == want, arc


# ---------------------------------------------------------------- level diagnostics


def test_crossing_word_orders_by_domain():
    f = tent()
    assert crossing_word(f, F(3, 8)) == (1, -1)
    assert downward_pair_count(f, F(3, 8)) == 0


def test_deep_tent_levels_are_swept():
    f = make_map([(0, 0), (F(1, 2), F(8, 5))], 0)
    assert value_gaps(f) == ((F(0), F(3, 5)), (F(3, 5), F(2, 5)))
    assert crossing_word(f, F(1, 4)) == (1, 1, -1, -1)
    assert downward_pair_count(f, F(1, 4)) == 1
    assert downward_pair_count(f, F(4, 5)) == 0


def test_crossing_word_needs_regular_value():
    with pytest.raises(EndpointNotRegular):
        crossing_word(tent(), F(3, 4))


def test_value_gaps_cover_the_circle():
    f = make_map([(0, 0), (F(1, 4), F(11, 8)), (F(1, 2), F(9, 8)), (F(3, 4), F(39, 16))], 2)
    gaps = value_gaps(f)
    assert sum(w for _, w in gaps) == 1
    starts = [lo for lo, _ in gaps]
    assert starts == sorted(starts)


def test_value_gaps_of_fold_free_map():
    f = make_map([(0, 0)], 2)
    assert value_gaps(f) == ((F(0), F(1)),)


def _recounted_sweeps(f, y) -> int:
    word = crossing_word(f, y)
    return sum(1 for i in range(len(word)) if word[i - 1] == word[i] == -1)


def _gap_probes(f, lo, width) -> list[F]:
    """The midpoint of a value gap and two other levels in it; in the gap
    that wraps past 0, one on each side of 0; on a fold-free map, also the
    anchor's value, where the fiber point crosses x_0."""
    if lo + width > 1:
        probes = [lo + width / 2, (lo + 1) / 2, (lo + width + 1) / 2]
    else:
        probes = [lo + width / 2, lo + width / 5, lo + width * 4 / 5]
    if f.fold_free:
        probes.append(f.breakpoints[0][1])
    return probes


def test_level_table_matches_the_crossing_words():
    maps = [tent(), make_map([(0, 0), (F(1, 2), F(8, 5))], 0)]
    maps += [make_map([(F(1, 8), F(1, 3))], 3), make_map([(F(1, 8), F(1, 3))], -2)]
    maps += [random_map(seed, 12, 4) for seed in range(30)]
    maps += [f.reflect() for f in maps]
    wrapped = 0
    for f in maps:
        for lo, width in value_gaps(f):
            wrapped += lo + width > 1
            probes = _gap_probes(f, lo, width)
            want = [_recounted_sweeps(f, y) for y in probes]
            assert len(set(want)) == 1, (f, lo)
            # each probe in turn is the first query of the gap on a fresh map
            for first in range(len(probes)):
                g = make_map(f.breakpoints, f.degree)
                for y in probes[first:] + probes[:first]:
                    assert downward_pair_count(g, Angle(y)) == want[0], (f, y)
    assert wrapped > 30


def test_level_table_still_refuses_critical_values():
    f = random_map(3, 12, 4)
    for lo, width in value_gaps(f):
        downward_pair_count(f, lo + width / 2)
    for v in f.critical_values:
        with pytest.raises(EndpointNotRegular):
            downward_pair_count(f, v)


def test_each_map_keeps_its_own_level_table():
    f = random_map(5, 12, 4)
    g, h = make_map(f.breakpoints, f.degree), f.reflect().reflect()
    assert f == g == h and f is not g and f is not h
    assert value_gaps(f) is value_gaps(f)
    assert value_gaps(g) is not value_gaps(f) and value_gaps(g) == value_gaps(f)
    lo, width = value_gaps(g)[0]
    downward_pair_count(g, lo + width / 2)
    assert g._level_table.sweeps and not h._level_table.sweeps
    assert f.reflect()._level_table is not f._level_table


def test_caching_the_level_table_leaves_the_map_unchanged():
    f, g = random_map(9, 12, 4), random_map(9, 12, 4)
    before = (f == g, hash(f), repr(f))
    for lo, width in value_gaps(f):
        downward_pair_count(f, lo + width / 2)
    assert (f == g, hash(f), repr(f)) == before
    assert hash(f) == hash(g) and repr(f) == repr(g)


# ---------------------------------------------------------------- random maps


def test_random_map_is_deterministic():
    assert random_map(123, 10, 3) == random_map(123, 10, 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_map_respects_bounds(seed):
    f = random_map(seed, 10, 3)
    assert abs(f.degree) <= 3
    assert len(f.folds) <= 10
    assert len(f.folds) % 2 == 0


def test_random_map_validates_bounds():
    with pytest.raises(InfeasibleParameters):
        random_map(0, -1, 2)
    with pytest.raises(InfeasibleParameters):
        random_map(0, 0, 0)  # no folds and degree 0 is impossible


def test_random_map_output_is_generic():
    seen_folds = set()
    for seed in range(30):
        f = random_map(seed, 8, 2)
        seen_folds.add(len(f.folds))
        levels = [v for _, v in f.folds]
        assert len(set(levels)) == len(levels)
    assert len(seen_folds) > 1  # the generator actually varies
