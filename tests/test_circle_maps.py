import math
import random
from bisect import bisect_right
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from dpl import circle_maps
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
    double_point_curve,
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
    assert a == Angle("1/4") == Angle(a)
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
    # the orientation is the int 1 or -1, never a bool, float or string
    for orientation in (True, 1.0, "1"):
        with pytest.raises(InfeasibleParameters, match="must be"):
            TransverseArc(Angle(0), Angle(F(1, 2)), orientation)


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


def test_make_map_takes_an_int_degree():
    # a bool is an int to Python, and a float would need rounding
    for degree in (True, 2.0, "1", F(1)):
        with pytest.raises(ValueError, match=r"^'degree' must be an integer, not "):
            make_map([(0, 0), (F(1, 2), F(3, 4))], degree)


@pytest.mark.parametrize("x", [1, F(-1, 8)], ids=["one", "negative"])
def test_make_map_refuses_a_vertex_outside_the_unit_interval(x):
    with pytest.raises(NonIncreasingDomain, match=r"must lie in \[0, 1\)"):
        make_map([(0, 0), (x, F(1, 2))], 0)


def _fraction_make_map(breakpoints, degree):
    """make_map's checks and straightening as first written, in Fractions:
    the kept breakpoints and the degree, or the refusal's class and message."""
    pts = [(frac(x), frac(l)) for x, l in breakpoints]
    if not pts:
        return NonIncreasingDomain, "need at least one breakpoint"
    xs = [x for x, _ in pts]
    if any(not (0 <= x < 1) for x in xs):
        return NonIncreasingDomain, "breakpoint x-coordinates must lie in [0, 1)"
    if any(b <= a for a, b in zip(xs, xs[1:])):
        return NonIncreasingDomain, "breakpoint x-coordinates must strictly increase"
    vals = [mod1(l) for _, l in pts]
    if len(set(vals)) != len(vals):
        message = "vertex values must be pairwise distinct on the target circle"
        return DuplicateVertexValue, message
    lifts = [l for _, l in pts] + [pts[0][1] + degree]
    signs = []
    for i in range(len(pts)):
        dl = lifts[i + 1] - lifts[i]
        if dl == 0:
            return ZeroSlopeSegment, f"segment starting at x={xs[i]} has zero slope"
        signs.append(1 if dl > 0 else -1)
    keep = [i for i in range(len(pts)) if signs[i - 1] != signs[i]] or [0]
    return tuple(pts[i] for i in keep), degree


def _vertices(f):
    """The map's vertices (x_i, l_i) for i = 0..n, from its breakpoints:
    vertex n is vertex 0 one turn on."""
    x0, l0 = f.breakpoints[0]
    return (*f.breakpoints, (x0 + 1, l0 + f.degree))


def _made(breakpoints, degree):
    """make_map's answer in the oracle's terms.  A map's grid and vertex
    ints are checked against its Fractions, and so are those of a copy
    made directly, which builds its own."""
    try:
        f = make_map(breakpoints, degree)
    except ValueError as refusal:
        return type(refusal), str(refusal)
    grid = math.lcm(*(v.denominator for point in f.breakpoints for v in point))
    ints = tuple(tuple(v * grid for v in vs) for vs in zip(*_vertices(f)))
    for g in (f, PLCircleMap(f.breakpoints, f.degree)):
        assert (g._grid, g._ints) == (grid, ints), f
    return f.breakpoints, f.degree


def _presentations():
    """Valid and broken breakpoint lists, drawn without make_map: random
    points of denominators up to 97 or of 40 digits, then copies with two
    points swapped, a point moved out of [0, 1), a value repeated one turn
    on, a point added inside a lap (straightened away) and, for one-point
    maps of degree 0, a flat lap."""
    rng = random.Random("presentations")
    cases = [([], 2), ([(0, 0)], 0), ([(F(1, 3), F(2, 7)), (F(1, 2), F(9, 7))], 0)]
    for seed in range(80):
        q = rng.randrange(10**40, 10**41) if seed % 2 else rng.randint(1, 97)
        xs = sorted({rng.randrange(q) for _ in range(rng.randint(1, 12))})
        pts = [(F(x, q), F(rng.randrange(-4 * q, 4 * q), q)) for x in xs]
        n, d = len(pts), rng.randint(-5, 5)
        i = rng.randrange(n)
        (x, l), (nx, nl) = pts[i], pts[(i + 1) % n]
        nx += i + 1 == n
        cases += [
            (pts, d),
            (pts[:i] + pts[i + 1 :] + pts[i : i + 1], d),
            (pts[:i] + [(x - 1 if i % 2 else x + 1, l)] + pts[i + 1 :], d),
            (pts[:i] + [(x, nl + 1)] + pts[i + 1 :], d),
            (pts[: i + 1] + [((x + nx) / 2, (l + nl) / 2)] + pts[i + 1 :], d),
            ([(x, l)], 0),
            ([(str(x), str(l)) for x, l in pts], d),
        ]
    return cases


def test_make_map_matches_its_fraction_oracle():
    seen = set()
    for case in _presentations():
        got = _made(*case)
        assert got == _fraction_make_map(*case), case
        # a refusal's message up to its x, or whether a map was straightened
        refused = isinstance(got[0], type)
        seen.add(got[1].partition("=")[0] if refused else len(got[0]) < len(case[0]))
    assert seen == {
        "need at least one breakpoint",
        "breakpoint x-coordinates must lie in [0, 1)",
        "breakpoint x-coordinates must strictly increase",
        "vertex values must be pairwise distinct on the target circle",
        "segment starting at x",
        True,
        False,
    }, seen


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


def _solved_fiber(f, y):
    """Each preimage of y as (x, lap), solved lap by lap from the lap's end
    points, in domain order; lap j holds [x_j, x_{j+1}), so a vertex on the
    level goes to the lap that starts there, x_0 to lap 0."""
    found, vertices = [], _vertices(f)
    for j in range(f.lap_count):
        (xlo, llo), (xhi, lhi) = vertices[j : j + 2]
        lo, hi = sorted((llo, lhi))
        for k in range(math.floor(lo - y), math.ceil(hi - y) + 1):
            if lo <= y + k <= hi:
                x = xlo + (y + k - llo) / (lhi - llo) * (xhi - xlo)
                if x != xhi:
                    found.append((x, j))
    return sorted(found)


def _cut_laps(f, y):
    """Each of ``_level_cuts``' preimages of y as (x, lap), in its order."""
    return [(F(n, den), j) for j, _, n, den in f._level_cuts(mod1(y))]


def test_fiber_laps_match_the_laps_solved_one_by_one(monkeypatch):
    maps = [tent(), make_map([(F(1, 8), F(1, 3))], 3)]
    maps += [random_map(seed, 6, 2) for seed in range(20)]
    maps += [random_map(seed, 12, 4) for seed in range(20)]
    maps += [random_map(seed, 40, 5) for seed in range(8)]
    maps += [make_map([(F(3, 5), F(-7, 4))], d) for d in (-3, -2, -1, 1, 2, 3)]
    built, rows = [], circle_maps._lap_rows
    monkeypatch.setattr(
        circle_maps,
        "_lap_rows",
        lambda xs, *ints: built.append(xs) or rows(xs, *ints),
    )
    for f in maps:
        f = make_map(f.breakpoints, f.degree)
        levels = [v.value for v in f.critical_values] + [f.breakpoints[0][1] % 1]
        levels += [lo + gw / k for lo, gw in value_gaps(f) for k in (2, 3)]
        for y in levels:
            want = _solved_fiber(f, y)
            assert f.fiber(y) == tuple(x for x, _ in want), (f, y)
            assert _cut_laps(f, y) == want, (f, y)
        # a fold vertex is kept with the lap that starts there
        for j, (x, v) in enumerate(f.folds):
            assert (x, j) in _cut_laps(f, v.value)
        double_point_curve(f)
        assert [xs for xs in built if xs is f._xs] == [f._xs]


# random_map(s, 40, 5) and its reflection, built at import, so that a
# mutant of the lift (tests/test_mutants.py) meets maps built without it
_FORTY_FOLD = [random_map(seed, 40, 5) for seed in range(30)]
_FORTY_FOLD += [f.reflect() for f in _FORTY_FOLD]


def _fraction_lift(f, x):
    """The lift at x, evaluated in Fractions as first written."""
    xs, ls = zip(*_vertices(f))
    k = math.floor(x - xs[0])
    base = x - k
    j = bisect_right(xs, base) - 1
    slope = (ls[j + 1] - ls[j]) / (xs[j + 1] - xs[j])
    return ls[j] + (base - xs[j]) * slope + k * f.degree


def _off_grid(rng, count, turns=7):
    """Points p/q with q in 1-97, up to ``turns`` turns either side of 0."""
    qs = [rng.randint(1, 97) for _ in range(count)]
    return [F(rng.randrange(-turns * q, turns * q), q) for q in qs]


def test_lift_matches_its_fraction_oracle():
    rng = random.Random("lift oracle")
    for f in _FORTY_FOLD:
        # every vertex a few turns on, and points off the grid
        points = [x + k for x in f._xs for k in (-3, 0, 2)]
        for x in points + _off_grid(rng, 40):
            assert f.lift_evaluate(x) == _fraction_lift(f, x), (f, x)


def test_levels_off_the_grid_match_the_solved_fibers():
    """A third of a grid step either side of each critical value, and at
    levels p/q with q up to 97, regularity and the fiber, both read on the
    grid, agree with the critical values and the fibers solved lap by lap."""
    rng = random.Random("off the grid")
    maps = [random_map(seed, 12, 4) for seed in range(20)]
    maps += [random_map(seed, 40, 5) for seed in range(4)]
    for f in maps:
        for g in (f, f.reflect()):
            step = F(1, 3 * g._grid)
            critical = {v.value for v in g.critical_values}
            levels = [mod1(v + e) for v in critical for e in (step, -step)]
            for y in levels + [mod1(y) for y in _off_grid(rng, 20, 1)]:
                assert g.is_regular_value(y) == (y not in critical), (g, y)
                want = _solved_fiber(g, y)
                assert g.fiber(y) == tuple(x for x, _ in want), (g, y)
                assert _cut_laps(g, y) == want, (g, y)


def test_fiber_at_each_critical_value_keeps_its_fold_once():
    f = make_map(
        [(0, 0), (F(1, 4), F(11, 8)), (F(1, 2), F(9, 8)), (F(3, 4), F(39, 16))], 2
    )
    fibers = {v.value: f.fiber(v) for _, v in f.folds}
    assert fibers == {
        0: (0, F(2, 11), F(2, 3)),
        F(3, 8): (F(3, 44), F(1, 4), F(23, 42), F(31, 42), F(11, 14)),
        F(1, 8): (F(1, 44), F(9, 44), F(1, 2), F(29, 42), F(13, 14)),
        F(7, 16): (F(7, 88), F(47, 84), F(3, 4)),
    }


def test_fold_free_anchor_preimage_is_x0_and_comes_first():
    # the anchor value 1/3 is taken at x_0 = 1/8 and again at x_0 + 1
    f = make_map([(F(1, 8), F(1, 3))], -2)
    assert f.fiber(F(1, 3)) == (F(1, 8), F(5, 8))
    assert crossing_word(f, F(1, 3)) == (-1, -1)
    at_a, at_b = (Angle(F(1, 3)), Angle(F(1, 5))), (Angle(F(1, 5)), Angle(F(1, 3)))
    cases = {
        1: [
            ("negative", F(1, 8), F(23, 120), at_a),
            ("negative", F(5, 8), F(83, 120), at_a),
        ],
        -1: [
            ("positive", F(23, 120), F(5, 8), at_b),
            ("positive", F(83, 120), F(9, 8), at_b),
        ],
    }
    for orientation, want in cases.items():
        cls = classify_preimage(f, TransverseArc(F(1, 5), F(1, 3), orientation))
        got = [(c.kind, c.start, c.end, c.endpoint_values) for c in cls.components]
        assert got == want, orientation


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
    out, vertices = set(), _vertices(f)
    for j in range(f.lap_count):
        (xa, la), (xb, lb) = vertices[j : j + 2]
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
    maps += [random_map(seed, 40, 5) for seed in range(8)]
    maps += [make_map([(F(3, 5), F(-7, 4))], d) for d in (-3, -2, -1, 1, 2, 3)]
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
    assert g._level_table == h._level_table and g._level_table is not h._level_table
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
    # a bool would read as 0 or 1, and a float or a string would fail
    # inside random
    for bounds in ((8, True), (False, 3), (8.0, 3), (8, 1.5), ("8", 3)):
        with pytest.raises(InfeasibleParameters, match="bounds must be ints >= 0"):
            random_map(5, *bounds)


def test_random_map_redraws_a_degree_that_leaves_no_fold_count():
    # one fold allowed leaves degree 0 no even fold count: seed 0 draws
    # degree 0 first, then a fold-free map of degree -1
    assert random.Random(0).randint(-1, 1) == 0
    f = random_map(0, 1, 1)
    assert (f.fold_free, f.degree) == (True, -1)


def test_random_map_output_is_generic():
    seen_folds = set()
    for seed in range(30):
        f = random_map(seed, 8, 2)
        seen_folds.add(len(f.folds))
        levels = [v for _, v in f.folds]
        assert len(set(levels)) == len(levels)
    assert len(seen_folds) > 1  # the generator actually varies
