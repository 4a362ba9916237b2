import dataclasses
import functools
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction as F
from itertools import combinations, count
from math import lcm

import pytest

from dpl import (
    InfeasibleParameters,
    SweepMovie,
    assign_disks,
    embedding_certificate,
    make_event,
    random_movie,
    surgery_census,
    surgery_parity,
    validate_movie,
)
from dpl.sweeps import (
    CertificateFailure,
    CertificateReport,
    DanglingLabel,
    DiskPlacement,
    DoubleBirth,
    Event,
    EventOrderViolation,
)

import json
from importlib import resources


def little_movie():
    return SweepMovie(
        initial=("a", "b"),
        events=(
            make_event(F(1, 4), "birth", "c"),
            make_event(F(1, 2), "merge", "a", "c", "d"),
            make_event(F(5, 8), "isolated", "e"),
            make_event(F(3, 4), "split", "d", "f", "g"),
            make_event(F(7, 8), "death", "g"),
        ),
    )


# ---------------------------------------------------------------- validation


def test_movie_validation_bookkeeping():
    checked = validate_movie(little_movie())
    assert checked.names == ("a", "b", "c", "d", "e", "f", "g")
    assert checked.circle_count == 7
    assert checked.born[0] == 0 and checked.died[1] == 1
    assert checked.born[6] == F(3, 4) and checked.died[6] == F(7, 8)
    # the isolated circle is born and dies at the same instant
    assert checked.born[4] == checked.died[4] == F(5, 8)
    assert checked.final == (1, 5)


def test_event_arity_is_enforced():
    with pytest.raises(EventOrderViolation):
        make_event(F(1, 2), "merge", "a", "b")
    with pytest.raises(EventOrderViolation):
        make_event(F(1, 2), "warp", "a")
    # Hand-built events skip make_event; validate_movie still refuses them.
    for kind, labels in (("merge", ("a", "b")), ("warp", ("a",))):
        movie = SweepMovie(initial=("a", "b"), events=(Event(F(1, 2), kind, labels),))
        with pytest.raises(EventOrderViolation, match=kind):
            validate_movie(movie)


def test_movie_rejects_time_disorder():
    movie = SweepMovie(
        initial=("a",),
        events=(make_event(F(1, 2), "birth", "b"), make_event(F(1, 2), "birth", "c")),
    )
    with pytest.raises(EventOrderViolation):
        validate_movie(movie)
    movie = SweepMovie(initial=("a",), events=(make_event(1, "death", "a"),))
    with pytest.raises(EventOrderViolation):
        validate_movie(movie)


def test_movie_rejects_label_abuse():
    with pytest.raises(DoubleBirth):
        validate_movie(SweepMovie(initial=("a", "a"), events=()))
    with pytest.raises(DoubleBirth):
        validate_movie(
            SweepMovie(initial=("a",), events=(make_event(F(1, 2), "birth", "a"),))
        )
    with pytest.raises(DanglingLabel):
        validate_movie(
            SweepMovie(initial=("a",), events=(make_event(F(1, 2), "death", "x"),))
        )
    # using a label after its death
    movie = SweepMovie(
        initial=("a",),
        events=(
            make_event(F(1, 4), "death", "a"),
            make_event(F(1, 2), "death", "a"),
        ),
    )
    with pytest.raises(DanglingLabel):
        validate_movie(movie)


@pytest.mark.parametrize(
    "make, error, message",
    [
        pytest.param(
            lambda: validate_movie(
                SweepMovie(
                    initial=("a",),
                    events=(make_event(F(1, 2), "split", "a", "b", "b"),),
                )
            ),
            DoubleBirth,
            "a split must produce two distinct labels",
            id="split into equal labels",
        ),
        pytest.param(
            lambda: random_movie(0, max_events=-1),
            InfeasibleParameters,
            "max_events must be an int >= 0",
            id="negative max_events",
        ),
        pytest.param(
            lambda: random_movie(0, max_events=True),
            InfeasibleParameters,
            "max_events must be an int >= 0",
            id="bool max_events",
        ),
        pytest.param(
            lambda: random_movie(0, max_events=2.5),
            InfeasibleParameters,
            "max_events must be an int >= 0",
            id="float max_events",
        ),
    ],
)
def test_sweeps_refuse_malformed_input(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_merge_needs_two_distinct_circles():
    movie = SweepMovie(
        initial=("a",), events=(make_event(F(1, 2), "merge", "a", "a", "b"),)
    )
    with pytest.raises(DanglingLabel):
        validate_movie(movie)


# ---------------------------------------------------------------- choreography


def test_disks_realize_the_movie():
    checked = validate_movie(little_movie())
    placements = assign_disks(checked)
    assert len(placements) == checked.circle_count
    by_label = {p.label: p for p in placements}
    for i in range(checked.circle_count):
        p = by_label[i]
        assert (p.born, p.died) == (checked.born[i], checked.died[i])
        assert p.placement_at(p.born - F(1, 1000)) is None or p.born == 0
        # the two ends of a lifespan take the first and the last keyframe;
        # the first lies at the birth, the last at or before the death
        (t0, *first), (t1, *last) = p.keyframes[0], p.keyframes[-1]
        assert t0 == p.born and t1 <= p.died
        assert p.placement_at(p.born) == tuple(first)
        assert p.placement_at(p.died) == tuple(last)
        assert p.placement_at(p.died + F(1, 1000)) is None
    # disks idle at their integer homes with the standard radius
    a = by_label[0].placement_at(F(1, 100))
    assert a is not None and a[1] == F(2, 5)


def test_certificate_accepts_the_assignment():
    checked = validate_movie(little_movie())
    report = embedding_certificate(checked)
    assert report.ok
    assert report.failures == ()
    assert report.pairs_checked > 0
    # the piece ends: 0, the event times, the keyframe times and 1
    keyframe_times = {t for p in assign_disks(checked) for t, _, _ in p.keyframes}
    ends = {F(0), F(1), *(t for t, _, _ in checked.events), *keyframe_times}
    assert list(report.times_checked) == sorted(ends)


def _parked(placements):
    """The placements with disk 1 parked on top of disk 0 for the whole movie."""
    parked = list(placements)
    parked[1] = dataclasses.replace(parked[1], keyframes=parked[0].keyframes)
    return parked


def test_certificate_flags_a_corrupted_assignment():
    checked = validate_movie(little_movie())
    report = embedding_certificate(checked, _parked(assign_disks(checked)))
    assert not report.ok
    assert any(set(f.labels) == {0, 1} for f in report.failures)


def _oracle_position(p, t):
    """Center and radius of placement p at t by bisecting its keyframe times."""
    if not p.born <= t <= p.died:
        return None
    frames = p.keyframes
    k = bisect_left([kf[0] for kf in frames], t)
    if k in (0, len(frames)):
        return frames[min(k, len(frames) - 1)][1:]
    (t0, (x0, y0), r0), (t1, (x1, y1), r1) = frames[k - 1], frames[k]
    s = (t - t0) / (t1 - t0)
    return (x0 + s * (x1 - x0), y0 + s * (y1 - y0)), r0 + s * (r1 - r0)


def _oracle_certificate(checked, placements, samples):
    """The sampled certificate as first written: grid and sample times by set
    and sort, the exemptions as frozenset pairs of each event's participants."""
    grid = sorted({F(0), F(1)} | {t for t, _, _ in checked.events})
    times = set(grid)
    for t0, t1 in zip(grid, grid[1:]):
        times.update(t0 + F(i, samples + 1) * (t1 - t0) for i in range(1, samples + 1))
    exempt = {}
    for t, _, labels in checked.events:
        pairs = exempt.setdefault(t, set())
        pairs.update(frozenset((a, b)) for a in labels for b in labels if a != b)
    pairs_checked, failures = 0, []
    for t in sorted(times):
        live = [(p.label, _oracle_position(p, t)) for p in placements]
        live = [(l, pr) for l, pr in live if pr is not None]
        for a in range(len(live)):
            la, ((xa, ya), ra) = live[a]
            for b in range(a + 1, len(live)):
                lb, ((xb, yb), rb) = live[b]
                if frozenset((la, lb)) in exempt.get(t, set()):
                    continue
                pairs_checked += 1
                if (xa - xb) ** 2 + (ya - yb) ** 2 <= (ra + rb) ** 2:
                    failures.append((t, (la, lb)))
    return sorted(times), pairs_checked, failures


def _separation(pa, pb, t):
    """dx² + dy² - (ra + rb)² of two placements at t, by placement_at."""
    (ca, ra), (cb, rb) = pa.placement_at(t), pb.placement_at(t)
    dx, dy, rr = ca[0] - cb[0], ca[1] - cb[1], ra + rb
    return dx * dx + dy * dy - rr * rr


def _exempt(checked, pa, pb, t):
    """Whether both placements' labels take part in an event at t."""
    return any(
        te == t and pa.label in labels and pb.label in labels
        for te, _, labels in checked.events
    )


def _fraction_oracle(checked, placements):
    """The label pairs of the placements that overlap at a moment at which no
    event exempts them, in Fractions through placement_at.

    Each pair's common lifespan is cut at both placements' keyframe times and
    at its exempt event times.  On each piece (t0, t1] the separation is the
    quadratic q through its values at three inner points; a placement owns
    the end of each keyframe step, so q(t1) is the separation at t1, while at
    t0 it may jump.  Over the open piece, q's least value lies at t0, at t1
    or at its vertex, and q is at most 0 somewhere inside exactly when that
    least value is below 0, or is 0 at the vertex or at the middle.
    """
    flagged = set()
    for pa, pb in combinations(placements, 2):
        lo, hi = max(pa.born, pb.born), min(pa.died, pb.died)
        if lo > hi:
            continue
        inside = [t for p in (pa, pb) for t, _, _ in p.keyframes]
        inside += [t for t, _, _ in checked.events if _exempt(checked, pa, pb, t)]
        cuts = sorted({lo, hi, *[t for t in inside if lo < t < hi]})
        bad = not _exempt(checked, pa, pb, lo) and _separation(pa, pb, lo) <= 0
        for t0, t1 in zip(cuts, cuts[1:]):
            h = (t1 - t0) / 4
            d1, d2, d3 = (_separation(pa, pb, t0 + i * h) for i in (1, 2, 3))
            # q(t0 + u h) = d2 + s1 (u - 2) + s2 (u - 2)²
            s1, s2 = (d3 - d1) / 2, (d3 - 2 * d2 + d1) / 2
            start, end = d2 - 2 * s1 + 4 * s2, d2 + 2 * s1 + 4 * s2
            least = d2
            if s2 > 0 and abs(s1) < 4 * s2:
                least = min(least, d2 - s1 * s1 / (4 * s2))
            bad |= least <= 0 or min(start, end) < 0
            bad |= end <= 0 and not _exempt(checked, pa, pb, t1)
        if bad:
            flagged.add((pa.label, pb.label))
    return flagged


def _checked_exactly(checked, placements, *sampled, oracle=True):
    """The certificate's report, after checking that each failure's time is a
    real overlap under placement_at at a moment no event exempts, that the
    failures come in time order and include every pair flagged in each of
    the ``sampled`` pair sets, and (with ``oracle``) that the failing pairs
    are those of the Fraction oracle."""
    report = embedding_certificate(checked, placements)
    flagged = {fl.labels for fl in report.failures}
    assert report.ok == (not flagged)
    for fl in report.failures:
        assert any(
            (pa.label, pb.label) == fl.labels
            and None not in (pa.placement_at(fl.time), pb.placement_at(fl.time))
            and not _exempt(checked, pa, pb, fl.time)
            and _separation(pa, pb, fl.time) <= 0
            for pa, pb in combinations(placements, 2)
        ), fl
    times = [fl.time for fl in report.failures]
    assert times == sorted(times)
    for pairs in sampled:
        assert pairs <= flagged, pairs - flagged
    if oracle:
        assert flagged == _fraction_oracle(checked, placements)
    return report


def _sampled_pairs(checked, placements, samples):
    """The pairs that the set-and-sort oracle flags at ``samples``."""
    return {labels for _, labels in _oracle_certificate(checked, placements, samples)[2]}


def _walked_pairs(checked, placements, samples):
    """The pairs that the tick walk flags at ``samples``."""
    walk = _tick_walk_certificate(checked, placements, samples)
    return {fl.labels for fl in walk.failures}


def _variants(movies):
    """Each checked movie with the library's layout and, when it has two
    disks or more, with its parked layout."""
    for checked in movies:
        placements = assign_disks(checked)
        yield checked, placements
        if len(placements) > 1:
            yield checked, _parked(placements)


def _seeded(seeds):
    return [validate_movie(random_movie(seed)) for seed in seeds]


def test_certificate_matches_the_fraction_oracle():
    failing = 0
    for checked, variant in _variants(_seeded(range(40))):
        failing += not _checked_exactly(checked, variant).ok
    assert failing > 10, failing


@pytest.mark.parametrize("samples", [1, 4, 10])
def test_certificate_matches_the_set_and_sort_oracle(samples):
    # the exact failures cover every pair the samples flag, each at a real
    # overlap
    for checked, variant in _variants(_seeded(range(40))):
        pairs = _sampled_pairs(checked, variant, samples)
        _checked_exactly(checked, variant, pairs, oracle=False)


def test_certificate_finds_an_overlap_the_samples_miss():
    # with disk 1 parked on disk 0's keyframes, disks 1 and 2 of movie 86
    # overlap only on the open interval (1/144, 11/1152), just after a split
    checked = validate_movie(random_movie(86))
    placements = _parked(assign_disks(checked))
    report = _checked_exactly(checked, placements)
    ((t, labels),) = [(fl.time, fl.labels) for fl in report.failures]
    assert labels == (1, 2) and F(1, 144) < t < F(11, 1152)
    for samples in (10, 100):
        assert _tick_walk_certificate(checked, placements, samples).ok


def _off_grid_movie():
    """A movie and hand-built placements with keyframe times, coordinates and
    radii over 7, 9 and 11; a merge at 2/7 and a split at 5/9 exempt pairs."""
    checked = validate_movie(
        SweepMovie(
            initial=("a", "b"),
            events=(
                make_event(F(2, 7), "merge", "a", "b", "c"),
                make_event(F(5, 9), "split", "c", "d", "e"),
            ),
        )
    )
    y = F(5, 9)
    placements = [
        # born before its one keyframe and dying after it
        DiskPlacement(0, "a", F(0), F(1), ((F(1, 11), (F(1, 7), y), F(3, 11)),)),
        # slides through disk 0, exactly tangent to it at t = 1/7
        DiskPlacement(
            1,
            "b",
            F(1, 9),
            F(7, 9),
            ((F(1, 9), (F(2), y), F(2, 7)), (F(2, 7), (F(-36, 7), y), F(2, 7))),
        ),
        DiskPlacement(
            2,
            "c",
            F(2, 9),
            F(1),
            (
                (F(1, 7), (F(3), F(-1, 9)), F(1, 11)),
                (F(4, 9), (F(30, 11), F(2, 7)), F(4, 11)),
                (F(8, 11), (F(2), F(1, 9)), F(2, 9)),
            ),
        ),
        DiskPlacement(
            3,
            "d",
            F(0),
            F(5, 9),
            (
                (F(0), (F(2), F(-2, 7)), F(1, 9)),
                (F(3, 7), (F(20, 9), F(-1, 11)), F(3, 7)),
                (F(5, 9), (F(19, 7), F(1, 11)), F(2, 11)),
            ),
        ),
    ]
    return checked, placements


def test_certificate_matches_the_oracle_off_the_movie_grid():
    checked, placements = _off_grid_movie()
    (ca, ra), (cb, rb) = (p.placement_at(F(1, 7)) for p in placements[:2])
    assert (ca[0] - cb[0]) ** 2 + (ca[1] - cb[1]) ** 2 == (ra + rb) ** 2
    sampled = [_sampled_pairs(checked, placements, s) for s in (1, 4, 10)]
    sampled += [_walked_pairs(checked, placements, s) for s in (1, 4, 10)]
    report = _checked_exactly(checked, placements, *sampled)
    # disk 1 slides through disk 0, tangent at 1/7 and deepest at the vertex
    assert [(fl.time, fl.labels) for fl in report.failures] == [
        (F(493, 3150), (0, 1)),
        (F(3, 7), (2, 3)),
        (F(4, 9), (2, 3)),
        (F(162379663, 332892846), (2, 3)),
    ]


def test_certificate_handles_the_empty_movie():
    checked = validate_movie(SweepMovie(initial=(), events=()))
    assert checked.circle_count == 0
    report = embedding_certificate(checked)
    assert report.ok and report.pairs_checked == 0


def _hand_built_failures(placements):
    """The failures of a hand-built two-disk movie with no events, after
    checking the report against the Fraction oracle."""
    checked = validate_movie(SweepMovie(initial=("a", "b"), events=()))
    report = _checked_exactly(checked, placements)
    return [(fl.time, fl.labels) for fl in report.failures]


def test_certificate_finds_a_crossing_inside_one_piece():
    # disk 1 slides through disk 0 along one keyframe step: the step's ends
    # are clear, so only the vertex of the pair's quadratic finds the overlap
    frames = ((F(0), (F(-10), F(0)), F(1)), (F(1), (F(10), F(0)), F(1)))
    placements = [
        DiskPlacement(0, "a", F(0), F(1), ((F(0), (F(0), F(1, 3)), F(1)),)),
        DiskPlacement(1, "b", F(0), F(1), frames),
    ]
    assert _hand_built_failures(placements) == [(F(1, 2), (0, 1))]


def test_certificate_takes_a_jump_from_the_left():
    # two keyframes of disk 1 at t = 1/2: there it still sits at the earlier
    # keyframe, as placement_at places it
    far, near, r = (F(5), F(0)), (F(1, 2), F(0)), F(1, 3)
    frames = ((F(0), far, r), (F(1, 2), far, r), (F(1, 2), near, r), (F(1), near, r))
    placements = [
        DiskPlacement(0, "a", F(0), F(1), ((F(0), (F(0), F(0)), r),)),
        DiskPlacement(1, "b", F(0), F(1), frames),
    ]
    assert placements[1].placement_at(F(1, 2)) == (far, r)
    assert _hand_built_failures(placements) == [(F(1), (0, 1))]
    # the same at the first moment of the pair's common lifespan
    frames = ((F(0), near, r), (F(0), far, r), (F(1), far, r))
    placements[1] = DiskPlacement(1, "b", F(0), F(1), frames)
    assert _hand_built_failures(placements) == [(F(0), (0, 1))]


def test_certificate_checks_the_open_start_after_a_jump():
    # disk 1 jumps onto disk 0 at t = 1/2 and slides off before t = 1: the
    # overlap holds just after the jump, found by halving toward it
    far, near, r = (F(5), F(0)), (F(1, 2), F(0)), F(1, 3)
    frames = ((F(0), far, r), (F(1, 2), far, r), (F(1, 2), near, r), (F(1), far, r))
    placements = [
        DiskPlacement(0, "a", F(0), F(1), ((F(0), (F(0), F(0)), r),)),
        DiskPlacement(1, "b", F(0), F(1), frames),
    ]
    assert _separation(*placements, F(1)) > 0
    assert _hand_built_failures(placements) == [(F(33, 64), (0, 1))]


# ---------------------------------------------------------------- earlier designs
# The layout in Fractions and the certificate that walked every live disk tick
# by tick, as they were before both moved onto one int time unit and linear
# pieces.  They share no helper with dpl.sweeps; the movies below are too long
# for the set-and-sort oracle.

_OLD_HOME_R, _OLD_LANE_R = F(2, 5), F(1, 6)


def _fraction_layout(checked):
    """The layout computed in Fractions, keyframe by keyframe."""
    grid = [F(0), *(t for t, _, _ in checked.events), F(1)]
    frames = {i: [] for i in range(checked.circle_count)}

    def home(i):
        return (F(i), F(0))

    def spawn_travel(i, t0, d, pos, r, lane):
        hx, hy = home(i)
        frames[i].append((t0, pos, r))
        frames[i].append((t0 + d, (pos[0], F(lane)), _OLD_LANE_R))
        frames[i].append((t0 + 2 * d, (hx, F(lane)), _OLD_LANE_R))
        frames[i].append((t0 + 3 * d, (hx, hy), _OLD_LANE_R))
        frames[i].append((t0 + 4 * d, (hx, hy), _OLD_HOME_R))

    for i in range(checked.circle_count):
        if checked.born[i] == 0:
            frames[i].append((F(0), home(i), _OLD_HOME_R))
    for e, (t, kind, labels) in enumerate(checked.events):
        d, after = (t - grid[e]) / 8, (grid[e + 2] - t) / 8
        if kind == "birth":
            (i,) = labels
            frames[i].append((t, home(i), F(0)))
            frames[i].append((t + after, home(i), _OLD_HOME_R))
        elif kind == "death":
            (i,) = labels
            frames[i].append((t - d, home(i), _OLD_HOME_R))
            frames[i].append((t, home(i), F(0)))
        elif kind == "isolated":
            (i,) = labels
            frames[i].append((t, home(i), F(0)))
        elif kind == "merge":
            ia, ib, ic = labels
            ax = home(ia)[0]
            frames[ia].append((t - 3 * d, home(ia), _OLD_HOME_R))
            frames[ia].append((t - d, home(ia), _OLD_LANE_R))
            frames[ia].append((t, home(ia), _OLD_LANE_R))
            meet = (ax + 2 * _OLD_LANE_R, F(0))
            frames[ib].append((t - 3 * d, home(ib), _OLD_HOME_R))
            frames[ib].append((t - 2 * d, (home(ib)[0], F(1)), _OLD_LANE_R))
            frames[ib].append((t - d, (meet[0], F(1)), _OLD_LANE_R))
            frames[ib].append((t, meet, _OLD_LANE_R))
            spawn_travel(ic, t, after, (ax + _OLD_LANE_R, F(0)), 2 * _OLD_LANE_R, -1)
        else:
            ic, ia, ib = labels
            cx = home(ic)[0]
            frames[ic].append((t, home(ic), _OLD_HOME_R))
            spawn_travel(ia, t, after, (cx - _OLD_HOME_R, F(0)), F(0), -1)
            spawn_travel(ib, t, after, (cx + _OLD_HOME_R, F(0)), F(0), -2)
    return tuple(
        DiskPlacement(
            label=i,
            name=checked.names[i],
            born=checked.born[i],
            died=checked.died[i],
            keyframes=tuple(sorted(frames[i], key=lambda kf: kf[0])),
        )
        for i in range(checked.circle_count)
    )


def _tick_walk_certificate(checked, placements, samples):
    """The certificate in ints on one tick grid, every live disk walked over
    its keyframes tick by tick and every live pair tested at every tick."""

    def on(v, unit):
        return v.numerator * (unit // v.denominator)

    grid = [F(0), *(t for t, _, _ in checked.events), F(1)]
    n = max(samples, 0) + 1
    spans = [(p.born, p.died, *(kf[0] for kf in p.keyframes)) for p in placements]
    sizes = [(*c, r) for p in placements for _, c, r in p.keyframes]
    T = n * lcm(*(t.denominator for s in (grid, *spans) for t in s))
    U = lcm(*(v.denominator for s in sizes for v in s))
    ends = [on(t, T) for t in grid]
    ticks = [a + i * (b - a) // n for a, b in zip(ends, ends[1:]) for i in range(n)]
    ticks.append(ends[-1])

    def walk(p, lo, kts):
        ks, j = [on(t, T) for t in kts], 1
        fs = [[on(v, U) for v in (*c, r)] for _, c, r in p.keyframes]
        for k in map(ticks.__getitem__, count(lo)):
            j = bisect_left(ks, k, j)
            if k <= ks[0] or j == len(ks):
                yield (p.label, *fs[0 if k <= ks[0] else -1], 1)
                continue
            w0, w1 = ks[j] - k, k - ks[j - 1]
            xyr = [v0 * w0 + v1 * w1 for v0, v1 in zip(fs[j - 1], fs[j])]
            yield (p.label, *xyr, w0 + w1)

    starts = {}
    for d, (p, (born, died, *kts)) in enumerate(zip(placements, spans)):
        lo, hi = bisect_left(ticks, on(born, T)), bisect_right(ticks, on(died, T))
        starts.setdefault(lo, []).append((d, hi, walk(p, lo, kts)))
        starts.setdefault(hi, [])
    exempt = {on(t, T): labels for t, _, labels in checked.events}
    times = [F(k, T) for k in ticks]
    failures, pairs_checked, live = [], 0, []
    for i, (k, t) in enumerate(zip(ticks, times)):
        if i in starts:
            live = sorted(w for w in live + starts[i] if w[1] > i)
        event = exempt.get(k, ())
        disks = [next(w[2]) for w in live]
        for (la, xa, ya, ra, da), (lb, xb, yb, rb, db) in combinations(disks, 2):
            if la in event and lb in event:
                continue
            pairs_checked += 1
            dx, dy, rr = xa * db - xb * da, ya * db - yb * da, ra * db + rb * da
            if dx * dx + dy * dy <= rr * rr:
                failures.append(CertificateFailure(time=t, labels=(la, lb)))
    return CertificateReport(
        ok=not failures,
        times_checked=tuple(times),
        pairs_checked=pairs_checked,
        failures=tuple(failures),
    )


@functools.cache
def _long_movies():
    """``random_movie(seed, max_events=200)`` validated, for a few seeds."""
    return [validate_movie(random_movie(seed, max_events=200)) for seed in (0, 3, 9)]


def test_layout_matches_the_fraction_layout():
    movies = [validate_movie(random_movie(seed)) for seed in range(40)]
    for checked in [validate_movie(little_movie()), *movies, *_long_movies()]:
        assert assign_disks(checked) == _fraction_layout(checked)


@pytest.mark.parametrize("samples", [1, 4, 10])
def test_certificate_matches_the_tick_walk(samples):
    # as against the set-and-sort oracle, over more and longer movies
    for checked, variant in _variants([*_seeded(range(300)), *_long_movies()]):
        pairs = _walked_pairs(checked, variant, samples)
        _checked_exactly(checked, variant, pairs, oracle=False)


def _random_disks(checked, rng):
    """Disks with random keyframes over halves, thirds, sevenths and ninths:
    some keyframes lie outside the disk's lifespan, some disks jump (two
    keyframes at one time), and some share label 0."""

    def q(lo, hi):
        d = rng.choice((2, 3, 7, 9))
        return F(rng.randint(lo * d, hi * d), d)

    disks = []
    for i in range(checked.circle_count):
        times = sorted(q(-1, 2) / 2 for _ in range(rng.randint(1, 4)))
        if len(times) > 1 and rng.random() < 0.3:
            times[1] = times[0]
        frames = tuple((t, (q(-2, 2), q(-2, 2)), q(0, 1)) for t in times)
        label = i if rng.random() < 0.9 else 0
        born, died = checked.born[i], checked.died[i]
        disks.append(DiskPlacement(label, checked.names[i], born, died, frames))
    return disks


def test_certificate_matches_the_tick_walk_on_random_disks():
    rng, failing = random.Random(0), 0
    for seed in range(150):
        checked = validate_movie(random_movie(seed, max_events=4))
        placements = _random_disks(checked, rng)
        pairs = [_walked_pairs(checked, placements, s) for s in (1, 4, 10)]
        failing += not _checked_exactly(checked, placements, *pairs).ok
    assert failing > 60, failing


def test_random_movie_is_deterministic():
    assert random_movie(42) == random_movie(42)
    assert random_movie(42) != random_movie(43)


# ---------------------------------------------------------------- census


def test_bundled_census_numbers():
    report = surgery_census()
    assert report.ok
    assert (report.initial_count, report.final_count) == (4, 12)
    assert report.move_count == 15
    assert (report.split_count, report.merge_count, report.band_count) == (11, 3, 1)
    assert not report.orientable_feasible
    assert report.nonorientable_minimum == 1
    assert surgery_parity(4, 12, 15) == (False, 1)


def test_census_counts_match_the_raw_file():
    raw = json.loads(
        resources.files("dpl").joinpath("data/surgery_census.json").read_text()
    )
    assert raw["final"] == 12
    assert len(raw["moves"]) == 15
    assert len(raw["initial"]) == 4


def test_census_reports_label_deviations():
    data = {
        "initial": ["a", "b"],
        "final": 2,
        "moves": [
            {"kind": "split", "in": ["a"], "out": ["c", "d"]},
            {"kind": "merge", "in": ["c", "zzz"], "out": ["e"]},
        ],
    }
    report = surgery_census(data)
    assert not report.ok
    assert any("zzz" in d for d in report.deviations)


def test_census_reports_final_count_mismatch():
    data = {
        "initial": ["a"],
        "final": 5,
        "moves": [{"kind": "split", "in": ["a"], "out": ["b", "c"]}],
    }
    report = surgery_census(data)
    assert any("final" in d for d in report.deviations)


def test_census_rejects_unknown_moves():
    data = {"initial": ["a"], "final": 1, "moves": [{"kind": "twist", "in": ["a"], "out": ["a2"]}]}
    report = surgery_census(data)
    assert any("twist" in d for d in report.deviations)


@pytest.mark.parametrize(
    "data, deviation",
    [
        pytest.param(
            {"initial": ["a", "a"], "final": 2, "moves": []},
            "initial labels are not distinct",
            id="repeated initial labels",
        ),
        pytest.param(
            {"initial": ["a"], "moves": [{"kind": "split", "in": ["a"], "out": ["b"]}]},
            "move 0: split has arity 1->1",
            id="wrong arity",
        ),
        pytest.param(
            {
                "initial": ["a", "b"],
                "moves": [{"kind": "band", "in": ["a"], "out": ["b"]}],
            },
            "move 0: output 'b' already exists",
            id="existing output",
        ),
        pytest.param(
            {"initial": [], "moves": []},
            "parity check impossible: "
            "counts must be positive ints and n an int >= 0",
            id="parity check impossible",
        ),
    ],
)
def test_census_reports_each_deviation(data, deviation):
    report = surgery_census(data)
    assert deviation in report.deviations
