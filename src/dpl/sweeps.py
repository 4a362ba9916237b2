"""Sweep movies: circle families over time, checked and drawn with round disks.

A movie is a list of timed events (births, deaths, merges, splits, isolated
moments) acting on labeled circles.  :func:`validate_movie` checks the
combinatorics and assigns canonical integer labels in birth order;
:func:`assign_disks` realizes every circle as a moving round disk in the
plane so that disks are pairwise disjoint at all times, touching only at
their own event's moment; :func:`embedding_certificate` verifies that
disjointness exactly on a finite sample grid.  It computes in ints, on one
time unit and one length unit common to the movie and its disks, and returns
its times as ``Fraction`` values.

:func:`surgery_census` replays the bundled surgery sequence against the
count parity of :func:`surgery_parity`.

The layout is a slot system: disk k idles at (k, 0) with radius 2/5.
Travel happens in horizontal lanes at y = +1 (heading to an event) and
y = -1, -2 (dispersing after one) at radius 1/6; a lane passer and an idle
disk are at distance >= 1 > 2/5 + 1/6, so lanes never collide with homes.
Each between-event window is cut into eighths to sequence the moves.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count
from math import lcm
from typing import Mapping, Sequence

from .circle_maps import InfeasibleParameters, RationalLike, frac

__all__ = [
    "DanglingLabel",
    "DoubleBirth",
    "EventOrderViolation",
    "Event",
    "make_event",
    "SweepMovie",
    "CheckedMovie",
    "validate_movie",
    "DiskPlacement",
    "assign_disks",
    "CertificateFailure",
    "CertificateReport",
    "embedding_certificate",
    "random_movie",
    "Infeasible",
    "surgery_parity",
    "CensusReport",
    "surgery_census",
]


class DanglingLabel(ValueError):
    """An event references a circle that is not alive."""


class DoubleBirth(ValueError):
    """A label is born twice (or reused after dying)."""


class EventOrderViolation(ValueError):
    """Event times are not strictly increasing inside (0, 1)."""


@dataclass(frozen=True)
class Event:
    """One timed event.

    The labels name the circles the event ends, then those it starts (see
    ``_SHAPE``): ``birth``/``death``/``isolated`` take one label; ``merge``
    takes (left, right, child); ``split`` takes (parent, left, right).  An
    ``isolated`` circle is born and dies at the same moment.
    """

    time: Fraction
    kind: str
    labels: tuple[str, ...]


# each kind's shape: how many of its labels are circles it ends, then how
# many it starts
_SHAPE = {
    "birth": (0, 1),
    "death": (1, 0),
    "isolated": (0, 1),
    "merge": (2, 1),
    "split": (1, 2),
}

# the surgery census's moves by the same measure: a split or a merge has its
# movie event's shape, and a band move turns one circle into one
_MOVE_SHAPE = {"split": _SHAPE["split"], "merge": _SHAPE["merge"], "band": (1, 1)}


@dataclass(frozen=True)
class SweepMovie:
    initial: tuple[str, ...]
    events: tuple[Event, ...]


@dataclass(frozen=True)
class CheckedMovie:
    """A validated movie with canonical integer labels in birth order."""

    names: tuple[str, ...]  # index -> original label
    born: tuple[Fraction, ...]
    died: tuple[Fraction, ...]
    events: tuple[tuple[Fraction, str, tuple[int, ...]], ...]
    final: tuple[int, ...]

    @property
    def circle_count(self) -> int:
        return len(self.names)


def _check_event(kind: str, labels: tuple[str, ...]) -> None:
    if kind not in _SHAPE:
        raise EventOrderViolation(f"unknown event kind {kind!r}")
    arity = sum(_SHAPE[kind])
    if len(labels) != arity:
        raise EventOrderViolation(f"{kind} takes {arity} label(s), got {len(labels)}")


def make_event(time: RationalLike, kind: str, *labels: str) -> Event:
    _check_event(kind, labels)
    return Event(time=frac(time), kind=kind, labels=tuple(labels))


def validate_movie(movie: SweepMovie) -> CheckedMovie:
    if len(set(movie.initial)) != len(movie.initial):
        raise DoubleBirth("initial labels must be distinct")
    last = Fraction(0)
    for ev in movie.events:
        t = frac(ev.time)
        if not (0 < t < 1):
            raise EventOrderViolation(f"event time {t} outside (0, 1)")
        if t <= last:
            raise EventOrderViolation(f"event times not strictly increasing at {t}")
        last = t
        _check_event(ev.kind, ev.labels)

    names: list[str] = []
    ids: dict[str, int] = {}
    born: list[Fraction] = []
    died: list[Fraction] = []
    alive: set[str] = set()

    def be_born(label: str, t: Fraction) -> int:
        if label in ids:
            raise DoubleBirth(f"label {label!r} born twice")
        ids[label] = len(names)
        names.append(label)
        born.append(t)
        died.append(Fraction(1))
        alive.add(label)
        return ids[label]

    def die(label: str, t: Fraction) -> int:
        if label not in alive:
            raise DanglingLabel(f"label {label!r} is not alive at {t}")
        alive.discard(label)
        died[ids[label]] = t
        return ids[label]

    for label in movie.initial:
        be_born(label, Fraction(0))

    canonical: list[tuple[Fraction, str, tuple[int, ...]]] = []
    for ev in movie.events:
        t = frac(ev.time)
        n_end = _SHAPE[ev.kind][0]
        ended, started = ev.labels[:n_end], ev.labels[n_end:]
        if ev.kind == "merge" and ended[0] == ended[1]:
            raise DanglingLabel("a merge needs two distinct live circles")
        if ev.kind == "split" and started[0] == started[1]:
            raise DoubleBirth("a split must produce two distinct labels")
        idx = [die(l, t) for l in ended] + [be_born(l, t) for l in started]
        if ev.kind == "isolated":
            die(started[0], t)
        canonical.append((t, ev.kind, tuple(idx)))

    return CheckedMovie(
        names=tuple(names),
        born=tuple(born),
        died=tuple(died),
        events=tuple(canonical),
        final=tuple(sorted(ids[l] for l in alive)),
    )


# --------------------------------------------------------------------------
# disk choreography

_HOME_R = Fraction(2, 5)
_LANE_R = Fraction(1, 6)

Point = tuple[Fraction, Fraction]
Keyframe = tuple[Fraction, Point, Fraction]


@dataclass(frozen=True)
class DiskPlacement:
    label: int
    name: str
    born: Fraction
    died: Fraction
    keyframes: tuple[Keyframe, ...]

    def placement_at(self, t: RationalLike) -> tuple[Point, Fraction] | None:
        """Center and radius at time t, or None when not alive."""
        t = frac(t)
        if not (self.born <= t <= self.died):
            return None
        frames = self.keyframes
        if t <= frames[0][0]:
            return frames[0][1], frames[0][2]
        for (t0, p0, r0), (t1, p1, r1) in zip(frames, frames[1:]):
            if t <= t1:
                # t > t0 here (by the check before the loop, or the pair
                # before), so the step has nonzero length
                s = (t - t0) / (t1 - t0)
                x = p0[0] + s * (p1[0] - p0[0])
                y = p0[1] + s * (p1[1] - p0[1])
                return (x, y), r0 + s * (r1 - r0)
        return frames[-1][1], frames[-1][2]


def _on(v: Fraction, unit: int) -> int:
    """v times ``unit``, a multiple of v's denominator, as an int."""
    return v.numerator * (unit // v.denominator)


def _grid(checked: CheckedMovie) -> list[Fraction]:
    """The window boundaries 0, the event times and 1, in increasing order.

    Precondition: ``checked`` comes from :func:`validate_movie`, which
    guarantees that the event times strictly increase inside (0, 1); so the
    list is sorted and free of repeats as built.
    """
    return [Fraction(0), *(t for t, _, _ in checked.events), Fraction(1)]


def assign_disks(checked: CheckedMovie) -> tuple[DiskPlacement, ...]:
    """Disjointly embedded moving disks realizing the movie.

    Disk k idles at (k, 0) with radius 2/5.  Arrivals and departures around
    each event run through the travel lanes on a fixed eighth-point schedule
    inside the adjacent windows, so distinct disks stay strictly disjoint and
    an event's participants touch exactly at the event time: a merge ends
    with the two parents externally tangent and the child covering them in
    internal tangency; a split starts its children as radius-zero points on
    the parent's boundary.
    """
    grid = _grid(checked)
    frames: dict[int, list[Keyframe]] = {i: [] for i in range(checked.circle_count)}

    def home(i: int) -> Point:
        return (Fraction(i), Fraction(0))

    def spawn_travel(
        i: int, t0: Fraction, d: Fraction, pos: Point, r: Fraction, lane: int
    ) -> None:
        """Born at pos/r at time t0; descend to the lane, slide home, settle,
        one step d per move."""
        hx, hy = home(i)
        frames[i].append((t0, pos, r))
        frames[i].append((t0 + d, (pos[0], Fraction(lane)), _LANE_R))
        frames[i].append((t0 + 2 * d, (hx, Fraction(lane)), _LANE_R))
        frames[i].append((t0 + 3 * d, (hx, hy), _LANE_R))
        frames[i].append((t0 + 4 * d, (hx, hy), _HOME_R))

    for i in range(checked.circle_count):
        if checked.born[i] == 0:
            frames[i].append((Fraction(0), home(i), _HOME_R))

    for e, (t, kind, labels) in enumerate(checked.events):
        # an eighth of the window before and after the event, which is grid[e + 1]
        d, after = (t - grid[e]) / 8, (grid[e + 2] - t) / 8
        if kind == "birth":
            (i,) = labels
            frames[i].append((t, home(i), Fraction(0)))
            frames[i].append((t + after, home(i), _HOME_R))
        elif kind == "death":
            (i,) = labels
            frames[i].append((t - d, home(i), _HOME_R))
            frames[i].append((t, home(i), Fraction(0)))
        elif kind == "isolated":
            (i,) = labels
            frames[i].append((t, home(i), Fraction(0)))
        elif kind == "merge":
            ia, ib, ic = labels
            ax = home(ia)[0]
            # the first parent stays and shrinks in place
            frames[ia].append((t - 3 * d, home(ia), _HOME_R))
            frames[ia].append((t - d, home(ia), _LANE_R))
            frames[ia].append((t, home(ia), _LANE_R))
            # the second parent travels along the +1 lane and lands tangent
            meet = (ax + 2 * _LANE_R, Fraction(0))
            frames[ib].append((t - 3 * d, home(ib), _HOME_R))
            frames[ib].append((t - 2 * d, (home(ib)[0], Fraction(1)), _LANE_R))
            frames[ib].append((t - d, (meet[0], Fraction(1)), _LANE_R))
            frames[ib].append((t, meet, _LANE_R))
            # the child covers both parents in internal tangency, then leaves
            spawn_travel(ic, t, after, (ax + _LANE_R, Fraction(0)), 2 * _LANE_R, -1)
        else:  # split
            ic, ia, ib = labels
            cx = home(ic)[0]
            frames[ic].append((t, home(ic), _HOME_R))
            spawn_travel(ia, t, after, (cx - _HOME_R, Fraction(0)), Fraction(0), -1)
            spawn_travel(ib, t, after, (cx + _HOME_R, Fraction(0)), Fraction(0), -2)

    out = []
    for i in range(checked.circle_count):
        ordered = sorted(frames[i], key=lambda kf: kf[0])
        for (t0, _, _), (t1, _, _) in zip(ordered, ordered[1:]):
            if t0 == t1:
                raise AssertionError(f"conflicting keyframes for disk {i} at {t0}")
        out.append(
            DiskPlacement(
                label=i,
                name=checked.names[i],
                born=checked.born[i],
                died=checked.died[i],
                keyframes=tuple(ordered),
            )
        )
    return tuple(out)


# --------------------------------------------------------------------------
# the certificate


@dataclass(frozen=True)
class CertificateFailure:
    time: Fraction
    labels: tuple[int, int]


@dataclass(frozen=True)
class CertificateReport:
    ok: bool
    times_checked: tuple[Fraction, ...]
    pairs_checked: int
    failures: tuple[CertificateFailure, ...]


def embedding_certificate(
    checked: CheckedMovie,
    placements: Sequence[DiskPlacement] | None = None,
    samples: int = 10,
) -> CertificateReport:
    """Exact disjointness check on window samples and event times.

    Every pair of disks alive at a sampled time must be strictly disjoint,
    except that the participants of an event may touch or overlap each other
    at exactly that event's time.

    The check runs in ints on one time unit 1/T and one length unit 1/U:
    T is samples + 1 times the LCM of every grid denominator and every
    time in the placements given, U the LCM of their keyframe coordinate
    and radius denominators, so every time checked is a tick k/T.  The
    ints stay a few bits wide when the times share a small LCM, as every
    :func:`random_movie`'s do; times over many distinct denominators widen
    every product.  Each disk walks its keyframes once over the ticks of
    its lifespan, all live disks one tick at a time, so only one tick's
    disks are held at once.  A disk is placed as
    :meth:`DiskPlacement.placement_at` places it: at a tick inside the
    keyframe step (K0, K1] its center is (X, Y)/(U Δ) and its radius
    R/(U Δ), with Δ = K1 - K0, or Δ = 1 where it is clamped to a keyframe.
    The pair test is multiplied through by (U Δa Δb)².  The report gives
    each time checked as a ``Fraction``, built once.
    """
    if placements is None:
        placements = assign_disks(checked)
    grid = _grid(checked)
    n = max(samples, 0) + 1
    spans = [(p.born, p.died, *(kf[0] for kf in p.keyframes)) for p in placements]
    sizes = [(*c, r) for p in placements for _, c, r in p.keyframes]
    T = n * lcm(*(t.denominator for s in (grid, *spans) for t in s))
    U = lcm(*(v.denominator for s in sizes for v in s))
    # each window's start and then its samples, window by window, and the
    # end; with samples below 1 only the grid is checked
    ends = [_on(t, T) for t in grid]
    ticks = [a + i * (b - a) // n for a, b in zip(ends, ends[1:]) for i in range(n)]
    ticks.append(ends[-1])

    def walk(p, lo, kts):
        """The disk at each tick from tick lo on, as (label, X, Y, R, Δ)."""
        ks, j = [_on(t, T) for t in kts], 1
        fs = [[_on(v, U) for v in (*c, r)] for _, c, r in p.keyframes]
        for k in map(ticks.__getitem__, count(lo)):
            # the first keyframe after the first with time >= k, or none
            j = bisect_left(ks, k, j)
            if k <= ks[0] or j == len(ks):
                yield (p.label, *fs[0 if k <= ks[0] else -1], 1)
                continue
            w0, w1 = ks[j] - k, k - ks[j - 1]
            xyr = [v0 * w0 + v1 * w1 for v0, v1 in zip(fs[j - 1], fs[j])]
            yield (p.label, *xyr, w0 + w1)

    # each disk's walk as (index, end, walk), live from the first tick of its
    # lifespan up to the tick before its end; the live disks change only at
    # the ticks keyed here
    starts: dict[int, list[tuple]] = {}
    for d, (p, (born, died, *kts)) in enumerate(zip(placements, spans)):
        lo, hi = bisect_left(ticks, _on(born, T)), bisect_right(ticks, _on(died, T))
        starts.setdefault(lo, []).append((d, hi, walk(p, lo, kts)))
        starts.setdefault(hi, [])
    # the participants of the event at each event tick
    exempt = {_on(t, T): labels for t, _, labels in checked.events}
    times = [Fraction(k, T) for k in ticks]
    failures: list[CertificateFailure] = []
    pairs_checked = 0
    live: list[tuple] = []  # the live disks' (index, end, walk), in order
    for i, (k, t) in enumerate(zip(ticks, times)):
        if i in starts:
            # the indices are distinct, so sorting never compares two walks
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


# --------------------------------------------------------------------------
# random movies


def random_movie(seed: int, max_events: int = 20) -> SweepMovie:
    """A deterministic random movie that always validates."""
    if max_events < 0:
        raise InfeasibleParameters("max_events must be nonnegative")
    rng = random.Random(seed)
    fresh = map("c{}".format, count(1))
    initial = tuple(next(fresh) for _ in range(rng.randint(1, 3)))
    alive = list(initial)
    n = rng.randint(0, max_events)
    denom = 8 * (n + 1)
    ticks = sorted(rng.sample(range(1, denom), n)) if n else []
    events = []
    for tick in ticks:
        choices = ["birth", "isolated"]
        if alive:
            choices += ["death", "split", "split"]
        if len(alive) >= 2:
            choices += ["merge", "merge"]
        kind = rng.choice(choices)
        n_end, n_start = _SHAPE[kind]
        labels = []
        for _ in range(n_end):
            labels.append(alive.pop(rng.randrange(len(alive))))
        for _ in range(n_start):
            labels.append(next(fresh))
        if kind != "isolated":
            alive += labels[n_end:]
        # labels drawn by the kind's shape always pass make_event's check
        events.append(Event(Fraction(tick, denom), kind, tuple(labels)))
    return SweepMovie(initial=initial, events=tuple(events))


# --------------------------------------------------------------------------
# surgery parity and the bundled surgery census


class Infeasible(ValueError):
    """No object with the requested counts exists."""


def surgery_parity(c_in: int, c_out: int, n: int) -> tuple[bool, int]:
    """Whether n surgeries can take c_in circles to c_out ones orientably.

    Each surgery changes the circle count by exactly one in the orientable
    regime, so feasibility needs n >= |c_out - c_in| with matching parity;
    a parity mismatch forces at least one count-preserving, side-swapping
    move.  Returns (orientable_only_feasible, minimum_nonorientable_moves).
    """
    if c_in < 1 or c_out < 1 or n < 0:
        raise InfeasibleParameters("counts must be positive and n nonnegative")
    delta = abs(c_out - c_in)
    if n < delta:
        raise Infeasible(f"{n} surgeries cannot change the count by {delta}")
    if (n - delta) % 2 == 0:
        return (True, 0)
    return (False, 1)


@dataclass(frozen=True)
class CensusReport:
    initial_count: int
    final_count: int
    move_count: int
    split_count: int
    merge_count: int
    band_count: int
    orientable_feasible: bool
    nonorientable_minimum: int
    deviations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.deviations


def surgery_census(data: Mapping | None = None) -> CensusReport:
    """Check the bundled 4-to-12 circle surgery sequence move by move.

    Every move must consume live labels and produce fresh ones with the right
    arity (split 1->2, merge 2->1, band 1->1); the final count must match,
    and the number of side-swapping band moves must cover the minimum that
    :func:`surgery_parity` demands.  Any discrepancy lands in ``deviations``.
    """
    if data is None:
        from importlib import resources

        census = resources.files("dpl").joinpath("data/surgery_census.json")
        data = json.loads(census.read_text())
    deviations: list[str] = []
    alive = list(data.get("initial", ()))
    initial_count = len(alive)
    if len(set(alive)) != initial_count:
        deviations.append("initial labels are not distinct")
    counts = dict.fromkeys(_MOVE_SHAPE, 0)
    for pos, move in enumerate(data.get("moves", ())):
        kind = move.get("kind")
        if kind not in _MOVE_SHAPE:
            deviations.append(f"move {pos}: unknown kind {kind!r}")
            continue
        counts[kind] += 1
        ins, outs = list(move.get("in", ())), list(move.get("out", ()))
        if (len(ins), len(outs)) != _MOVE_SHAPE[kind]:
            deviations.append(f"move {pos}: {kind} has arity {len(ins)}->{len(outs)}")
        for l in ins:
            if l in alive:
                alive.remove(l)
            else:
                deviations.append(f"move {pos}: input {l!r} is not a live circle")
        for l in outs:
            if l in alive:
                deviations.append(f"move {pos}: output {l!r} already exists")
            else:
                alive.append(l)
    final_count = len(alive)
    stated_final = data.get("final")
    if stated_final is not None and stated_final != final_count:
        deviations.append(
            f"census claims {stated_final} final circles, trace gives {final_count}"
        )
    move_count = sum(counts.values())
    try:
        feasible, minimum = surgery_parity(initial_count, final_count, move_count)
    except ValueError as exc:
        deviations.append(f"parity check impossible: {exc}")
        feasible, minimum = False, 0
    else:
        if counts["band"] < minimum:
            deviations.append(
                f"{counts['band']} band moves cannot meet the minimum {minimum}"
            )
    return CensusReport(
        initial_count=initial_count,
        final_count=final_count,
        move_count=move_count,
        split_count=counts["split"],
        merge_count=counts["merge"],
        band_count=counts["band"],
        orientable_feasible=feasible,
        nonorientable_minimum=minimum,
        deviations=tuple(deviations),
    )
