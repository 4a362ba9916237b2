"""Sweep movies: circle families over time, checked and drawn with round disks.

A movie is a list of timed events (births, deaths, merges, splits, isolated
moments) acting on labeled circles.  :func:`validate_movie` checks the
combinatorics and assigns canonical integer labels in birth order;
:func:`assign_disks` realizes every circle as a moving round disk in the
plane so that disks are pairwise disjoint at all times, touching only at
their own event's moment; :func:`embedding_certificate` verifies that
disjointness exactly at every moment, and names a time of overlap for each
piece of time on which it fails.  Both compute in ints and return their
times as ``Fraction`` values: the layout on one time unit in which every
window's eighth is whole, the certificate on one time unit and one length
unit common to the movie and its disks, pair by pair over the pieces of
time on which both disks move linearly, where a pair's separation is a
quadratic in time.

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
from itertools import count
from math import inf, lcm
from typing import Mapping, Sequence

from .circle_maps import InfeasibleParameters, RationalLike, _is_int, frac

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

    The schedule runs in ints on one time unit 1/W, W = 8 times the LCM of
    the event-time denominators, on which every window's eighth is an int.
    Each tick that holds a keyframe becomes one ``Fraction`` at the end, and
    the homes, the lane heights and 0 are built once per layout.
    """
    # lcm's arguments and the keyframe tuples are built from lists, not
    # generators: CPython resizes a tuple built from a generator, and a
    # resized short tuple joins its length's free list when freed; with few
    # objects per layout the collector seldom empties those lists, so over
    # many layouts they fill and pin memory
    W = 8 * lcm(*[t.denominator for t, _, _ in checked.events])
    ends = [_on(t, W) for t in _grid(checked)]
    eighths = [(b - a) // 8 for a, b in zip(ends, ends[1:])]
    zero, up = Fraction(0), Fraction(1)
    lanes = {-1: Fraction(-1), -2: Fraction(-2)}
    homes = [(Fraction(i), zero) for i in range(checked.circle_count)]
    frames: list[list[tuple[int, Point, Fraction]]] = [[] for _ in homes]

    def spawn_travel(
        i: int, k: int, d: int, pos: Point, r: Fraction, lane: int
    ) -> None:
        """Born at pos/r at tick k; descend to the lane, slide home, settle,
        one step d per move."""
        (hx, _), y = homes[i], lanes[lane]
        frames[i] += [
            (k, pos, r),
            (k + d, (pos[0], y), _LANE_R),
            (k + 2 * d, (hx, y), _LANE_R),
            (k + 3 * d, homes[i], _LANE_R),
            (k + 4 * d, homes[i], _HOME_R),
        ]

    for i, born in enumerate(checked.born):
        if born == 0:
            frames[i].append((0, homes[i], _HOME_R))

    for e, (_, kind, labels) in enumerate(checked.events):
        # the event's tick, and an eighth of the window before and after it
        k, d, after = ends[e + 1], eighths[e], eighths[e + 1]
        if kind == "birth":
            (i,) = labels
            frames[i] += [(k, homes[i], zero), (k + after, homes[i], _HOME_R)]
        elif kind == "death":
            (i,) = labels
            frames[i] += [(k - d, homes[i], _HOME_R), (k, homes[i], zero)]
        elif kind == "isolated":
            (i,) = labels
            frames[i].append((k, homes[i], zero))
        elif kind == "merge":
            ia, ib, ic = labels
            ax, bx = homes[ia][0], homes[ib][0]
            # the first parent stays and shrinks in place
            frames[ia] += [
                (k - 3 * d, homes[ia], _HOME_R),
                (k - d, homes[ia], _LANE_R),
                (k, homes[ia], _LANE_R),
            ]
            # the second parent travels along the +1 lane and lands tangent
            meet = ax + 2 * _LANE_R
            frames[ib] += [
                (k - 3 * d, homes[ib], _HOME_R),
                (k - 2 * d, (bx, up), _LANE_R),
                (k - d, (meet, up), _LANE_R),
                (k, (meet, zero), _LANE_R),
            ]
            # the child covers both parents in internal tangency, then leaves
            spawn_travel(ic, k, after, (ax + _LANE_R, zero), 2 * _LANE_R, -1)
        else:  # split
            ic, ia, ib = labels
            cx = homes[ic][0]
            frames[ic].append((k, homes[ic], _HOME_R))
            spawn_travel(ia, k, after, (cx - _HOME_R, zero), zero, -1)
            spawn_travel(ib, k, after, (cx + _HOME_R, zero), zero, -2)

    times = {k: Fraction(k, W) for k in {k for fs in frames for k, _, _ in fs}}
    out = []
    for i, fs in enumerate(frames):
        # every window's moves fit inside it, so the keyframes arrive in
        # time order
        for (k0, _, _), (k1, _, _) in zip(fs, fs[1:]):
            if k0 >= k1:
                raise AssertionError(
                    f"conflicting keyframes for disk {i} at {times[k1]}"
                )
        out.append(
            DiskPlacement(
                label=i,
                name=checked.names[i],
                born=checked.born[i],
                died=checked.died[i],
                keyframes=tuple([(times[k], c, r) for k, c, r in fs]),
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


def _open_end_overlap(
    A: int, B: int, C: int, c0: int, c1: int, ends: list[int]
) -> Fraction | None:
    """A tick inside (c0, c1) at which D(k) = A k² + B k + C is at most 0, or
    None when D is at least 0 at each of ``ends`` and rises into the piece
    from each end where it is 0.

    The tick is halved from the piece's middle toward the first end that
    fails until D is at most 0 there; it stops, since D is at most 0 just
    inside that end.
    """
    for end in ends:
        d = (A * end + B) * end + C
        slope = (2 * A * end + B) * (1 if end == c0 else -1)
        if d < 0 or d == 0 and (slope < 0 or slope == 0 and A <= 0):
            k = Fraction(c0 + c1, 2)
            while (A * k + B) * k + C > 0:
                k = (k + end) / 2
            return k
    return None


def embedding_certificate(
    checked: CheckedMovie, placements: Sequence[DiskPlacement] | None = None
) -> CertificateReport:
    """Exact disjointness check at every moment.

    Every two disks alive at a common moment must be strictly disjoint then,
    except that the participants of an event may touch or overlap each other
    at exactly that event's time.

    The check runs in ints on one time unit 1/T and one length unit 1/U:
    T is the LCM of every grid denominator and every time in the placements
    given, U the LCM of their keyframe coordinate and radius denominators.
    The ints stay a few bits wide when the times share a small LCM, as every
    :func:`random_movie`'s do; times over many distinct denominators widen
    every product.  A disk is placed as :meth:`DiskPlacement.placement_at`
    places it, from keyframes in time order: it is clamped to its first
    keyframe up to that keyframe's tick, then moves linearly over each
    keyframe step (K0, K1], then is clamped to its last keyframe.  A step
    owns its end tick, so at a jump (two keyframes at one time) the earlier
    keyframe holds there.  On each such piece the disk's center is
    ((X1 k + X0)/Δ, (Y1 k + Y0)/Δ)/U at tick k and its radius
    (R1 k + R0)/(U Δ), with Δ = K1 - K0, or Δ = 1 where it is clamped.

    The pairs of disks alive at a common tick come from one sweep over the
    disks in order of their first ticks.  A pair's common lifespan [lo, hi]
    is cut at both disks' piece ends and at the ticks of the events that
    both disks take part in, which are exempt.  The moment lo is checked
    with the pieces that own it, and then each piece (c0, c1] in turn.  On
    it the pair's separation D(k) = dx² + dy² - (ra + rb)², multiplied
    through by (U Δa Δb)², is a quadratic A k² + B k + C in ints, and D > 0
    on the piece exactly when

    - D(c1) > 0, unless c1 is exempt;
    - B² < 4AC, when A > 0 and the vertex -B/2A lies inside the piece;
    - D >= 0 at each open end, and D rises into the piece where it is 0.
      The open ends are c0 when it is exempt or a disk jumps there, and c1
      when it is exempt; at any other c0, D is the value already checked
      at the end of the piece before.

    A failing piece is reported once, with a witness time at which the two
    disks overlap: c1 when D(c1) <= 0 there, else the vertex -B/(2AT), else
    a time halved toward the failing open end (:func:`_open_end_overlap`).
    The failures come in time order, each pair in the order the placements
    are given.  ``pairs_checked`` counts the pieces tested, and
    ``times_checked`` lists the piece ends 0, the event times, the keyframe
    times inside [0, 1] and 1, as the ``Fraction`` values given.
    """
    if placements is None:
        placements = assign_disks(checked)
    grid = _grid(checked)
    spans = [(p.born, p.died, *(kf[0] for kf in p.keyframes)) for p in placements]
    sizes = [(*c, r) for p in placements for _, c, r in p.keyframes]
    # lcm's arguments come from lists, as in assign_disks
    T = lcm(*[t.denominator for s in (grid, *spans) for t in s])
    U = lcm(*[v.denominator for s in sizes for v in s])
    stamps = {_on(t, T): t for t in grid}

    def pieces(p):
        """The end tick of each of the disk's pieces, the last one endless,
        and each piece as (X1, X0, Y1, Y0, R1, R0, Δ, the tick at which the
        disk jumps to the piece, or None); a piece owns the ticks after the
        end of the piece before it up to its own end."""
        ks = [_on(t, T) for t, _, _ in p.keyframes]
        stamps.update(zip(ks, [t for t, _, _ in p.keyframes]))
        fs = [(_on(x, U), _on(y, U), _on(r, U)) for _, (x, y), r in p.keyframes]
        (x, y, r), (xl, yl, rl) = fs[0], fs[-1]
        ends, out, jump = [ks[0]], [(0, x, 0, y, 0, r, 1, None)], None
        for k0, k1, (x0, y0, r0), (x1, y1, r1) in zip(ks, ks[1:], fs, fs[1:]):
            if k0 < k1:
                ends.append(k1)
                out.append((x1 - x0, x0 * k1 - x1 * k0, y1 - y0, y0 * k1 - y1 * k0,
                            r1 - r0, r0 * k1 - r1 * k0, k1 - k0, jump))
            # a step of no length is a jump to the start of the next one
            jump = k1 if k0 == k1 else None
        ends.append(inf)
        out.append((0, xl, 0, yl, 0, rl, 1, jump))
        return ends, out

    # the tick of each event and its participants
    moments = [(_on(t, T), labels) for t, _, labels in checked.events]
    at = [k for k, _ in moments]
    failures: list[tuple[int | Fraction, int, int]] = []  # (witness tick, a, b)

    def check_pair(one, other, lo):
        """Check two disks, each as (placement index, last tick, piece ends,
        pieces), from tick lo up to the first last tick; the pieces tested."""
        (a, ha, ea, pa), (b, hb, eb, pb) = one, other
        la, lb, hi = placements[a].label, placements[b].label, min(ha, hb)
        # the ticks of the events that both disks take part in
        span = moments[bisect_left(at, lo) : bisect_right(at, hi)]
        exempt = [k for k, event in span if la in event and lb in event]
        stops = [k for k in exempt if k > lo] + [hi]
        ia, ib, j, tests = bisect_left(ea, lo), bisect_left(eb, lo), 0, 0
        # the first piece is the moment lo alone
        c0 = c1 = lo
        while True:
            xa1, xa0, ya1, ya0, ra1, ra0, da, ja = pa[ia]
            xb1, xb0, yb1, yb0, rb1, rb0, db, jb = pb[ib]
            x1, x0 = xa1 * db - xb1 * da, xa0 * db - xb0 * da
            y1, y0 = ya1 * db - yb1 * da, ya0 * db - yb0 * da
            r1, r0 = ra1 * db + rb1 * da, ra0 * db + rb0 * da
            A = x1 * x1 + y1 * y1 - r1 * r1
            B = 2 * (x1 * x0 + y1 * y0 - r1 * r0)
            C = x0 * x0 + y0 * y0 - r0 * r0
            opens = ()
            if exempt or ja == c0 or jb == c0:
                opens = [k for k in (c0, c1) if k in exempt or k in (ja, jb)]
            # an exempt moment lo alone has nothing to test
            if c0 < c1 or not opens:
                tests += 1
                k = None
                if c1 not in opens and (A * c1 + B) * c1 + C <= 0:
                    k = c1
                elif A > 0 and 2 * A * c0 < -B < 2 * A * c1 and B * B >= 4 * A * C:
                    k = Fraction(-B, 2 * A)
                elif opens:
                    k = _open_end_overlap(A, B, C, c0, c1, opens)
                if k is not None:
                    failures.append((k, min(a, b), max(a, b)))
            if c1 == hi:
                return tests
            c0 = c1
            ia += ea[ia] == c0
            ib += eb[ib] == c0
            c1 = min(ea[ia], eb[ib], stops[j])
            j += stops[j] == c1

    # each disk alive at some tick as (first tick, last tick, placement index)
    order = []
    for d, p in enumerate(placements):
        lo, hi = _on(p.born, T), _on(p.died, T)
        if lo <= hi:
            order.append((lo, hi, d))
    # the disks in order of their first ticks, each paired with those still
    # alive at its first tick; a disk's pieces are held only while it lives
    pairs_checked = 0
    live: list[tuple] = []
    for lo, hi, d in sorted(order):
        live = [w for w in live if w[1] >= lo]
        disk = (d, hi, *pieces(placements[d]))
        for w in live:
            pairs_checked += check_pair(w, disk, lo)
        live.append(disk)
    return CertificateReport(
        ok=not failures,
        times_checked=tuple([stamps[k] for k in sorted(stamps) if 0 <= k <= T]),
        pairs_checked=pairs_checked,
        failures=tuple(
            CertificateFailure(
                Fraction(k, T), (placements[a].label, placements[b].label)
            )
            for k, a, b in sorted(failures)
        ),
    )


# --------------------------------------------------------------------------
# random movies


def random_movie(seed: int, max_events: int = 20) -> SweepMovie:
    """A deterministic random movie that always validates."""
    if not _is_int(max_events) or max_events < 0:
        raise InfeasibleParameters("max_events must be an int >= 0")
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
    if not all(map(_is_int, (c_in, c_out, n))) or c_in < 1 or c_out < 1 or n < 0:
        raise InfeasibleParameters("counts must be positive ints and n an int >= 0")
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
