"""Sweep movies: circle families over time, checked and drawn with round disks.

A movie is a list of timed events (births, deaths, merges, splits, isolated
moments) acting on labeled circles.  :func:`validate_movie` checks the
combinatorics and assigns canonical integer labels in birth order;
:func:`assign_disks` realizes every circle as a moving round disk in the
plane so that disks are pairwise disjoint at all times, touching only at
their own event's moment; :func:`embedding_certificate` verifies that
disjointness on a finite sample grid with exact rational arithmetic.

The layout is a slot system: disk k idles at (k, 0) with radius 2/5.
Travel happens in horizontal lanes at y = +1 (heading to an event) and
y = -1, -2 (dispersing after one) at radius 1/6; a lane passer and an idle
disk are at distance >= 1 > 2/5 + 1/6, so lanes never collide with homes.
Each between-event window is cut into eighths to sequence the moves.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Mapping, Sequence

from .circle_maps import InfeasibleParameters, RationalLike, frac
from .unfolding import surgery_parity

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

    Label conventions: ``birth``/``death``/``isolated`` take one label;
    ``merge`` takes (left, right, child); ``split`` takes (parent, left,
    right).
    """

    time: Fraction
    kind: str
    labels: tuple[str, ...]


_ARITY = {"birth": 1, "death": 1, "isolated": 1, "merge": 3, "split": 3}


@dataclass(frozen=True)
class SweepMovie:
    initial: tuple[str, ...]
    events: tuple[Event, ...]


@dataclass(frozen=True)
class CheckedMovie:
    """A validated movie with canonical integer labels in birth order."""

    movie: SweepMovie
    names: tuple[str, ...]  # index -> original label
    born: tuple[Fraction, ...]
    died: tuple[Fraction, ...]
    events: tuple[tuple[Fraction, str, tuple[int, ...]], ...]
    final: tuple[int, ...]

    @property
    def circle_count(self) -> int:
        return len(self.names)


def _check_event(kind: str, labels: tuple[str, ...]) -> None:
    if kind not in _ARITY:
        raise EventOrderViolation(f"unknown event kind {kind!r}")
    if len(labels) != _ARITY[kind]:
        raise EventOrderViolation(
            f"{kind} takes {_ARITY[kind]} label(s), got {len(labels)}"
        )


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
        return ids[label]

    def die(label: str, t: Fraction) -> int:
        if label not in alive:
            raise DanglingLabel(f"label {label!r} is not alive at {t}")
        alive.discard(label)
        died[ids[label]] = t
        return ids[label]

    for label in movie.initial:
        be_born(label, Fraction(0))
        alive.add(label)

    canonical: list[tuple[Fraction, str, tuple[int, ...]]] = []
    for ev in movie.events:
        t = frac(ev.time)
        if ev.kind == "birth":
            (l,) = ev.labels
            idx = be_born(l, t)
            alive.add(l)
            canonical.append((t, "birth", (idx,)))
        elif ev.kind == "death":
            (l,) = ev.labels
            canonical.append((t, "death", (die(l, t),)))
        elif ev.kind == "isolated":
            (l,) = ev.labels
            idx = be_born(l, t)
            died[idx] = t
            canonical.append((t, "isolated", (idx,)))
        elif ev.kind == "merge":
            a, b, c = ev.labels
            if a == b:
                raise DanglingLabel("a merge needs two distinct live circles")
            ia, ib = die(a, t), die(b, t)
            ic = be_born(c, t)
            alive.add(c)
            canonical.append((t, "merge", (ia, ib, ic)))
        else:  # split
            c, a, b = ev.labels
            if a == b:
                raise DoubleBirth("a split must produce two distinct labels")
            ic = die(c, t)
            ia, ib = be_born(a, t), be_born(b, t)
            alive.update((a, b))
            canonical.append((t, "split", (ic, ia, ib)))

    return CheckedMovie(
        movie=movie,
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

Keyframe = tuple[Fraction, tuple[Fraction, Fraction], Fraction]


@dataclass(frozen=True)
class DiskPlacement:
    label: int
    name: str
    born: Fraction
    died: Fraction
    keyframes: tuple[Keyframe, ...]

    def placement_at(
        self, t: RationalLike
    ) -> tuple[tuple[Fraction, Fraction], Fraction] | None:
        """Center and radius at time t, or None when not alive."""
        t = frac(t)
        if not (self.born <= t <= self.died):
            return None
        frames = self.keyframes
        if t <= frames[0][0]:
            return frames[0][1], frames[0][2]
        for (t0, p0, r0), (t1, p1, r1) in zip(frames, frames[1:]):
            if t <= t1:
                if t0 == t1:
                    return p1, r1
                s = (t - t0) / (t1 - t0)
                x = p0[0] + s * (p1[0] - p0[0])
                y = p0[1] + s * (p1[1] - p0[1])
                return (x, y), r0 + s * (r1 - r0)
        return frames[-1][1], frames[-1][2]


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
    grid = sorted({Fraction(0), Fraction(1)} | {t for t, _, _ in checked.events})
    # an eighth of the window after and before each event time
    after = {t: (nxt - t) / 8 for t, nxt in zip(grid, grid[1:])}
    before = {t: (t - prev) / 8 for prev, t in zip(grid, grid[1:])}
    frames: dict[int, list[Keyframe]] = {i: [] for i in range(checked.circle_count)}

    def home(i: int) -> tuple[Fraction, Fraction]:
        return (Fraction(i), Fraction(0))

    def spawn_travel(
        i: int, t0: Fraction, pos: tuple[Fraction, Fraction], r: Fraction, lane: int
    ) -> None:
        """Born at pos/r at time t0; descend to the lane, slide home, settle."""
        d = after[t0]
        hx, hy = home(i)
        frames[i].append((t0, pos, r))
        frames[i].append((t0 + d, (pos[0], Fraction(lane)), _LANE_R))
        frames[i].append((t0 + 2 * d, (hx, Fraction(lane)), _LANE_R))
        frames[i].append((t0 + 3 * d, (hx, hy), _LANE_R))
        frames[i].append((t0 + 4 * d, (hx, hy), _HOME_R))

    for i in range(checked.circle_count):
        if checked.born[i] == 0:
            frames[i].append((Fraction(0), home(i), _HOME_R))

    for t, kind, labels in checked.events:
        d = before[t]
        if kind == "birth":
            (i,) = labels
            frames[i].append((t, home(i), Fraction(0)))
            frames[i].append((t + after[t], home(i), _HOME_R))
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
            meet = (ax + Fraction(1, 3), Fraction(0))
            frames[ib].append((t - 3 * d, home(ib), _HOME_R))
            frames[ib].append((t - 2 * d, (home(ib)[0], Fraction(1)), _LANE_R))
            frames[ib].append((t - d, (meet[0], Fraction(1)), _LANE_R))
            frames[ib].append((t, meet, _LANE_R))
            # the child covers both parents in internal tangency, then leaves
            spawn_travel(ic, t, (ax + Fraction(1, 6), Fraction(0)), Fraction(1, 3), -1)
        else:  # split
            ic, ia, ib = labels
            cx = home(ic)[0]
            frames[ic].append((t, home(ic), _HOME_R))
            spawn_travel(ia, t, (cx - _HOME_R, Fraction(0)), Fraction(0), -1)
            spawn_travel(ib, t, (cx + _HOME_R, Fraction(0)), Fraction(0), -2)

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
    """
    if placements is None:
        placements = assign_disks(checked)
    grid = sorted({Fraction(0), Fraction(1)} | {t for t, _, _ in checked.events})
    times: list[Fraction] = list(grid)
    for t0, t1 in zip(grid, grid[1:]):
        for i in range(1, samples + 1):
            times.append(t0 + Fraction(i, samples + 1) * (t1 - t0))
    times = sorted(set(times))
    exempt: dict[Fraction, set[frozenset[int]]] = {}
    for t, _, labels in checked.events:
        pairs = exempt.setdefault(t, set())
        for a in labels:
            for b in labels:
                if a != b:
                    pairs.add(frozenset((a, b)))

    failures: list[CertificateFailure] = []
    pairs_checked = 0
    for t in times:
        live = [(p.label, p.placement_at(t)) for p in placements]
        live = [(l, pr) for l, pr in live if pr is not None]
        for a in range(len(live)):
            la, ((xa, ya), ra) = live[a]
            for b in range(a + 1, len(live)):
                lb, ((xb, yb), rb) = live[b]
                if frozenset((la, lb)) in exempt.get(t, set()):
                    continue
                pairs_checked += 1
                if (xa - xb) ** 2 + (ya - yb) ** 2 <= (ra + rb) ** 2:
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
    counter = 0

    def fresh() -> str:
        nonlocal counter
        counter += 1
        return f"c{counter}"

    initial = tuple(fresh() for _ in range(rng.randint(1, 3)))
    alive = list(initial)
    n = rng.randint(0, max_events)
    denom = 8 * (n + 1)
    ticks = sorted(rng.sample(range(1, denom), n)) if n else []
    events = []
    for tick in ticks:
        t = Fraction(tick, denom)
        choices = ["birth", "isolated"]
        if alive:
            choices += ["death", "split", "split"]
        if len(alive) >= 2:
            choices += ["merge", "merge"]
        kind = rng.choice(choices)
        if kind == "birth":
            l = fresh()
            alive.append(l)
            events.append(make_event(t, "birth", l))
        elif kind == "isolated":
            events.append(make_event(t, "isolated", fresh()))
        elif kind == "death":
            l = alive.pop(rng.randrange(len(alive)))
            events.append(make_event(t, "death", l))
        elif kind == "split":
            c = alive.pop(rng.randrange(len(alive)))
            a, b = fresh(), fresh()
            alive += [a, b]
            events.append(make_event(t, "split", c, a, b))
        else:
            ia = rng.randrange(len(alive))
            a = alive.pop(ia)
            b = alive.pop(rng.randrange(len(alive)))
            c = fresh()
            alive.append(c)
            events.append(make_event(t, "merge", a, b, c))
    return SweepMovie(initial=initial, events=tuple(events))


# --------------------------------------------------------------------------
# the bundled surgery census


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
        census = resources.files("dpl").joinpath("data/surgery_census.json")
        data = json.loads(census.read_text())
    deviations: list[str] = []
    alive = list(data.get("initial", ()))
    initial_count = len(alive)
    if len(set(alive)) != initial_count:
        deviations.append("initial labels are not distinct")
    counts = {"split": 0, "merge": 0, "band": 0}
    arity = {"split": (1, 2), "merge": (2, 1), "band": (1, 1)}
    for pos, move in enumerate(data.get("moves", ())):
        kind = move.get("kind")
        if kind not in arity:
            deviations.append(f"move {pos}: unknown kind {kind!r}")
            continue
        counts[kind] += 1
        ins, outs = list(move.get("in", ())), list(move.get("out", ()))
        if (len(ins), len(outs)) != arity[kind]:
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
