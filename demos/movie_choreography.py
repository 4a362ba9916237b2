#!/usr/bin/env python3
"""Validate a level-set movie, choreograph disjoint disks for it, and certify.

A movie lists circle births, deaths, merges and splits against the clock.
Validation orders the events and names every circle; the disk assignment
gives each name a lane-based path; the certificate checks every moment of
the schedule, piece by piece, and confirms that no two disks ever overlap
outside their own events.
"""

from fractions import Fraction as F

from dpl import (
    SweepMovie,
    assign_disks,
    embedding_certificate,
    make_event,
    random_movie,
    surgery_census,
    surgery_parity,
    validate_movie,
)


def main():
    movie = SweepMovie(
        initial=("a", "b"),
        events=(
            make_event(F(1, 4), "birth", "c"),
            make_event(F(1, 2), "merge", "a", "c", "d"),
            make_event(F(5, 8), "isolated", "e"),
            make_event(F(3, 4), "split", "d", "f", "g"),
            make_event(F(7, 8), "death", "g"),
        ),
    )
    checked = validate_movie(movie)
    print("circles:", ", ".join(checked.names))
    print("final population:", checked.circle_count, "->", checked.final)

    placements = assign_disks(checked)
    for p in placements:
        frames = ", ".join(f"t={t} at ({c[0]}, {c[1]}) r={r}" for t, c, r in p.keyframes[:2])
        more = " ..." if len(p.keyframes) > 2 else ""
        print(f"  {p.name!r} alive [{p.born}, {p.died}]: {frames}{more}")

    cert = embedding_certificate(checked, placements)
    print(
        f"certificate: ok={cert.ok}, {len(cert.times_checked)} times, "
        f"{cert.pairs_checked} pairs checked"
    )
    print()

    print("a few random movies:")
    for seed in range(5):
        ch = validate_movie(random_movie(seed, max_events=12))
        ok = embedding_certificate(ch).ok
        print(f"  seed {seed}: {len(ch.names)} circles, {len(ch.events)} events, embedded={ok}")
    print()

    census = surgery_census()
    print(
        f"bundled census: {census.initial_count} -> {census.final_count} circles "
        f"in {census.move_count} moves ({census.split_count} splits, "
        f"{census.merge_count} merges, {census.band_count} band)"
    )
    print(
        "orientable with these numbers:", census.orientable_feasible,
        "| extra cross-caps needed:", census.nonorientable_minimum,
    )
    print("parity check:", surgery_parity(census.initial_count, census.final_count, census.move_count))


if __name__ == "__main__":
    main()
