#!/usr/bin/env python3
"""Walk through the full analysis of a single two-fold map.

The map is the half-turn tent: up from (0, 0) to (1/2, 3/4), back down to
height 0.  Degree 0, two folds, and a double-point curve small enough to
read off by hand.
"""

from fractions import Fraction as F

from dpl import (
    Angle,
    TransverseArc,
    classify_preimage,
    controlled_hopf,
    double_point_curve,
    eliminate_negative_arcs,
    hopf_invariant,
    make_map,
    pair_count_check,
    realizability_report,
)


def main():
    f = make_map([(0, 0), (F(1, 2), F(3, 4))], 0)
    print("map:", f.breakpoints, "degree", f.degree)
    print("slopes:", f.slopes)
    print("critical values:", sorted(a.value for a in f.critical_values))
    print()

    curve = double_point_curve(f)
    print("double-point curve components:")
    for c in curve.components:
        print(
            f"  #{c.index}: {c.kind}, windings ({c.p1_degree}, {c.p2_degree}), "
            f"{len(c.segments)} segments, swap image #{curve.swap_pairing[c.index]}"
        )
    for cl in curve.closure_components:
        print(
            f"closure of arcs {cl.arcs}: {cl.flips} flips at the diagonal, "
            f"orientable={cl.orientable}"
        )
    print("hopf parity:", hopf_invariant(f))
    print("per-component bits:", controlled_hopf(f))
    print()

    rep = realizability_report(f)
    print("criterion pass:", rep.criterion_pass, "| classical pass:", rep.classical_pass)
    if rep.note:
        print("note:", rep.note)
    print()

    arc = TransverseArc(Angle(F(1, 4)), Angle(F(3, 8)))
    cls = classify_preimage(f, arc)
    print(f"arc {arc}: {cls.positive_count} positive, {cls.negative_count} negative")

    final, trace = eliminate_negative_arcs(f, arc)
    print("unfolding trace:")
    for s in trace.steps:
        grew = []
        if s.extended_start:
            grew.append(f"start -> {s.extended_start}")
        if s.extended_end:
            grew.append(f"end -> {s.extended_end}")
        print(f"  arc {s.arc}  m={s.negative_count} p={s.positive_count}  {', '.join(grew)}")
    print("final arc:", final, "width", final.width)

    report = pair_count_check(f, final)
    print("pair-count rows:", [(r.expected, r.actual) for r in report.rows], "ok:", report.ok)


if __name__ == "__main__":
    main()
