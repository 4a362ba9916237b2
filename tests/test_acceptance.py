"""The eleven acceptance criteria, one test each.

Every test wraps its body in ``acceptance(n, name)`` from conftest so the
run ends with an explicit PASS/FAIL line per criterion.  Random inputs are
drawn from fixed seed streams; the stated runtime caps are asserted where a
criterion carries one.
"""

import itertools
import json
from fractions import Fraction as F
from importlib import resources
from time import perf_counter

from dpl import (
    arc_lift_check,
    build_euler_graph,
    build_group,
    cover_realizable,
    dcover_consistency,
    double_point_curve,
    eliminate_negative_arcs,
    embedding_certificate,
    eulerian_resolution,
    hopf_invariant,
    hopf_of_cover,
    make_map,
    nonrealizable_map_exists,
    pair_count_check,
    planar_curve_hopf,
    random_admissible_graph,
    random_map,
    random_movie,
    realizability_report,
    resolution_choices,
    surgery_census,
    surgery_parity,
    trace_circuits,
    validate_movie,
)

from conftest import acceptance


_BASE_MAPS: list = []


def base_maps_500():
    """500 seeded maps (<= 12 folds), reflected to nonnegative degree."""
    if not _BASE_MAPS:
        for seed in range(10_000, 10_500):
            f = random_map(seed, 12, 3)
            _BASE_MAPS.append(f if f.degree >= 0 else f.reflect())
    return _BASE_MAPS


def test_criterion_1_cover_census():
    with acceptance(1, "d-cover census", cap=1.0):
        t0 = perf_counter()
        for d in range(2, 13):
            report = dcover_consistency(d)
            assert report.ok, d
            assert len(report.matched) == d - 1
            curve = double_point_curve(make_map([(0, 0)], d))
            assert all(c.kind == "circle" for c in curve.components)
            assert all(c.p1_degree == 1 for c in curve.components)
            invariant = sum(
                curve.swap_invariant(c.index) for c in curve.components
            )
            assert invariant == (1 if d % 2 == 0 else 0)
        assert perf_counter() - t0 < 1.0


def test_criterion_2_verdict_table():
    with acceptance(2, "group verdict table"):
        q8 = build_group("binary_dihedral", 2)
        assert q8.order == 8
        assert not cover_realizable(q8) and hopf_of_cover(q8) == 1
        ico = build_group("binary_icosahedral")
        assert ico.order == 120
        assert not cover_realizable(ico) and hopf_of_cover(ico) == 1
        c3 = build_group("cyclic", 3)
        assert cover_realizable(c3) and hopf_of_cover(c3) == 0
        assert nonrealizable_map_exists(build_group("cyclic", 4))
        assert not nonrealizable_map_exists("infinite")


def test_criterion_3_unfold_termination():
    with acceptance(3, "arc unfolding terminates", cap=60.0):
        t0 = perf_counter()
        for seed in range(1000):
            f = random_map(seed, 40, 5)
            base = f if f.degree >= 0 else f.reflect()
            arc, trace = eliminate_negative_arcs(base)
            ms = [s.negative_count for s in trace.steps]
            for a, b in zip(ms, ms[1:]):
                if a > 0:
                    assert b < a, (seed, ms)
            assert ms[-1] == 0, seed
            assert trace.steps[-1].positive_count == base.degree, seed
        assert perf_counter() - t0 < 60.0


def test_criterion_4_pair_count_identity():
    with acceptance(4, "winding equals pair count"):
        for f in base_maps_500():
            arc, _ = eliminate_negative_arcs(f)
            report = pair_count_check(f, arc)
            assert report.ok, f
            for row in report.rows:
                assert row.expected == row.actual


def test_criterion_5_winding_bound():
    with acceptance(5, "windings stay below the degree"):
        for f in base_maps_500():
            for c in double_point_curve(f).components:
                if f.degree == 0:
                    assert c.p1_degree == 0, f
                else:
                    assert 0 <= c.p1_degree < f.degree, f


def test_criterion_6_arc_lift_consistency():
    with acceptance(6, "compact pieces through arcs lift"):
        for seed in range(20_000, 21_000):
            f = random_map(seed, 12, 3)
            report = arc_lift_check(f)
            assert not report.violation, seed


def _balanced_graphs(n):
    """All directed multigraphs on 0..n-1 with in- and out-degree two."""
    rows = list(itertools.combinations_with_replacement(range(n), 2))

    def rec(i, colsum, acc):
        if i == n:
            yield tuple(acc)
            return
        remaining = n - i
        for r in rows:
            cs = list(colsum)
            over = False
            for t in r:
                cs[t] += 1
                if cs[t] > 2:
                    over = True
                    break
            if over:
                continue
            if sum(2 - c for c in cs) > 2 * (remaining - 1):
                continue
            acc.append(r)
            yield from rec(i + 1, cs, acc)
            acc.pop()

    yield from rec(0, [0] * n, [])


def _resolves_to_single_circuits(g):
    for c in range(len(g.components)):
        res = eulerian_resolution(g, c)
        circuits = trace_circuits(g, res.pairing, c)
        if len(circuits) != 1:
            return False
        if sorted(circuits[0]) != sorted(g.component_edges(c)):
            return False
    return True


def _oracle_confirms(g):
    for c in range(len(g.components)):
        res = eulerian_resolution(g, c)
        good = [
            p
            for p in resolution_choices(g, c)
            if len(trace_circuits(g, p, c)) == 1
        ]
        if res.pairing not in good:
            return False
    return True


def test_criterion_7_eulerian_resolution():
    with acceptance(7, "eulerian resolution", cap=30.0):
        t0 = perf_counter()
        checked = 0
        for n in range(1, 7):
            for index, row_choice in enumerate(_balanced_graphs(n)):
                edges = [(i, t) for i, r in enumerate(row_choice) for t in r]
                g = build_euler_graph(edges)
                assert _resolves_to_single_circuits(g), edges
                checked += 1
                # the brute-force oracle is exhaustive through five vertices
                # and strided at six to stay inside the runtime cap
                if n <= 5 or index % 16 == 0:
                    assert _oracle_confirms(g), edges
        assert checked == 1 + 3 + 21 + 282 + 6210 + 202410
        for i in range(100):
            g = random_admissible_graph(i, 3 + i % 10)
            assert _resolves_to_single_circuits(g), i
        assert perf_counter() - t0 < 30.0


def test_criterion_8_surgery_parity():
    with acceptance(8, "surgery parity"):
        assert surgery_parity(4, 12, 15) == (False, 1)
        report = surgery_census()
        assert report.ok, report.deviations
        assert (report.initial_count, report.move_count, report.final_count) == (
            4,
            15,
            12,
        )
        assert not report.orientable_feasible
        assert report.nonorientable_minimum == 1
        raw = json.loads(
            resources.files("dpl").joinpath("data/surgery_census.json").read_text()
        )
        assert (len(raw["initial"]), len(raw["moves"]), raw["final"]) == (4, 15, 12)


def test_criterion_9_hopf_invariants():
    with acceptance(9, "hopf parities"):
        assert planar_curve_hopf([(0, 0), (2, 2), (0, 2), (2, 0)]) == 1
        for d in range(2, 13):
            assert hopf_invariant(make_map([(0, 0)], d)) == (1 if d % 2 == 0 else 0)
            report = dcover_consistency(d)
            assert report.curve_hopf == report.model_hopf == hopf_of_cover(
                build_group("cyclic", d)
            )


def test_criterion_10_sweep_certificates():
    with acceptance(10, "sweep certificates", cap=30.0):
        t0 = perf_counter()
        for seed in range(200):
            checked = validate_movie(random_movie(seed, max_events=20))
            report = embedding_certificate(checked)
            assert report.ok, (seed, report.failures)
        assert perf_counter() - t0 < 30.0


def test_criterion_11_realizability_notes():
    with acceptance(11, "realizability disagreements are logged"):
        low = high = 0
        disagreements = []
        seed = 30_000
        while low < 500 or high < 500:
            f = random_map(seed, 12, 4)
            seed += 1
            rep = realizability_report(f)
            if f.degree in (-1, 0, 1) and low < 500:
                low += 1
                curve = double_point_curve(f)
                has_witness = any(
                    c.kind == "circle"
                    and curve.swap_invariant(c.index)
                    and c.p1_degree % 2 == 1
                    for c in curve.components
                )
                if not has_witness:
                    assert not rep.agreement, seed - 1
                    assert rep.note is not None
            elif abs(f.degree) >= 2 and high < 500:
                high += 1
                if not rep.agreement:
                    assert rep.criterion_witness is not None, seed - 1
                    assert rep.note is not None and "swap-invariant" in rep.note
                    disagreements.append((seed - 1, rep.criterion_witness))
        print(f"high-degree disagreements logged: {disagreements}")
