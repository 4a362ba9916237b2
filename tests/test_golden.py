"""Golden behaviour: CLI envelopes and structural digests, byte for byte.

The files under ``tests/golden/`` were written by this module and are the
reference every refactor must reproduce:

- ``maps/*.json`` and ``movies/*.json``: the file inputs of the CLI goldens,
  including those of the demos;
- ``cli/<command>-<input>.json``: the exact stdout of ``dpl <command>``;
- ``digests.json``: one sha256 per seeded input for the double-point curve's
  component structure, its quotient components, ``corner_connectivity``
  reports, ``trace_circuits`` over every resolution pairing,
  ``classify_preimage`` on seeded arcs, ``eliminate_negative_arcs``, seeded
  sweep movies with their validation (refusals included) and disk layouts,
  and the multiplication tables of the catalog groups (the binary octahedral table
  is left out: only its invariants are fixed, see
  ``tests/test_space_forms.py``).

Regenerate them (only when a behaviour change is intended) with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import dpl.cli
import dpl.unfolding
from dpl import (
    Angle,
    Event,
    IntervalMapPair,
    SweepMovie,
    TransverseArc,
    assign_disks,
    build_group,
    classify_preimage,
    corner_connectivity,
    double_point_curve,
    eliminate_negative_arcs,
    eulerian_resolution,
    make_interval_map,
    random_admissible_graph,
    random_map,
    random_movie,
    resolution_choices,
    trace_circuits,
    validate_movie,
    value_gaps,
)
from dpl.cli import main

GOLDEN = Path(__file__).parent / "golden"

TENT = '{"breakpoints": [["0", "0"], ["1/2", "3/4"]], "degree": 0}\n'
DEEP = '{"breakpoints": [["0", "0"], ["1/2", "8/5"]], "degree": 0}\n'
MAP_SEEDS = (5, 9, 14, 24)  # random_map(seed, 12, 4): degrees 0, 3, -3, 2
GALLERY_SEEDS = range(12)  # random_map(seed, 10, 3), as in demos/unfolding_gallery.py
MAP_COMMANDS = ("analyze", "hopf", "unfold")
MOVIE_FILE = GOLDEN / "movies" / "choreography.json"
# the movie of demos/movie_choreography.py
MOVIE = {
    "initial": ["a", "b"],
    "events": [
        {"time": "1/4", "kind": "birth", "labels": ["c"]},
        {"time": "1/2", "kind": "merge", "labels": ["a", "c", "d"]},
        {"time": "5/8", "kind": "isolated", "labels": ["e"]},
        {"time": "3/4", "kind": "split", "labels": ["d", "f", "g"]},
        {"time": "7/8", "kind": "death", "labels": ["g"]},
    ],
}


def _map_file(name: str) -> str:
    return str(GOLDEN / "maps" / f"{name}.json")


OTHER_RUNS = {
    "analyze-tent-arc": ["analyze", _map_file("tent"), "--arc", "1/4", "3/8"],
    "unfold-tent-arc": ["unfold", _map_file("tent"), "--arc", "1/4", "3/8"],
    "unfold-tent-regular-value": [
        "unfold", _map_file("tent"), "--mode", "regular-value", "--value", "1/8"
    ],
    "unfold-random-9-arc": ["unfold", _map_file("random-9"), "--arc", "1/16", "5/16"],
    "unfold-deep-blocked": ["unfold", _map_file("deep"), "--arc", "11/20", "1/20"],
    **{
        f"unfold-gallery-{seed}": ["unfold", _map_file(f"gallery-{seed}")]
        for seed in GALLERY_SEEDS
    },
    "sweep-choreography": ["sweep", str(MOVIE_FILE)],
    "sweep-random-5": ["sweep", "--random", "5"],
    "sweep-random-7": ["sweep", "--random", "7"],
    "sweep-census": ["sweep", "--census"],
    "dcover-check-3": ["dcover-check", "3"],
    "dcover-check-upto-6": ["dcover-check", "--upto", "6"],
    "dcover-check-upto-9": ["dcover-check", "--upto", "9"],
    "group-infinite": ["group", "infinite"],
    "selftest-2026": ["selftest", "--seed", "2026"],
    **{
        "-".join(["group", *argv]): ["group", *argv]
        for argv in (
            ["cyclic", "3"],
            ["cyclic", "4"],
            ["cyclic", "5"],
            ["cyclic", "6"],
            ["binary_dihedral", "2"],
            ["binary_dihedral", "5"],
            ["binary_tetrahedral"],
            ["binary_octahedral"],
            ["binary_icosahedral"],
        )
    },
}

CURVE_SEEDS = range(200)
CORNER_SEEDS = range(400)
GRAPH_SEEDS = range(120)
CLASSIFY_SEEDS = range(100)
UNFOLD_SEEDS = range(200)
MOVIE_SEEDS = range(150)
MOVIE_SIZES = (0, 3, 10, 20)
MOVIE_KINDS = ("birth", "death", "isolated", "merge", "split")
GROUPS = (
    *(("cyclic", n) for n in range(1, 13)),
    *(("binary_dihedral", n) for n in range(1, 7)),
    ("binary_tetrahedral", None),
    ("binary_icosahedral", None),
)


def _map_text(f) -> str:
    bps = [[str(x), str(v)] for x, v in f.breakpoints]
    return json.dumps({"breakpoints": bps, "degree": f.degree}) + "\n"


def _map_texts() -> dict[str, str]:
    texts = {"tent": TENT, "deep": DEEP}
    for seed in MAP_SEEDS:
        texts[f"random-{seed}"] = _map_text(random_map(seed, 12, 4))
    for seed in GALLERY_SEEDS:
        texts[f"gallery-{seed}"] = _map_text(random_map(seed, 10, 3))
    return texts


def _cli_runs() -> dict[str, list[str]]:
    runs = {
        f"{cmd}-{name}": [cmd, _map_file(name)]
        for name in ["tent", "deep"] + [f"random-{s}" for s in MAP_SEEDS]
        for cmd in MAP_COMMANDS
    }
    runs.update(OTHER_RUNS)
    return runs


def _cli_stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return out.getvalue()


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def curve_structure(seed: int):
    curve = double_point_curve(random_map(seed, 12, 4))
    comps = tuple(
        (
            c.index,
            c.kind,
            tuple((s.key, s.start, s.end) for s in c.segments),
            c.p1_degree,
            c.p2_degree,
            c.diagonal_ends,
        )
        for c in curve.components
    )
    closures = tuple(
        (cc.arcs, cc.diagonal_points, cc.flips, cc.orientable)
        for cc in curve.closure_components
    )
    return comps, tuple(curve.swap_pairing), closures


def quotient_structure(seed: int):
    return double_point_curve(random_map(seed, 12, 4)).quotient_components


def _random_interval_breakpoints(rng: random.Random, denom: int):
    n = rng.randint(0, 5)
    xs = sorted(rng.sample(range(1, denom), n))
    pts = [(F(0), F(0))]
    for x in xs:
        v = F(rng.randint(0, denom), denom)
        while v == pts[-1][1]:
            v = F(rng.randint(0, denom), denom)
        pts.append((F(x, denom), v))
    if pts[-1][1] == 1:
        pts.pop()
    pts.append((F(1), F(1)))
    return pts


def corner_report(seed: int):
    rng = random.Random(seed)
    first = make_interval_map(_random_interval_breakpoints(rng, rng.choice((12, 20))))
    second = make_interval_map(_random_interval_breakpoints(rng, rng.choice((12, 21))))
    try:
        r = corner_connectivity(IntervalMapPair(first, second))
    except (ValueError, AssertionError) as exc:
        return ("raises", type(exc).__name__)
    return (r.connected, r.witness, r.collar_extended, r.component_count)


def circuit_structure(seed: int):
    g = random_admissible_graph(seed, seed % 9)
    out = [g.components]
    for c in range(g.component_count):
        res = eulerian_resolution(g, c)
        out.append((c, g.component_edges(c), res.pairing, res.circuit))
        out.extend((p, trace_circuits(g, p, c)) for p in resolution_choices(g, c))
    return tuple(out)


def _outcome(fn, *args):
    """``fn(*args)``, or the type and message of the ValueError or
    RuntimeError it raises."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return ("raises", type(exc).__name__, str(exc))


def _regular(f, rng: random.Random) -> Angle:
    y = Angle(F(rng.randrange(97), 97))
    while not f.is_regular_value(y):
        y = y.plus(F(1, 193))
    return y


def _ccw_ends(f, rng: random.Random) -> list[tuple[Angle, Angle]]:
    """Counterclockwise (start, end) pairs: two drawn arcs, a short arc
    inside a drawn value gap, one ending on a critical value and, when the
    map's image is a proper arc, the arc around it and its complement."""
    ends = []
    for _ in range(2):
        a = _regular(f, rng)
        b = a.plus(F(rng.randrange(1, 9), 9))
        while not f.is_regular_value(b):
            b = b.plus(F(1, 193))
        ends.append((a, b))
    lo, width = rng.choice(value_gaps(f))
    ends.append((Angle(lo + width / 3), Angle(lo + width * 2 / 3)))
    if f.folds:
        ends.append((_regular(f, rng), rng.choice(sorted(f.critical_values))))
    lifts = [l for _, l in f.breakpoints]
    span = max(lifts) - min(lifts)
    if f.degree == 0 and span < 1:
        pad = (1 - span) / 4
        around = (Angle(min(lifts) - pad), Angle(max(lifts) + pad))
        ends += [around, around[::-1]]
    return ends


def classify_structure(seed: int):
    """``classify_preimage`` over seeded arcs, traversed both ways."""
    rng = random.Random(f"golden classify {seed}")
    out = []
    for f in (random_map(seed, 12, 4), random_map(seed, 40, 5)):
        for a, b in _ccw_ends(f, rng):
            if a == b:
                continue
            for arc in (TransverseArc(a, b, 1), TransverseArc(b, a, -1)):
                out.append((arc, _outcome(classify_preimage, f, arc)))
    return tuple(out)


def unfold_structure(seed: int):
    """Criterion 3's map unfolded from the default arc, and regular-value
    mode at a drawn value on a smaller map."""
    g = random_map(seed, 8, 3)
    z = _regular(g, random.Random(f"golden unfold {seed}"))
    return (
        _outcome(eliminate_negative_arcs, random_map(seed, 40, 5)),
        _outcome(eliminate_negative_arcs, g, None, "regular-value", z),
    )


def _malformed_movie(rng: random.Random) -> SweepMovie:
    """A hand-built movie on labels from a small alphabet: the kinds and
    labels are drawn freely, now and then with a wrong label count or an
    unknown kind, and the event times mostly rise by a sixteenth or more but
    now and then stall, fall back or leave (0, 1)."""
    names = "abcdef"
    initial = tuple(rng.choice(names) for _ in range(rng.randint(0, 3)))
    events, tick = [], 0
    for _ in range(rng.randint(1, 6)):
        tick += rng.randint(1, 3) if rng.random() < 0.9 else rng.randint(-2, 0)
        kind = rng.choice(MOVIE_KINDS) if rng.random() < 0.97 else "bogus"
        count = 3 if kind in ("merge", "split") else 1
        if rng.random() < 0.05:
            count = rng.randint(0, 4)
        labels = tuple(rng.choice(names) for _ in range(count))
        events.append(Event(F(tick, 16), kind, labels))
    return SweepMovie(initial, tuple(events))


def movie_structure(seed: int):
    """Seeded random movies, their validation and disk layouts, and the
    validation outcomes of seeded malformed movies, in order."""
    out = []
    for size in MOVIE_SIZES:
        movie = random_movie(seed, size)
        checked = validate_movie(movie)
        out.append((movie, checked, assign_disks(checked)))
    rng = random.Random(f"golden movies {seed}")
    out.extend(_outcome(validate_movie, _malformed_movie(rng)) for _ in range(8))
    return tuple(out)


def group_table(index: int):
    return build_group(*GROUPS[index]).table


FAMILIES = {
    "curve": (CURVE_SEEDS, curve_structure),
    "quotient": (CURVE_SEEDS, quotient_structure),
    "corner": (CORNER_SEEDS, corner_report),
    "circuits": (GRAPH_SEEDS, circuit_structure),
    "classify": (CLASSIFY_SEEDS, classify_structure),
    "unfold": (UNFOLD_SEEDS, unfold_structure),
    "movies": (MOVIE_SEEDS, movie_structure),
    "groups": (range(len(GROUPS)), group_table),
}


def _digests() -> dict[str, dict[str, str]]:
    return {
        family: {str(seed): _sha(fn(seed)) for seed in seeds}
        for family, (seeds, fn) in FAMILIES.items()
    }


def write_goldens() -> None:
    (GOLDEN / "maps").mkdir(parents=True, exist_ok=True)
    (GOLDEN / "cli").mkdir(exist_ok=True)
    for name, text in _map_texts().items():
        (GOLDEN / "maps" / f"{name}.json").write_text(text)
    MOVIE_FILE.parent.mkdir(exist_ok=True)
    MOVIE_FILE.write_text(json.dumps(MOVIE) + "\n")
    for name, argv in _cli_runs().items():
        (GOLDEN / "cli" / f"{name}.json").write_text(_cli_stdout(argv))
    digests = json.dumps(_digests(), indent=1, sort_keys=True)
    (GOLDEN / "digests.json").write_text(digests + "\n")


@pytest.mark.parametrize("name", sorted(_cli_runs()))
def test_cli_envelope_matches_golden(name):
    expected = (GOLDEN / "cli" / f"{name}.json").read_text()
    assert _cli_stdout(_cli_runs()[name]) == expected, f"envelope {name} differs"


def test_regular_value_unfolding_classifies_each_arc_once(monkeypatch):
    classified = []

    def spy(f, arc):
        classified.append(arc)
        return classify_preimage(f, arc)

    monkeypatch.setattr(dpl.unfolding, "classify_preimage", spy)
    monkeypatch.setattr(dpl.cli, "classify_preimage", spy)
    name = "unfold-tent-regular-value"
    expected = (GOLDEN / "cli" / f"{name}.json").read_text()
    assert _cli_stdout(_cli_runs()[name]) == expected
    # growth classifies each of its three arcs once; pair_count_check then
    # classifies the final arc for itself, and the CLI reads its counts there
    arcs = [(F(1, 16), F(7, 16)), (F(7, 8), F(7, 16)), (F(7, 8), F(13, 16))]
    arcs.append(arcs[-1])
    assert classified == [TransverseArc(a, b) for a, b in arcs]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_structure_digests_match_golden(family):
    expected = json.loads((GOLDEN / "digests.json").read_text())[family]
    seeds, fn = FAMILIES[family]
    assert sorted(expected, key=int) == [str(s) for s in seeds]
    differing = [s for s in seeds if _sha(fn(s)) != expected[str(s)]]
    assert not differing, f"{family} differs on seeds {differing}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    write_goldens()
