"""The five benchmark workloads: seeded inputs, one operation, its checks.

Each workload turns a seed into a pool of inputs (``make_inputs``), runs one
operation on one input (``op``) and checks the result with invariants taken
from the acceptance criteria.  An operation returns a tuple of its
verdict-level outputs, which the runner folds into a digest; a failed check
raises ``CheckFailed``.  ``dpl`` is always the package module passed in, so
that the tracer's rebinding of its names takes effect.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path


class CheckFailed(AssertionError):
    """An operation's output broke one of its invariants."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def stream_seed(seed: int, i: int) -> int:
    """The i-th input seed of a run; runs with different seeds never share one."""
    return seed * 1_000_000 + i


def _breakpoints(f) -> tuple:
    return tuple(f.breakpoints), f.degree


def stratified(draw, shape, size: int, seed: int, reference: int) -> list:
    """``size`` inputs of the seed's stream with a fixed mix of shapes
    (fewer if ``reference`` does not divide ``size``).

    The mix is that of the first ``reference`` draws of a fixed stream, the
    one of seed 0, each count multiplied by ``size // reference``.  Each
    seed fills it with inputs of its own stream, so seeds change the inputs
    but not how many there are of each shape.  Where the shape sets most of
    an op's cost, this keeps the percentiles of a pool from moving with the
    seed.
    """
    reference = min(reference, size)
    copies = size // reference
    wanted = Counter()
    for i in range(reference):
        wanted[shape(draw(stream_seed(0, i)))] += copies
    size = copies * reference
    pool = []
    for i in itertools.count():
        item = draw(stream_seed(seed, i))
        if wanted[shape(item)] > 0:
            wanted[shape(item)] -= 1
            pool.append(item)
            if len(pool) == size:
                break
    random.Random(seed).shuffle(pool)
    return pool


# --------------------------------------------------------------------------


class Unfold:
    """Criterion-3 stream: arc unfolding of 40-fold maps.

    The unfolding step loop and fiber/classify dominate; the double-point
    curve never runs.
    """

    name = "unfold"
    pool_size = 500  # 40-fold maps are slow to generate; ops cycle the pool
    reference = 100  # the mix of shapes comes from this many maps

    @staticmethod
    def shape(item) -> int:
        """The breakpoint count in five bands, 0-7, 8-15, 16-23, 24-31 and
        32-40: it explains two thirds of the variance of an op's cost."""
        return min(len(item[0]), 39) // 8

    def make_inputs(self, dpl, seed: int, work: Path) -> list:
        def draw(stream: int) -> tuple:
            f = dpl.random_map(stream, 40, 5)
            return _breakpoints(f if f.degree >= 0 else f.reflect())

        return stratified(draw, self.shape, self.pool_size, seed, self.reference)

    def op(self, dpl, item) -> tuple:
        breakpoints, degree = item
        f = dpl.make_map(breakpoints, degree)
        arc, trace = dpl.eliminate_negative_arcs(f)
        ms = [s.negative_count for s in trace.steps]
        for a, b in zip(ms, ms[1:]):
            check(a == 0 or b < a, f"negative counts do not decrease: {ms}")
        check(ms[-1] == 0, f"negative components remain: {ms}")
        positive = trace.steps[-1].positive_count
        check(positive == degree, f"{positive} positive components, degree {degree}")
        return tuple(ms), positive


class Verdicts:
    """Criteria 4/5/6/11 stream: small maps through every curve-based verdict.

    The double-point curve dominates and is rebuilt several times per map.
    """

    name = "verdicts"
    pool_size = 400

    @staticmethod
    def shape(item) -> tuple:
        """Breakpoint count and |degree|: between shapes an op's cost
        varies a hundredfold."""
        breakpoints, degree = item
        return len(breakpoints), abs(degree)

    def make_inputs(self, dpl, seed: int, work: Path) -> list:
        def draw(stream: int) -> tuple:
            return _breakpoints(dpl.random_map(stream, 12, 4))

        return stratified(draw, self.shape, self.pool_size, seed, self.pool_size)

    def op(self, dpl, item) -> tuple:
        breakpoints, degree = item
        f = dpl.make_map(breakpoints, degree)
        curve = dpl.double_point_curve(f)
        hopf = dpl.hopf_invariant(f)
        rep = dpl.realizability_report(f)
        lift = dpl.arc_lift_check(f)
        base = f if f.degree >= 0 else f.reflect()
        arc, _ = dpl.eliminate_negative_arcs(base)
        pairs = dpl.pair_count_check(base, arc)
        # criterion 4: winding equals the marked pair count
        check(pairs.ok, "pair count differs from the first-projection winding")
        # criterion 5: windings of the nonnegative-degree form stay below it
        for row in pairs.rows:
            if base.degree == 0:
                check(row.expected == 0, f"winding {row.expected} at degree 0")
            else:
                check(
                    0 <= row.expected < base.degree,
                    f"winding {row.expected} outside [0, {base.degree})",
                )
        # criterion 6: compact pieces mapping through an arc lift
        check(not lift.violation, "arc-lift violation")
        # criterion 11: every disagreement carries a note
        if not rep.agreement:
            check(rep.note is not None, "disagreement without a note")
        if abs(degree) >= 2 and not rep.agreement:
            check(rep.criterion_witness is not None, "disagreement without witness")
            check("swap-invariant" in rep.note, "note does not name the witness")
        if degree in (-1, 0, 1):
            has_witness = any(
                c.kind == "circle"
                and curve.swap_invariant(c.index)
                and c.p1_degree % 2 == 1
                for c in curve.components
            )
            check(has_witness or not rep.agreement, "low degree passed silently")
        return (
            hopf,
            rep.criterion_pass,
            rep.classical_pass,
            rep.agreement,
            lift.violation,
            tuple((c.kind, c.p1_degree) for c in curve.components),
            tuple((r.expected, r.actual) for r in pairs.rows),
        )


def balanced_graphs(n: int):
    """All directed multigraphs on 0..n-1 with in- and out-degree two.

    Vertex i's two out-edges form row i (a sorted pair of heads); rows are
    chosen so that no head receives more than two edges.
    """
    rows = list(itertools.combinations_with_replacement(range(n), 2))

    def extend(i: int, indeg: list[int], acc: list):
        if i == n:
            yield tuple(acc)
            return
        for row in rows:
            grown = list(indeg)
            for head in row:
                grown[head] += 1
            if max(grown) > 2 or sum(2 - d for d in grown) > 2 * (n - i - 1):
                continue
            acc.append(row)
            yield from extend(i + 1, grown, acc)
            acc.pop()

    yield from extend(0, [0] * n, [])


def enumerated_edge_lists(max_vertices: int = 5) -> list:
    return [
        tuple((i, head) for i, row in enumerate(rows) for head in row)
        for n in range(1, max_vertices + 1)
        for rows in balanced_graphs(n)
    ]


class Euler:
    """Criterion-7 layer: every 4-valent digraph on 1-5 vertices plus seeded
    6-10 vertex graphs; pure integer combinatorics, no Fraction."""

    name = "euler"
    random_graphs = 1630  # one op in five is a seeded 6-10 vertex graph

    def make_inputs(self, dpl, seed: int, work: Path) -> list:
        pool = enumerated_edge_lists()
        for i in range(self.random_graphs):
            g = dpl.random_admissible_graph(stream_seed(seed, i), 6 + i % 5)
            pool.append(g.edges)
        random.Random(seed).shuffle(pool)
        return pool

    def op(self, dpl, edges) -> tuple:
        g = dpl.build_euler_graph(edges)
        single = []
        for c in range(len(g.components)):
            res = dpl.eulerian_resolution(g, c)
            circuits = dpl.trace_circuits(g, res.pairing, c)
            check(len(circuits) == 1, f"{len(circuits)} circuits in component {c}")
            check(
                sorted(circuits[0]) == sorted(g.component_edges(c)),
                f"circuit misses edges of component {c}",
            )
            good = [
                p
                for p in dpl.resolution_choices(g, c)
                if len(dpl.trace_circuits(g, p, c)) == 1
            ]
            check(res.pairing in good, "oracle rejects the resolution")
            single.append(len(good))
        return len(g.components), tuple(single)


class Sweep:
    """Criterion-10 stream: movie validation, disk layout and the default
    embedding certificate; only the sweeps layer runs."""

    name = "sweep"
    pool_size = 1000

    def make_inputs(self, dpl, seed: int, work: Path) -> list:
        return [
            dpl.random_movie(stream_seed(seed, i), max_events=20)
            for i in range(self.pool_size)
        ]

    def op(self, dpl, movie) -> tuple:
        checked = dpl.validate_movie(movie)
        placements = dpl.assign_disks(checked)
        report = dpl.embedding_certificate(checked, placements)
        check(report.ok, f"{len(report.failures)} certificate failures")
        check(len(placements) == checked.circle_count, "a circle has no disk")
        return (
            checked.circle_count,
            len(checked.events),
            tuple(checked.names[i] for i in checked.final),
        )


class Cli:
    """A seeded corpus through the command line, one subprocess per op.

    Interpreter start, import, argparse and envelopes; the only workload
    that runs space_forms.  Traced runs call ``dpl.cli.main`` in-process.
    """

    name = "cli"
    corpus_size = 24
    families = (
        ("cyclic", 2, 12),
        ("binary_dihedral", 2, 8),
        ("binary_tetrahedral", None, None),
        ("binary_octahedral", None, None),
        ("binary_icosahedral", None, None),
    )

    def __init__(self, root: Path) -> None:
        self.src = root / "src"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.src), os.environ.get("PYTHONPATH")) if p
        )
        self.root = root
        self.in_process = False

    def make_inputs(self, dpl, seed: int, work: Path) -> list:
        schema = json.loads((self.src / "dpl/data/report.schema.json").read_text())
        self.required = tuple(schema["required"])
        self.out = work / "envelope.json"
        rng = random.Random(seed)
        argvs = []
        for i in range(self.corpus_size):
            f = dpl.random_map(stream_seed(seed, i), 12, 4)
            map_path = work / f"map{i}.json"
            map_path.write_text(
                json.dumps(
                    {
                        "breakpoints": [[str(x), str(l)] for x, l in f.breakpoints],
                        "degree": f.degree,
                    }
                )
            )
            movie = dpl.random_movie(stream_seed(seed, i), max_events=20)
            movie_path = work / f"movie{i}.json"
            movie_path.write_text(
                json.dumps(
                    {
                        "initial": list(movie.initial),
                        "events": [
                            {
                                "time": str(e.time),
                                "kind": e.kind,
                                "labels": list(e.labels),
                            }
                            for e in movie.events
                        ],
                    }
                )
            )
            family, lo, hi = self.families[i % len(self.families)]
            group = [family] if lo is None else [family, str(rng.randint(lo, hi))]
            argvs += [
                ["analyze", str(map_path)],
                ["unfold", str(map_path)],
                ["hopf", str(map_path)],
                ["group", *group],
                ["dcover-check"],
                ["sweep", str(movie_path)],
                ["sweep", "--census"],
            ]
        return argvs

    def op(self, dpl, argv) -> tuple:
        full = [*argv, "--out", str(self.out)]
        self.out.unlink(missing_ok=True)
        if self.in_process:
            code, stderr = dpl.cli.main(full), ""
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "dpl.cli", *full],
                cwd=self.root,
                env=self.env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,  # a hung child fails its op instead of the run
            )
            code, stderr = proc.returncode, proc.stderr.strip()[-300:]
        check(code == 0, f"exit {code} {stderr}")
        envelope = json.loads(self.out.read_text())
        missing = [k for k in self.required if k not in envelope]
        check(not missing, f"envelope lacks {missing}")
        check(envelope["command"] == argv[0], f"command {envelope['command']!r}")
        return argv[0], json.dumps(envelope["result"], sort_keys=True)


def all_workloads(root: Path) -> dict:
    return {w.name: w for w in (Unfold(), Verdicts(), Euler(), Sweep(), Cli(root))}
