"""Tests of the benchmark itself.

    python3 -m unittest discover -s bench -v
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from machine import REFERENCE_MS, HostSpeed  # noqa: E402
from tracer import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import (  # noqa: E402
    Cli,
    Euler,
    Sweep,
    Unfold,
    Verdicts,
    balanced_graphs,
    enumerated_edge_lists,
    stratified,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def small(workload):
    """The workload with a pool small enough for a unit test."""
    for attr in ("pool_size", "corpus_size"):
        if hasattr(workload, attr):
            setattr(workload, attr, 3)
    if isinstance(workload, Euler):
        workload.random_graphs = 5
    return workload


class SeededInputs(unittest.TestCase):
    def setUp(self):
        self.dpl = run.import_dpl(with_cli=True)
        self.work = Path(tempfile.mkdtemp())
        self.addCleanup(shutil.rmtree, self.work)

    def inputs(self, workload, seed):
        return workload.make_inputs(self.dpl, seed, self.work)

    def test_same_seed_same_inputs(self):
        for workload in (Unfold(), Verdicts(), Euler(), Sweep()):
            small(workload)
            with self.subTest(workload=workload.name):
                self.assertEqual(self.inputs(workload, 7), self.inputs(workload, 7))
                self.assertNotEqual(self.inputs(workload, 7), self.inputs(workload, 8))

    def test_same_seed_same_cli_corpus(self):
        cli = small(Cli(ROOT))

        def corpus(seed):
            argvs = self.inputs(cli, seed)
            files = {p.name: p.read_text() for p in sorted(self.work.iterdir())}
            return argvs, files

        self.assertEqual(corpus(7), corpus(7))
        self.assertNotEqual(corpus(7), corpus(8))

    def test_ops_pass_their_checks(self):
        for workload in (Unfold(), Verdicts(), Euler(), Sweep()):
            small(workload)
            with self.subTest(workload=workload.name):
                for item in self.inputs(workload, 3):
                    workload.op(self.dpl, item)


class Stratified(unittest.TestCase):
    def test_seeds_change_the_inputs_but_not_the_mix(self):
        def draw(stream):
            return stream * 7919 % 1009

        def shape(item):
            return item % 3

        pools = [stratified(draw, shape, 12, seed, 4) for seed in (1, 2)]
        mixes = [sorted(map(shape, pool)) for pool in pools]
        self.assertEqual(mixes[0], mixes[1])
        self.assertEqual(len(pools[0]), 12)
        self.assertNotEqual(sorted(pools[0]), sorted(pools[1]))
        self.assertEqual(pools[0], stratified(draw, shape, 12, 1, 4))


class EulerEnumerator(unittest.TestCase):
    def test_counts_per_vertex_number(self):
        counts = [sum(1 for _ in balanced_graphs(n)) for n in range(1, 6)]
        self.assertEqual(counts, [1, 3, 21, 282, 6210])
        self.assertEqual(len(enumerated_edge_lists()), 6517)

    def test_every_graph_is_balanced(self):
        for edges in enumerated_edge_lists(4):
            heads = [b for _, b in edges]
            tails = [a for a, _ in edges]
            for v in set(heads) | set(tails):
                self.assertEqual((heads.count(v), tails.count(v)), (2, 2))


class SelfTime(unittest.TestCase):
    def test_synthetic_span_tree(self):
        # 0 [0, 100]
        # ├── 1 [10, 60]
        # │   ├── 2 [15, 25]
        # │   └── 3 [30, 55]
        # │       └── 4 [31, 32]
        # └── 5 [70, 90]
        parent = [-1, 0, 1, 1, 3, 0]
        start = [0, 10, 15, 30, 31, 70]
        end = [100, 60, 25, 55, 32, 90]
        self.assertEqual(
            self_times(parent, start, end), [30, 15, 10, 24, 1, 20]
        )

    def test_summary_and_nesting(self):
        tracer = Tracer()
        tracer.names = ["op", "a", "b", "a", "op", "b"]
        tracer.parent = [-1, 0, 1, 0, -1, 4]
        tracer.start = [0, 1, 2, 6, 10, 11]
        tracer.end = [9, 5, 4, 8, 20, 15]
        tracer.error = ["", "", "", "KeyError", "", ""]
        rows = tracer.summary()
        self.assertEqual(rows["op"], {"calls": 2, "self_ns": 3 + 6, "errors": {}})
        self.assertEqual(
            rows["a"], {"calls": 2, "self_ns": 2 + 2, "errors": {"KeyError": 1}}
        )
        self.assertEqual(rows["b"]["self_ns"], 2 + 4)
        self.assertEqual(tracer.calls_under("b", "a"), 1)


class Scaling(unittest.TestCase):
    def test_a_time_is_scaled_by_the_loop_timings_nearest_to_it(self):
        speed = HostSpeed()
        speed.at = list(range(0, 2000, 100))
        speed.ns = [2_000_000] * 10 + [3_000_000] * 10
        unit = REFERENCE_MS * 1e6
        self.assertEqual(speed.scale(2_000_000, 250), unit)
        self.assertEqual(speed.scale(3_000_000, 1550), unit)
        # across the step, the six nearest timings are three of each
        self.assertEqual(speed.scale(2_500_000, 950), unit)

    def test_a_run_samples_the_host_as_it_goes(self):
        speed = HostSpeed()
        loop = run.closed_loop(lambda item: item, [1, 2], 0.25, 10, speed)
        self.assertGreaterEqual(len(speed.ns), 3)
        self.assertEqual(len(loop.starts), len(loop.latencies))
        self.assertTrue(all(a < b for a, b in zip(speed.at, speed.at[1:])))


class Tracing(unittest.TestCase):
    def test_rebinding_reaches_internal_calls_and_is_undone(self):
        dpl = run.import_dpl(with_cli=False)
        original = dpl.double_points.double_point_curve
        verdicts = Verdicts()
        f = dpl.make_map([(0, 0), (dpl.frac("1/2"), dpl.frac("3/4"))], 2)
        tracer = Tracer()
        tracer.install()
        try:
            tracer.run_op(verdicts.op, dpl, (f.breakpoints, f.degree))
        finally:
            tracer.uninstall()
        self.assertIs(dpl.double_points.double_point_curve, original)
        self.assertIs(dpl.double_point_curve, original)
        rows = tracer.summary()
        # once directly, once in each of the three verdicts, once in pair_count_check
        self.assertEqual(rows["double_points.double_point_curve"]["calls"], 5)
        metrics = layer_metrics(tracer)
        self.assertEqual(metrics["double_points.curves_per_map"], (5.0, "calls/map"))
        self.assertGreater(metrics["circle_maps.fiber.calls"][0], 0)
        own = self_times(tracer.parent, tracer.start, tracer.end)
        self.assertTrue(all(t >= 0 for t in own))


class Smoke(unittest.TestCase):
    def bench(self, *argv, cwd=ROOT):
        return subprocess.run(
            [sys.executable, "bench/run.py", *argv],
            cwd=cwd, capture_output=True, text=True, timeout=170,
        )

    def test_every_metric_printed_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(trace=trace):
                proc = self.bench(
                    "--workload", "euler", "--seed", "2", "--seconds", "0",
                    "--trace", str(trace),
                )
                self.assertEqual(proc.returncode, 0, proc.stderr)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                self.assertEqual(
                    set(result), {"correct", "attempted", "failed", "metrics"}
                )
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], run.MIN_OPS)
                expected = {m["name"]: m["unit"] for m in SPEC[key]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, expected)
                text = "\n".join(lines[:-1])
                for name, unit in expected.items():
                    self.assertRegex(text, rf"\n  {name} +\S+ {unit}\b")
                self.assertIn("error_rate", text)

    def test_refuses_a_directory_without_the_program(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, Path(bare) / "bench",
                            ignore=shutil.ignore_patterns(".work", "__pycache__"))
            proc = self.bench("--workload", "unfold", "--seed", "1",
                              "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
