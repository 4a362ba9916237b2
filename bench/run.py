"""Closed-loop benchmark of dpl: one client, one operation at a time.

    python3 bench/run.py --workload unfold --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

A run with ``--trace 0`` measures the end-to-end metrics of one workload,
with every time scaled to the reference machine's speed (machine.HostSpeed);
``--trace 1`` reruns a shorter stretch of the same operations with every
traced dpl function wrapped and reports the per-layer metrics instead.
``--workload all`` runs every workload both ways in child processes.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it are for people.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from machine import NEAREST, REFERENCE_MS, HostSpeed, fingerprint  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import all_workloads  # noqa: E402

SETUPS = 3  # setup_s is the median of at least this many complete set-ups,
SETUP_SECONDS = 3.0  # of more while their total stays below this,
MAX_SETUPS = 9  # and of at most this many
MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile
DIGEST_OPS = 100  # the digest covers the outputs of the first ops of a run
TRACED_SHARE = 3  # the traced run times seconds / TRACED_SHARE untraced first
TRACED_OPS = 500  # at most this many ops are traced, to bound the spans kept
SUBPROCESS_REPEATS = 5
WORK = HERE / ".work"  # temporary files and spans of benchmark runs


class NoProgram(RuntimeError):
    """The checkout holds no dpl sources to benchmark."""


def require_program() -> None:
    if not (SRC / "dpl" / "__init__.py").is_file():
        raise NoProgram(f"no dpl package under {SRC}")


def import_dpl(with_cli: bool):
    """A fresh import of the package from this checkout's ``src``."""
    require_program()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for key in [k for k in sys.modules if k == "dpl" or k.startswith("dpl.")]:
        del sys.modules[key]
    importlib.invalidate_caches()
    dpl = importlib.import_module("dpl")
    if Path(dpl.__file__).resolve().parent != SRC / "dpl":
        raise NoProgram(f"dpl imported from {dpl.__file__}, not from {SRC}")
    if with_cli:
        importlib.import_module("dpl.cli")
    return dpl


def set_up(workload, seed: int, work: Path):
    """Import, generate the inputs, run one warm-up op; returns ns taken."""
    t0 = perf_counter_ns()
    dpl = import_dpl(workload.name == "cli")
    pool = workload.make_inputs(dpl, seed, work)
    workload.op(dpl, pool[0])
    return perf_counter_ns() - t0, dpl, pool


class Loop:
    """Latencies (ns) and start times, errors and the digest of one loop."""

    def __init__(self) -> None:
        self.latencies: list[int] = []
        self.starts: list[int] = []
        self.errors: list[str] = []
        self._outputs: list = []
        self.elapsed_ns = 0

    def record(self, start: int, latency: int, output, error: str | None) -> None:
        if len(self._outputs) < DIGEST_OPS:
            self._outputs.append(output)
        if error is not None:
            self.errors.append(f"op {len(self.latencies)}: {error}")
        self.starts.append(start)
        self.latencies.append(latency)

    @property
    def digest(self) -> str:
        return hashlib.sha256(repr(self._outputs).encode()).hexdigest()[:16]


def timed(call, item):
    """Run one op; a raised exception is its failure, not the run's."""
    t0 = perf_counter_ns()
    try:
        out, error = call(item), None
    except Exception as exc:  # every failure is counted, none aborts the run
        out, error = None, f"{type(exc).__name__}: {exc}"
    return t0, perf_counter_ns() - t0, out, error


def closed_loop(
    call, pool: list, seconds: float, min_ops: int, speed: HostSpeed | None = None
) -> Loop:
    """Ops back to back, cycling through the pool, until time is up.

    With ``speed``, the reference loop is timed between ops, every 100 ms.
    """
    loop = Loop()
    begin = perf_counter_ns()
    deadline = begin + int(seconds * 1e9)
    i = 0
    while perf_counter_ns() < deadline or i < min_ops:
        if speed is not None:
            speed.sample_if_due()
        loop.record(*timed(call, pool[i % len(pool)]))
        i += 1
    loop.elapsed_ns = perf_counter_ns() - begin
    if speed is not None:
        speed.sample()
    return loop


def subprocess_ms(argv: list[str], workload) -> float:
    """Median wall time of a short child process, in ms."""
    times = []
    for _ in range(SUBPROCESS_REPEATS):
        t0 = perf_counter_ns()
        subprocess.run(argv, cwd=ROOT, env=workload.env, check=True)
        times.append(perf_counter_ns() - t0)
    return statistics.median(times) / 1e6


def end_to_end(workload, seed: int, seconds: float, work: Path):
    """The end-to-end metrics, with every time scaled by the host's speed."""
    speed = HostSpeed()
    setups, raw_setups = [], []
    while len(setups) < SETUPS or (
        sum(raw_setups) < SETUP_SECONDS * 1e9 and len(setups) < MAX_SETUPS
    ):
        speed.sample(NEAREST // 2)
        took, dpl, pool = set_up(workload, seed, work)
        done = perf_counter_ns()
        speed.sample(NEAREST // 2)  # the set-up's speed: these and the ones before
        raw_setups.append(took)
        setups.append(speed.scale(took, done))
    loop = closed_loop(
        lambda item: workload.op(dpl, item), pool, seconds, MIN_OPS, speed
    )
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    raw = loop.latencies
    lat = [speed.scale(ns, at) for ns, at in zip(raw, loop.starts)]
    metrics = {
        "throughput_ops_s": (len(lat) / (sum(lat) / 1e9), "ops/s"),
        "op_ms_p50": (statistics.median(lat) / 1e6, "ms"),
        "op_ms_p90": (statistics.quantiles(lat, n=10)[8] / 1e6, "ms"),
        "setup_s": (statistics.median(setups) / 1e9, "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    p90 = metrics["op_ms_p90"][0] * 1e6
    notes = {
        "throughput_ops_s": f"unscaled {len(raw) / (sum(raw) / 1e9):.6g}",
        "op_ms_p50": f"unscaled {statistics.median(raw) / 1e6:.6g}",
        "op_ms_p90": f"{len(lat)} samples, {sum(x > p90 for x in lat)} beyond; "
        f"unscaled {statistics.quantiles(raw, n=10)[8] / 1e6:.6g}",
        "setup_s": "median of "
        + ", ".join(f"{s / 1e9:.3f}" for s in setups)
        + f"; unscaled {statistics.median(raw_setups) / 1e9:.6g}",
    }
    q1, q2, q3 = statistics.quantiles([ns / 1e6 for ns in speed.ns], n=4)
    host = (
        f"host speed: the reference loop took {q2:.3f} ms (quartiles {q1:.3f}, "
        f"{q3:.3f}) in {len(speed.ns)} timings; {REFERENCE_MS} ms on the "
        "reference machine, to which every time is scaled"
    )
    return loop, metrics, notes, host


def per_layer(workload, seed: int, seconds: float, work: Path):
    workload.in_process = True  # only the cli workload reads this
    _, dpl, pool = set_up(workload, seed, work)

    def call(item):
        return workload.op(dpl, item)

    def traced_call(item):
        return tracer.run_op(workload.op, dpl, item)

    # The untraced loop warms the process up. trace_overhead then compares
    # the traced ops with an untraced rerun of the same ops after them.
    plain = closed_loop(call, pool, seconds / TRACED_SHARE, MIN_OPS)
    count = min(len(plain.latencies), TRACED_OPS)
    items = [pool[i % len(pool)] for i in range(count)]
    tracer = Tracer()
    traced = Loop()
    tracer.install()
    try:
        for item in items:
            traced.record(*timed(traced_call, item))
    finally:
        tracer.uninstall()
    untraced = Loop()
    for item in items:
        untraced.record(*timed(call, item))
    metrics = layer_metrics(tracer)
    metrics["trace_overhead"] = (
        sum(traced.latencies) / sum(untraced.latencies),
        "ratio",
    )
    interpreter = module_import = 0.0
    if workload.name == "cli":
        interpreter = subprocess_ms([sys.executable, "-c", "pass"], workload)
        module_import = (
            subprocess_ms([sys.executable, "-c", "import dpl.cli"], workload)
            - interpreter
        )
    metrics["cli.interpreter_ms"] = (interpreter, "ms")
    metrics["cli.import_ms"] = (module_import, "ms")
    spans = WORK / f"spans-{workload.name}-{seed}.tsv"
    tracer.write(spans)
    notes = {
        "trace_overhead": f"the first {count} ops, traced then untraced; "
        f"spans in {spans.relative_to(ROOT)}"
    }
    return traced, metrics, notes, None


def run_one(args) -> dict:
    workload = all_workloads(ROOT)[args.workload]
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        measure = per_layer if args.trace else end_to_end
        loop, metrics, notes, host = measure(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed = len(loop.latencies), len(loop.errors)
    machine = fingerprint(ROOT)
    print(
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
        f"trace {args.trace}"
    )
    print("machine " + "  ".join(f"{k} {v}" for k, v in machine.items()))
    if host:
        print(host)
    for name, (value, unit) in sorted(metrics.items()):
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:44s} {value:14.6g} {unit}{note}")
    print(
        f"  {'error_rate':44s} {failed / attempted:14.6g} ratio"
        f"  (ops_attempted {attempted}, failed {failed})"
    )
    print(f"digest {loop.digest} over the first {min(attempted, DIGEST_OPS)} ops")
    for line in loop.errors[:5]:
        print(f"error {line}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out:
        stamp = {
            "fingerprint": machine,
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "digest": loop.digest,
            "error_rate": failed / attempted,
            "errors": loop.errors[:20],
            "result": result,
        }
        Path(args.out).write_text(json.dumps(stamp, indent=2) + "\n")
    return result


def run_all(args) -> dict:
    """Every workload untraced and traced, each in a child process."""
    runs = {}
    for name in all_workloads(ROOT):
        for trace in (0, 1):
            argv = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise SystemExit(proc.returncode)
            runs[f"{name}/{trace}"] = json.loads(proc.stdout.strip().splitlines()[-1])
    result = {
        "correct": all(r["correct"] for r in runs.values()),
        "attempted": sum(r["attempted"] for r in runs.values()),
        "failed": sum(r["failed"] for r in runs.values()),
        "metrics": {
            f"{key.split('/')[0]}/{metric}": value
            for key, r in runs.items()
            for metric, value in r["metrics"].items()
        },
    }
    if args.out:
        stamp = {"fingerprint": fingerprint(ROOT), "seed": args.seed,
                 "seconds": args.seconds, "runs": runs}
        Path(args.out).write_text(json.dumps(stamp, indent=2) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[*all_workloads(ROOT), "all"]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", help="also write the result, with a machine fingerprint, here"
    )
    args = parser.parse_args(argv)
    try:
        require_program()
        result = run_all(args) if args.workload == "all" else run_one(args)
    except NoProgram as exc:
        print(f"bench: {exc}; run from the root of a dpl checkout", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
