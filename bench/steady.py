"""Run workloads over several seeds and report how steady each metric is.

    python3 bench/steady.py --workloads unfold,verdicts --seeds 1-10
    python3 bench/steady.py --seeds 1-10 --out runs.json --against baseline.json

For every end-to-end metric of every workload it prints the median of the
runs, the interquartile spread as a share of that median (quartiles as
``statistics.quantiles(values, n=4)`` gives them) and the metric's bound
from BENCHMARK.json.  ``--against`` compares the medians with an earlier
``--out`` file and flags a metric whose median got worse by more than its
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from machine import fingerprint  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def run(workload: str, seed: int, seconds: int) -> dict:
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worse_by(old: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    change = (new - old) / old
    return -change if better == "higher" else change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in spec["workloads"])
    )
    parser.add_argument("--seeds", default="1-10", help="a range such as 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="write every run and the summary here")
    parser.add_argument("--against", help="an earlier --out file to compare with")
    args = parser.parse_args()

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    before = json.loads(Path(args.against).read_text()) if args.against else None
    report = {"fingerprint": fingerprint(ROOT), "seeds": args.seeds,
              "seconds": args.seconds, "workloads": {}}
    flagged = 0
    for workload in args.workloads.split(","):
        runs = [run(workload, seed, args.seconds) for seed in seed_range(args.seeds)]
        failed = sum(r["failed"] for r in runs)
        summary = {}
        print(f"{workload}: {len(runs)} runs, {failed} failed ops")
        for name, m in metrics.items():
            values = [r["metrics"][name]["value"] for r in runs]
            row = {
                "values": values,
                "median": statistics.median(values),
                "spread": spread(values),
                "bound": m["bound"],
            }
            line = (
                f"  {name:18s} median {row['median']:12.6g} {m['unit']:6s} "
                f"spread {row['spread']:6.3f}  bound {m['bound']}"
            )
            if name != "setup_s" and row["spread"] > m["bound"]:
                line += "  SPREAD ABOVE BOUND"
                flagged += 1
            if before is not None:
                old = before["workloads"][workload][name]["median"]
                worse = worse_by(old, row["median"], m["better"])
                word = "worse" if worse > 0 else "better"
                line += f"  vs {old:.6g}: {word} by {abs(worse):.3f}"
                if worse > m["bound"]:
                    line += " WORSE THAN BOUND"
                    flagged += 1
            print(line)
            summary[name] = row
        report["workloads"][workload] = summary
        flagged += failed > 0
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
