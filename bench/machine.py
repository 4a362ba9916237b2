"""Machine fingerprint stamped on every result file, and the host's speed.

Both time one fixed loop of exact rational arithmetic, the kind of work dpl
spends its time on.  Runs on different machines can be normalised by the
fingerprint's ``calibration_ms``, the best of five long timings.
``HostSpeed`` times a short loop again and again through a run, so that
each op's time can be scaled to the reference machine's speed.
"""

from __future__ import annotations

import bisect
import gc
import os
import platform
import statistics
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns

REFERENCE_STEPS = 300  # steps of the loop HostSpeed times
REFERENCE_MS = 1.5  # the loop's time on the reference machine, undisturbed
SAMPLE_EVERY_NS = 100_000_000  # how often HostSpeed times it in a loop
NEAREST = 6  # a moment's speed is the median of this many nearest timings


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def reference_loop_ns(steps: int) -> int:
    """One timing of the fixed loop, with the cyclic collector off, so that
    the size of the program's heap does not enter it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter_ns()
        x = Fraction(0)
        for i in range(1, steps + 1):
            x = (x + Fraction(i % 97, i)) * Fraction(3, 4)
        return perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()


def calibration_ms(rounds: int = 5) -> float:
    return min(reference_loop_ns(4000) for _ in range(rounds)) / 1e6


class HostSpeed:
    """Timings of the reference loop through a run.

    Other tenants of a shared host slow every op, and this loop with it, by
    up to 1.9x, for a fraction of a second to minutes at a time.
    ``scale(ns, at)`` turns a time measured at moment ``at`` into the time
    it would have taken at the reference machine's undisturbed speed:
    ``ns * REFERENCE_MS / (the loop's time near that moment)``.
    """

    def __init__(self) -> None:
        self.at: list[int] = []
        self.ns: list[int] = []

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            self.at.append(perf_counter_ns())
            self.ns.append(reference_loop_ns(REFERENCE_STEPS))

    def sample_if_due(self) -> None:
        if not self.at or perf_counter_ns() - self.at[-1] >= SAMPLE_EVERY_NS:
            self.sample()

    def loop_ns(self, at: int) -> float:
        """The median of the loop's timings nearest to moment ``at``."""
        k = bisect.bisect(self.at, at)
        half = NEAREST // 2
        return statistics.median(self.ns[max(0, k - half) : k + half])

    def scale(self, ns: float, at: int) -> float:
        return ns * REFERENCE_MS * 1e6 / self.loop_ns(at)


def fingerprint(root: Path) -> dict:
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc(),
        "calibration_ms": calibration_ms(),
    }
