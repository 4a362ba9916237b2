"""Shared acceptance bookkeeping.

Each acceptance test wraps its body in ``acceptance(n, name, cap)``; the
terminal summary then prints one PASS/FAIL line per criterion with its
elapsed time (and its time cap, where it has one) so the whole gate can be
read off the bottom of a ``pytest`` run.
"""

from contextlib import contextmanager
from time import perf_counter

RESULTS: dict[int, tuple[str, bool, float, float | None]] = {}


@contextmanager
def acceptance(number: int, name: str, cap: float | None = None):
    t0 = perf_counter()
    try:
        yield
    except BaseException:
        RESULTS[number] = (name, False, perf_counter() - t0, cap)
        raise
    RESULTS[number] = (name, True, perf_counter() - t0, cap)


def pytest_terminal_summary(terminalreporter):
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(RESULTS):
        name, ok, elapsed, cap = RESULTS[number]
        verdict = "PASS" if ok else "FAIL"
        timing = f"{elapsed:.1f} s" + (f" (cap {cap:g} s)" if cap is not None else "")
        terminalreporter.write_line(f"ACCEPTANCE {number} ({name}): {verdict} {timing}")
