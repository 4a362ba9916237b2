"""Count the library lines that neither the tests nor the demos ever run.

Runs pytest (all of ``tests/`` but ``tests/test_acceptance.py``) and then
every script in ``demos/`` under the standard library's line tracer,
``python -m trace --count``, with the counts added up over the runs.  Then
it prints pytest's summary line, then for each ``dpl`` module its count of
never-run lines and each such line (number and text), and last the
never-run total over the executable-line total.  A test failure does not
stop it: the counts still come from every line that ran.  Run it from the
repo root:

    python3 tools/never_run.py

The pytest pass takes about five minutes on 2 vCPU with CPython 3.11.7.
Hypothesis-drawn inputs move both totals by a few lines between runs.
The tracer writes no cover file for ``dpl/__init__.py``.
"""

import os, re, subprocess, sys, tempfile
from pathlib import Path

EXECUTABLE = re.compile(r"^(>>>>>>| +[0-9]+:)")

with tempfile.TemporaryDirectory() as out:
    ignore = os.pathsep.join([sys.base_prefix, sys.prefix])
    trace = [sys.executable, "-m", "trace", "--count", "--missing",
             f"--file={out}/counts", f"--coverdir={out}/cover", f"--ignore-dir={ignore}"]
    env = {**os.environ, "PYTHONPATH": "src",
           "PYTEST_ADDOPTS": "-q -p no:cacheprovider --ignore=tests/test_acceptance.py"}
    # each run adds to the counts file and rewrites the cover files from the total
    tests = subprocess.run(trace + ["--module", "pytest", "tests"], env=env,
                           capture_output=True, text=True, check=False)
    print("pytest:", (tests.stdout.strip().splitlines() or ["no output"])[-1])
    for demo in sorted(Path("demos").glob("*.py")):
        subprocess.run(trace + [str(demo)], env=env, capture_output=True, check=False)
    never = executable = 0
    for cover in sorted(Path(out, "cover").glob("dpl.*.cover")):
        lines = cover.read_text().splitlines()
        missed = [(n, text[7:]) for n, text in enumerate(lines, 1) if text.startswith(">>>>>>")]
        print(f"{len(missed):4} {cover.stem}")
        for n, text in missed:
            print(f"     {n:5}: {text.strip()}")
        never += len(missed)
        executable += sum(1 for text in lines if EXECUTABLE.match(text))
    print(f"{never:4} never run of {executable} executable lines")
