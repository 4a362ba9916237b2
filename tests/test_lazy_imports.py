"""What a start of ``dpl`` loads: the package's lazy names and each command's modules.

``import dpl`` loads no module; a public name loads its module on first read.
Each CLI command imports only the modules it runs, so a stray top-level
import, which every start would pay for, fails here by name.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dpl

GOLDEN = Path(__file__).parent / "golden"
MAP = str(GOLDEN / "maps" / "random-5.json")
MOVIE = str(GOLDEN / "movies" / "choreography.json")

CLI = ["dpl", "dpl.circle_maps", "dpl.cli"]
CURVE = [*CLI, "dpl.double_points"]

# the commands of the benchmark's cli corpus, and the modules each may load
COMMANDS = {
    "analyze": (["analyze", MAP], CURVE),
    "unfold": (["unfold", MAP], [*CURVE, "dpl.unfolding"]),
    "hopf": (["hopf", MAP], CURVE),
    "group": (["group", "binary_icosahedral"], [*CLI, "dpl.space_forms"]),
    "dcover-check": (["dcover-check", "4"], [*CURVE, "dpl.space_forms"]),
    "sweep movie": (["sweep", MOVIE], [*CLI, "dpl.sweeps"]),
    "sweep census": (["sweep", "--census"], [*CLI, "dpl.sweeps"]),
}

# runs its code in a fresh interpreter, then prints the dpl modules loaded
PROBE = """
import json, sys
{code}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "dpl")))
"""


def _loaded(code: str, *argv: str) -> list:
    env = {**os.environ, "PYTHONPATH": str(Path(dpl.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(code=code), *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("command", COMMANDS)
def test_command_loads_only_its_modules(command):
    argv, modules = COMMANDS[command]
    code = "from dpl.cli import main\nassert main(sys.argv[1:]) == 0"
    assert _loaded(code, *argv, "--out", os.devnull) == sorted(modules)


def test_bare_import_loads_no_module():
    assert _loaded("import dpl") == ["dpl"]


def test_first_read_of_a_name_loads_up_to_its_module():
    assert _loaded("import dpl\ndpl.make_map") == ["dpl", "dpl.circle_maps"]
    assert _loaded("from dpl import surgery_parity") == [
        "dpl",
        "dpl.circle_maps",
        "dpl.double_points",
        "dpl.space_forms",
        "dpl.sweeps",
    ]


def test_dir_lists_every_public_name_before_its_first_read():
    code = "import dpl\nassert set(dpl.__all__) < set(dir(dpl))"
    assert _loaded(code) == ["dpl", *(f"dpl.{m}" for m in sorted(dpl._MODULES))]


def test_unknown_name_raises_attribute_error_naming_the_package():
    message = "module 'dpl' has no attribute 'no_such_name'"
    with pytest.raises(AttributeError, match=message):
        dpl.no_such_name


def test_star_import_binds_exactly_all():
    scope = {}
    exec("from dpl import *", scope)
    del scope["__builtins__"]
    assert sorted(scope) == sorted(dpl.__all__)
    assert all(scope[name] is getattr(dpl, name) for name in dpl.__all__)


def test_a_module_read_before_its_import_loads_it(monkeypatch):
    monkeypatch.delattr(dpl, "sweeps")
    assert dpl.sweeps is sys.modules["dpl.sweeps"]
    assert vars(dpl)["sweeps"] is dpl.sweeps
