import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

import dpl
import dpl.sweeps
from dpl.cli import main, report_schema
from dpl.properties import PROPERTIES

TENT = '{"breakpoints": [["0", "0"], ["1/2", "3/4"]], "degree": 0}\n'
DEEP = '{"breakpoints": [["0", "0"], ["1/2", "8/5"]], "degree": 0}\n'


@pytest.fixture()
def tent_file(tmp_path):
    path = tmp_path / "tent.json"
    path.write_text(TENT)
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


# ---------------------------------------------------------------- envelopes


def test_analyze_envelope(capsys, tent_file):
    code, doc = run_json(capsys, "analyze", tent_file)
    assert code == 0
    jsonschema.validate(doc, report_schema())
    assert doc["command"] == "analyze"
    assert doc["version"] == dpl.__version__
    assert doc["input_digest"] == hashlib.sha256(TENT.encode()).hexdigest()
    assert doc["result"]["map"]["degree"] == 0
    assert doc["result"]["curve"]["hopf"] == 0
    assert doc["result"]["realizability"]["criterion_pass"] is True
    # every fraction is serialized as a string, never a float
    assert doc["result"]["map"]["breakpoints"][1] == ["1/2", "3/4"]


def test_analyze_text_format(capsys, tent_file):
    code, out = run(capsys, "analyze", tent_file, "--format", "text")
    assert code == 0
    assert out.startswith("[analyze]")
    assert "double-point components" in out.splitlines()[0]


def test_envelopes_validate_for_every_command(capsys, tent_file):
    schema = report_schema()
    for argv in (
        ["analyze", str(tent_file)],
        ["unfold", str(tent_file)],
        ["hopf", str(tent_file)],
        ["group", "cyclic", "4"],
        ["dcover-check", "3"],
        ["sweep", "--census"],
        ["sweep", "--random", "5"],
        ["selftest", "--runs", "2", "--seed", "1"],
    ):
        code, out = run(capsys, *argv)
        assert code == 0, argv
        jsonschema.validate(json.loads(out), schema)


def test_out_flag_writes_a_file(capsys, tent_file, tmp_path):
    target = tmp_path / "report.json"
    code, out = run(capsys, "hopf", tent_file, "--out", target)
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["command"] == "hopf"
    assert doc["result"]["hopf"] == 0


def test_unwritable_out_is_an_input_error_on_stdout(capsys, tmp_path):
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code = main(["group", "cyclic", "3", "--out", str(target)])
        out, err = capsys.readouterr()
        assert (code, err) == (2, "")
        doc = json.loads(out)
        jsonschema.validate(doc, report_schema())
        assert doc["command"] == "group"
        assert doc["summary"].startswith("input error")
        assert doc["result"]["error"]["type"] in ("FileNotFoundError", "IsADirectoryError")


# ---------------------------------------------------------------- unfold


def test_unfold_explicit_arc(capsys, tent_file):
    code, doc = run_json(capsys, "unfold", tent_file, "--arc", "1/4", "3/8")
    assert code == 0
    assert doc["result"]["final_arc"] == {"start": "7/8", "end": "3/8", "width": "1/2"}
    assert doc["result"]["pair_count_ok"] is True
    assert [s["negative"] for s in doc["result"]["steps"]] == [1, 0]


def test_unfold_blocked_exits_one(capsys, tmp_path):
    # the second map's downward lap falls through every level twice in a
    # row, so no default arc exists either
    swept = '{"breakpoints": [["0", "0"], ["1/2", "5/2"]], "degree": 0}\n'
    for text, arc, message in (
        (DEEP, ["--arc", "11/20", "1/20"], "every reachable end position"),
        (swept, [], "every level of the target circle"),
    ):
        path = tmp_path / "map.json"
        path.write_text(text)
        code, doc = run_json(capsys, "unfold", path, *arc)
        assert code == 1
        jsonschema.validate(doc, report_schema())
        assert doc["result"]["error"]["type"] == "UnfoldingBlocked"
        assert doc["result"]["error"]["message"].startswith(message)
        assert doc["summary"].startswith("blocked")


def test_unfold_regular_value_mode(capsys, tent_file):
    code, doc = run_json(
        capsys, "unfold", tent_file, "--mode", "regular-value", "--value", "1/8"
    )
    assert code == 0
    assert doc["result"]["mode"] == "regular-value"
    assert doc["result"]["final_counts"]["negative"] == 0


# ---------------------------------------------------------------- errors


def test_missing_file_exits_two(capsys, tmp_path):
    code, doc = run_json(capsys, "analyze", tmp_path / "absent.json")
    assert code == 2
    assert doc["result"]["error"]["type"] == "FileNotFoundError"
    jsonschema.validate(doc, report_schema())


def test_malformed_map_exits_two(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"degree": 1}')
    code, doc = run_json(capsys, "analyze", path)
    assert code == 2
    assert "error" in doc["result"]


def test_invalid_json_exits_two(capsys, tmp_path):
    path = tmp_path / "syntax.json"
    path.write_text("{nope")
    code, doc = run_json(capsys, "analyze", path)
    assert code == 2


# ---------------------------------------------------------------- group/dcover


def test_group_subcommand(capsys):
    code, doc = run_json(capsys, "group", "binary_icosahedral")
    assert code == 0
    r = doc["result"]
    assert (r["order"], r["cover_realizable"], r["hopf_of_cover"]) == (120, False, 1)
    assert r["nonrealizable_map_exists"] is True


def test_group_infinite(capsys):
    code, doc = run_json(capsys, "group", "infinite")
    assert code == 0
    assert doc["result"]["nonrealizable_map_exists"] is False


def test_group_unknown_family_exits_two(capsys):
    code, doc = run_json(capsys, "group", "lens", "7")
    assert code == 2


def test_dcover_check_range(capsys):
    code, doc = run_json(capsys, "dcover-check", "--upto", "6")
    assert code == 0
    assert doc["result"]["all_ok"] is True
    assert [r["degree"] for r in doc["result"]["reports"]] == [2, 3, 4, 5, 6]


# ---------------------------------------------------------------- sweep/selftest


def test_sweep_census(capsys):
    code, doc = run_json(capsys, "sweep", "--census")
    assert code == 0
    census = doc["result"]["census"]
    assert (census["initial"], census["final"], census["moves"]) == (4, 12, 15)
    assert census["orientable_feasible"] is False


def test_sweep_random_movie(capsys):
    code, doc = run_json(capsys, "sweep", "--random", "7")
    assert code == 0
    assert doc["result"]["certificate"]["ok"] is True


def test_sweep_movie_file(capsys, tmp_path):
    path = tmp_path / "movie.json"
    path.write_text(
        json.dumps(
            {
                "initial": ["a"],
                "events": [
                    {"time": "1/3", "kind": "split", "labels": ["a", "b", "c"]},
                    {"time": "2/3", "kind": "merge", "labels": ["b", "c", "d"]},
                ],
            }
        )
    )
    code, doc = run_json(capsys, "sweep", path)
    assert code == 0
    assert doc["result"]["circles"] == 4
    assert doc["result"]["certificate"]["ok"] is True


def test_sweep_rejects_bad_movie(capsys, tmp_path):
    path = tmp_path / "movie.json"
    path.write_text(json.dumps({"initial": ["a"], "events": [
        {"time": "1/2", "kind": "death", "labels": ["ghost"]}]}))
    code, doc = run_json(capsys, "sweep", path)
    assert code == 2
    assert doc["result"]["error"]["type"] == "DanglingLabel"


def test_sweep_cuts_a_long_bad_event_short(capsys, tmp_path):
    # an event of about a megabyte whose labels hold a number
    path = tmp_path / "movie.json"
    event = {"time": "1/2", "kind": "split", "labels": ["a" * 1_000_000, 5]}
    path.write_text(json.dumps({"initial": ["a"], "events": [event]}))
    code, out = run(capsys, "sweep", path)
    assert code == 2 and len(out) < 1_000
    doc = json.loads(out)
    jsonschema.validate(doc, report_schema())
    message = doc["result"]["error"]["message"]
    assert message.startswith("an event needs a 'kind' and string 'labels': {'time'")
    assert message.endswith("...")


def test_sweep_reports_certificate_failures(capsys, monkeypatch):
    layout = dpl.sweeps.assign_disks

    def parked(checked):
        # disk 1 sits on disk 0 for the whole movie
        placements = list(layout(checked))
        placements[1] = dataclasses.replace(
            placements[1], keyframes=placements[0].keyframes
        )
        return tuple(placements)

    monkeypatch.setattr(dpl.sweeps, "assign_disks", parked)
    movie = Path(__file__).parent / "golden" / "movies" / "choreography.json"
    code, doc = run_json(capsys, "sweep", movie)
    assert code == 1
    jsonschema.validate(doc, report_schema())
    certificate = doc["result"]["certificate"]
    assert certificate["ok"] is False
    failures = certificate["failures"]
    assert {"time": "0", "labels": [0, 1]} in failures
    assert all(sorted(f) == ["labels", "time"] and len(f["labels"]) == 2 for f in failures)


def test_selftest_runs_all_suites(capsys):
    code, doc = run_json(capsys, "selftest", "--runs", "2", "--seed", "9")
    assert code == 0
    r = doc["result"]
    assert r["total_failures"] == 0
    assert len(r["suites"]) == 12
    assert all(v["runs"] == 2 for v in r["suites"].values())
    assert all(v["failing_seeds"] == [] for v in r["suites"].values())


def test_selftest_lists_reproducible_failing_seeds(capsys, monkeypatch):
    seen = []

    def fails_on_odd_seeds(seed):
        seen.append(seed)
        return ["odd seed"] if seed % 2 else []

    monkeypatch.setitem(PROPERTIES, "arc_balance", fails_on_odd_seeds)
    code, doc = run_json(capsys, "selftest", "--runs", "20", "--seed", "3")
    odd = [s for s in seen if s % 2]
    suite = doc["result"]["suites"]["arc_balance"]
    assert code == 1
    assert len(odd) > 5
    assert suite["failures"] == doc["result"]["total_failures"] == len(odd)
    assert suite["failing_seeds"] == odd[:5]
    assert f"first: arc_balance seed {odd[0]} (odd seed)" in doc["summary"]
    assert all(PROPERTIES["arc_balance"](s) for s in suite["failing_seeds"])


def test_selftest_counts_a_raising_check_as_failing_seeds(capsys, monkeypatch):
    seen = []

    def raises_on_odd_seeds(seed):
        seen.append(seed)
        if seed % 2:
            raise dpl.EndpointNotRegular(f"seed {seed}")
        return []

    monkeypatch.setitem(PROPERTIES, "cover_consistency", raises_on_odd_seeds)
    code, doc = run_json(capsys, "selftest", "--runs", "20", "--seed", "3")
    jsonschema.validate(doc, report_schema())
    odd = [s for s in seen if s % 2]
    suites = doc["result"]["suites"]
    assert code == 1
    assert len(odd) > 5
    assert len(suites) == len(PROPERTIES)
    assert all(v["runs"] == 20 for v in suites.values())
    assert suites["cover_consistency"]["failures"] == len(odd)
    assert suites["cover_consistency"]["failing_seeds"] == odd[:5]
    assert doc["result"]["total_failures"] == len(odd)
    raised = f"(raised EndpointNotRegular: seed {odd[0]})"
    assert f"first: cover_consistency seed {odd[0]} {raised}" in doc["summary"]


def test_selftest_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("DPL_SEED", "77")
    code, doc = run_json(capsys, "selftest", "--runs", "1")
    assert code == 0
    assert doc["result"]["seed"] == 77


def test_selftest_default_seed(capsys, monkeypatch):
    monkeypatch.delenv("DPL_SEED", raising=False)
    code, doc = run_json(capsys, "selftest", "--runs", "1")
    assert code == 0
    assert doc["result"]["seed"] == 2026


# ---------------------------------------------------------------- refusals

_MAP = {"breakpoints": [["0", "0"], ["1/2", "3/4"]], "degree": 0}
_MOVIE = {
    "initial": ["a"],
    "events": [{"time": "1/3", "kind": "split", "labels": ["a", "b", "c"]}],
}


def _map_with(**fields):
    return json.dumps({**_MAP, **fields})


def _movie_with(event=None, **fields):
    doc = {**_MOVIE, **fields}
    if event is not None:
        doc["events"] = [{**_MOVIE["events"][0], **event}]
    return json.dumps(doc)


# (case, argv with FILE standing for the input file, file text or None)
REFUSED = [
    ("dcover degree 0", ["dcover-check", "0"], None),
    ("dcover upto 1", ["dcover-check", "--upto", "1"], None),
    ("dcover upto 0", ["dcover-check", "--upto", "0"], None),
    ("sweep empty movie path", ["sweep", ""], None),
    ("sweep census empty out path", ["sweep", "--census", "--out", ""], None),
    ("sweep census and movie", ["sweep", "--census", "FILE"], _movie_with()),
    ("sweep census and random", ["sweep", "--census", "--random", "5"], None),
    ("sweep movie and random", ["sweep", "FILE", "--random", "5"], _movie_with()),
    ("selftest runs 0", ["selftest", "--runs", "0"], None),
    ("degree float", ["analyze", "FILE"], _map_with(degree=1.5)),
    ("degree bool", ["analyze", "FILE"], _map_with(degree=True)),
    ("degree string", ["hopf", "FILE"], _map_with(degree="0")),
    ("float angle", ["analyze", "FILE"], _map_with(breakpoints=[[0, 0], [0.5, "3/4"]])),
    ("zero denominator", ["analyze", "FILE"], _map_with(breakpoints=[["0", "0"], ["1/0", "1"]])),
    ("exponent string", ["unfold", "FILE"], _map_with(breakpoints=[["0", "0"], ["5e-1", "3/4"]])),
    ("bool value", ["analyze", "FILE"], _map_with(breakpoints=[["0", False], ["1/2", "3/4"]])),
    ("breakpoints scalar", ["analyze", "FILE"], _map_with(breakpoints=5)),
    ("breakpoint triple", ["analyze", "FILE"], _map_with(breakpoints=[["0", "0", "0"]])),
    ("map not an object", ["analyze", "FILE"], "[1, 2]"),
    ("map nested too deeply", ["analyze", "FILE"], "[" * 100_000 + "]" * 100_000),
    ("arc exponent", ["unfold", "FILE", "--arc", "25e-2", "3/8"], TENT),
    ("initial string", ["sweep", "FILE"], _movie_with(initial="ab", events=[])),
    ("initial numbers", ["sweep", "FILE"], _movie_with(initial=[1], events=[])),
    ("event time float", ["sweep", "FILE"], _movie_with(event={"time": 0.5})),
    ("event time exponent", ["sweep", "FILE"], _movie_with(event={"time": "5e-1"})),
    ("event time missing", ["sweep", "FILE"], _movie_with(event={"time": None})),
    ("event labels string", ["sweep", "FILE"], _movie_with(event={"labels": "abc"})),
    ("events scalar", ["sweep", "FILE"], _movie_with(events=5)),
    ("movie not an object", ["sweep", "FILE"], "[1, 2]"),
    ("movie nested too deeply", ["sweep", "FILE"], "[" * 100_000 + "]" * 100_000),
    ("movie empty object", ["sweep", "FILE"], "{}"),
    ("movie without events", ["sweep", "FILE"], '{"initial": ["a"]}'),
    ("movie without circles", ["sweep", "FILE"], '{"initial": [], "events": []}'),
    ("mode open-subset", ["unfold", "FILE", "--mode", "open-subset"], TENT),
    ("group n not an int", ["group", "cyclic", "x"], None),
    ("dcover upto not an int", ["dcover-check", "--upto", "x"], None),
    ("analyze without a map", ["analyze"], None),
    ("group extra argument", ["group", "cyclic", "4", "5"], None),
    ("unfold value in plain mode", ["unfold", "FILE", "--value", "1/8"], TENT),
    (
        "unfold arc in regular-value mode",
        ["unfold", "FILE", "--mode", "regular-value", "--value", "1/8"]
        + ["--arc", "1/4", "3/8"],
        TENT,
    ),
    ("group infinite with an order", ["group", "infinite", "3"], None),
    ("dcover degree and upto", ["dcover-check", "3", "--upto", "6"], None),
    ("group cyclic past the order limit", ["group", "cyclic", "301"], None),
    ("group binary_dihedral past the order limit", ["group", "binary_dihedral", "76"], None),
    ("dcover degree past the limit", ["dcover-check", "301"], None),
    ("dcover upto past the limit", ["dcover-check", "--upto", "51"], None),
    ("selftest runs past the limit", ["selftest", "--runs", str(10**12)], None),
]


@pytest.mark.parametrize("argv, text", [c[1:] for c in REFUSED], ids=[c[0] for c in REFUSED])
def test_refused_input_exits_two_with_a_valid_envelope(capsys, tmp_path, argv, text):
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
    code, doc = run_json(capsys, *[str(path) if a == "FILE" else a for a in argv])
    assert code == 2
    jsonschema.validate(doc, report_schema())
    assert doc["summary"].startswith("input error")
    assert "error" in doc["result"]


# ---------------------------------------------------------------- generated inputs

# Drawn map and movie documents and argument mixes: well-formed, malformed
# and blocking.  Each run must end in an envelope, never in a traceback.

_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=12)
_FORTY_DIGITS = st.builds(
    "{}/{}".format, st.integers(10**39, 2 * 10**40), st.integers(10**39, 10**40)
)
_MALFORMED = st.sampled_from(["1/0", "5e-1", "x", "", "1/2/3", "0x10", "nan", "1_0"])
_VALUES = st.one_of(
    _SMALL.map(str), st.integers(-3, 3), _FORTY_DIGITS, _MALFORMED,
    st.none(), st.floats(-3, 3), st.booleans(),
)


def _map_text(f):
    pairs = [[str(x), str(v)] for x, v in f.breakpoints]
    return json.dumps({"breakpoints": pairs, "degree": f.degree})


def _tent_text(top, height):
    # a tent at least 2 high sweeps every level twice in a row, so it blocks
    pairs = [["0", "0"], [str(top), str(height)]]
    return json.dumps({"breakpoints": pairs, "degree": 0})


def _movie_text(movie):
    events = [
        {"time": str(e.time), "kind": e.kind, "labels": list(e.labels)}
        for e in movie.events
    ]
    return json.dumps({"initial": list(movie.initial), "events": events})


def _nested_text(depth, brackets):
    """A JSON document ``depth`` arrays or objects deep."""
    if brackets == "[]":
        return "[" * depth + "]" * depth
    return '{"a": ' * depth + "0" + "}" * depth


_NESTED = st.builds(
    _nested_text, st.sampled_from([2, 900, 1000, 100_000]), st.sampled_from(["[]", "{}"])
)
_MAP_TEXTS = st.one_of(
    st.fixed_dictionaries(
        {
            "breakpoints": st.lists(
                st.lists(_VALUES, min_size=2, max_size=2), max_size=5
            ),
            "degree": st.one_of(st.integers(-5, 5), _VALUES),
        }
    ).map(json.dumps),
    st.integers(0, 300).map(lambda seed: _map_text(dpl.random_map(seed, 6, 2))),
    st.builds(
        _tent_text,
        st.fractions(F(1, 12), F(11, 12), max_denominator=12),
        st.fractions(F(1, 12), 3, max_denominator=12),
    ),
    st.sampled_from([DEEP, "[1, 2]", "{}", "not json"]),
    _NESTED,
)
_LABELS = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=4)
_EVENTS = st.fixed_dictionaries(
    {
        "time": _VALUES,
        "kind": st.sampled_from(["birth", "death", "merge", "split", "isolated", "x"]),
        "labels": st.one_of(_LABELS, st.lists(st.integers(0, 3), max_size=2)),
    }
)
_MOVIE_TEXTS = st.one_of(
    st.fixed_dictionaries(
        {"initial": st.one_of(_LABELS, _VALUES), "events": st.lists(_EVENTS, max_size=6)}
    ).map(json.dumps),
    st.integers(0, 300).map(lambda seed: _movie_text(dpl.sweeps.random_movie(seed, 8))),
    _NESTED,
)
_ARGS = st.one_of(_SMALL.map(str), _FORTY_DIGITS, _MALFORMED)
# a size argument: anything up to 10**12, or one next to a stated limit
_SIZES = st.one_of(
    st.integers(-2, 10**12), st.sampled_from([0, 1, 2, 25, 26, 50, 51, 75, 76, 300, 301])
).map(str)
_SIZED = ("group", "dcover-check", "selftest")
# an input path: mostly the file, sometimes the empty path
_PATHS = st.sampled_from(["FILE", "FILE", "FILE", ""])


@st.composite
def _invocations(draw):
    """(argv with FILE standing for the input file, file text or None)."""
    command = draw(st.sampled_from(["analyze", "hopf", "unfold", "sweep", *_SIZED]))
    argv = [] if draw(st.integers(0, 9)) else ["--out", ""]
    if command == "group":
        family = draw(st.sampled_from(["cyclic", "binary_dihedral"]))
        return [command, family, draw(_SIZES), *argv], None
    if command == "dcover-check":
        size = ["--upto"] if draw(st.booleans()) else []
        return [command, *size, draw(_SIZES), *argv], None
    if command == "selftest":
        return [command, "--runs", draw(_SIZES), *argv], None
    if command == "sweep":
        argv, text = ["sweep", *argv], None
        if draw(st.booleans()):
            argv, text = argv + [draw(_PATHS)], draw(_MOVIE_TEXTS)
        if draw(st.booleans()):
            argv += ["--random", str(draw(st.integers(-2, 40)))]
        return argv, text
    argv = [command, draw(_PATHS), *argv]
    if command != "hopf" and draw(st.booleans()):
        arc = draw(st.one_of(st.tuples(_ARGS, _ARGS), st.just(("11/20", "1/20"))))
        argv += ["--arc", *arc]
    if command == "unfold":
        if draw(st.booleans()):
            argv += ["--mode", "regular-value"]
        if draw(st.booleans()):
            argv += ["--value", draw(_ARGS)]
    return argv, draw(_MAP_TEXTS)


@settings(max_examples=150, deadline=5000)
@given(invocation=_invocations())
# draws that reach an empty path on its own are rare, so two are always run
@example(invocation=(["sweep", ""], None))
@example(invocation=(["sweep", "--out", "", "--census"], None))
def test_generated_inputs_exit_with_a_valid_envelope(tmp_path_factory, invocation):
    argv, text = invocation
    path = tmp_path_factory.getbasetemp() / "generated-input.json"
    if text is not None:
        path.write_text(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(path) if a == "FILE" else a for a in argv])
    doc = json.loads(out.getvalue())
    assert code in (0, 1, 2)
    jsonschema.validate(doc, report_schema())
    if code == 2:
        assert "error" in doc["result"]
    # an empty path, like an empty number, is refused, never replaced
    if "" in argv:
        assert code == 2
    # a size is run within its limit, or refused past it
    if argv[0] in _SIZED:
        assert code in (0, 2)


def test_help_and_a_missing_or_unknown_command_are_left_to_argparse(capsys):
    # the schema's command enum has no value for a missing or unknown command
    for argv in ([], ["bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
    for argv in (["--help"], ["analyze", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: dpl")


def test_integer_coordinates_and_fraction_strings_load(capsys, tmp_path):
    path = tmp_path / "ints.json"
    path.write_text(json.dumps({"breakpoints": [[0, 0], ["1/2", "3/4"]], "degree": 0}))
    code, doc = run_json(capsys, "analyze", path)
    assert code == 0
    assert doc["result"]["map"]["breakpoints"] == [["0", "0"], ["1/2", "3/4"]]


def test_text_output_into_a_closed_pipe_exits_quietly(tent_file):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    env = {**os.environ, "PYTHONPATH": str(Path(dpl.__file__).parents[1])}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "dpl.cli", "analyze", str(tent_file), "--format", "text"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 0
