"""Command-line interface.

Every subcommand emits a single JSON envelope (see ``data/report.schema.json``):

    {"command": ..., "input_digest": ..., "version": ..., "result": ...,
     "summary": ...}

The digest is the sha256 of the input file when there is one, otherwise of
the canonical argument object.  ``--format text`` renders the same envelope
as indented lines; there is no separate text pipeline.  Exit codes: 0 on
success, 1 when a checked property fails (a blocked unfolding, a failed
certificate, selftest failures, ...), 2 on bad input, including arguments
a subcommand's parser refuses.

Each command imports the modules it runs inside its handler, so a start
loads only those: ``analyze`` and ``hopf`` load ``circle_maps`` and
``double_points``, ``unfold`` adds ``unfolding``, ``dcover-check`` adds
``space_forms``, ``group`` loads ``circle_maps`` and ``space_forms``, and
``sweep`` loads ``circle_maps`` and ``sweeps``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import random
import sys
from fractions import Fraction

from . import __version__
from .circle_maps import (
    Angle,
    PLCircleMap,
    PreimageClassification,
    TransverseArc,
    UnfoldingBlocked,
    classify_preimage,
    make_map,
)

_DEFAULT_SEED = 2026


def _json_default(x):
    """The JSON encoder's hook: fractions and angles become 'p/q' strings."""
    if isinstance(x, (Fraction, Angle)):
        return str(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _digest_args(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(canon).hexdigest()


def _load_json(path: str) -> tuple[object, str]:
    """The JSON document in a file, read as UTF-8, and the sha256 of its bytes."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return json.loads(raw.decode()), hashlib.sha256(raw).hexdigest()
    except RecursionError:
        raise ValueError(f"{path} nests too deeply to read") from None


# The most breakpoints a map file may list, and the most turns its lift may
# rise and fall in all, which bounds |degree|.  A curve has about n T / 2
# components and 2 n T + n^2 pieces for n breakpoints and T turns: at both
# limits analyze takes 0.12 s on 2 vCPU with CPython 3.11.7, and 1.5 s under
# a line tracer, inside the generated-input test's 5 s deadline.
_MAX_BREAKPOINTS = 100
_MAX_TURNS = 50
_MAP_HELP = (
    f"map JSON file: at most {_MAX_BREAKPOINTS} breakpoints, the lift rising "
    f"and falling at most {_MAX_TURNS} turns in all"
)


def _load_map(path: str) -> tuple[PLCircleMap, str]:
    data, digest = _load_json(path)
    if not isinstance(data, dict) or "breakpoints" not in data or "degree" not in data:
        raise ValueError("a map file needs 'breakpoints' and 'degree'")
    bps = data["breakpoints"]
    if not isinstance(bps, list) or not all(
        isinstance(p, list) and len(p) == 2 for p in bps
    ):
        raise ValueError("'breakpoints' must be a list of [angle, value] pairs")
    if len(bps) > _MAX_BREAKPOINTS:
        raise ValueError(
            f"a map file may list at most {_MAX_BREAKPOINTS} breakpoints, not {len(bps)}"
        )
    f = make_map(bps, data["degree"])
    ls = f._ints[1]
    if sum(abs(b - a) for a, b in zip(ls, ls[1:])) > _MAX_TURNS * f._grid:
        raise ValueError(
            f"the lift rises and falls more than {_MAX_TURNS} turns in all, the "
            f"limit for a map file, which bounds |degree| (here {f.degree})"
        )
    return f, digest


def _load_movie(path: str) -> tuple[SweepMovie, str]:
    from .sweeps import SweepMovie, make_event

    data, digest = _load_json(path)
    if not isinstance(data, dict) or "initial" not in data or "events" not in data:
        raise ValueError("a movie file holds an object with 'initial' and 'events'")
    initial, events = data["initial"], data["events"]
    if not _is_str_list(initial):
        raise ValueError("'initial' must be a list of label strings")
    if not isinstance(events, list):
        raise ValueError("'events' must be a list")
    decoded = []
    for ev in events:
        if not (
            isinstance(ev, dict)
            and isinstance(ev.get("kind"), str)
            and _is_str_list(ev.get("labels"))
        ):
            raise ValueError(f"an event needs a 'kind' and string 'labels': {_echo(ev)}")
        decoded.append(make_event(ev.get("time"), ev["kind"], *ev["labels"]))
    return SweepMovie(initial=tuple(initial), events=tuple(decoded)), digest


def _echo(value) -> str:
    """``repr(value)``, cut to at most 80 characters for a message."""
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def _is_str_list(x) -> bool:
    return isinstance(x, list) and all(isinstance(v, str) for v in x)


# The largest ``dcover-check --upto`` and ``selftest --runs``: 0.06 s and
# 0.3 s at their limits on 2 vCPU with CPython 3.11.7, and 0.5 s and 2-4 s
# under a line tracer, inside the generated-input test's 5 s deadline.
_MAX_UPTO = 50
_MAX_RUNS = 25


def _in_range(name: str, value: int, low: int, high: int) -> None:
    """Refuse a count that would make the run empty, or longer than its limit."""
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    if value > high:
        raise ValueError(f"{name} must be at most {high}, got {value}")


def _arc_from(args) -> TransverseArc | None:
    return None if args.arc is None else TransverseArc(*args.arc)


def _arc_payload(arc: TransverseArc) -> dict:
    return {"start": arc.start, "end": arc.end, "width": arc.width}


def _map_payload(f: PLCircleMap) -> dict:
    return {
        "degree": f.degree,
        "lap_count": f.lap_count,
        "fold_count": len(f.folds),
        "breakpoints": [[x, l] for x, l in f.breakpoints],
        "critical_values": sorted(v.value for v in f.critical_values),
    }


def _curve_payload(f: PLCircleMap) -> dict:
    from .double_points import double_point_curve, hopf_invariant

    curve = double_point_curve(f)
    return {
        "component_count": len(curve.components),
        "components": [
            {
                "index": c.index,
                "kind": c.kind,
                "p1": c.p1_degree,
                "p2": c.p2_degree,
                "segments": len(c.segments),
                "swap_image": curve.swap_pairing[c.index],
            }
            for c in curve.components
        ],
        "closures": [
            {
                "arcs": list(cc.arcs),
                "diagonal_points": list(cc.diagonal_points),
                "flips": cc.flips,
                "orientable": cc.orientable,
            }
            for cc in curve.closure_components
        ],
        "hopf": hopf_invariant(f),
        "controlled_hopf": _controlled_hopf_payload(f),
    }


def _controlled_hopf_payload(f: PLCircleMap) -> list:
    from .double_points import controlled_hopf

    return [
        {"members": list(members), "bit": bit}
        for members, bit in controlled_hopf(f)
    ]


def _counts_payload(cls: PreimageClassification) -> dict:
    return {
        "positive": cls.positive_count,
        "negative": cls.negative_count,
        "neutral": cls.neutral_count,
        "circle": cls.circle_count,
    }


def _classification_payload(f: PLCircleMap, arc: TransverseArc) -> dict:
    cls = classify_preimage(f, arc)
    return {
        "arc": _arc_payload(arc),
        **_counts_payload(cls),
        "components": [
            {"kind": c.kind, "start": c.start, "end": c.end}
            for c in cls.components
        ],
    }


# --------------------------------------------------------------------------
# subcommands: each returns (digest, result, summary, exit_code)


def _cmd_analyze(args):
    from .double_points import arc_lift_check, double_point_curve, realizability_report

    f, digest = _load_map(args.map)
    curve = double_point_curve(f)
    report = realizability_report(f)
    lift = arc_lift_check(f)
    result = {
        "map": _map_payload(f),
        "curve": _curve_payload(f),
        "realizability": dataclasses.asdict(report),
        "arc_lift_violation": lift.violation,
    }
    if args.arc:
        result["classification"] = _classification_payload(f, _arc_from(args))
    verdict = "passes" if report.criterion_pass else "fails"
    summary = (
        f"degree {f.degree}, {len(f.folds)} folds, "
        f"{len(curve.components)} double-point components, "
        f"criterion {verdict}"
    )
    return digest, result, summary, 0


def _step_payload(step) -> dict:
    payload: dict = {
        "arc": _arc_payload(step.arc),
        "negative": step.negative_count,
        "positive": step.positive_count,
    }
    if step.extended_start is not None:
        payload["extended_start"] = step.extended_start
    if step.extended_end is not None:
        payload["extended_end"] = step.extended_end
    if step.path is not None:
        payload["path"] = {
            "from_component": step.path.start_component,
            "to_component": step.path.end_component,
            "direction": step.path.direction,
            "start": step.path.start_point,
            "end": step.path.end_point,
            "level": step.path.level,
            "one_sided": step.path.one_sided,
            "skipped": list(step.path.skipped),
        }
    return payload


def _cmd_unfold(args):
    from .unfolding import eliminate_negative_arcs, pair_count_check

    f, digest = _load_map(args.map)
    final, trace = eliminate_negative_arcs(f, _arc_from(args), args.value)
    base = f.reflect() if trace.reflected else f
    pairs = pair_count_check(base, final)
    cls = pairs.classification
    result = {
        "mode": trace.mode,
        "reflected": trace.reflected,
        "final_arc": _arc_payload(final),
        "steps": [_step_payload(s) for s in trace.steps],
        "final_counts": _counts_payload(cls),
        "pair_count_ok": pairs.ok,
    }
    extensions = sum(
        (s.extended_start, s.extended_end) != (None, None) for s in trace.steps
    )
    summary = (
        f"unfolded in {extensions} extensions; "
        f"{cls.positive_count} positive components remain, none negative"
    )
    return digest, result, summary, 0


def _cmd_hopf(args):
    from .double_points import arc_lift_check, double_point_curve, hopf_invariant

    f, digest = _load_map(args.map)
    curve = double_point_curve(f)
    lift = arc_lift_check(f)
    bits = _controlled_hopf_payload(f)
    result = {
        "hopf": hopf_invariant(f),
        "controlled_hopf": bits,
        "closures_orientable": all(c.orientable for c in curve.closure_components),
        "arc_lift_violation": lift.violation,
    }
    summary = f"hopf invariant {result['hopf']} from {len(bits)} compact pieces"
    return digest, result, summary, 0


def _cmd_group(args):
    from .space_forms import (
        build_group,
        cover_double_point_model,
        cover_realizable,
        hopf_of_cover,
        involution_count,
        nonrealizable_map_exists,
    )

    payload = {"command": "group", "family": args.family, "n": args.n}
    if args.family == "infinite":
        if args.n is not None:
            raise ValueError("the infinite family takes no order")
        result = {
            "family": "infinite",
            "order": None,
            "nonrealizable_map_exists": nonrealizable_map_exists("infinite"),
        }
        summary = "infinite fundamental group: no nonrealizable covering map"
        return _digest_args(payload), result, summary, 0
    group = build_group(args.family, args.n)
    model = cover_double_point_model(group)
    result = {
        "name": group.name,
        "order": group.order,
        "involutions": involution_count(group),
        "cover_realizable": cover_realizable(group),
        "hopf_of_cover": hopf_of_cover(group),
        "nonrealizable_map_exists": nonrealizable_map_exists(group),
        "model_components": len(model.components),
        "swap_invariant_components": model.swap_invariant_count,
    }
    verdict = "realizable" if result["cover_realizable"] else "not realizable"
    summary = f"{group.name}: order {group.order}, covering projection {verdict}"
    return _digest_args(payload), result, summary, 0


def _cmd_dcover_check(args):
    from .space_forms import dcover_consistency

    upto = 12 if args.upto is None else args.upto
    payload = {"command": "dcover-check", "degree": args.degree, "upto": upto}
    if args.degree is None:
        _in_range("--upto", upto, 2, _MAX_UPTO)
        degrees = list(range(2, upto + 1))
    else:
        degrees = [args.degree]  # dcover_consistency refuses degrees below 1
    reports = [dcover_consistency(d) for d in degrees]
    result = {
        "reports": [
            {
                "degree": r.degree,
                "ok": r.ok,
                "components": len(r.matched),
                "curve_hopf": r.curve_hopf,
                "model_hopf": r.model_hopf,
            }
            for r in reports
        ],
        "all_ok": all(r.ok for r in reports),
    }
    good = sum(1 for r in reports if r.ok)
    summary = f"{good}/{len(reports)} covering degrees consistent with the group model"
    return _digest_args(payload), result, summary, 0 if result["all_ok"] else 1


def _cmd_sweep(args):
    from .sweeps import (
        embedding_certificate,
        random_movie,
        surgery_census,
        validate_movie,
    )

    if args.census:
        report = surgery_census()
        result = {
            "census": {
                "initial": report.initial_count,
                "final": report.final_count,
                "moves": report.move_count,
                "splits": report.split_count,
                "merges": report.merge_count,
                "bands": report.band_count,
                "orientable_feasible": report.orientable_feasible,
                "nonorientable_minimum": report.nonorientable_minimum,
                "deviations": list(report.deviations),
            }
        }
        summary = (
            f"census {report.initial_count} -> {report.final_count} circles in "
            f"{report.move_count} moves; "
            + ("consistent" if report.ok else "DEVIATIONS FOUND")
        )
        return _digest_args({"command": "sweep", "census": True}), result, summary, (
            0 if report.ok else 1
        )
    if args.movie is not None:
        movie, digest = _load_movie(args.movie)
    else:
        movie = random_movie(args.random if args.random is not None else _DEFAULT_SEED)
        digest = _digest_args({"command": "sweep", "random": args.random})
    checked = validate_movie(movie)
    if not checked.circle_count:
        raise ValueError("the movie has no circles, so there is nothing to check")
    certificate = embedding_certificate(checked)
    result = {
        "circles": checked.circle_count,
        "events": len(checked.events),
        "final": [checked.names[i] for i in checked.final],
        "lifespans": {
            checked.names[i]: [checked.born[i], checked.died[i]]
            for i in range(checked.circle_count)
        },
        "certificate": {
            "ok": certificate.ok,
            "times_checked": len(certificate.times_checked),
            "pairs_checked": certificate.pairs_checked,
            "failures": [
                {"time": fl.time, "labels": list(fl.labels)}
                for fl in certificate.failures
            ],
        },
    }
    summary = (
        f"{checked.circle_count} circles, {len(checked.events)} events, "
        f"certificate {'OK' if certificate.ok else 'FAILED'}"
    )
    return digest, result, summary, 0 if certificate.ok else 1


# --------------------------------------------------------------------------
# selftest


def _cmd_selftest(args):
    from .properties import PROPERTIES

    _in_range("--runs", args.runs, 1, _MAX_RUNS)
    seed = args.seed
    suites = {}
    total = 0
    first = ""
    for i, (name, check) in enumerate(PROPERTIES.items()):
        # A check builds its inputs from its seed alone, so a listed seed
        # reproduces the failure as ``PROPERTIES[name](seed)``.
        rng = random.Random(seed * 1_000_003 + i)
        runs = [rng.randrange(1 << 30) for _ in range(args.runs)]
        # A check that raises fails on that seed; the other suites still run.
        failing, said = [], ""
        for s in runs:
            try:
                claims = check(s)
            except Exception as exc:
                claims = [f"raised {type(exc).__name__}: {exc}"]
            if claims:
                failing.append(s)
                said = said or claims[0]
        suites[name] = {
            "runs": args.runs,
            "failures": len(failing),
            "failing_seeds": failing[:5],
        }
        total += len(failing)
        if failing and not first:
            first = f"; first: {name} seed {failing[0]} ({said})"
    result = {"seed": seed, "suites": suites, "total_failures": total}
    summary = (
        f"{len(PROPERTIES)} property suites x {args.runs} runs, "
        f"{total} failure(s){first}"
    )
    digest = _digest_args({"command": "selftest", "seed": seed, "runs": args.runs})
    return digest, result, summary, 0 if total == 0 else 1


# --------------------------------------------------------------------------
# plumbing


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser: a refusal raises ValueError instead of exiting."""

    def error(self, message):
        raise ValueError(message)


def _render_text(envelope: dict, out) -> None:
    print(f"[{envelope['command']}] {envelope['summary']}", file=out)

    def walk(obj, indent: int) -> None:
        pad = " " * indent
        if isinstance(obj, dict):
            for k, v in obj.items():
                if isinstance(v, (dict, list)) and v:
                    print(f"{pad}{k}:", file=out)
                    walk(v, indent + 2)
                else:
                    print(f"{pad}{k}: {v if v != [] else '[]'}", file=out)
        elif isinstance(obj, list):
            if all(not isinstance(v, (dict, list)) for v in obj):
                print(f"{pad}{', '.join(str(v) for v in obj)}", file=out)
            else:
                for v in obj:
                    print(f"{pad}-", file=out)
                    walk(v, indent + 2)

    walk(envelope["result"], 2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpl",
        description="Double-point analysis of generic circle maps.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--out", help="write the report to this file")
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_CommandParser
    )

    p = sub.add_parser(
        "analyze",
        parents=[common],
        help="map normalization and double-point curve",
    )
    p.add_argument("map", help=_MAP_HELP)
    p.add_argument("--arc", nargs=2, metavar=("START", "END"))
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser(
        "unfold",
        parents=[common],
        help="grow an arc until no negative components",
    )
    p.add_argument("map", help=_MAP_HELP)
    p.add_argument("--arc", nargs=2, metavar=("START", "END"))
    p.add_argument("--value", help="grow around this regular value (not with --arc)")
    p.set_defaults(fn=_cmd_unfold)

    p = sub.add_parser(
        "hopf",
        parents=[common],
        help="parity invariants of the double-point curve",
    )
    p.add_argument("map", help=_MAP_HELP)
    p.set_defaults(fn=_cmd_hopf)

    p = sub.add_parser(
        "group",
        parents=[common],
        help="catalog groups and their cover models",
    )
    p.add_argument("family")
    p.add_argument("n", nargs="?", type=int, default=None, help="order at most 300")
    p.set_defaults(fn=_cmd_group)

    p = sub.add_parser(
        "dcover-check",
        parents=[common],
        help="match circle covers against the group model",
    )
    one = p.add_mutually_exclusive_group()
    one.add_argument("degree", nargs="?", type=int, default=None, help="at most 300")
    one.add_argument("--upto", type=int, default=None, help="default 12, at most 50")
    p.set_defaults(fn=_cmd_dcover_check)

    p = sub.add_parser(
        "sweep",
        parents=[common],
        help="validate and embed a circle movie",
    )
    one = p.add_mutually_exclusive_group()
    one.add_argument("movie", nargs="?", default=None, help="movie JSON file")
    one.add_argument("--random", type=int, default=None, metavar="SEED")
    one.add_argument("--census", action="store_true", help="check the bundled census")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser(
        "selftest",
        parents=[common],
        help="run the property suites",
    )
    p.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    p.add_argument("--runs", type=int, default=25, help="default and at most 25")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    # argparse names the command in ``args`` before it reads the command's
    # own arguments, so a refusal of those is still enveloped under that
    # name, as JSON on stdout.  A missing or unknown command exits in argparse.
    args = argparse.Namespace(format="json", out=None)
    # an --out file that cannot be written is an input error on stdout
    stream = sys.stdout
    try:
        _, extra = build_parser().parse_known_args(argv, args)
        if extra:
            raise ValueError(f"unrecognized arguments: {' '.join(extra)}")
        if args.out is not None:
            stream = open(args.out, "w")
        digest, result, summary, code = args.fn(args)
    except (UnfoldingBlocked, ValueError, OSError) as exc:
        blocked = isinstance(exc, UnfoldingBlocked)
        digest = _digest_args({"command": args.command, "error": True})
        result = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        summary = f"{'blocked' if blocked else 'input error'}: {exc}"
        code = 1 if blocked else 2
    envelope = {
        "command": args.command,
        "input_digest": digest,
        "version": __version__,
        "result": result,
        "summary": summary,
    }
    try:
        if args.format == "json":
            json.dump(envelope, stream, sort_keys=True, indent=2, default=_json_default)
            stream.write("\n")
        else:
            _render_text(envelope, stream)
        stream.flush()
    except BrokenPipeError:
        # The reader left early (``dpl ... | head``); drop the rest quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    finally:
        if stream is not sys.stdout:
            stream.close()
    return code


def report_schema() -> dict:
    """The JSON schema every envelope conforms to."""
    from importlib import resources

    schema = resources.files("dpl").joinpath("data/report.schema.json")
    return json.loads(schema.read_text())


if __name__ == "__main__":
    sys.exit(main())
