"""Named faults, each injected with ``monkeypatch``, and the check that catches it.

Every row of ``MUTANTS`` replaces one private function, method or constant
and names the check that must notice: a property in
``dpl.properties.PROPERTIES``, the cover cross-check, an oracle test of this
suite, or a construction's own guard.  A fault inside a function is that
function recompiled from its source with one piece of text replaced
(:func:`_rewritten`).  A refactor re-runs them all; a change that tries a
new mutant adds it here.  The plain tests below the table drive the
remaining guard lines with stub inputs.
"""

import __future__
import dataclasses
import inspect
import operator
import textwrap
from fractions import Fraction as F

import pytest

import dpl.circle_maps
import dpl.double_points
import dpl.properties
import dpl.space_forms
import dpl.sweeps
import dpl.unfolding
import test_api
import test_circle_maps
import test_double_points
import test_space_forms
import test_sweeps
import test_unfolding
from dpl import Angle, PLCircleMap, TransverseArc, make_map, random_map
from dpl.cli import _json_default
from dpl.properties import PROPERTIES, _regular_arc, _regular_value
from dpl.space_forms import build_group, dcover_consistency
from dpl.sweeps import validate_movie
from dpl.unfolding import UnfoldingBlocked

_model = dpl.space_forms.cover_double_point_model
_hopf = dpl.space_forms.hopf_of_cover


def _always_blocked(*args, **kwargs):
    raise UnfoldingBlocked("injected")


def _growth_checks_say_not_blocked():
    for name in ("unfold_termination", "pair_counts"):
        assert PROPERTIES[name](0) == ["unfolding is not blocked: injected"]


def _termination_sees_an_unexpected_unfolding():
    tail = " unfolds, though no reachable end is sweep-free"
    found = [PROPERTIES["unfold_termination"](seed) for seed in range(20)]
    assert any(len(f) == 1 and f[0].endswith(tail) for f in found)


def _with_first_row(field, change):
    def model(group):
        m = _model(group)
        row, *rest = m.components
        row = dataclasses.replace(row, **{field: change(getattr(row, field))})
        return dataclasses.replace(m, components=(row, *rest))

    return model


def _without_first_row(group):
    m = _model(group)
    return dataclasses.replace(m, components=m.components[1:])


def _with_first_row_twice(group):
    m = _model(group)
    return dataclasses.replace(m, components=m.components[:1] + m.components)


def _dcover_fails():
    for d in range(2, 7):
        report = dcover_consistency(d)
        assert report.ok is False, d
        assert [e for e, _ in report.matched] == list(range(1, d)), d


def _tetrahedral_order_is_refused():
    with pytest.raises(AssertionError, match="order 3, expected 24"):
        build_group("binary_tetrahedral")


def _rewritten(function, old, new):
    """``function`` compiled again from its source, with ``old`` replaced by ``new``.

    ``old`` must occur exactly once.  The copy reads the globals of the
    function's module, so every other name means what it means there, and
    keeps the function's line numbers in its file, so that a line trace
    counts the lines a fault reaches where they stand.
    """
    lines, first = inspect.getsourcelines(function)
    source = textwrap.dedent("".join(lines))
    assert source.count(old) == 1, (function.__qualname__, old)
    flags = __future__.annotations.compiler_flag
    path = inspect.getsourcefile(function)
    source = "\n" * (first - 1) + source.replace(old, new)
    code = compile(source, path, "exec", flags, dont_inherit=True)
    scope = {}
    exec(code, function.__globals__, scope)
    return scope[function.__name__]


def _fails(test):
    """The check that ``test``, a test function of this suite, fails."""

    def caught():
        with pytest.raises(AssertionError):
            test()

    return caught


def _classification_breaks_the_midpoint_rule():
    def components(f, arc):
        got = dpl.circle_maps.classify_preimage(f, arc).components
        return [(c.kind, c.start, c.end, c.endpoint_values) for c in got]

    oracle = test_circle_maps._midpoint_classification
    cases = test_circle_maps._oracle_cases()
    assert any(components(f, arc) != oracle(f, arc) for f, arc in cases)


def _certificate_breaks_its_oracle():
    """``test_sweeps``' exact checks fail on a movie of seeds 0-39, with the
    library's layout or its parked one."""

    def breaks(checked, placements):
        try:
            test_sweeps._checked_exactly(checked, placements)
        except AssertionError:
            return True
        return False

    variants = test_sweeps._variants(test_sweeps._seeded(range(40)))
    assert any(breaks(checked, placements) for checked, placements in variants)


def _death_keyframes_conflict():
    # little_movie's disk 6 dies at 7/8
    checked = validate_movie(test_sweeps.little_movie())
    with pytest.raises(AssertionError, match="conflicting keyframes for disk 6 at 7/8"):
        dpl.sweeps.assign_disks(checked)


def _curve_breaks_its_fraction_oracles():
    maps = [random_map(seed, 12, 4) for seed in range(40)]
    mismatches = test_double_points._fraction_mismatches
    assert any(mismatches(g) for f in maps for g in (f, f.reflect()))


def _curve_breaks_its_build_oracles():
    """``test_double_points``' arc-end and segment oracles disagree with the
    curve, or its build raises, on some map of seeds 0-39."""

    def breaks(g):
        try:
            return test_double_points._build_mismatches(g) != []
        except AssertionError:
            return True

    maps = [random_map(seed, 12, 4) for seed in range(40)]
    assert any(breaks(g) for f in maps for g in (f, f.reflect()))


def _arc_end_off_the_diagonal():
    with pytest.raises(AssertionError, match="off the diagonal"):
        for seed in range(40):
            dpl.double_points.double_point_curve(random_map(seed, 12, 4))


def _order_limit_test_fails():
    # the limit itself is refused, so the test's first build raises
    with pytest.raises(dpl.space_forms.BadParameter, match="order 300, above"):
        test_space_forms.test_group_orders_stop_at_the_stated_limit()


def _exports_fail_before_any_read():
    """``test_api``'s export test fails on a package that has read no name yet."""
    kept = dict(vars(dpl))
    for name in ("__all__", *(n for m in test_api.MODULES for n in m.__all__)):
        vars(dpl).pop(name, None)
    try:
        _fails(test_api.test_package_exports_each_module_all_once)()
    finally:
        vars(dpl).clear()
        vars(dpl).update(kept)


# fault name: (module or class, attribute, replacement, the check that catches it);
# a fault checked by a test of test_space_forms, test_sweeps or test_unfolding
# is bound there, where that test reads the name it imported
MUTANTS = {
    "growth always blocked": (
        dpl.properties,
        "eliminate_negative_arcs",
        _always_blocked,
        _growth_checks_say_not_blocked,
    ),
    "no reachable end is sweep-free": (
        dpl.properties,
        "_sweep_free_reach",
        lambda f, arc: False,
        _termination_sees_an_unexpected_unfolding,
    ),
    "model row with another degree": (
        dpl.space_forms,
        "cover_double_point_model",
        _with_first_row("projection_degree", lambda v: v + 1),
        _dcover_fails,
    ),
    "model row with another partner": (
        dpl.space_forms,
        "cover_double_point_model",
        _with_first_row("partner", lambda v: v + 1),
        _dcover_fails,
    ),
    "model row with invariance flipped": (
        dpl.space_forms,
        "cover_double_point_model",
        _with_first_row("swap_invariant", operator.not_),
        _dcover_fails,
    ),
    "model row for the identity": (
        dpl.space_forms,
        "cover_double_point_model",
        _with_first_row("element", lambda v: 0),
        _dcover_fails,
    ),
    "model row dropped": (
        dpl.space_forms,
        "cover_double_point_model",
        _without_first_row,
        _dcover_fails,
    ),
    "model row duplicated": (
        dpl.space_forms,
        "cover_double_point_model",
        _with_first_row_twice,
        _dcover_fails,
    ),
    "cover hopf parity flipped": (
        dpl.space_forms,
        "hopf_of_cover",
        lambda group: 1 - _hopf(group),
        _dcover_fails,
    ),
    "tetrahedral generators of a smaller group": (
        dpl.space_forms,
        "_EXCEPTIONAL",
        {
            **dpl.space_forms._EXCEPTIONAL,
            "binary_tetrahedral": (3, [(1, 1, 0, 1)], 24),
        },
        _tetrahedral_order_is_refused,
    ),
    "grid that forgets the x denominators": (
        dpl.circle_maps,
        "_grid_of",
        _rewritten(dpl.circle_maps._grid_of, "for v in point", "for v in point[1:]"),
        _fails(test_circle_maps.test_make_map_matches_its_fraction_oracle),
    ),
    "lift bisected one turn off": (
        PLCircleMap,
        "lift_evaluate",
        # the turn of x, not of x - x_0, so below x_0 the base is a turn low
        _rewritten(PLCircleMap.lift_evaluate, "(t - xs[0] * q) // one", "t // one"),
        _fails(test_circle_maps.test_lift_matches_its_fraction_oracle),
    ),
    "regular test without its off-grid remainder": (
        PLCircleMap,
        "is_regular_value",
        # a level just above a residue bisects onto it
        _rewritten(PLCircleMap.is_regular_value, "off or self", "self"),
        _fails(test_circle_maps.test_levels_off_the_grid_match_the_solved_fibers),
    ),
    "level cuts' below at the floor": (
        PLCircleMap,
        "_level_cuts",
        # a level just above a residue sees a vertex on it
        _rewritten(PLCircleMap._level_cuts, "-(-t // q)", "t // q"),
        _fails(test_circle_maps.test_levels_off_the_grid_match_the_solved_fibers),
    ),
    "fold-free anchor not wrapped to x_0": (
        PLCircleMap,
        "_level_cuts",
        # a falling lap keeps its end at x_{j+1}, not its start at x_j
        _rewritten(PLCircleMap._level_cuts, "lo += a == vertex", "hi -= b == vertex"),
        _fails(test_circle_maps.test_fold_free_anchor_preimage_is_x0_and_comes_first),
    ),
    "b-level key offset with the wrong sign": (
        dpl.circle_maps,
        "classify_preimage",
        _rewritten(
            dpl.circle_maps.classify_preimage,
            "(off if rows[j][0] else -off)",
            "(-off if rows[j][0] else off)",
        ),
        _classification_breaks_the_midpoint_rule,
    ),
    "bisect_right for the top": (
        PLCircleMap,
        "_level_cuts",
        _rewritten(PLCircleMap._level_cuts, "bisect_left(", "bisect_right("),
        _fails(test_circle_maps.test_fiber_at_each_critical_value_keeps_its_fold_once),
    ),
    "another arc's classification trusted": (
        test_unfolding,
        "find_balanced_path",
        _rewritten(
            dpl.unfolding.find_balanced_path,
            "cls.arc != canonical",
            "cls.arc.orientation != 1",
        ),
        _fails(test_unfolding.test_balanced_path_ignores_another_arcs_classification),
    ),
    "or for and in the exemption": (
        test_sweeps,
        "embedding_certificate",
        _rewritten(
            dpl.sweeps.embedding_certificate,
            "la in event and lb in event",
            "la in event or lb in event",
        ),
        _certificate_breaks_its_oracle,
    ),
    "dropped end time": (
        test_sweeps,
        "embedding_certificate",
        # the times checked lose 1
        _rewritten(dpl.sweeps.embedding_certificate, "0 <= k <= T", "0 <= k < T"),
        _fails(test_sweeps.test_certificate_accepts_the_assignment),
    ),
    "swapped interpolation weights": (
        test_sweeps,
        "embedding_certificate",
        # each keyframe step weighs its first keyframe by the time since it
        _rewritten(
            dpl.sweeps.embedding_certificate,
            "(x0, y0, r0), (x1, y1, r1) in zip",
            "(x1, y1, r1), (x0, y0, r0) in zip",
        ),
        _fails(test_sweeps.test_certificate_matches_the_oracle_off_the_movie_grid),
    ),
    "vertex ticks dropped": (
        test_sweeps,
        "embedding_certificate",
        # a piece tested at its ends only, not at the vertex tick -B/2A
        _rewritten(dpl.sweeps.embedding_certificate, "elif A > 0 and", "elif False and"),
        _fails(test_sweeps.test_certificate_finds_a_crossing_inside_one_piece),
    ),
    "first moment found with bisect_right": (
        test_sweeps,
        "embedding_certificate",
        # the moment lo taken by the piece after it, so at a jump there by
        # the later keyframe
        _rewritten(
            dpl.sweeps.embedding_certificate,
            "bisect_left(ea, lo), bisect_left(eb, lo)",
            "bisect_right(ea, lo), bisect_right(eb, lo)",
        ),
        _fails(test_sweeps.test_certificate_takes_a_jump_from_the_left),
    ),
    "exempt end checked as closed": (
        test_sweeps,
        "embedding_certificate",
        # a merge's parents touch at its tick, which ends their lifespans
        _rewritten(
            dpl.sweeps.embedding_certificate,
            "if c1 not in opens and (A * c1 + B)",
            "if (A * c1 + B)",
        ),
        _fails(test_sweeps.test_certificate_accepts_the_assignment),
    ),
    "open start after a jump taken as closed": (
        test_sweeps,
        "embedding_certificate",
        _rewritten(
            dpl.sweeps.embedding_certificate,
            "if exempt or ja == c0 or jb == c0:",
            "if exempt:",
        ),
        _fails(test_sweeps.test_certificate_checks_the_open_start_after_a_jump),
    ),
    "growth stopped at a residue on the far end": (
        test_unfolding,
        "_growth_candidates",
        _rewritten(dpl.unfolding._growth_candidates, "if reach < w:", "if reach <= w:"),
        _fails(test_unfolding.test_growth_candidates_match_their_fraction_oracle),
    ),
    "a layout's eighth taken as a quarter": (
        test_sweeps,
        "assign_disks",
        _rewritten(dpl.sweeps.assign_disks, "(b - a) // 8", "(b - a) // 4"),
        _fails(test_sweeps.test_layout_matches_the_fraction_layout),
    ),
    "death keyframe at its event": (
        dpl.sweeps,
        "assign_disks",
        # the shrinking starts at the event, where the disk already ends
        _rewritten(
            dpl.sweeps.assign_disks,
            "(k - d, homes[i], _HOME_R)",
            "(k, homes[i], _HOME_R)",
        ),
        _death_keyframes_conflict,
    ),
    "ends-only windings": (
        dpl.double_points,
        "_build_curve",
        # counts the pieces ending on the seam x_0 + 1, but no longer
        # subtracts those starting on it
        _rewritten(dpl.double_points._build_curve, "p1 += turns_x", "p1 += turns_x == 1"),
        _curve_breaks_its_fraction_oracles,
    ),
    "value change with the wrong sign": (
        dpl.double_points,
        "_equal_value_pieces",
        # pieces along two laps of one slope direction run down, not up
        _rewritten(dpl.double_points._equal_value_pieces, "vhi - vlo", "vlo - vhi"),
        _curve_breaks_its_fraction_oracles,
    ),
    "one-sided image cover": (
        dpl.double_points,
        "_build_curve",
        _rewritten(dpl.double_points._build_curve, "high - low >= grid", "high >= grid"),
        _curve_breaks_its_fraction_oracles,
    ),
    "arc end kept at x_0 + 1": (
        dpl.double_points,
        "_build_curve",
        _rewritten(dpl.double_points._build_curve, "x0 if c == x1 else c for", "c for"),
        _curve_breaks_its_build_oracles,
    ),
    "segment ends swapped": (
        dpl.double_points,
        "_build_curve",
        _rewritten(dpl.double_points._build_curve, "= start, end", "= end, start"),
        _curve_breaks_its_build_oracles,
    ),
    "y end built without the shift": (
        dpl.double_points,
        "_equal_value_pieces",
        # an end on A's edge reads B at the value itself, not k below it
        _rewritten(dpl.double_points._equal_value_pieces, "(vlo - shift) *", "vlo *"),
        _arc_end_off_the_diagonal,
    ),
    "nesting comparison flipped": (
        test_unfolding.UnfoldTrace,
        "__post_init__",
        _rewritten(dpl.unfolding.UnfoldTrace.__post_init__, "% grid > (", "% grid < ("),
        _fails(test_unfolding.test_trace_nesting_check_matches_the_angle_oracle),
    ),
    "nesting strict at a shared end": (
        test_unfolding.UnfoldTrace,
        "__post_init__",
        _rewritten(dpl.unfolding.UnfoldTrace.__post_init__, "% grid > (", "% grid >= ("),
        _fails(test_unfolding.test_trace_nesting_check_matches_the_angle_oracle),
    ),
    "group order limit off by one": (
        test_space_forms,
        "build_group",
        _rewritten(dpl.space_forms.build_group, "order > _MAX_ORDER", "order >= _MAX_ORDER"),
        _order_limit_test_fails,
    ),
    "package loader without one module": (
        dpl,
        "_MODULES",
        tuple(m for m in dpl._MODULES if m != "sweeps"),
        _exports_fail_before_any_read,
    ),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_caught(name, monkeypatch):
    module, attribute, fault, caught = MUTANTS[name]
    monkeypatch.setattr(module, attribute, fault)
    caught()


class _Draws:
    """A stand-in for ``random.Random`` whose ``randrange`` returns set values."""

    def __init__(self, *values):
        self.values = list(values)

    def randrange(self, *args):
        return self.values.pop(0)


def test_regular_value_steps_off_a_fold_value():
    tent = make_map([(0, 0), (F(1, 2), F(3, 4))], 0)
    assert not tent.is_regular_value(Angle(0))
    assert _regular_value(tent, _Draws(0)) == Angle(F(1, 193))


def test_regular_arc_steps_its_end_off_a_fold_value():
    f = make_map([(0, F(1, 9)), (F(1, 2), F(1, 2))], 0)
    assert not f.is_regular_value(Angle(F(1, 9)))
    arc = _regular_arc(f, _Draws(0, 1))
    assert arc == TransverseArc(Angle(0), Angle(F(1, 9) + F(1, 193)))


def test_json_hook_refuses_other_objects():
    assert _json_default(F(1, 3)) == _json_default(Angle(F(1, 3))) == "1/3"
    with pytest.raises(TypeError, match="type object is not JSON serializable"):
        _json_default(object())
