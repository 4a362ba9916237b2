import re
from fractions import Fraction as F

import pytest

from dpl import (
    CATALOG,
    build_group,
    cover_double_point_model,
    cover_realizable,
    dcover_consistency,
    hopf_of_cover,
    involution_count,
    nonrealizable_map_exists,
)
from dpl.space_forms import BadParameter, from_table, validate_table


# ---------------------------------------------------------------- catalog


def test_catalog_orders():
    assert build_group("cyclic", 5).order == 5
    assert build_group("binary_dihedral", 2).order == 8
    assert build_group("binary_dihedral", 5).order == 20
    assert build_group("binary_tetrahedral").order == 24
    assert build_group("binary_octahedral").order == 48
    assert build_group("binary_icosahedral").order == 120


def test_catalog_names_are_complete():
    for family in CATALOG:
        n = 3 if family in ("cyclic", "binary_dihedral") else None
        g = build_group(family, n)
        assert g.order >= 2


def test_build_group_rejects_bad_input():
    with pytest.raises(BadParameter):
        build_group("lens", 3)
    with pytest.raises(BadParameter):
        build_group("cyclic")  # needs the order parameter
    with pytest.raises(BadParameter):
        build_group("cyclic", 0)
    with pytest.raises(BadParameter):
        build_group("binary_tetrahedral", 7)  # no parameter allowed
    # an order is an int, never a bool or a float
    for n in (True, 2.0, 2.5, F(7, 2)):
        with pytest.raises(BadParameter, match=r"^cyclic needs an int parameter"):
            build_group("cyclic", n)


def test_group_tables_are_groups():
    """The constructors go through full table validation; spot-check anyway."""
    for g in (build_group("binary_dihedral", 3), build_group("binary_octahedral")):
        validate_table(g.table)
        assert all(g.mul(0, i) == i for i in range(g.order))
        assert all(g.mul(g.inverse(i), i) == 0 for i in range(g.order))


def test_binary_octahedral_table_presents_the_group():
    """s^3 = t^4 = (st)^2 with s and t generating all 48 elements.

    <s, t | s^3 = t^4 = (st)^2> presents the binary octahedral group
    (Coxeter and Moser, Generators and Relations for Discrete Groups, 6.5),
    which has order 48, so a 48-element table with such a pair is that group.
    """
    g = build_group("binary_octahedral")

    def power(x, k):
        out = 0
        for _ in range(k):
            out = g.mul(out, x)
        return out

    def generated(gens):
        seen, frontier = {0}, [0]
        while frontier:
            fresh = {g.mul(x, y) for x in frontier for y in gens} - seen
            seen |= fresh
            frontier = list(fresh)
        return len(seen)

    assert any(
        power(t, 4) == power(s, 3) == power(g.mul(s, t), 2)
        and generated((s, t)) == 48
        for s in range(48)
        for t in range(48)
    )
    orders = sorted(g.element_order(i) for i in range(48))
    assert {k: orders.count(k) for k in set(orders)} == {
        1: 1, 2: 1, 3: 8, 4: 18, 6: 8, 8: 12
    }


def test_element_orders_divide_group_order():
    g = build_group("binary_icosahedral")
    for i in range(g.order):
        assert g.order % g.element_order(i) == 0
    # the unique involution of a binary polyhedral group is the antipode
    assert len(g.involutions) == 1


def test_quaternion_group_structure():
    q8 = build_group("binary_dihedral", 2)
    orders = sorted(q8.element_order(i) for i in range(8))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]
    assert involution_count(q8) == 1


def test_validate_table_catches_defects():
    with pytest.raises(BadParameter):
        validate_table([])
    with pytest.raises(BadParameter):
        validate_table([[0, 1], [1, 1]])  # not a Latin square
    with pytest.raises(BadParameter):
        validate_table([[1, 0], [0, 1]])  # identity is not element 0
    # a Latin square with identity that is not associative
    bad = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(BadParameter, match="associativity fails"):
        validate_table(bad)
    # the same defect in an order-60 loop, bad x Z/12
    big = [
        [bad[a][c] * 12 + (b + d) % 12 for c in range(5) for d in range(12)]
        for a in range(5)
        for b in range(12)
    ]
    with pytest.raises(BadParameter, match="associativity fails"):
        validate_table(big)


@pytest.mark.parametrize(
    "table, message",
    [
        pytest.param([[0, 1], [1]], "row 1 has length 1, expected 2", id="ragged row"),
        pytest.param([[0, 1], [1, 2]], "row 1 has entries outside 0..1", id="range"),
        pytest.param([[0, 1], [0, 1]], "column 0 is not the identity", id="column 0"),
        pytest.param(
            [[0, 1, 2], [1, 2, 0], [2, 1, 0]],
            "column 1 is not a permutation",
            id="column not a permutation",
        ),
    ],
)
def test_validate_table_refuses_malformed_tables(table, message):
    with pytest.raises(BadParameter, match=re.escape(message)):
        validate_table(table)


def test_from_table_roundtrip():
    z3 = from_table([[0, 1, 2], [1, 2, 0], [2, 0, 1]], name="z3")
    assert z3.order == 3
    assert involution_count(z3) == 0


# ---------------------------------------------------------------- involutions


def test_involution_counts():
    assert involution_count(build_group("cyclic", 3)) == 0
    assert involution_count(build_group("cyclic", 4)) == 1
    assert involution_count(build_group("cyclic", 12)) == 1
    assert involution_count(build_group("binary_tetrahedral")) == 1
    assert involution_count(build_group("binary_octahedral")) == 1


# ---------------------------------------------------------------- cover model


def test_cover_model_components():
    g = build_group("cyclic", 4)
    model = cover_double_point_model(g)
    assert len(model.components) == 3
    for c in model.components:
        assert c.partner == g.inverse(c.element)
        assert c.swap_invariant == (g.mul(c.element, c.element) == 0)
        assert c.projection_degree == 1
    assert model.swap_invariant_count == 1


def test_cover_realizability_is_odd_order():
    assert cover_realizable(build_group("cyclic", 3))
    assert cover_realizable(build_group("cyclic", 7))
    assert not cover_realizable(build_group("cyclic", 4))
    assert not cover_realizable(build_group("binary_dihedral", 2))
    assert not cover_realizable(build_group("binary_icosahedral"))


def test_hopf_of_cover_counts_involutions():
    assert hopf_of_cover(build_group("cyclic", 3)) == 0
    assert hopf_of_cover(build_group("cyclic", 6)) == 1
    assert hopf_of_cover(build_group("binary_icosahedral")) == 1


def test_nonrealizable_map_exists_dispatch():
    assert nonrealizable_map_exists(build_group("binary_dihedral", 2))
    assert not nonrealizable_map_exists(build_group("cyclic", 3))
    assert nonrealizable_map_exists(4)
    assert not nonrealizable_map_exists(9)
    assert not nonrealizable_map_exists("infinite")
    with pytest.raises(BadParameter):
        nonrealizable_map_exists("free product")
    with pytest.raises(BadParameter):
        nonrealizable_map_exists(0)
    for order in (2.5, True, F(7, 2)):
        with pytest.raises(BadParameter, match=r"^a group order must be a positive int"):
            nonrealizable_map_exists(order)


# ---------------------------------------------------------------- cross-check


def test_group_orders_stop_at_the_stated_limit():
    # the limit itself is built; one past it is refused, naming the limit
    assert build_group("cyclic", 300).order == 300
    for family, n in (("cyclic", 301), ("binary_dihedral", 76), ("cyclic", 10**12)):
        with pytest.raises(BadParameter, match="above the limit of 300$"):
            build_group(family, n)
    with pytest.raises(BadParameter, match="must be 1 to 300, not 301$"):
        dcover_consistency(301)


def test_dcover_reports_are_consistent():
    for d in range(2, 8):
        report = dcover_consistency(d)
        assert report.ok, d
        assert len(report.matched) == d - 1
        assert report.curve_hopf == report.model_hopf == (d - 1) % 2


def test_dcover_rejects_nonpositive_degree():
    with pytest.raises(BadParameter):
        dcover_consistency(0)


def test_dcover_matching_is_a_bijection():
    report = dcover_consistency(6)
    elements = [e for e, _ in report.matched]
    comps = [c for _, c in report.matched]
    assert sorted(elements) == list(range(1, 6))
    assert sorted(comps) == sorted(set(comps))
