"""Finite rotation-like groups and the double-point model of their covers.

The catalog holds exactly the finite groups that act freely and orthogonally
on the 3-sphere: cyclic groups, the binary dihedral series, and the three
exceptional binary polyhedral groups.  Each is produced as an explicit
multiplication table; the three exceptional ones are 2x2 matrix groups over
prime fields: SL(2, 3), SL(2, 5) and the preimage of the octahedral group S4
in SL(2, 7), of orders 24, 120 and 48.

For the covering projection of the corresponding quotient, the double points
come in one family per non-identity group element g, with the coordinate
swap sending the g-family to the g^{-1}-family.  That abstract model is what
:func:`cover_double_point_model` returns; its parity bookkeeping matches the
curve computed for honest cyclic covering maps of the circle
(:func:`dcover_consistency`), which is the low-dimensional case one can
compute directly.  Families outside the catalog are refused with
:class:`BadParameter` rather than approximated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

from .circle_maps import make_map, mod1
from .double_points import double_point_curve, hopf_invariant

__all__ = [
    "BadParameter",
    "FiniteSubgroupS3",
    "CATALOG",
    "build_group",
    "validate_table",
    "from_table",
    "involution_count",
    "CoverComponent",
    "CoverDoublePointModel",
    "cover_double_point_model",
    "cover_realizable",
    "hopf_of_cover",
    "nonrealizable_map_exists",
    "DcoverReport",
    "dcover_consistency",
]


class BadParameter(ValueError):
    """The requested group family or parameter does not exist."""


CATALOG = (
    "cyclic",
    "binary_dihedral",
    "binary_tetrahedral",
    "binary_octahedral",
    "binary_icosahedral",
)


@dataclass(frozen=True)
class FiniteSubgroupS3:
    """A finite group as a verified multiplication table; identity is 0."""

    name: str
    order: int
    table: tuple[tuple[int, ...], ...]

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inverse(self, i: int) -> int:
        return self.table[i].index(0)

    def element_order(self, i: int) -> int:
        n, cur = 1, i
        while cur != 0:
            cur = self.table[cur][i]
            n += 1
        return n

    @cached_property
    def involutions(self) -> tuple[int, ...]:
        return tuple(
            i for i in range(1, self.order) if self.table[i][i] == 0
        )


def validate_table(table: Sequence[Sequence[int]]) -> None:
    """Check that the table is a group table with identity 0.

    Closure, identity, inverses, and the Latin-square property are checked in
    full.  Associativity is checked on all triples up to order 48 and on ten
    thousand seeded random triples beyond that.
    """
    n = len(table)
    if n == 0:
        raise BadParameter("empty table")
    for i, row in enumerate(table):
        if len(row) != n:
            raise BadParameter(f"row {i} has length {len(row)}, expected {n}")
        if any(not (0 <= v < n) for v in row):
            raise BadParameter(f"row {i} has entries outside 0..{n - 1}")
    for j in range(n):
        if table[0][j] != j:
            raise BadParameter("row 0 is not the identity")
        if table[j][0] != j:
            raise BadParameter("column 0 is not the identity")
    for i in range(n):
        if len(set(table[i])) != n:
            raise BadParameter(f"row {i} is not a permutation")
        col = [table[k][i] for k in range(n)]
        if len(set(col)) != n:
            raise BadParameter(f"column {i} is not a permutation")
        if 0 not in table[i]:
            raise BadParameter(f"element {i} has no inverse")
    if n <= 48:
        triples = (
            (a, b, c) for a in range(n) for b in range(n) for c in range(n)
        )
    else:
        rng = random.Random(0xD1CE)
        triples = (
            (rng.randrange(n), rng.randrange(n), rng.randrange(n))
            for _ in range(10_000)
        )
    for a, b, c in triples:
        if table[table[a][b]][c] != table[a][table[b][c]]:
            raise BadParameter(f"associativity fails at ({a}, {b}, {c})")


def from_table(
    table: Sequence[Sequence[int]], name: str = "custom"
) -> FiniteSubgroupS3:
    tbl = tuple(tuple(int(v) for v in row) for row in table)
    validate_table(tbl)
    return FiniteSubgroupS3(name=name, order=len(tbl), table=tbl)


# --------------------------------------------------------------------------
# catalog constructions


def _cyclic(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def _binary_dihedral(n: int) -> tuple[tuple[int, ...], ...]:
    # Elements: a^k -> k (k < 2n) and b a^k -> 2n + k, with b^2 = a^n and
    # a^k b = b a^{-k}.
    m = 2 * n

    def mul(i: int, j: int) -> int:
        ti, ki = divmod(i, m)
        tj, kj = divmod(j, m)
        if ti == 0 and tj == 0:
            return (ki + kj) % m
        if ti == 0 and tj == 1:
            return m + (kj - ki) % m
        if ti == 1 and tj == 0:
            return m + (ki + kj) % m
        return (n - ki + kj) % m

    return tuple(tuple(mul(i, j) for j in range(2 * m)) for i in range(2 * m))


def _matmul_modp(p: int):
    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return (
            (a * e + b * g) % p,
            (a * f + b * h) % p,
            (c * e + d * g) % p,
            (c * f + d * h) % p,
        )

    return mul


def _mulclose(generators, mul, identity, expected_order: int):
    elements = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for x in frontier:
            for g in generators:
                y = mul(x, g)
                if y not in elements:
                    elements.add(y)
                    fresh.append(y)
        frontier = fresh
        if len(elements) > expected_order:
            raise AssertionError("generated group exceeds the expected order")
    if len(elements) != expected_order:
        raise AssertionError(
            f"generated group has order {len(elements)}, expected {expected_order}"
        )
    return elements


def _matrix_group_table(p: int, gens, order: int) -> tuple[tuple[int, ...], ...]:
    """The table of the subgroup of SL(2, p) generated by ``gens``.

    A matrix [[a, b], [c, d]] is the tuple (a, b, c, d); the identity is
    element 0 and the others follow in tuple order.
    """
    mul = _matmul_modp(p)
    identity = (1, 0, 0, 1)
    ordered = sorted(
        _mulclose(gens, mul, identity, order), key=lambda e: (e != identity, e)
    )
    index = {e: i for i, e in enumerate(ordered)}
    return tuple(tuple(index[mul(x, y)] for y in ordered) for x in ordered)


# prime, generators and order of each exceptional family: SL(2, 3), SL(2, 5),
# and in SL(2, 7) an element of order 8 with one of order 4 whose product
# has order 6, which generate the preimage of S4
_EXCEPTIONAL = {
    "binary_tetrahedral": (3, [(1, 1, 0, 1), (0, 2, 1, 0)], 24),
    "binary_octahedral": (7, [(0, 1, 6, 3), (0, 2, 3, 0)], 48),
    "binary_icosahedral": (5, [(1, 1, 0, 1), (0, 4, 1, 0)], 120),
}


def build_group(family: str, n: int | None = None) -> FiniteSubgroupS3:
    """A catalog group as a verified table.

    ``cyclic`` and ``binary_dihedral`` take the parameter n (orders n and 4n);
    the three exceptional families take none.
    """
    if family not in CATALOG:
        raise BadParameter(f"unknown family {family!r}; choose from {CATALOG}")
    if family in ("cyclic", "binary_dihedral"):
        if n is None or n < 1:
            raise BadParameter(f"{family} needs a parameter n >= 1")
        if family == "cyclic":
            return from_table(_cyclic(n), name=f"cyclic({n})")
        return from_table(_binary_dihedral(n), name=f"binary_dihedral({n})")
    if n is not None:
        raise BadParameter(f"{family} takes no parameter")
    return from_table(_matrix_group_table(*_EXCEPTIONAL[family]), name=family)


def involution_count(group: FiniteSubgroupS3) -> int:
    return len(group.involutions)


# --------------------------------------------------------------------------
# the abstract double-point model of a covering


@dataclass(frozen=True)
class CoverComponent:
    """The double-point family {(x, g x)} of one non-identity deck element."""

    element: int
    partner: int  # the family of the inverse element, = the swap image
    swap_invariant: bool
    projection_degree: int


@dataclass(frozen=True)
class CoverDoublePointModel:
    group: FiniteSubgroupS3
    components: tuple[CoverComponent, ...]

    @property
    def swap_invariant_count(self) -> int:
        return sum(1 for c in self.components if c.swap_invariant)


def cover_double_point_model(group: FiniteSubgroupS3) -> CoverDoublePointModel:
    comps = tuple(
        CoverComponent(
            element=g,
            partner=group.inverse(g),
            swap_invariant=group.mul(g, g) == 0,
            projection_degree=1,
        )
        for g in range(1, group.order)
    )
    return CoverDoublePointModel(group=group, components=comps)


def cover_realizable(group: FiniteSubgroupS3) -> bool:
    """Whether the covering projection passes the parity criterion.

    Each swap-invariant family projects with odd (unit) degree, so the
    criterion passes exactly when there is none - that is, when the group
    has no involution, which for these groups means odd order.
    """
    return involution_count(group) == 0


def hopf_of_cover(group: FiniteSubgroupS3) -> int:
    """Parity of the swap-invariant double-point families of the cover."""
    return involution_count(group) % 2


def nonrealizable_map_exists(pi1: Union[FiniteSubgroupS3, int, str]) -> bool:
    """Whether the fundamental group admits a non-realizable covering map.

    Accepts a catalog group, a finite order, or the string ``"infinite"``.
    The answer is positive exactly for finite groups of even order.
    """
    if isinstance(pi1, str):
        if pi1.lower() == "infinite":
            return False
        raise BadParameter(f"expected a group, an order, or 'infinite': {pi1!r}")
    if isinstance(pi1, FiniteSubgroupS3):
        return pi1.order % 2 == 0
    order = int(pi1)
    if order < 1:
        raise BadParameter("a group order must be positive")
    return order % 2 == 0


# --------------------------------------------------------------------------
# cross-check against honest circle covers


@dataclass(frozen=True)
class DcoverReport:
    degree: int
    matched: tuple[tuple[int, int], ...]  # (group element, curve component)
    curve_hopf: int
    model_hopf: int
    ok: bool


def dcover_consistency(d: int) -> DcoverReport:
    """Match the d-fold circle cover's curve to the cyclic group model.

    The curve component whose points are the pairs (x, x + j/d) corresponds
    to the deck element j; the correspondence must send the coordinate swap
    to group inversion, swap-invariant components to involutions, and keep
    the winding of every component equal to the model's unit degree.
    """
    if d < 1:
        raise BadParameter("the covering degree must be positive")
    group = build_group("cyclic", d)
    model = cover_double_point_model(group)
    f = make_map([(0, 0)], d)
    curve = double_point_curve(f)
    ok = len(curve.components) == len(model.components)
    matched = []
    by_element: dict[int, int] = {}
    for comp in curve.components:
        start = comp.segments[0].start
        offset = mod1(start[1] - start[0])
        j = offset * d
        if j.denominator != 1 or comp.kind != "circle":
            ok = False
            continue
        by_element[int(j)] = comp.index
        matched.append((int(j), comp.index))
    for mc in model.components:
        idx = by_element.get(mc.element)
        if idx is None:
            ok = False
            continue
        comp = curve.components[idx]
        if comp.p1_degree != mc.projection_degree:
            ok = False
        if curve.swap_pairing[idx] != by_element.get(mc.partner):
            ok = False
        if curve.swap_invariant(idx) != mc.swap_invariant:
            ok = False
    curve_hopf = hopf_invariant(f)
    model_hopf = hopf_of_cover(group)
    if curve_hopf != model_hopf:
        ok = False
    return DcoverReport(
        degree=d,
        matched=tuple(sorted(matched)),
        curve_hopf=curve_hopf,
        model_hopf=model_hopf,
        ok=ok,
    )
