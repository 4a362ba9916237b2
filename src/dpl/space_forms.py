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

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

from .circle_maps import _is_int, make_map, mod1

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

    Closure, identity, and the Latin-square property are checked in full;
    inverses follow, as each row then holds the identity.  Associativity is
    checked exactly, by Light's test: the elements g with (xg)y = x(gy) for
    all x and y are closed under products, so it holds everywhere once it
    holds for generators that reach every element by right multiplication.
    They are picked greedily, each the first element not yet reached; a
    group of order n needs at most log2(n) of them.
    """
    n = len(table)
    if n == 0:
        raise BadParameter("empty table")
    elements = set(range(n))
    for i, row in enumerate(table):
        if len(row) != n:
            raise BadParameter(f"row {i} has length {len(row)}, expected {n}")
        if not elements.issuperset(row):
            raise BadParameter(f"row {i} has entries outside 0..{n - 1}")
    for j in range(n):
        if table[0][j] != j:
            raise BadParameter("row 0 is not the identity")
        if table[j][0] != j:
            raise BadParameter("column 0 is not the identity")
    for i, (row, col) in enumerate(zip(table, zip(*table))):
        if len(set(row)) != n:
            raise BadParameter(f"row {i} is not a permutation")
        if len(set(col)) != n:
            raise BadParameter(f"column {i} is not a permutation")
        # row i is now a permutation of 0..n-1, so it holds 0: i has an inverse
    reached, gens = {0}, []
    for g in range(n):
        if g in reached:
            continue
        g_row = table[g]
        for x in range(n):
            x_row, xg_row = table[x], table[table[x][g]]
            for y in range(n):
                if xg_row[y] != x_row[g_row[y]]:
                    raise BadParameter(f"associativity fails at ({x}, {g}, {y})")
        gens.append(g)
        todo = list(reached)
        while todo:
            e_row = table[todo.pop()]
            for h in gens:
                if e_row[h] not in reached:
                    reached.add(e_row[h])
                    todo.append(e_row[h])


def from_table(
    table: Sequence[Sequence[int]], name: str = "custom"
) -> FiniteSubgroupS3:
    tbl = tuple(tuple(row) for row in table)
    bad = [v for row in tbl for v in row if not _is_int(v)]
    if bad:
        raise BadParameter(f"table entries must be ints, not {bad[0]!r}")
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


def _matrix_group_table(p: int, gens, order: int) -> tuple[tuple[int, ...], ...]:
    """The table of the subgroup of SL(2, p) generated by ``gens``.

    A matrix [[a, b], [c, d]] is the tuple (a, b, c, d); the identity is
    element 0 and the others follow in tuple order.  SL(2, p) is finite, so
    the closure ends; the group it reaches must have the stated order.
    """

    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return (
            (a * e + b * g) % p,
            (a * f + b * h) % p,
            (c * e + d * g) % p,
            (c * f + d * h) % p,
        )

    identity = (1, 0, 0, 1)
    elements, todo = {identity}, [identity]
    while todo:
        x = todo.pop()
        for g in gens:
            y = mul(x, g)
            if y not in elements:
                elements.add(y)
                todo.append(y)
    if len(elements) != order:
        raise AssertionError(
            f"generated group has order {len(elements)}, expected {order}"
        )
    ordered = sorted(elements, key=lambda e: (e != identity, e))
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


# The largest order build_group makes.  A group is built and checked as its
# full order x order table, growing as the order squared: at this order
# binary_dihedral(75) takes 0.07 s and cyclic(300) 0.05 s on 2 vCPU with
# CPython 3.11.7, and about 1 s under a line tracer.
_MAX_ORDER = 300


def build_group(family: str, n: int | None = None) -> FiniteSubgroupS3:
    """A catalog group as a verified table.

    ``cyclic`` and ``binary_dihedral`` take the parameter n (orders n and 4n,
    each at most 300); the three exceptional families take none.
    """
    if family not in CATALOG:
        raise BadParameter(f"unknown family {family!r}; choose from {CATALOG}")
    if family in ("cyclic", "binary_dihedral"):
        if not (_is_int(n) and n >= 1):
            raise BadParameter(f"{family} needs an int parameter n >= 1, not {n!r}")
        order = n if family == "cyclic" else 4 * n
        if order > _MAX_ORDER:
            raise BadParameter(
                f"{family}({n}) has order {order}, above the limit of {_MAX_ORDER}"
            )
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
    if not (_is_int(pi1) and pi1 >= 1):
        raise BadParameter(f"a group order must be a positive int, not {pi1!r}")
    return pi1 % 2 == 0


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
    the winding of every component equal to the model's unit degree.  So each
    component is read as the model row it should be (element, element of its
    swap image, swap-invariance, winding), and the sorted rows must equal the
    model's, whose elements 1 .. d-1 occur once each.  The degree is at most
    300, the largest cyclic group :func:`build_group` makes.
    """
    if not 1 <= d <= _MAX_ORDER:
        raise BadParameter(f"the covering degree must be 1 to {_MAX_ORDER}, not {d}")
    from .double_points import double_point_curve, hopf_invariant

    group = build_group("cyclic", d)
    model = cover_double_point_model(group)
    f = make_map([(0, 0)], d)
    curve = double_point_curve(f)
    elements = []
    for comp in curve.components:
        x, y = comp.segments[0].start
        j = mod1(y - x) * d
        # -1 matches no model row
        elements.append(int(j) if comp.kind == "circle" and j.denominator == 1 else -1)
    rows = [
        (e, elements[curve.swap_pairing[i]], curve.swap_invariant(i), comp.p1_degree)
        for i, (e, comp) in enumerate(zip(elements, curve.components))
    ]
    curve_hopf = hopf_invariant(f)
    model_hopf = hopf_of_cover(group)
    ok = sorted(rows) == [
        (c.element, c.partner, c.swap_invariant, c.projection_degree)
        for c in model.components
    ] and curve_hopf == model_hopf
    return DcoverReport(
        degree=d,
        matched=tuple(sorted((e, i) for i, e in enumerate(elements) if e >= 0)),
        curve_hopf=curve_hopf,
        model_hopf=model_hopf,
        ok=ok,
    )
