"""Graded structure of the weighting semigroups: Hilbert data, interior
points, Gorenstein and degree-1-generation checks, filtration functionals.

The semigroup of a trivalent graph consists of all admissible levelled
weightings, graded by level.  Interior points are those satisfying every
defining inequality strictly; the literal walk finds them by testing the
strict vertex rule, just as it finds semigroup points by testing the plain
one.  The Gorenstein test compares, one level at a time, the interior
points with the semigroup points four levels lower shifted by the
all-twos level-4 weighting: the two lexicographic lists must be equal.
Certificates returned by the checks are plain weighting pairs that
re-verify by addition.
"""

from __future__ import annotations

__all__ = [
    "Functional", "HilbertTable", "degree_one_generation_check",
    "dualizing_weighting", "filtration_value", "gorenstein_check",
    "hilbert_cox", "hilbert_projective", "interior_points", "new_functional",
]

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Callable, Iterator

from .errors import (
    BadWeighting,
    CounterexampleFound,
    GraphMismatch,
    _check_cap,
    _decimal,
)
from .graphs import MarkedGraph, _integer, require_tree, require_trivalent
from .lattice import (
    LevelledWeighting,
    count_cox,
    count_points,
    _check_walks,
    _leg_vector,
    _level_points,
)

# Points a semigroup check may keep, judged before the first walk on the
# sum of its walks' a-priori assignments, which bounds them.  A degree-1
# certificate holds one generator per level, so its memory grows faster
# than the points: on a trinode, degree 1 to bound 65 peaks at 565 MB and
# Gorenstein to bound 56 at 151 MB, the largest bounds it admits.
_POINT_CAP = 5 * 10**6


# -- Hilbert tables --------------------------------------------------------


@dataclass(frozen=True)
class HilbertTable:
    """Sequence of graded dimensions, degree 0 first."""

    graph: MarkedGraph
    grading: str  # "cox" | "projective"
    base: tuple | None  # (leaf weights, level) for the projective grading
    values: tuple[int, ...]

    def to_json(self) -> dict:
        base: dict = {}
        if self.base is not None:
            r, level = self.base
            base = {"weights": list(r), "level": level}
        return {
            "graph": self.graph.canonical_hex(),
            "grading": self.grading,
            "base": base,
            "values": [_decimal(v) for v in self.values],
        }


def _table(entry: Callable[[int], int], top: int) -> tuple[int, ...]:
    """entry(0), ..., entry(top).  InstanceTooLarge, before any entry is
    made, when they pass _LEVEL_CAP; entry(top), the costliest, is made
    first, so a table the tensor cap cannot finish is refused before any
    other entry is built."""
    from .verlinde import _LEVEL_CAP  # as it stands on the call

    _check_cap(top + 1, _LEVEL_CAP, "table entries")
    if top < 0:
        return ()
    last = entry(top)
    return tuple(entry(k) for k in range(top)) + (last,)


def hilbert_cox(graph: MarkedGraph, max_level: int) -> HilbertTable:
    """Dimensions of the level-graded pieces with legs summed out."""
    require_trivalent(graph)
    top = _integer(max_level, "max level")
    values = _table(lambda L: count_cox(graph, L), top)
    return HilbertTable(graph, "cox", None, values)


def hilbert_projective(
    graph: MarkedGraph, leaf_weights, level: int, max_degree: int
) -> HilbertTable:
    """Dimensions along the dilation (N*r, N*level), N = 0..max_degree."""
    require_trivalent(graph)
    r = _leg_vector(graph, leaf_weights)
    level = _integer(level, "level")
    values = _table(
        lambda N: count_points(graph, tuple(N * x for x in r), N * level),
        _integer(max_degree, "max degree"),
    )
    return HilbertTable(graph, "projective", (r, level), values)


# -- interior points and the Gorenstein test ------------------------------


def _interior_triple(a: int, b: int, c: int, level: int) -> bool:
    """Admissibility with every inequality strict (see interior_points)."""
    s = a + b + c  # 2 max < s is the three strict triangle inequalities
    return 2 * max(a, b, c) < s < 2 * level and s % 2 == 0


def _all_points(graph: MarkedGraph, level: int) -> Iterator[LevelledWeighting]:
    """Every admissible weighting at the level, legs free, lex order."""
    return _level_points(graph, None, level)


def interior_points(
    graph: MarkedGraph, level_bound: int
) -> Iterator[LevelledWeighting]:
    """Admissible weightings with every defining inequality strict.

    Strictness means: at each vertex the three triangle inequalities and
    the level inequality (slot sum < 2L) hold strictly.  Every weight then
    satisfies 0 < w < L as well: the strict triangle inequalities give
    w > |b - c| >= 0, and 2w < a + b + c < 2L gives w < L.  Levels run
    from 0 to level_bound; order is (level, weights) lexicographic.  The
    graph and bound are checked on the call; the walks, and their work cap,
    run as the result is iterated.
    """
    require_trivalent(graph)
    levels = range(_integer(level_bound, "level bound") + 1)
    return itertools.chain.from_iterable(
        _level_points(graph, None, level, _interior_triple) for level in levels
    )


def dualizing_weighting(graph: MarkedGraph) -> LevelledWeighting:
    """All edges and legs weighted 2 at level 4: the minimal interior point."""
    return LevelledWeighting(
        graph,
        (2,) * len(graph.edges),
        (2,) * graph.n_legs,
        4,
    )


def gorenstein_check(
    graph: MarkedGraph, level_bound: int
) -> tuple[bool, tuple[tuple[LevelledWeighting, LevelledWeighting], ...]]:
    """Interior points up to the bound are exactly the dualizing shifts.

    Level by level, the strict walk's interior points must equal the
    semigroup points four levels lower, each shifted by the all-twos
    level-4 weighting.  Both lists are in lexicographic order and
    the shift keeps that order, so one list comparison checks both
    inclusions.  Returns (True, certificates) where each certificate is
    (interior point, semigroup point it decomposes through), in the order
    of interior_points; raises CounterexampleFound on the first point that
    is in one list and not the other.  InstanceTooLarge, before the first
    walk, when all the walks together pass the walk's work cap, or the
    points they may keep pass _POINT_CAP.
    """
    require_trivalent(graph)
    omega = dualizing_weighting(graph)
    levels = range(_integer(level_bound, "level bound") + 1)
    walks = _check_walks(len(graph.edges) + graph.n_legs, (
        b for level in levels for b in (level, level - omega.level)))
    _check_cap(walks, _POINT_CAP, "assignments bounding the points kept",
               name="point cap")
    certificates = []
    for level in levels:
        interior = list(_level_points(graph, None, level, _interior_triple))
        below = list(_all_points(graph, level - omega.level))
        shifted = [p + omega for p in below]
        if interior != shifted:
            raise CounterexampleFound(*_first_difference(interior, shifted))
        certificates += zip(interior, below)
    return True, tuple(certificates)


def _first_difference(interior: list, shifted: list) -> tuple:
    """(point, reason) for the least point, by slot tuple, that is in one
    list and not the other.  Both lists are duplicate-free and sorted by
    slot tuple, so it is the lesser point where they first differ."""
    inside = set(interior)
    point = min(inside.symmetric_difference(shifted),
                key=lambda p: p.edge_weights + p.leg_weights)
    if point in inside:
        return point, ("interior point is not a dualizing shift of the "
                       "semigroup")
    return point, "dualizing shift of a semigroup point is not interior"


# -- degree-1 generation ----------------------------------------------------


def degree_one_generation_check(
    tree: MarkedGraph, level_bound: int
) -> tuple[bool, dict[LevelledWeighting, tuple[LevelledWeighting, ...]]]:
    """Every point of level l <= level_bound is a sum of l level-1 points.

    Trees only (this is the genus-0 generation statement).  Returns
    (True, certificates) mapping each point to a decomposition that
    re-verifies by addition; raises CounterexampleFound on the first point
    with no decomposition.  The table is built level by level: a level-l
    point's certificate is the first generator whose difference is a
    certified level-(l-1) point, followed by that point's certificate.
    InstanceTooLarge, before the first walk, when the generator walk and
    every level's walk together pass the walk's work cap, or the points
    they may keep pass _POINT_CAP.
    """
    require_tree(tree)
    require_trivalent(tree)
    levels = range(_integer(level_bound, "level bound") + 1)
    walks = _check_walks(len(tree.edges) + tree.n_legs,
                         itertools.chain((1,), levels))
    _check_cap(walks, _POINT_CAP, "assignments bounding the points kept",
               name="point cap")
    # each generator with its slot-value tuple (edges, then legs)
    generators = [
        (gen, gen.edge_weights + gen.leg_weights)
        for gen in _all_points(tree, 1)
    ]
    certificates = {}
    below: dict[tuple, tuple] = {}  # certified points of the level below
    for level in levels:
        table = {}
        for w in _all_points(tree, level):
            slots = w.edge_weights + w.leg_weights
            parts = () if level == 0 else None
            for gen, step in generators:
                rest = tuple(map(sub, slots, step))
                if rest in below:
                    parts = (gen,) + below[rest]
                    break
            if parts is None:
                raise CounterexampleFound(
                    w, f"no decomposition into {level} level-1 points"
                )
            table[slots] = certificates[w] = parts
        below = table
    return True, certificates


# -- filtration functionals -------------------------------------------------


@dataclass(frozen=True)
class Functional:
    """Nonnegative rational values on every edge and leg of a graph.

    Pairing a functional with a weighting gives the graded-valuation value
    sum_e theta_e * w_e.  The strictness flag reports whether every
    internal edge carries a positive value.
    """

    graph: MarkedGraph
    edge_values: tuple[Fraction, ...]
    leg_values: tuple[Fraction, ...]

    @property
    def is_strict(self) -> bool:
        return all(v > 0 for v in self.edge_values)


def _rational(value) -> Fraction:
    if isinstance(value, (bool, str)):
        raise TypeError(f"{value!r} is not a rational number")
    return Fraction(value)


def new_functional(graph: MarkedGraph, edge_values, leg_values) -> Functional:
    """Read the values as Fractions: BadWeighting for a value that is not a
    rational number (a boolean, say) or is negative, GraphMismatch for the
    wrong count."""
    try:
        ev = tuple(_rational(v) for v in edge_values)
        lv = tuple(_rational(v) for v in leg_values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadWeighting(f"functional value: {exc}") from None
    if len(ev) != len(graph.edges) or len(lv) != graph.n_legs:
        raise GraphMismatch(
            f"functional needs {len(graph.edges)} edge and {graph.n_legs} "
            f"leg values"
        )
    if any(v < 0 for v in ev + lv):
        raise BadWeighting("functional values must be nonnegative")
    return Functional(graph, ev, lv)


def filtration_value(w: LevelledWeighting, theta: Functional) -> Fraction:
    """sum_e theta_e * w_e over all edges and legs; additive in w.
    GraphMismatch unless w weights each edge and leg of theta's graph."""
    w._require_on(theta.graph)
    pairs = zip(
        theta.edge_values + theta.leg_values, w.edge_weights + w.leg_weights
    )
    return sum((t * x for t, x in pairs), start=Fraction(0))
