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

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Iterator

from .errors import BadWeighting, CounterexampleFound, GraphMismatch
from .graphs import MarkedGraph, require_tree, require_trivalent
from .lattice import (
    LevelledWeighting,
    count_cox,
    count_points,
    _integer,
    _leg_vector,
    _level_points,
)


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
            "values": [str(v) for v in self.values],
        }


def hilbert_cox(graph: MarkedGraph, max_level: int) -> HilbertTable:
    """Dimensions of the level-graded pieces with legs summed out."""
    require_trivalent(graph)
    top = _integer(max_level, "max level")
    values = tuple(count_cox(graph, L) for L in range(top + 1))
    return HilbertTable(graph, "cox", None, values)


def hilbert_projective(
    graph: MarkedGraph, leaf_weights, level: int, max_degree: int
) -> HilbertTable:
    """Dimensions along the dilation (N*r, N*level), N = 0..max_degree."""
    require_trivalent(graph)
    r = _leg_vector(graph, leaf_weights)
    level = _integer(level, "level")
    values = tuple(
        count_points(graph, tuple(N * x for x in r), N * level)
        for N in range(_integer(max_degree, "max degree") + 1)
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
    is in one list and not the other.
    """
    require_trivalent(graph)
    omega = dualizing_weighting(graph)
    certificates = []
    for level in range(_integer(level_bound, "level bound") + 1):
        interior = list(_level_points(graph, None, level, _interior_triple))
        below = list(_all_points(graph, level - omega.level))
        shifted = [p + omega for p in below]
        if interior != shifted:
            raise CounterexampleFound(*_first_difference(interior, shifted))
        certificates += zip(interior, below)
    return True, tuple(certificates)


def _first_difference(interior: list, shifted: list) -> tuple:
    """(point, reason) for the first point of either lex-ordered list that
    the other lacks: at the first index where they differ, the lesser."""
    pairs = itertools.zip_longest(interior, shifted)
    w, s = next((w, s) for w, s in pairs if w != s)
    if s is None or (
        w is not None
        and w.edge_weights + w.leg_weights < s.edge_weights + s.leg_weights
    ):
        return w, "interior point is not a dualizing shift of the semigroup"
    return s, "dualizing shift of a semigroup point is not interior"


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
    """
    require_tree(tree)
    require_trivalent(tree)
    # each generator with its slot-value tuple (edges, then legs)
    generators = [
        (gen, gen.edge_weights + gen.leg_weights)
        for gen in _all_points(tree, 1)
    ]
    certificates = {}
    below: dict[tuple, tuple] = {}  # certified points of the level below
    for level in range(_integer(level_bound, "level bound") + 1):
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
