"""Graded structure of the weighting semigroups: Hilbert data, interior
points, Gorenstein and degree-1-generation checks, filtration functionals.

The semigroup of a trivalent graph consists of all admissible levelled
weightings, graded by level.  Interior points are those satisfying every
defining inequality strictly; the Gorenstein test verifies that they are
exactly the translates of the all-twos level-4 weighting by semigroup
elements.  Certificates returned by the checks are plain weighting pairs
that re-verify by addition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import CounterexampleFound, GraphMismatch
from .graphs import MarkedGraph, require_tree, require_trivalent
from .lattice import (
    LevelledWeighting,
    admissible_triple_level,
    count_cox,
    count_points,
    is_point,
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
    values = tuple(count_cox(graph, L) for L in range(max_level + 1))
    return HilbertTable(graph, "cox", None, values)


def hilbert_projective(
    graph: MarkedGraph, leaf_weights, level: int, max_degree: int
) -> HilbertTable:
    """Dimensions along the dilation (N*r, N*level), N = 0..max_degree."""
    require_trivalent(graph)
    r = _leg_vector(graph, leaf_weights)
    values = tuple(
        count_points(graph, tuple(N * x for x in r), N * level)
        for N in range(max_degree + 1)
    )
    return HilbertTable(graph, "projective", (r, int(level)), values)


# -- interior points and the Gorenstein test ------------------------------


def _strictly_interior(w: LevelledWeighting) -> bool:
    L = w.level
    for vid, _ in w.graph.vertices:
        a, b, c = w.vertex_slot_values(vid)
        if not admissible_triple_level(a, b, c, L):
            return False
        if a + b + c >= 2 * L:
            return False
        if not (a < b + c and b < a + c and c < a + b):
            return False
    return True


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
    from 0 to level_bound; order is (level, weights) lexicographic.
    """
    require_trivalent(graph)
    for level in range(level_bound + 1):
        for w in _all_points(graph, level):
            if _strictly_interior(w):
                yield w


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

    Both inclusions are checked: every interior point minus the all-twos
    level-4 weighting must be a semigroup point (the certificates), and
    every semigroup point of level <= bound-4 shifted by it must be
    interior.  Returns (True, certificates) where each certificate is
    (interior point, semigroup point it decomposes through); raises
    CounterexampleFound otherwise.
    """
    require_trivalent(graph)
    omega = dualizing_weighting(graph)
    certificates = []
    for w in interior_points(graph, level_bound):
        residual = LevelledWeighting(
            graph,
            tuple(x - 2 for x in w.edge_weights),
            tuple(x - 2 for x in w.leg_weights),
            w.level - 4,
        )
        if not is_point(graph, residual):
            raise CounterexampleFound(
                w, "interior point is not a dualizing shift of the semigroup"
            )
        certificates.append((w, residual))
    for level in range(max(level_bound - 4, -1) + 1):
        for p in _all_points(graph, level):
            shifted = p + omega
            if not _strictly_interior(shifted):
                raise CounterexampleFound(
                    shifted, "dualizing shift of a semigroup point not interior"
                )
    return True, tuple(certificates)


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
    generators = list(_all_points(tree, 1))
    certificates = {}
    below: dict[tuple, tuple] = {}  # certified points of the level below
    for level in range(level_bound + 1):
        table = {}
        for w in _all_points(tree, level):
            ew, lw = w.edge_weights, w.leg_weights
            parts = () if level == 0 else None
            for gen in generators:
                rest = (
                    tuple(x - y for x, y in zip(ew, gen.edge_weights)),
                    tuple(x - y for x, y in zip(lw, gen.leg_weights)),
                )
                if rest in below:
                    parts = (gen,) + below[rest]
                    break
            if parts is None:
                raise CounterexampleFound(
                    w, f"no decomposition into {level} level-1 points"
                )
            table[ew, lw] = certificates[w] = parts
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


def new_functional(graph: MarkedGraph, edge_values, leg_values) -> Functional:
    ev = tuple(Fraction(v) for v in edge_values)
    lv = tuple(Fraction(v) for v in leg_values)
    if len(ev) != len(graph.edges) or len(lv) != graph.n_legs:
        raise GraphMismatch(
            f"functional needs {len(graph.edges)} edge and {graph.n_legs} "
            f"leg values"
        )
    if any(v < 0 for v in ev + lv):
        raise GraphMismatch("functional values must be nonnegative")
    return Functional(graph, ev, lv)


def filtration_value(w: LevelledWeighting, theta: Functional) -> Fraction:
    """sum_e theta_e * w_e over all edges and legs; additive in w."""
    if theta.graph != w.graph:
        raise GraphMismatch("functional and weighting on different graphs")
    return sum(
        (t * x for t, x in zip(theta.edge_values, w.edge_weights)),
        start=Fraction(0),
    ) + sum(
        (t * x for t, x in zip(theta.leg_values, w.leg_weights)),
        start=Fraction(0),
    )
