"""Lattice points of the fusion polytopes attached to a trivalent graph.

A weighting assigns a nonnegative integer to every edge and leg of a graph.
At a trivalent genus-0 vertex with slot values (a, b, c), admissibility at
level L means

    |a - b| <= c <= a + b,   a + b + c even,
    max(a, b, c) <= L,       a + b + c <= 2L.

A loop contributes its weight to both of its slots at the vertex.  The
number of admissible weightings with prescribed leg values is the sl2
Verlinde number of the graph's (genus, legs) signature; it does not depend
on which trivalent graph carries the computation.

Two independent counting routes are kept deliberately separate:
:func:`count_points` contracts 0/1 fusion tensors over the internal edges
(exact integer arithmetic on object arrays), while the literal oracle
:func:`_walk` visits every assignment of values to the slots and tests each
vertex.  Tests pit them against each other.  :func:`count_points_bruteforce`,
:func:`enumerate_points`, :func:`count_classical` and the semigroup checks
all walk through it, so the VK_BRUTE_LIMIT work cap lives in one place.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Iterator, Mapping

import numpy as np

from .errors import BadWorkLimit, GraphMismatch, InstanceTooLarge
from .graphs import MarkedGraph, require_tree, require_trivalent

DEFAULT_BRUTE_LIMIT = 10**8


def brute_limit() -> int:
    """Work cap for literal enumerations, from VK_BRUTE_LIMIT if set."""
    raw = os.environ.get("VK_BRUTE_LIMIT")
    if raw is None:
        return DEFAULT_BRUTE_LIMIT
    try:
        return int(raw)
    except ValueError:
        raise BadWorkLimit(
            f"VK_BRUTE_LIMIT={raw!r} is not an integer"
        ) from None


# -- admissibility --------------------------------------------------------


def admissible_triple(a: int, b: int, c: int) -> bool:
    """Classical admissibility: triangle inequalities and even sum."""
    if a < 0 or b < 0 or c < 0:
        return False
    return abs(a - b) <= c <= a + b and (a + b + c) % 2 == 0


def admissible_triple_level(a: int, b: int, c: int, level: int) -> bool:
    """Level-truncated admissibility (the quantum Clebsch-Gordan rule)."""
    return (
        admissible_triple(a, b, c)
        and max(a, b, c) <= level
        and a + b + c <= 2 * level
    )


# -- weightings ------------------------------------------------------------


@dataclass(frozen=True)
class LevelledWeighting:
    """Weights on every edge and leg of a graph, together with a level.

    edge_weights follow the graph's edge tuple order; leg_weights follow
    ascending label order (position i holds the weight of leg label i+1).
    """

    graph: MarkedGraph
    edge_weights: tuple[int, ...]
    leg_weights: tuple[int, ...]
    level: int

    def slot_value(self, slot) -> int:
        kind, idx = slot
        if kind == "e":
            return self.edge_weights[idx]
        return self.leg_weights[idx - 1]  # leg labels are 1-based

    def vertex_slot_values(self, vid: int) -> tuple[int, ...]:
        return tuple(self.slot_value(s) for s in self.graph.slots_at[vid])

    def __add__(self, other: "LevelledWeighting") -> "LevelledWeighting":
        if not isinstance(other, LevelledWeighting):
            return NotImplemented
        if other.graph != self.graph:
            raise GraphMismatch("cannot add weightings on different graphs")
        return LevelledWeighting(
            self.graph,
            tuple(x + y for x, y in zip(self.edge_weights, other.edge_weights)),
            tuple(x + y for x, y in zip(self.leg_weights, other.leg_weights)),
            self.level + other.level,
        )

    def scaled(self, k: int) -> "LevelledWeighting":
        return LevelledWeighting(
            self.graph,
            tuple(k * w for w in self.edge_weights),
            tuple(k * w for w in self.leg_weights),
            k * self.level,
        )

    def to_json(self) -> dict:
        return {
            "edges": {str(i): w for i, w in enumerate(self.edge_weights)},
            "legs": {
                str(lab): self.leg_weights[lab - 1]
                for _, lab in self.graph.legs
            },
            "level": self.level,
        }

    @staticmethod
    def from_json(graph: MarkedGraph, data: dict | str) -> "LevelledWeighting":
        if isinstance(data, str):
            data = json.loads(data)
        edges = tuple(
            int(data["edges"][str(i)]) for i in range(len(graph.edges))
        )
        legs = tuple(
            int(data["legs"][str(lab)]) for _, lab in graph.legs
        )
        return LevelledWeighting(graph, edges, legs, int(data["level"]))


def _leg_vector(graph: MarkedGraph, leaf_weights) -> tuple[int, ...]:
    """Normalize leaf weights to a tuple in leg label order."""
    n = graph.n_legs
    if leaf_weights is None:
        leaf_weights = ()
    if isinstance(leaf_weights, Mapping):
        if set(leaf_weights) != {lab for _, lab in graph.legs}:
            raise GraphMismatch(
                f"leaf weights keyed {sorted(leaf_weights)} but graph has "
                f"labels 1..{n}"
            )
        return tuple(int(leaf_weights[lab]) for _, lab in graph.legs)
    vec = tuple(int(w) for w in leaf_weights)
    if len(vec) != n:
        raise GraphMismatch(
            f"got {len(vec)} leaf weights for a graph with {n} legs"
        )
    return vec


def is_point(graph: MarkedGraph, w: LevelledWeighting) -> bool:
    """Does the weighting satisfy every vertex condition at its level?"""
    require_trivalent(graph)
    if w.graph != graph:
        raise GraphMismatch("weighting lives on a different graph")
    L = w.level
    if L < 0:
        return False
    if any(x < 0 or x > L for x in w.edge_weights + w.leg_weights):
        return False
    return all(
        admissible_triple_level(*w.vertex_slot_values(vid), L)
        for vid, _ in graph.vertices
    )


# -- tensor-contraction counting ------------------------------------------


@lru_cache(maxsize=None)
def _fusion_tensor(level: int):
    """0/1 tensor over (a, b, c) in 0..level, Python ints inside."""
    r = np.arange(level + 1)
    a = r[:, None, None]
    b = r[None, :, None]
    c = r[None, None, :]
    ok = (
        (np.abs(a - b) <= c)
        & (c <= a + b)
        & ((a + b + c) % 2 == 0)
        & (a + b + c <= 2 * level)
    )
    return ok.astype(object)


def _vertex_factor(graph, vid, level, legs, base):
    """Index the fusion tensor down to this vertex's open edge axes.

    legs: tuple of fixed leg values, or None to leave legs as open axes
    (used for the coordinate-ring grading where legs are summed too).
    Returns (axis_labels, array); a loop's two slots share one axis, so
    the diagonal comes out automatically.
    """
    slots = graph.slots_at[vid]
    axes: list = []
    for s in slots:
        if s[0] == "e":
            if s not in axes:
                axes.append(s)
        elif legs is None:
            axes.append(s)
    indexers = []
    for s in slots:
        if s[0] == "l" and legs is not None:
            indexers.append(legs[s[1] - 1])
            continue
        pos = axes.index(s)
        shape = [1] * len(axes)
        shape[pos] = level + 1
        indexers.append(np.arange(level + 1).reshape(shape))
    return axes, base[tuple(indexers)]


def _contract_all(graph: MarkedGraph, level: int, legs) -> int:
    """Sum the product of vertex fusion tensors over all open axes."""
    base = _fusion_tensor(level)
    factors = []
    scalar = 1
    for vid, _ in graph.vertices:
        axes, arr = _vertex_factor(graph, vid, level, legs, base)
        factors.append((axes, arr))

    def axis_count(label):
        return sum(label in ax for ax, _ in factors)

    # sum out axes appearing in exactly one factor (loops, open legs)
    for k, (axes, arr) in enumerate(factors):
        private = [a for a in axes if axis_count(a) == 1]
        if private:
            pos = tuple(axes.index(a) for a in private)
            arr = arr.sum(axis=pos)
            axes = [a for a in axes if a not in private]
            factors[k] = (axes, arr)
    live = []
    for axes, arr in factors:
        if not axes:
            scalar *= arr.item() if isinstance(arr, np.ndarray) else arr
        else:
            live.append((axes, arr))

    while len(live) > 1:
        best = None
        for i in range(len(live)):
            for j in range(i + 1, len(live)):
                shared = [a for a in live[i][0] if a in live[j][0]]
                if not shared:
                    continue
                out = len(live[i][0]) + len(live[j][0]) - 2 * len(shared)
                cost = (level + 1) ** out
                if best is None or cost < best[0]:
                    best = (cost, i, j, shared)
        if best is None:
            raise AssertionError("tensor network disconnected")
        _, i, j, shared = best
        ai, arri = live[i]
        aj, arrj = live[j]
        res = np.tensordot(
            arri,
            arrj,
            axes=(
                [ai.index(a) for a in shared],
                [aj.index(a) for a in shared],
            ),
        )
        axes = [a for a in ai if a not in shared] + [
            a for a in aj if a not in shared
        ]
        live = [f for k, f in enumerate(live) if k not in (i, j)]
        if axes:
            live.append((axes, res))
        else:
            scalar *= res.item() if isinstance(res, np.ndarray) else res
    return int(scalar)


def count_points(graph: MarkedGraph, leaf_weights, level: int) -> int:
    """Number of admissible weightings with the given leg values.

    Exact tensor contraction over the internal edges; arbitrary precision.
    Leg values outside 0..level make the count 0.
    """
    require_trivalent(graph)
    legs = _leg_vector(graph, leaf_weights)
    if level < 0:
        return 0
    if any(w < 0 or w > level for w in legs):
        return 0
    return _contract_all(graph, level, legs)


# -- the literal oracle ----------------------------------------------------


def _walk(graph: MarkedGraph, legs, bound: int, admissible) -> Iterator[tuple]:
    """Every weighting with values in 0..bound that is admissible at each
    vertex, as slot-value tuples (edges, then legs), in lexicographic order.

    legs: fixed leg values in label order, or None to walk the legs too.
    admissible(a, b, c) is the vertex rule.  Nothing is yielded when a fixed
    leg value lies outside 0..bound.  Raises InstanceTooLarge when the
    assignment count exceeds the VK_BRUTE_LIMIT cap.  Independent of the
    tensor route on purpose.
    """
    if bound < 0 or legs is not None and not all(0 <= w <= bound for w in legs):
        return
    ne = len(graph.edges)
    width = ne + graph.n_legs if legs is None else ne
    total = (bound + 1) ** width
    limit = brute_limit()
    if total > limit:
        raise InstanceTooLarge(
            f"{total} assignments exceeds the work cap {limit}"
        )
    # slot positions in a point: edge i at i, leg label l at ne + l - 1
    stars = [
        tuple(i if kind == "e" else ne + i - 1 for kind, i in slots)
        for slots in graph.slots_at.values()
    ]
    axes = [range(bound + 1)] * width + [(w,) for w in legs or ()]
    for point in itertools.product(*axes):
        for i, j, k in stars:
            if not admissible(point[i], point[j], point[k]):
                break
        else:
            yield point


def _level_points(
    graph: MarkedGraph, legs, level: int
) -> Iterator[LevelledWeighting]:
    """The level-truncated walk, as weightings."""
    ne = len(graph.edges)
    rule = partial(admissible_triple_level, level=level)
    for point in _walk(graph, legs, level, rule):
        yield LevelledWeighting(graph, point[:ne], point[ne:], level)


def count_points_bruteforce(graph: MarkedGraph, leaf_weights, level: int) -> int:
    """Literal enumeration of all (level+1)^E internal assignments.

    Independent of the tensor route on purpose.  Raises InstanceTooLarge
    when the assignment count exceeds the VK_BRUTE_LIMIT cap.
    """
    require_trivalent(graph)
    legs = _leg_vector(graph, leaf_weights)
    rule = partial(admissible_triple_level, level=level)
    return sum(1 for _ in _walk(graph, legs, level, rule))


def enumerate_points(
    graph: MarkedGraph, leaf_weights, level: int
) -> Iterator[LevelledWeighting]:
    """Yield admissible weightings in lexicographic edge-weight order."""
    require_trivalent(graph)
    yield from _level_points(graph, _leg_vector(graph, leaf_weights), level)


def count_classical(tree: MarkedGraph, leaf_weights) -> int:
    """Admissible weightings of a trivalent tree with no level truncation.

    Finite because every internal weight is forced below the sum of the
    leaf weights by the triangle inequalities.  Literal enumeration,
    independent of the level-truncated routes.
    """
    require_tree(tree)
    require_trivalent(tree)
    legs = _leg_vector(tree, leaf_weights)
    return sum(1 for _ in _walk(tree, legs, sum(legs), admissible_triple))


def count_cox(graph: MarkedGraph, level: int) -> int:
    """Admissible weightings at the level with legs free as well.

    Summing leg values over 0..level turns the count into the dimension of
    the degree-level piece of the total coordinate ring grading.
    """
    require_trivalent(graph)
    if level < 0:
        return 0
    return _contract_all(graph, level, None)
