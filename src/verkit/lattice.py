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
along a plan compiled once per graph, while the literal oracle
:func:`_walk` assigns values to the slots in order and tests each vertex as
soon as its last slot is set.  Every point it yields has passed every
vertex's rule; it skips only the extensions of a prefix that already fails
a vertex.  Tests pit the two routes against each other.
:func:`count_points_bruteforce`, :func:`enumerate_points`,
:func:`count_classical` and the semigroup checks all walk through it, so
the VK_BRUTE_LIMIT work cap lives in one place.

The contraction is exact, and each step runs in the narrowest dtype that
keeps it so.  Every entry of a step's result, and every partial sum inside
its tensordot, counts assignments to the k slots summed inside that result
(its shared edges and loops, and its legs when they are summed too), so it
is at most (level + 1) ** k.  A step runs in float64, an exact BLAS product
of integers, while that bound is below 2^53; in int64 while it is below
2^63; and on object arrays of Python ints past that.  Operands are only ever
widened, float64 to int64 to object, so no float reaches an object array.
"""

from __future__ import annotations

import itertools
import json
import os
import weakref
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Iterator

import numpy as np

from .errors import BadWeighting, BadWorkLimit, GraphMismatch, InstanceTooLarge
from .graphs import MarkedGraph, require_tree, require_trivalent
from .graphs import _integer as _read_integer

DEFAULT_BRUTE_LIMIT = 10**8
# Entries the tensor route may hold in one array: 512 MiB of float64.
_TENSOR_CAP = 2**26


def brute_limit() -> int:
    """Work cap for literal enumerations: VK_BRUTE_LIMIT if set, int >= 0."""
    raw = os.environ.get("VK_BRUTE_LIMIT")
    if raw is None:
        return DEFAULT_BRUTE_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        limit = -1  # refused below, with the same message
    if limit < 0:
        raise BadWorkLimit(f"VK_BRUTE_LIMIT={raw!r} is not an integer >= 0")
    return limit


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
    ascending label order (position i holds the weight of leg label i+1),
    so edge_weights + leg_weights is indexed by slot.
    """

    graph: MarkedGraph
    edge_weights: tuple[int, ...]
    leg_weights: tuple[int, ...]
    level: int

    def __add__(self, other: "LevelledWeighting") -> "LevelledWeighting":
        if not isinstance(other, LevelledWeighting):
            return NotImplemented
        for w in (self, other):
            w._require_on(self.graph)
        return LevelledWeighting(
            self.graph,
            tuple(x + y for x, y in zip(self.edge_weights, other.edge_weights)),
            tuple(x + y for x, y in zip(self.leg_weights, other.leg_weights)),
            self.level + other.level,
        )

    def _require_on(self, graph: MarkedGraph) -> None:
        """GraphMismatch unless this weights each edge and leg of graph."""
        if self.graph != graph:
            raise GraphMismatch("weighting lives on a different graph")
        shape = len(graph.edges), graph.n_legs
        if (len(self.edge_weights), len(self.leg_weights)) != shape:
            raise GraphMismatch("weighting has the wrong number of weights")

    def scaled(self, k: int) -> "LevelledWeighting":
        """Every weight and the level times k; BadWeighting unless k is an
        integer."""
        k = _integer(k, "scale")
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
        """Read the document to_json writes, as a dict or JSON text.

        Raises BadWeighting if it is not JSON of that shape, lacks an edge,
        leg or level value, or holds one that is not an integer (a float or
        a boolean).
        """
        try:
            if isinstance(data, str):
                data = json.loads(data)
            edges = tuple(
                data["edges"][str(i)] for i in range(len(graph.edges))
            )
            legs = tuple(data["legs"][str(lab)] for _, lab in graph.legs)
            level = data["level"]
        except (KeyError, TypeError, ValueError) as exc:
            raise BadWeighting(f"{type(exc).__name__}: {exc}") from exc
        return LevelledWeighting(
            graph,
            tuple(_integer(w, "edge weight") for w in edges),
            tuple(_integer(w, "leg weight") for w in legs),
            _integer(level, "level"),
        )


def _integer(value, what: str) -> int:
    """value as an int; BadWeighting for a boolean, a float or any other
    value that is not an integer."""
    if type(value) is int:  # the common case, without the call below
        return value
    return _read_integer(value, what, BadWeighting)


def _leg_vector(graph: MarkedGraph, leaf_weights) -> tuple[int, ...]:
    """Normalize leaf weights to a tuple of ints in leg label order."""
    n = graph.n_legs
    if leaf_weights is None:
        leaf_weights = ()
    if isinstance(leaf_weights, Mapping):
        if set(leaf_weights) != {lab for _, lab in graph.legs}:
            raise GraphMismatch(
                f"leaf weights keyed {sorted(leaf_weights)} but graph has "
                f"labels 1..{n}"
            )
        return tuple(
            _integer(leaf_weights[lab], "leaf weight") for _, lab in graph.legs
        )
    vec = tuple(_integer(w, "leaf weight") for w in leaf_weights)
    if len(vec) != n:
        raise GraphMismatch(
            f"got {len(vec)} leaf weights for a graph with {n} legs"
        )
    return vec


def is_point(graph: MarkedGraph, w: LevelledWeighting) -> bool:
    """Does the weighting satisfy every vertex condition at its level?

    Every slot sits at a vertex, whose condition also bounds its weight to
    0..level.  GraphMismatch if the weighting is on another graph or has
    the wrong number of edge or leg weights, BadWeighting if a weight or
    the level is not an integer."""
    require_trivalent(graph)
    w._require_on(graph)
    L = _integer(w.level, "level")
    values = tuple(
        _integer(x, "weight") for x in w.edge_weights + w.leg_weights
    )
    return all(
        admissible_triple_level(values[i], values[j], values[k], L)
        for i, j, k in graph.slots_at.values()
    )


# -- tensor-contraction counting ------------------------------------------


def _compile(graph: MarkedGraph) -> tuple:
    """The graph's contraction plan, (vertices, steps, bounds, rank).

    vertices: per vertex in graph order, (has a loop, leg positions in
    label order); the vertex factor's axes are its non-loop edges in slot
    order, each shared with one neighbour.  steps: the greedy pairwise
    order, as (i, j, axes_i, axes_j) with i < j indexing the live factor
    list: factors i and j leave it and their tensordot over those axes is
    appended.  Each open edge joins two live factors, and each step takes
    the least (result axes, i, j) over those pairs, the result axes being
    the edges in exactly one of the two; planning is quadratic in the
    vertex count.  bounds: per step, k, the number
    of slots summed inside its result, as a tuple with fixed legs and one
    with summed legs.  A shared edge, a loop (its diagonal sums one value)
    and a summed leg each add 1; the last step sums every slot, so its k is
    the largest.  rank: the most axes any step's result has, 0 with no step.
    """
    require_trivalent(graph)
    ne = len(graph.edges)
    vertices, live, ks = [], [], []
    for vid, _ in graph.vertices:
        slots = graph.slots_at[vid]
        loop = len(set(slots)) < len(slots)
        at = tuple(s - ne for s in slots if s >= ne)
        vertices.append((loop, at))
        live.append([s for s in slots if s < ne and slots.count(s) == 1])
        ks.append((int(loop), int(loop) + len(at)))
    steps, bounds, rank = [], [], 0
    while len(live) > 1:
        ends = {}  # open edge -> the positions of its two live factors
        for i, axes in enumerate(live):
            for a in axes:
                ends.setdefault(a, []).append(i)
        out, i, j = min((len(set(live[i]) ^ set(live[j])), i, j)
                        for i, j in ends.values())
        shared = [a for a in live[i] if a in live[j]]
        rank = max(rank, out)
        aj, kj = live.pop(j), ks.pop(j)
        ai, ki = live.pop(i), ks.pop(i)
        steps.append((
            i,
            j,
            tuple(ai.index(a) for a in shared),
            tuple(aj.index(a) for a in shared),
        ))
        live.append([a for a in ai + aj if a not in shared])
        ks.append(tuple(x + y + len(shared) for x, y in zip(ki, kj)))
        bounds.append(ks[-1])
    fixed, summed = (tuple(k[m] for k in bounds) for m in (0, 1))
    return tuple(vertices), tuple(steps), (fixed, summed), rank


_plans: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _plan(graph: MarkedGraph) -> tuple:
    """The graph's plan, kept as long as the graph lives.  Only a trivalent
    graph gets one, so any other graph raises NonTrivalentGraph every time."""
    plan = _plans.get(graph)
    if plan is None:
        plan = _plans[graph] = _compile(graph)
    return plan


@lru_cache(maxsize=None)
def _kernels(level: int) -> tuple:
    """The level's two vertex factors (T, D), in float64.

    T = W_{0,3} is the 0/1 fusion tensor T[a, b, c] over 0..level, symmetric
    in its three slots: the factor of a vertex without a loop.  D = W_{1,1}
    is its loop trace D[x] = sum_a T[a, a, x], the factor of a vertex with
    one.  A vertex's legs are its factor's last axes; _contract fixes or
    sums them.  Entries are at most level + 1.
    """
    r = np.arange(level + 1)
    a, b, c = r[:, None, None], r[None, :, None], r[None, None, :]
    ok = (
        (np.abs(a - b) <= c)
        & (c <= a + b)
        & ((a + b + c) % 2 == 0)
        & (a + b + c <= 2 * level)
    )
    t = ok.astype(np.float64)
    return t, t[r, r].sum(axis=0)


def _exact_dtype(bound: int):
    """The narrowest dtype in which integers up to bound add exactly."""
    if bound < 2**53:
        return np.float64
    return np.int64 if bound < 2**63 else object


def _widen(x, dtype):
    """x in dtype, by way of int64 when a float becomes an object array,
    so that the array holds Python ints."""
    if x.dtype == dtype:
        return x
    if dtype is object and x.dtype == np.float64:
        x = x.astype(np.int64)
    return x.astype(dtype)


def _contract(plan: tuple, level: int, legs) -> int:
    """Sum the product of the vertex factors over every edge, along the plan.

    A vertex's factor is T = W_{0,3}, or D = W_{1,1} at a loop, and its legs
    are the factor's last axes, applied here and nowhere else: legs holds
    fixed leg values in label order, which index those axes, or is None to
    sum over them.  Each step runs in the narrowest exact dtype for
    (level + 1) ** k, k its bound from the plan (see the module docstring);
    when the last, largest bound is below 2^53 every step runs in float64
    and none picks a dtype.  Raises InstanceTooLarge, before allocating,
    when T or a step's result would hold more than _TENSOR_CAP entries.
    """
    vertices, steps, bounds, rank = plan
    size = (level + 1) ** max(3, rank)
    if size > _TENSOR_CAP:
        raise InstanceTooLarge(
            f"a tensor of {size} entries at level {level} exceeds the cap "
            f"{_TENSOR_CAP}"
        )
    kernels = _kernels(level)
    if legs is None:
        live = [kernels[loop].sum(axis=tuple(range(-len(at), 0))) if at
                else kernels[loop] for loop, at in vertices]
    else:
        live = [kernels[loop][(..., *[legs[p] for p in at])]
                for loop, at in vertices]
    ks = bounds[legs is None]
    wide = ks and (level + 1) ** ks[-1] >= 2**53
    for n, (i, j, axes_i, axes_j) in enumerate(steps):
        b = live.pop(j)
        a = live.pop(i)
        if wide:
            dtype = _exact_dtype((level + 1) ** ks[n])
            a, b = _widen(a, dtype), _widen(b, dtype)
        live.append(np.tensordot(a, b, axes=(axes_i, axes_j)))
    return int(live[0])


def count_points(graph: MarkedGraph, leaf_weights, level: int) -> int:
    """Number of admissible weightings with the given leg values.

    Exact tensor contraction over the internal edges along the graph's
    compiled plan.  A step whose result sums k slots runs in float64 while
    (level + 1) ** k < 2^53, in int64 while it is below 2^63, and on object
    arrays of Python ints past that; k is at most E, the number of edges.
    Leg values outside 0..level make the count 0.  A weight or level that
    is not an integer raises BadWeighting, and InstanceTooLarge is raised
    when T or a step's result would hold more than 2**26 entries.
    """
    plan = _plan(graph)
    legs = _leg_vector(graph, leaf_weights)
    level = _integer(level, "level")
    if level < 0 or any(w < 0 or w > level for w in legs):
        return 0
    return _contract(plan, level, legs)


# -- the literal oracle ----------------------------------------------------


def _walk(graph: MarkedGraph, legs, bound: int, admissible) -> Iterator[tuple]:
    """Every weighting with values in 0..bound that is admissible at each
    vertex, as slot-value tuples (edges, then legs), in lexicographic order.

    legs: fixed leg values in label order, or None to walk the legs too.
    admissible(a, b, c) is the vertex rule.  Nothing is yielded when a fixed
    leg value lies outside 0..bound.  Raises InstanceTooLarge when the
    a-priori assignment count (bound + 1) ** width, width the number of
    slots walked, exceeds the VK_BRUTE_LIMIT cap.  Independent of the
    tensor route on purpose.

    The slots are set in runs: each run ends where some vertex has its last
    walked slot, and the candidates of a run are tested by exactly those
    vertices.  A vertex whose slots are all fixed legs is tested once, on
    the empty run before the first walked slot.  So each yielded point has
    passed every vertex's rule, and only extensions of a prefix that
    already fails a vertex are skipped.
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
    # A vertex is due once its last walked slot is set, at 0 when all its
    # slots are fixed legs.  Every walked slot lies on a vertex, so the
    # last run ends at width.  A run is (first slot, end, vertices due).
    due: dict[int, list] = {}
    for star in graph.slots_at.values():
        end = max(s if s < width else -1 for s in star) + 1
        due.setdefault(end, []).append(star)
    ends = sorted(due)
    runs = [(start, end, due[end]) for start, end in zip([0] + ends, ends)]
    values = range(bound + 1)

    def candidates(point: tuple, n: int) -> Iterator[tuple]:
        """point with the slots of run n set in every way, lex order."""
        start, end, _ = runs[n]
        axes = [(v,) for v in point]
        axes[start:end] = [values] * (end - start)
        return itertools.product(*axes)

    # one candidate iterator per run entered, each below a passing prefix
    walks = [candidates((0,) * width + tuple(legs or ()), 0)]
    while walks:
        _, end, stars = runs[len(walks) - 1]
        for point in walks[-1]:
            for i, j, k in stars:
                if not admissible(point[i], point[j], point[k]):
                    break
            else:
                if end == width:
                    yield point
                else:
                    walks.append(candidates(point, len(walks)))
                    break
        else:
            walks.pop()


def _level_points(
    graph: MarkedGraph, legs, level: int, rule=admissible_triple_level
) -> Iterator[LevelledWeighting]:
    """The walk at the level under the vertex rule(a, b, c, level)."""
    ne = len(graph.edges)
    rule = partial(rule, level=level)
    for point in _walk(graph, legs, level, rule):
        yield LevelledWeighting(graph, point[:ne], point[ne:], level)


def count_points_bruteforce(graph: MarkedGraph, leaf_weights, level: int) -> int:
    """Literal enumeration of the internal assignments, by the walk.

    Every counted weighting is tested at every vertex; only extensions of
    a prefix that already fails a vertex go unvisited.  Independent of the
    tensor route on purpose.  Raises InstanceTooLarge when the a-priori
    count (level+1)^E of E internal assignments exceeds the VK_BRUTE_LIMIT
    cap.
    """
    require_trivalent(graph)
    legs = _leg_vector(graph, leaf_weights)
    level = _integer(level, "level")
    rule = partial(admissible_triple_level, level=level)
    return sum(1 for _ in _walk(graph, legs, level, rule))


def enumerate_points(
    graph: MarkedGraph, leaf_weights, level: int
) -> Iterator[LevelledWeighting]:
    """Admissible weightings in lexicographic edge-weight order; the
    arguments are checked on the call, the walk and its cap run on iteration."""
    require_trivalent(graph)
    legs = _leg_vector(graph, leaf_weights)
    return _level_points(graph, legs, _integer(level, "level"))


def count_classical(tree: MarkedGraph, leaf_weights) -> int:
    """Admissible weightings of a trivalent tree with no level truncation.

    Finite because every internal weight is forced below the sum of the
    leaf weights by the triangle inequalities.  Literal enumeration by the
    walk with values up to that sum, every counted weighting tested at
    every vertex; independent of the level-truncated routes.  The cap
    judges the a-priori count (sum + 1)^E.
    """
    require_tree(tree)
    require_trivalent(tree)
    legs = _leg_vector(tree, leaf_weights)
    return sum(1 for _ in _walk(tree, legs, sum(legs), admissible_triple))


def count_cox(graph: MarkedGraph, level: int) -> int:
    """Admissible weightings at the level with legs free as well.

    Summing leg values over 0..level turns the count into the dimension of
    the degree-level piece of the total coordinate ring grading.  The
    contraction picks each step's dtype as count_points does, with every
    summed leg adding 1 to the k of the step that contains it, so k is at
    most E + n with E edges and n legs, and refuses a level past the same
    2**26-entry cap.
    """
    plan = _plan(graph)
    level = _integer(level, "level")
    if level < 0:
        return 0
    return _contract(plan, level, None)
