"""Stable graph types of a (genus, legs) signature and their combinatorics.

Enumeration of trivalent isomorphism classes, the full stable stratification
with its contraction (ancestor) Hasse diagram, cone dimensions, and the flip
moves connecting trivalent classes through common one-edge-contraction
ancestors.

Generation is exhaustive-with-dedup, with one route per signature: each
is built from the signature before it on the chain from (0,3) up that
`_chain` yields (its docstring states the order), in a loop, so a deep
signature meets no recursion limit.  Canonical labels dedup everything;
output is sorted by label, so ordering is stable across runs.

Each signature's trivalent classes and stable closure (classes and Hasse
pairs) are computed once per process and kept for its life; that saves
work only when a process asks about a signature more than once (say
`enumerate_stable`, then `contraction_poset`), and the CLI asks once.
Flip sets are read off the single contractions on every call and never
kept.

Generation is capped, and judged before any class is built: walking the
chain from (0,3) up as it is yielded, an exact rational lower bound on
each signature's classes bounds its candidates (`_candidates`), and the
first signature past _CLASS_CAP raises InstanceTooLarge, a handful of
steps in whatever size was asked.  The bound is exact in genus 0; it
refuses (1,1000) at (1,9) with 5,160,960 candidates and (1000,0) at
(9,2) with 4,892,388.  As a backstop, each signature counts the
candidates of its built source classes before it makes one, and the
stable closure counts its contractions as it makes them, against the
same cap.  The flip diameter is capped too, on the N * N bits of its
reach sets for N classes, judged on the same lower bound before any
class is built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import _check_cap
from .graphs import (
    MarkedGraph,
    _check_signature,
    new_graph,
    require_trivalent,
    trinode,
)


# Candidates one signature's generation, or contractions its stable closure,
# may make: (0,9) has 135,135 candidates and (0,10) 2,027,025.
_CLASS_CAP = 10**6
# Bits the flip diameter's reach sets may hold, N * N for N classes: 32 MiB
# per copy of the sets.  (0,8), 10,395 classes, passes; (0,9) does not.
_FLIP_CAP = 2**28


@dataclass(frozen=True)
class FlipMove:
    """A flip out of some trivalent graph: the class reached, the common
    ancestor witnessing the move, and the contracted edge index."""

    neighbor: MarkedGraph
    ancestor: MarkedGraph
    edge: int


@dataclass(frozen=True)
class StratumComplex:
    """Isomorphism classes of a signature with poset and flip structure.

    hasse holds (i, j) pairs meaning class i turns into class j by
    contracting one edge; flips holds (i, j, ancestor_label) for flip-
    adjacent trivalent classes (indices into ``classes``).
    """

    classes: tuple[MarkedGraph, ...]
    hasse: tuple[tuple[int, int], ...]
    flips: tuple[tuple[int, int, bytes], ...]

    @property
    def cone_dims(self) -> tuple[int, ...]:
        return tuple(len(g.edges) + g.n_legs for g in self.classes)

    def to_json(self) -> dict:
        return {
            "classes": [
                {"label": g.canonical_hex(), "graph": g.to_json(), "dim": dim}
                for g, dim in zip(self.classes, self.cone_dims)
            ],
            "hasse": [[i, j] for i, j in self.hasse],
            "flips": [
                [i, j, {"witness": w.hex()}] for i, j, w in self.flips
            ],
        }


def _insert_leg(graph: MarkedGraph, slot: int, new_label: int) -> MarkedGraph:
    """Subdivide an edge or split off a leg, hanging new_label there.

    The new vertex w has the largest id, so (a, w) and (b, w) are in normal
    form, and the new graph shares every pair it does not change."""
    w = max(graph.vertices)[0] + 1  # the ids are distinct
    edges, legs = graph.edges, graph.legs
    ne = len(edges)
    if slot < ne:
        a, b = edges[slot]
        edges = edges[:slot] + edges[slot + 1:] + ((a, w), (b, w))
    else:
        k = slot - ne
        v, lab = legs[k]
        legs = legs[:k] + ((w, lab),) + legs[k + 1:]
        edges += ((v, w),)
    return new_graph(graph.vertices + ((w, 0),), edges,
                     legs + ((w, new_label),))


def _glue_top_legs(graph: MarkedGraph, n_keep: int) -> MarkedGraph:
    """Join legs n_keep+1 and n_keep+2, the last two, into a new edge."""
    (v1, _), (v2, _) = graph.legs[n_keep:]
    return new_graph(graph.vertices, graph.edges + ((v1, v2),),
                     graph.legs[:n_keep])


def enumerate_trivalent(genus: int, n_legs: int) -> tuple[MarkedGraph, ...]:
    """All trivalent genus-0-vertex classes with b1 = genus, legs 1..n."""
    # read as ints first, so that a numpy integer signature hits the cache
    return _trivalent(*_check_signature(genus, n_legs))


def _chain(genus: int, n_legs: int) -> Iterator[tuple[int, int]]:
    """(0,3), then each signature in the order it is built, up to
    (genus, n_legs): for g = 0, 1, ..., genus, the leg counts from 4
    (g = 0), 1 (g = 1) or 0 (g >= 2) up to 2, or up to n_legs at g = genus.

    Each signature is built from the one before it.  Where that is
    (g, n-1), the (g, n) classes come from inserting leg n into every edge
    and leg slot of its classes (removing leg n and smoothing its vertex
    inverts this, so insertion alone reaches every class).  Only where
    (g, n-1) is unstable, at n = 0 and at (1,1), do they come from gluing
    the top two legs of the (g-1, n+2) classes (cutting any cycle edge
    inverts this).  Lazy, so a bound walking it stops where it refuses."""
    yield 0, 3
    for g in range(genus + 1):
        first = 4 if g == 0 else 1 if g == 1 else 0
        for n in range(first, (n_legs if g == genus else 2) + 1):
            yield g, n


def _candidates(classes, source, genus: int, n_legs: int):
    """The candidates (genus, n_legs) makes from the given number of its
    source's classes: one per edge and leg slot of each, 3g + 2n - 5 of
    them, where it inserts leg n, and one per class where it glues."""
    if source == (genus, n_legs - 1):
        return classes * (3 * genus + 2 * n_legs - 5)
    return classes


def _mass_bound(chain: Iterable[tuple[int, int]]) -> Fraction:
    """A lower bound on the classes of the chain's top signature;
    InstanceTooLarge, before any class is built, at the first signature
    from (0,3) up whose candidates pass _CLASS_CAP.

    The bound is a lower bound on the mass, the sum of 1/|Aut| over the
    classes, so on their number; in genus 0, where no class has an
    automorphism, it equals both.  By orbit-stabilizer, inserting a leg
    into every slot of each (g, n-1) class multiplies the mass by the slot
    count.  Each (g-1, n+2) class is a (g, n) class with one oriented
    non-separating edge, and a (g, n) class has at most 2(3g - 3 + n) of
    those, so gluing divides it by at most that."""
    mass = Fraction(1)  # (0,3): the tripod
    for source, (genus, n_legs) in itertools.pairwise(chain):
        mass = _candidates(mass, source, genus, n_legs)
        _check_cap(math.ceil(mass), _CLASS_CAP, "candidates", "class cap")
        if source != (genus, n_legs - 1):
            mass /= 2 * (3 * genus - 3 + n_legs)
    return mass


@lru_cache(maxsize=None)
def _trivalent(genus: int, n_legs: int) -> tuple[MarkedGraph, ...]:
    if (genus, n_legs) == (0, 3):
        return (trinode(),)
    # judge the whole chain against the cap, then make it from the bottom
    # up, so that no call recurses through more than one signature
    _mass_bound(_chain(genus, n_legs))
    for source, _ in itertools.pairwise(_chain(genus, n_legs)):
        sources = _trivalent(*source)
    count = _candidates(len(sources), source, genus, n_legs)
    _check_cap(count, _CLASS_CAP, "candidates", "class cap")
    if source == (genus, n_legs - 1):
        made = (_insert_leg(g, slot, n_legs) for g in sources
                for slot in range(len(g.edges) + g.n_legs))
    else:
        made = (_glue_top_legs(g, n_legs) for g in sources)
    found: dict[bytes, MarkedGraph] = {}
    for cand in made:
        found.setdefault(cand.canonical_label, cand)
    return tuple(found[k] for k in sorted(found))


@lru_cache(maxsize=None)
def _stable_closure(
    genus: int, n_legs: int
) -> tuple[tuple[MarkedGraph, ...], frozenset[tuple[bytes, bytes]]]:
    """The stable classes sorted by label, and the frozenset of (label,
    label) pairs of the single contractions found while closing over them.
    InstanceTooLarge once the contractions would pass _CLASS_CAP."""
    found = {g.canonical_label: g for g in _trivalent(genus, n_legs)}
    queue = list(found.values())
    hasse = set()
    made = 0
    while queue:
        g = queue.pop()
        made += len(g.edges)
        _check_cap(made, _CLASS_CAP, "contractions", "class cap")
        for e in range(len(g.edges)):
            c = g.contract_edge(e)
            hasse.add((g.canonical_label, c.canonical_label))
            if c.canonical_label not in found:
                found[c.canonical_label] = c
                queue.append(c)
    return tuple(found[k] for k in sorted(found)), frozenset(hasse)


def enumerate_stable(genus: int, n_legs: int) -> tuple[MarkedGraph, ...]:
    """All stable classes of the signature: the contraction closure of the
    trivalent ones (every stable graph smooths out to a trivalent one)."""
    return _stable_closure(*_check_signature(genus, n_legs))[0]


def _expansions(graph: MarkedGraph, e: int):
    """The three trivalent re-expansions of contracting non-loop edge e.

    The four slots adjacent to the edge get redistributed over its two
    endpoints in the three possible 2+2 ways (one of which rebuilds the
    input graph).
    """
    u, v = graph.edges[e]
    ne = len(graph.edges)
    items = []  # (slot, end): a loop or a parallel edge has both ends here
    for j, (a, b) in enumerate(graph.edges):
        if j == e:
            continue
        if a in (u, v):
            items.append((j, 0))
        if b in (u, v):
            items.append((j, 1))
    for vtx, lab in graph.legs:
        if vtx in (u, v):
            items.append((ne + lab - 1, 0))
    assert len(items) == 4, "trivalent endpoints leave exactly four slots"
    for partner in (1, 2, 3):
        side_u = {items[0], items[partner]}

        def at(item):
            return u if item in side_u else v

        edges = []
        for j, (a, b) in enumerate(graph.edges):
            if j == e:
                edges.append((u, v))
                continue
            na = at((j, 0)) if a in (u, v) else a
            nb = at((j, 1)) if b in (u, v) else b
            edges.append((na, nb))
        legs = [
            (at((ne + lab - 1, 0)) if vtx in (u, v) else vtx, lab)
            for vtx, lab in graph.legs
        ]
        yield new_graph(graph.vertices, edges, legs)


def flip_neighbors(graph: MarkedGraph) -> tuple[FlipMove, ...]:
    """Classes one flip away, each with its witnessing ancestor.

    Only non-loop edges between distinct genus-0 vertices induce flips;
    contracting a loop bumps the genus and has no trivalent re-expansion
    in this family.  Results exclude the input's own class.
    """
    require_trivalent(graph)
    moves: dict[tuple[bytes, bytes], FlipMove] = {}
    own = graph.canonical_label
    for e, (u, v) in enumerate(graph.edges):
        if u == v:
            continue
        ancestor = graph.contract_edge(e)
        for cand in _expansions(graph, e):
            if cand.canonical_label == own:
                continue
            key = (cand.canonical_label, ancestor.canonical_label)
            if key not in moves:
                moves[key] = FlipMove(cand, ancestor, e)
    return tuple(moves[k] for k in sorted(moves))


def _complex(
    classes: tuple[MarkedGraph, ...],
    pairs: frozenset[tuple[bytes, bytes]],
    trivalent: tuple[MarkedGraph, ...],
) -> StratumComplex:
    """The flips among the trivalent classes, and the Hasse pairs whose
    contraction is one of the classes, as indices into classes.  Two
    trivalent classes flip when one edge of each contracts to a common
    ancestor; pairs holds every such contraction.  Loops need no filter: a
    contracted loop leaves a genus-1 vertex of valence 1, and only one
    trivalent class smooths out to it."""
    index = {g.canonical_label: i for i, g in enumerate(classes)}
    sources = {g.canonical_label for g in trivalent}
    groups: dict[bytes, list[int]] = {}
    for a, c in pairs:
        if a in sources:
            groups.setdefault(c, []).append(index[a])
    flips = sorted((i, j, c) for c, group in groups.items()
                   for i in group for j in group if i != j)
    edges = sorted((index[a], index[b]) for a, b in pairs if b in index)
    return StratumComplex(classes, tuple(edges), tuple(flips))


def contraction_poset(genus: int, n_legs: int) -> StratumComplex:
    """Hasse diagram of single contractions on all stable classes, plus
    flip adjacency among the trivalent ones."""
    signature = _check_signature(genus, n_legs)
    return _complex(*_stable_closure(*signature), _trivalent(*signature))


def flip_complex(genus: int, n_legs: int) -> StratumComplex:
    """Flip structure restricted to the trivalent classes only.  It has no
    Hasse pairs: a contracted edge leaves a vertex of valence 4 or of genus
    1, so no contraction of a trivalent class is trivalent."""
    trivalent = _trivalent(*_check_signature(genus, n_legs))
    pairs = frozenset((g.canonical_label, g.contract_edge(e).canonical_label)
                      for g in trivalent for e in range(len(g.edges)))
    return _complex(trivalent, pairs, trivalent)


def flip_connectivity(genus: int, n_legs: int) -> tuple[bool, int]:
    """Is the flip graph connected, and what is its diameter?

    Returns (False, -1) when disconnected; a single class gives (True, 0).
    Each class keeps the bitset of the classes within r flips of it, and
    each round ORs every class's set with its neighbours' sets, so the
    diameter is the number of rounds until every set is full, and a round
    that changes nothing before that means the graph is disconnected.  The
    sets hold N * N bits for N classes: InstanceTooLarge past _FLIP_CAP,
    judged first on _mass_bound's lower bound on N, before any class is
    built, and again on the built N.
    """
    signature = _check_signature(genus, n_legs)
    n = math.ceil(_mass_bound(_chain(*signature)))
    _check_cap(n * n, _FLIP_CAP, f"bits of reach sets of {n} classes",
               "flip cap")
    comp = flip_complex(*signature)
    n = len(comp.classes)
    _check_cap(n * n, _FLIP_CAP, f"bits of reach sets of {n} classes",
               "flip cap")
    adj: list[set[int]] = [set() for _ in range(n)]
    for i, j, _ in comp.flips:  # holds every flip in both directions
        adj[i].add(j)
    full = (1 << n) - 1
    reach = [1 << i for i in range(n)]
    rounds = 0
    while any(r != full for r in reach):
        grown = []
        for r, near in zip(reach, adj):
            for j in near:
                r |= reach[j]
            grown.append(r)
        if grown == reach:
            return False, -1
        reach = grown
        rounds += 1
    return True, rounds


def hasse_dot(comp: StratumComplex) -> str:
    """Graphviz digraph H of the contraction Hasse diagram."""
    lines = ["digraph H {"]
    for i, dim in enumerate(comp.cone_dims):
        lines.append(f'  c{i} [label="{i}: dim {dim}"];')
    for i, j in comp.hasse:
        lines.append(f"  c{i} -> c{j};")
    lines.append("}")
    return "\n".join(lines)


def flip_dot(comp: StratumComplex) -> str:
    """Graphviz graph F of flip adjacency (each pair drawn once)."""
    lines = ["graph F {"]
    for i, g in enumerate(comp.classes):
        if g.is_trivalent():
            lines.append(f'  c{i} [label="{i}"];')
    for i, j in sorted({(min(i, j), max(i, j)) for i, j, _ in comp.flips}):
        lines.append(f"  c{i} -- c{j};")
    lines.append("}")
    return "\n".join(lines)
