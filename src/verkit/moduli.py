"""Stable graph types of a (genus, legs) signature and their combinatorics.

Enumeration of trivalent isomorphism classes, the full stable stratification
with its contraction (ancestor) Hasse diagram, cone dimensions, and the flip
moves connecting trivalent classes through common one-edge-contraction
ancestors.

Generation is exhaustive-with-dedup, with one route per signature: (0,3)
seeds the recursion.  Wherever (g, n-1) is stable, the classes come from
inserting leg n into every edge and leg slot of the (g, n-1) classes
(removing leg n and smoothing its vertex inverts this, so insertion alone
reaches every class).  Only where insertion cannot reach, at n = 0 and at
(1,1), do they come from gluing the top two legs of the (g-1, n+2) classes
(cutting any cycle edge inverts this).  Canonical labels dedup everything;
output is sorted by label, so ordering is stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import UnstableSignature
from .graphs import (
    MarkedGraph,
    new_graph,
    require_trivalent,
    trinode,
)


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
                {
                    "label": g.canonical_hex(),
                    "graph": g.to_json(),
                    "dim": len(g.edges) + g.n_legs,
                }
                for g in self.classes
            ],
            "hasse": [[i, j] for i, j in self.hasse],
            "flips": [
                [i, j, {"witness": w.hex()}] for i, j, w in self.flips
            ],
        }


def _check_signature(genus: int, n_legs: int) -> None:
    if genus < 0 or n_legs < 0 or 2 * genus - 2 + n_legs <= 0:
        raise UnstableSignature(
            f"no stable graph with genus {genus} and {n_legs} legs"
        )


def _insert_leg(graph: MarkedGraph, slot: int, new_label: int) -> MarkedGraph:
    """Subdivide an edge or split off a leg, hanging new_label there."""
    w = max(vid for vid, _ in graph.vertices) + 1
    verts = list(graph.vertices) + [(w, 0)]
    ne = len(graph.edges)
    edges, legs = list(graph.edges), list(graph.legs)
    if slot < ne:
        a, b = edges.pop(slot)
        edges += [(a, w), (w, b)]
    else:
        v, lab = legs[slot - ne]
        legs[slot - ne] = (w, lab)
        edges.append((v, w))
    legs.append((w, new_label))
    return new_graph(verts, edges, legs)


def _glue_top_legs(graph: MarkedGraph, n_keep: int) -> MarkedGraph:
    """Join legs n_keep+1 and n_keep+2 into a new edge."""
    v1 = next(v for v, lab in graph.legs if lab == n_keep + 1)
    v2 = next(v for v, lab in graph.legs if lab == n_keep + 2)
    legs = [(v, lab) for v, lab in graph.legs if lab <= n_keep]
    edges = list(graph.edges) + [(v1, v2)]
    return new_graph(graph.vertices, edges, legs)


@lru_cache(maxsize=None)
def enumerate_trivalent(genus: int, n_legs: int) -> tuple[MarkedGraph, ...]:
    """All trivalent genus-0-vertex classes with b1 = genus, legs 1..n."""
    _check_signature(genus, n_legs)
    if (genus, n_legs) == (0, 3):
        return (trinode(),)
    found: dict[bytes, MarkedGraph] = {}
    if n_legs > 0 and 2 * genus - 2 + (n_legs - 1) > 0:
        for g in enumerate_trivalent(genus, n_legs - 1):
            for slot in range(len(g.edges) + g.n_legs):
                cand = _insert_leg(g, slot, n_legs)
                found.setdefault(cand.canonical_label, cand)
    else:
        for g in enumerate_trivalent(genus - 1, n_legs + 2):
            cand = _glue_top_legs(g, n_legs)
            found.setdefault(cand.canonical_label, cand)
    return tuple(found[k] for k in sorted(found))


def _stable_closure(
    genus: int, n_legs: int
) -> tuple[tuple[MarkedGraph, ...], set[tuple[bytes, bytes]]]:
    """The stable classes sorted by label, and the (label, label) pairs of
    the single contractions found while closing over them."""
    _check_signature(genus, n_legs)
    found = {g.canonical_label: g for g in enumerate_trivalent(genus, n_legs)}
    queue = list(found.values())
    hasse = set()
    while queue:
        g = queue.pop()
        for e in range(len(g.edges)):
            c = g.contract_edge(e)
            hasse.add((g.canonical_label, c.canonical_label))
            if c.canonical_label not in found:
                found[c.canonical_label] = c
                queue.append(c)
    return tuple(found[k] for k in sorted(found)), hasse


def enumerate_stable(genus: int, n_legs: int) -> tuple[MarkedGraph, ...]:
    """All stable classes of the signature: the contraction closure of the
    trivalent ones (every stable graph smooths out to a trivalent one)."""
    return _stable_closure(genus, n_legs)[0]


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


def _flips(
    classes: tuple[MarkedGraph, ...]
) -> tuple[tuple[int, int, bytes], ...]:
    """(i, j, ancestor label) for every flip between trivalent classes."""
    index = {g.canonical_label: i for i, g in enumerate(classes)}
    flips = set()
    for i, g in enumerate(classes):
        if g.is_trivalent():
            for mv in flip_neighbors(g):
                j = index[mv.neighbor.canonical_label]
                flips.add((i, j, mv.ancestor.canonical_label))
    return tuple(sorted(flips))


def contraction_poset(genus: int, n_legs: int) -> StratumComplex:
    """Hasse diagram of single contractions on all stable classes, plus
    flip adjacency among the trivalent ones."""
    classes, pairs = _stable_closure(genus, n_legs)
    index = {g.canonical_label: i for i, g in enumerate(classes)}
    hasse = sorted((index[a], index[b]) for a, b in pairs)
    return StratumComplex(classes, tuple(hasse), _flips(classes))


def flip_complex(genus: int, n_legs: int) -> StratumComplex:
    """Flip structure restricted to the trivalent classes only."""
    classes = enumerate_trivalent(genus, n_legs)
    return StratumComplex(classes, (), _flips(classes))


def flip_connectivity(genus: int, n_legs: int) -> tuple[bool, int]:
    """Is the flip graph connected, and what is its diameter?

    Returns (False, -1) when disconnected; a single class gives (True, 0).
    """
    comp = flip_complex(genus, n_legs)
    k = len(comp.classes)
    adj: dict[int, set[int]] = {i: set() for i in range(k)}
    for i, j, _ in comp.flips:
        adj[i].add(j)
        adj[j].add(i)

    def bfs(start: int) -> dict[int, int]:
        dist = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        return dist

    first = bfs(0)
    if len(first) != k:
        return False, -1
    diameter = 0
    for i in range(k):
        diameter = max(diameter, max(bfs(i).values()))
    return True, diameter


def hasse_dot(comp: StratumComplex, name: str = "H") -> str:
    """Graphviz digraph of the contraction Hasse diagram."""
    lines = [f"digraph {name} {{"]
    for i, g in enumerate(comp.classes):
        dim = len(g.edges) + g.n_legs
        lines.append(f'  c{i} [label="{i}: dim {dim}"];')
    for i, j in comp.hasse:
        lines.append(f"  c{i} -> c{j};")
    lines.append("}")
    return "\n".join(lines)


def flip_dot(comp: StratumComplex, name: str = "F") -> str:
    """Graphviz graph of flip adjacency (each pair drawn once)."""
    lines = [f"graph {name} {{"]
    for i, g in enumerate(comp.classes):
        if g.is_trivalent():
            lines.append(f'  c{i} [label="{i}"];')
    seen = set()
    for i, j, _ in comp.flips:
        pair = (min(i, j), max(i, j))
        if pair not in seen:
            seen.add(pair)
            lines.append(f"  c{pair[0]} -- c{pair[1]};")
    lines.append("}")
    return "\n".join(lines)
