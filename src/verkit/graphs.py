"""Genus-decorated multigraphs with labeled legs.

The central object is :class:`MarkedGraph`: a connected multigraph whose
vertices carry a nonnegative integer genus and whose legs (half-edges) carry
the labels 1..n.  Loops and parallel edges are allowed.  Instances are
immutable and hashable; all mutating operations return new graphs.

Slot indexing convention used throughout the package: the slots of a graph
are its edges in tuple order followed by its legs in label order, so slot
``i < len(edges)`` is an edge and anything past that is a leg.  A loop
occupies two slots *at its vertex* but is still a single edge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import (
    BadGraphDocument,
    BadLegLabels,
    DanglingReference,
    DisconnectedGraph,
    IsLeg,
    NonTrivalentGraph,
    NotATree,
    UnstableSignature,
    UnstableVertex,
)

# A slot is ("e", edge_index) or ("l", leg_label).
Slot = tuple[str, int]


@dataclass(frozen=True)
class MarkedGraph:
    """Connected multigraph with vertex genera and labeled legs.

    vertices: tuple of (id, genus) pairs; ids are arbitrary distinct ints.
    edges: tuple of (a, b) vertex-id pairs with a <= b; loops have a == b.
    legs: tuple of (vertex_id, label) pairs, sorted by label; labels are
        exactly 1..n.

    Build instances through :func:`new_graph`, which normalizes and
    validates.  Direct construction skips validation.
    """

    vertices: tuple[tuple[int, int], ...]
    edges: tuple[tuple[int, int], ...]
    legs: tuple[tuple[int, int], ...]

    # -- basic derived data -------------------------------------------------

    @cached_property
    def genus_of(self) -> dict[int, int]:
        return {vid: g for vid, g in self.vertices}

    @cached_property
    def n_legs(self) -> int:
        return len(self.legs)

    @cached_property
    def valence(self) -> dict[int, int]:
        """Valence per vertex: loops count twice, legs once."""
        val = {vid: 0 for vid, _ in self.vertices}
        for a, b in self.edges:
            val[a] += 1
            val[b] += 1
        for vid, _ in self.legs:
            val[vid] += 1
        return val

    @cached_property
    def slots_at(self) -> dict[int, tuple[Slot, ...]]:
        """Slots incident to each vertex, loops listed twice."""
        out: dict[int, list[Slot]] = {vid: [] for vid, _ in self.vertices}
        for i, (a, b) in enumerate(self.edges):
            out[a].append(("e", i))
            out[b].append(("e", i))
        for vid, lab in self.legs:
            out[vid].append(("l", lab))
        return {vid: tuple(s) for vid, s in out.items()}

    @cached_property
    def first_betti(self) -> int:
        return len(self.edges) - len(self.vertices) + 1

    @cached_property
    def total_genus(self) -> int:
        """First Betti number plus the sum of vertex genera."""
        return self.first_betti + sum(g for _, g in self.vertices)

    def signature(self) -> tuple[int, int]:
        """(total genus, number of legs)."""
        return (self.total_genus, self.n_legs)

    def is_tree(self) -> bool:
        return self.first_betti == 0 and all(g == 0 for _, g in self.vertices)

    def is_trivalent(self) -> bool:
        """All vertices have valence exactly 3 and genus 0."""
        return all(
            self.valence[vid] == 3 and g == 0 for vid, g in self.vertices
        )

    # -- structural operations ---------------------------------------------

    def contract_edge(self, e: int) -> "MarkedGraph":
        """Contract edge slot ``e`` and return the smaller graph.

        A non-loop edge merges its endpoints (keeping the smaller id) and
        the new vertex gets the sum of the genera.  A loop is deleted and
        its vertex's genus goes up by one.  Total genus is preserved.

        Raises IsLeg if ``e`` points at a leg slot and DanglingReference if
        it points at nothing.
        """
        ne = len(self.edges)
        if ne <= e < ne + self.n_legs:
            raise IsLeg(f"slot {e} is leg {self.legs[e - ne][1]}, not an edge")
        if not 0 <= e < ne:
            raise DanglingReference(f"no edge slot {e}")
        a, b = self.edges[e]
        if a == b:
            verts = tuple(
                (vid, g + 1 if vid == a else g) for vid, g in self.vertices
            )
            edges = self.edges[:e] + self.edges[e + 1:]
            return new_graph(verts, edges, self.legs)
        keep, gone = (a, b) if a < b else (b, a)
        verts = []
        for vid, g in self.vertices:
            if vid == gone:
                continue
            if vid == keep:
                g = self.genus_of[a] + self.genus_of[b]
            verts.append((vid, g))
        remap = lambda v: keep if v == gone else v
        edges = tuple(
            (min(remap(x), remap(y)), max(remap(x), remap(y)))
            for i, (x, y) in enumerate(self.edges)
            if i != e
        )
        legs = tuple((remap(v), lab) for v, lab in self.legs)
        return new_graph(verts, edges, legs)

    # -- canonical form -----------------------------------------------------

    @cached_property
    def canonical_label(self) -> bytes:
        """Deterministic byte string equal across isomorphic graphs.

        Isomorphisms must preserve vertex genus, the graph structure
        (including loop/parallel multiplicity), and fix every leg label.
        Individualization-refinement: colour vertices by (genus, valence,
        leg labels, loop count) and refine by neighbour colours; while a
        cell has more than one vertex, individualize each vertex of the
        first such cell in turn, refine, and recurse.  Every branch of the
        search tree ends in a vertex order, and the least encoding over all
        of them wins, so there is no work cap.  No use of hash(), so
        labels are stable across processes and platforms.
        """
        ids = [vid for vid, _ in self.vertices]
        legs_at = {vid: [] for vid in ids}
        for vid, lab in self.legs:
            legs_at[vid].append(lab)
        loops_at = {vid: 0 for vid in ids}
        neighbors: dict[int, list[int]] = {vid: [] for vid in ids}
        for a, b in self.edges:
            if a == b:
                loops_at[a] += 1
            else:
                neighbors[a].append(b)
                neighbors[b].append(a)

        def refine(colors):
            while True:
                key = {
                    vid: (colors[vid], tuple(sorted(colors[u] for u in neighbors[vid])))
                    for vid in ids
                }
                new_colors = _rank(key, ids)
                if len(set(new_colors.values())) == len(set(colors.values())):
                    return new_colors
                colors = new_colors

        def encode(pi):
            genus_seq = [0] * len(ids)
            for vid in ids:
                genus_seq[pi[vid]] = self.genus_of[vid]
            edge_enc = sorted(
                (min(pi[a], pi[b]), max(pi[a], pi[b])) for a, b in self.edges
            )
            leg_enc = [pi[v] for v, _lab in self.legs]  # legs already label-sorted
            return (tuple(genus_seq), tuple(edge_enc), tuple(leg_enc))

        def search(colors):
            colors = refine(colors)
            cells: dict[int, list[int]] = {}
            for vid in ids:
                cells.setdefault(colors[vid], []).append(vid)
            cell = next(
                (cells[c] for c in sorted(cells) if len(cells[c]) > 1), None
            )
            if cell is None:  # discrete: colours are the vertex order
                return encode(colors)
            return min(
                search(_rank({u: (colors[u], u != v) for u in ids}, ids))
                for v in cell
            )

        key = {
            vid: (
                self.genus_of[vid],
                self.valence[vid],
                tuple(sorted(legs_at[vid])),
                loops_at[vid],
            )
            for vid in ids
        }
        return repr(search(_rank(key, ids))).encode("ascii")

    def canonical_hex(self) -> str:
        return self.canonical_label.hex()

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vertices": [{"id": vid, "genus": g} for vid, g in self.vertices],
            "edges": [[a, b] for a, b in self.edges],
            "legs": [{"vertex": v, "label": lab} for v, lab in self.legs],
        }

    @staticmethod
    def from_json(data: dict | str) -> "MarkedGraph":
        """Read the document to_json writes, as a dict or JSON text.

        Raises BadGraphDocument if it is not JSON of that shape; a graph
        that new_graph rejects raises the error new_graph gives.
        """
        try:
            if isinstance(data, str):
                data = json.loads(data)
            return new_graph(
                [(v["id"], v["genus"]) for v in data["vertices"]],
                [tuple(e) for e in data["edges"]],
                [(l["vertex"], l["label"]) for l in data["legs"]],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise BadGraphDocument(f"{type(exc).__name__}: {exc}") from exc

    def to_dot(self, name: str = "G") -> str:
        """Graphviz source; legs become labeled half-edges to phantom nodes."""
        lines = [f"graph {name} {{"]
        for vid, g in self.vertices:
            lines.append(f'  v{vid} [label="g={g}"];')
        for a, b in self.edges:
            lines.append(f"  v{a} -- v{b};")
        for vid, lab in self.legs:
            lines.append(f'  leg{lab} [shape=none, label="{lab}"];')
            lines.append(f"  v{vid} -- leg{lab};")
        lines.append("}")
        return "\n".join(lines)


def _rank(key: dict[int, tuple], ids: Sequence[int]) -> dict[int, int]:
    order = {k: i for i, k in enumerate(sorted(set(key.values())))}
    return {vid: order[key[vid]] for vid in ids}


def new_graph(
    vertices: Iterable[tuple[int, int]],
    edges: Iterable[tuple[int, int]] = (),
    legs: Iterable[tuple[int, int]] = (),
) -> MarkedGraph:
    """Validate and normalize raw graph data into a MarkedGraph.

    Checks: distinct vertex ids, nonnegative genera, all references resolve,
    leg labels exactly 1..n, connectivity, and stability of every vertex
    (2*genus - 2 + valence > 0, loops counting twice).
    """
    verts = tuple((int(v), int(g)) for v, g in vertices)
    ids = [v for v, _ in verts]
    idset = set(ids)
    if len(idset) != len(ids):
        raise DanglingReference("duplicate vertex ids")
    if not verts:
        raise DisconnectedGraph("graph has no vertices")
    for vid, g in verts:
        if g < 0:
            raise UnstableVertex(f"vertex {vid} has negative genus {g}")

    norm_edges = []
    for a, b in edges:
        a, b = int(a), int(b)
        if a not in idset or b not in idset:
            raise DanglingReference(f"edge ({a},{b}) references a missing vertex")
        norm_edges.append((a, b) if a <= b else (b, a))

    norm_legs = []
    for v, lab in legs:
        v, lab = int(v), int(lab)
        if v not in idset:
            raise DanglingReference(f"leg {lab} references missing vertex {v}")
        norm_legs.append((v, lab))
    norm_legs.sort(key=lambda p: p[1])
    labels = [lab for _, lab in norm_legs]
    if labels != list(range(1, len(labels) + 1)):
        raise BadLegLabels(f"leg labels {labels} are not exactly 1..n")

    # connectivity
    adj: dict[int, set[int]] = {vid: set() for vid in ids}
    for a, b in norm_edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {ids[0]}
    stack = [ids[0]]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    if len(seen) != len(ids):
        raise DisconnectedGraph(
            f"{len(ids) - len(seen)} vertices unreachable from vertex {ids[0]}"
        )

    g = MarkedGraph(verts, tuple(norm_edges), tuple(norm_legs))
    for vid, genus in verts:
        if 2 * genus - 2 + g.valence[vid] <= 0:
            raise UnstableVertex(
                f"vertex {vid}: genus {genus}, valence {g.valence[vid]}"
            )
    return g


def are_isomorphic(g1: MarkedGraph, g2: MarkedGraph) -> bool:
    """Isomorphism preserving genera and fixing every leg label."""
    return g1.canonical_label == g2.canonical_label


def require_trivalent(graph: MarkedGraph) -> None:
    """Raise NonTrivalentGraph unless every vertex is 3-valent with genus 0."""
    if not graph.is_trivalent():
        bad = [
            vid
            for vid, g in graph.vertices
            if g != 0 or graph.valence[vid] != 3
        ]
        raise NonTrivalentGraph(
            f"need a trivalent graph with genus-0 vertices; offending "
            f"vertices: {bad}"
        )


def require_tree(graph: MarkedGraph) -> None:
    """Raise NotATree unless the graph has no cycles and genus-0 vertices."""
    if not graph.is_tree():
        raise NotATree(
            f"first Betti number {graph.first_betti}, vertex genera "
            f"{sorted(g for _, g in graph.vertices)}"
        )


# -- stock graphs ----------------------------------------------------------


def trinode() -> MarkedGraph:
    """One genus-0 vertex carrying legs 1, 2, 3."""
    return new_graph([(0, 0)], [], [(0, 1), (0, 2), (0, 3)])


def caterpillar(n: int) -> MarkedGraph:
    """The trivalent tree with n >= 3 legs along a spine.

    Spine vertices 0..n-3; legs 1, 2 at one end, n-1, n at the other, one
    leg per middle vertex in order.
    """
    if n < 3:
        raise UnstableSignature(f"caterpillar needs at least 3 legs, got {n}")
    s = n - 2
    verts = [(i, 0) for i in range(s)]
    edges = [(i, i + 1) for i in range(s - 1)]
    if s == 1:
        legs = [(0, 1), (0, 2), (0, 3)]
    else:
        legs = [(0, 1), (0, 2)]
        for i in range(1, s - 1):
            legs.append((i, i + 2))
        legs += [(s - 1, n - 1), (s - 1, n)]
    return new_graph(verts, edges, legs)


def dumbbell() -> MarkedGraph:
    """Two loop vertices joined by a bridge (genus 2, no legs)."""
    return new_graph([(0, 0), (1, 0)], [(0, 0), (0, 1), (1, 1)], [])


def theta_graph() -> MarkedGraph:
    """Two vertices joined by three parallel edges (genus 2, no legs)."""
    return new_graph([(0, 0), (1, 0)], [(0, 1), (0, 1), (0, 1)], [])


def loop_with_leg() -> MarkedGraph:
    """One vertex with a loop and leg 1 (genus 1, one leg)."""
    return new_graph([(0, 0)], [(0, 0)], [(0, 1)])
