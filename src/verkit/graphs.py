"""Genus-decorated multigraphs with labeled legs.

The central object is :class:`MarkedGraph`: a connected multigraph whose
vertices carry a nonnegative integer genus and whose legs (half-edges) carry
the labels 1..n.  Loops and parallel edges are allowed.  Instances are
immutable and hashable; all mutating operations return new graphs.

Slot indexing convention used throughout the package: the slots of a graph
are its edges in tuple order followed by its legs in label order, so slot
``i < len(edges)`` is edge ``i`` and leg label ``l`` is slot
``len(edges) + l - 1``.  A loop is one slot, listed twice at its vertex.

:func:`new_graph` reads every id, genus, edge end and leg label as an
integer and validates in one pass over the edges and one over the legs.
:attr:`MarkedGraph.canonical_label` numbers the vertices 0..V-1 in
``vertices`` order and searches on those indices alone, so the label
depends on nothing but the graph and is the same in every process.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import (
    BadGraphDocument,
    BadLegLabels,
    BadWeighting,
    DanglingReference,
    DisconnectedGraph,
    IsLeg,
    NonTrivalentGraph,
    NotATree,
    UnstableSignature,
    UnstableVertex,
    VerkitError,
    _check_cap,
)

@dataclass(frozen=True)
class MarkedGraph:
    """Connected multigraph with vertex genera and labeled legs.

    vertices: tuple of (id, genus) pairs; ids are arbitrary distinct ints.
    edges: tuple of (a, b) vertex-id pairs with a <= b; loops have a == b.
    legs: tuple of (vertex_id, label) pairs, sorted by label; labels are
        exactly 1..n.

    Build instances through :func:`new_graph`, which normalizes and
    validates.  Direct construction skips validation.  new_graph keeps a
    pair it is given that is already a tuple of two ints in normal form,
    so a graph and the graphs built from it by a local move (a contraction,
    say) share the pairs the move leaves alone; tuples are immutable, so
    sharing them is safe.
    """

    vertices: tuple[tuple[int, int], ...]
    edges: tuple[tuple[int, int], ...]
    legs: tuple[tuple[int, int], ...]

    # -- basic derived data -------------------------------------------------

    @cached_property
    def n_legs(self) -> int:
        return len(self.legs)

    @cached_property
    def valence(self) -> dict[int, int]:
        """Valence per vertex: loops count twice, legs once."""
        return {vid: len(s) for vid, s in self.slots_at.items()}

    @cached_property
    def slots_at(self) -> dict[int, tuple[int, ...]]:
        """Slots incident to each vertex, loops listed twice."""
        out: dict[int, list[int]] = {vid: [] for vid, _ in self.vertices}
        for i, (a, b) in enumerate(self.edges):
            out[a].append(i)
            out[b].append(i)
        for vid, lab in self.legs:
            out[vid].append(len(self.edges) + lab - 1)
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

    def _not_trivalent(self) -> list[int]:
        """The vertices that are not 3-valent with genus 0."""
        return [
            vid for vid, g in self.vertices if g != 0 or self.valence[vid] != 3
        ]

    def is_trivalent(self) -> bool:
        """All vertices have valence exactly 3 and genus 0."""
        return not self._not_trivalent()

    # -- structural operations ---------------------------------------------

    def contract_edge(self, e: int) -> "MarkedGraph":
        """Contract edge slot ``e`` and return the smaller graph.

        A non-loop edge merges its endpoints (keeping the smaller id) and
        the new vertex gets the sum of the genera.  A loop is deleted and
        its vertex's genus goes up by one.  Total genus is preserved.

        Raises IsLeg if ``e`` points at a leg slot and DanglingReference if
        it points at nothing or is not an integer (a float or a boolean).
        """
        e = e if type(e) is int else _integer(e, "edge slot", DanglingReference)
        ne = len(self.edges)
        if ne <= e < ne + self.n_legs:
            raise IsLeg(f"slot {e} is leg {self.legs[e - ne][1]}, not an edge")
        if not 0 <= e < ne:
            raise DanglingReference(f"no edge slot {e}")
        a, b = self.edges[e]  # a <= b, and b merges into a
        edges = self.edges[:e] + self.edges[e + 1:]
        legs = self.legs
        if a == b:
            gained, verts = 1, self.vertices
        else:
            gained = next(g for vid, g in self.vertices if vid == b)
            verts = [p for p in self.vertices if p[0] != b]
            edges = [p if b not in p else _merged(p, a, b) for p in edges]
            legs = [p if p[0] != b else (a, p[1]) for p in legs]
        # only the pairs the move changes are new; the rest are shared
        return new_graph(
            [p if p[0] != a else (a, p[1] + gained) for p in verts],
            edges, legs,
        )

    # -- canonical form -----------------------------------------------------

    @cached_property
    def canonical_label(self) -> bytes:
        """Deterministic byte string equal across isomorphic graphs.

        Isomorphisms must preserve vertex genus, the graph structure
        (including loop/parallel multiplicity), and fix every leg label.
        Individualization-refinement on vertex indices 0..V-1, numbered in
        ``vertices`` order: colour vertices by (genus, valence, leg labels,
        loop count), kept as a list of ranks, and refine by the sorted
        colours of each vertex's neighbour index list until the number of
        colours stops growing (at once when every colour is a single
        vertex).  While a cell has more than one vertex, individualize
        each vertex of the least such cell in turn, refine, and recurse.
        Every branch of the search tree ends in a vertex order, and the
        label is the least encoding over all of them.  Two leaves with
        equal encodings give an automorphism; the search skips a vertex
        of a cell in the orbit of a vertex already tried there, under the
        automorphisms found so far that fix the vertices individualized
        above the cell, since its subtree is an image of one already
        visited and holds the same encodings.  For the same reason a leaf
        that ties with the least jumps the search back to the node where
        the two leaves' paths part: the automorphism they give maps the
        least leaf's finished subtree there onto the rest of this one's,
        which then holds no new encoding.  Past ``_LEAF_CAP`` encoded
        leaves the search raises InstanceTooLarge.  No use of hash(), so
        labels are stable across processes and platforms.

        Two shortcuts leave every byte as it was.  Where the ids are
        already 0..V-1 in order, as on every class generation builds, the
        edges are the index pairs and no id map is made.  Where the root
        colouring is already discrete, as on most genus-0 classes, it is
        the search's one leaf: it is counted against the cap and encoded
        as the search would, with no search.
        """
        n = len(self.vertices)
        if [vid for vid, _ in self.vertices] == list(range(n)):
            edges = self.edges  # the ids are the indices
            legs = [v for v, _ in self.legs]
        else:
            index = {vid: i for i, (vid, _) in enumerate(self.vertices)}
            edges = [(index[a], index[b]) for a, b in self.edges]
            legs = [index[v] for v, _ in self.legs]
        loops = [0] * n
        neighbors: list[list[int]] = [[] for _ in range(n)]
        for i, j in edges:
            if i == j:
                loops[i] += 1
            else:
                neighbors[i].append(j)
                neighbors[j].append(i)
        legs_at: list[list[int]] = [[] for _ in range(n)]
        for i, (_, lab) in zip(legs, self.legs):
            legs_at[i].append(lab)  # in label order, as new_graph sorts
        genus = [g for _, g in self.vertices]

        # the valence: non-loop edge ends, loops twice, and legs
        colors, count, cells = _refine(*_rank([
            (g, len(nbrs) + 2 * k + len(labs), tuple(labs), k)
            for g, nbrs, labs, k in zip(genus, neighbors, legs_at, loops)
        ]), neighbors)
        if count == n:  # the root is the search's one leaf
            _check_cap(1, _LEAF_CAP, "leaves", "label search cap")
            return repr(_encode(colors, genus, edges, legs)).encode("ascii")
        found = _Found()
        _search(colors, count, cells, (), (neighbors, genus, edges, legs),
                found)
        return repr(found.least).encode("ascii")

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

        Raises BadGraphDocument if it is not JSON of that shape, including
        a float or boolean where an id, genus, label or edge end belongs; a
        graph that new_graph rejects raises the error new_graph gives.
        """
        try:
            if isinstance(data, str):
                data = json.loads(data)
            vertices = [(v["id"], v["genus"]) for v in data["vertices"]]
            edges = [tuple(e) for e in data["edges"]]
            legs = [(l["vertex"], l["label"]) for l in data["legs"]]
            return new_graph(vertices, edges, legs)
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


def _merged(edge: tuple[int, int], a: int, b: int) -> tuple[int, int]:
    """edge with its ends at b moved to a, as a normal-form pair."""
    x, y = edge
    x, y = (a if x == b else x), (a if y == b else y)
    return (x, y) if x <= y else (y, x)


# -- canonical labelling ---------------------------------------------------

# Leaves the label search may encode before it refuses.  The pruned search
# encodes at most 6 on the stable classes of (0,3)..(0,8), (1,1)..(1,4),
# (2,0)..(2,2), (3,0), (3,1) and (4,0), and 24 on the genus-24 tree with a
# loop on each leaf, whose unpruned search has 3! * 2**21 leaves.
_LEAF_CAP = 10**4


def _rank(keys: list) -> tuple[list[int], int]:
    """Each key's rank among the distinct keys, and the number of them."""
    order = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys], len(order)


def _refine(
    colors: list[int], count: int, neighbors: list[list[int]]
) -> tuple[list[int], int, list[list[int]] | None]:
    """Refine by the sorted colours of each vertex's neighbours until the
    number of colours stops growing; return the colours, their number and
    the cells, each colour's vertices in increasing order (None when the
    colouring is discrete, which needs none).

    Each round ranks the keys (colour, sorted neighbour colours).  The
    colour comes first, so each cell's vertices take a block of ranks in
    cell order: a cell is ranked alone, by the neighbour colours, after
    the cells before it, and a vertex alone in its cell keeps its place
    in that order and needs no key."""
    n = len(colors)
    cells = None
    # An unchanged count means unchanged colours, so the cells found last
    # are the result's; and a discrete colouring is final.
    while count < n:
        cells = [[] for _ in range(count)]
        for v, c in enumerate(colors):
            cells[c].append(v)
        new_colors = [0] * n
        new_count = 0
        for cell in cells:
            if len(cell) == 1:
                new_colors[cell[0]] = new_count
                new_count += 1
                continue
            ranks, distinct = _rank([
                tuple(sorted([colors[u] for u in neighbors[v]]))
                for v in cell
            ])
            for v, r in zip(cell, ranks):
                new_colors[v] = new_count + r
            new_count += distinct
        if new_count == count:
            return colors, count, cells
        colors, count = new_colors, new_count
    return colors, count, None


def _encode(pi: list[int], genus: list[int], edges: list, legs: list) -> tuple:
    """The graph with vertex i renamed pi[i]: genus by new vertex, sorted
    edges, and the vertex of each leg in label order."""
    genus_seq = [0] * len(pi)
    for i, g in enumerate(genus):
        genus_seq[pi[i]] = g
    edge_enc = [(x, y) if (x := pi[i]) <= (y := pi[j]) else (y, x)
                for i, j in edges]
    edge_enc.sort()
    return (tuple(genus_seq), tuple(edge_enc), tuple([pi[i] for i in legs]))


class _Found:
    """A label search so far: the least encoding, the vertex order (the
    leaf's colours) and the individualized vertices (``fixed``) that gave
    it, the automorphisms that ties with it gave, and the number of leaves
    encoded."""

    __slots__ = ("least", "order", "path", "autos", "leaves")

    def __init__(self) -> None:
        self.least = self.order = self.path = None
        self.autos: list[list[int]] = []
        self.leaves = 0


def _search(
    colors: list[int], count: int, cells: list[list[int]] | None,
    fixed: tuple[int, ...], graph: tuple, found: _Found,
) -> int:
    """Visit the subtree of the node that individualized ``fixed`` in turn
    and refined to ``colors`` and ``cells`` (as _refine gives them),
    recording its leaves in ``found``, and return the depth of the node
    the search goes on at: the parent's, or a shallower one when a leaf
    ties with the least.

    ``graph`` is (neighbours, genus, edges, legs) on vertex indices."""
    depth = len(fixed)
    if count == len(colors):  # a leaf: the colours are the vertex order
        found.leaves += 1
        _check_cap(found.leaves, _LEAF_CAP, "leaves", "label search cap")
        code = _encode(colors, *graph[1:])
        if found.least is None or code < found.least:
            found.least, found.order, found.path = code, colors, fixed
        elif code == found.least:
            inverse = [0] * count
            for v, c in enumerate(found.order):
                inverse[c] = v
            found.autos.append([inverse[c] for c in colors])
            # Both leaves went through the node at the depth where their
            # paths part, so the automorphism fixes the path above it and
            # maps the least leaf's finished subtree there onto this
            # leaf's: the rest of it holds no new encoding.
            return next(d for d, (u, v) in enumerate(zip(fixed, found.path))
                        if u != v)
        return depth - 1
    least = next(c for c, cell in enumerate(cells) if len(cell) > 1)
    cell = cells[least]
    # Individualizing v ranks the keys (colour, u != v): the colours below
    # the cell are single vertices and keep their ranks, v takes the cell's
    # rank and every other vertex moves up one.
    up = [c if c < least else c + 1 for c in colors]
    # An automorphism that fixes ``fixed`` pointwise maps this node to
    # itself, so it permutes the cell and maps the subtree below v onto the
    # subtree below its image.  orbit names the orbit of each cell vertex
    # under those found so far by its least vertex.  The cell is tried in
    # increasing order, so a vertex that does not name its orbit shares it
    # with a vertex tried before, and its subtree is skipped.
    orbit = list(range(len(colors)))
    merged = 0
    for v in cell:
        for gamma in found.autos[merged:]:
            if all(gamma[u] == u for u in fixed):
                for u in cell:
                    a, b = orbit[u], orbit[gamma[u]]
                    if a != b:  # merge the orbits under the lesser name
                        if a > b:
                            a, b = b, a
                        for w in cell:
                            if orbit[w] == b:
                                orbit[w] = a
        merged = len(found.autos)
        if orbit[v] != v:
            continue
        child = up[:]
        child[v] = least
        back = _search(*_refine(child, count + 1, graph[0]), fixed + (v,),
                       graph, found)
        if back < depth:
            return back
    return depth - 1


def _integer(value, what: str, error: type[VerkitError] = BadWeighting) -> int:
    """value as an int; ``error`` for a boolean, a float or any other value
    that is not an integer, where int() would truncate or accept."""
    if type(value) is int:
        return value
    if isinstance(value, bool):
        raise error(f"{what} {value!r} is a boolean, not an integer")
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} {value!r} is not an integer") from None


def _integers(values, what: str) -> tuple[int, ...]:
    """values as a tuple of ints, BadWeighting as _integer gives it.  A
    tuple whose items are all exactly int is returned as it is, after one
    pass over their types; anything else is read item by item."""
    if type(values) is tuple and all(type(x) is int for x in values):
        return values
    return tuple([_integer(x, what) for x in values])


def _is_stable(genus: int, n_legs: int) -> bool:
    """Does the (genus, legs) signature have a stable graph?"""
    return genus >= 0 and n_legs >= 0 and 2 * genus - 2 + n_legs > 0


def _check_signature(genus: int, n_legs: int) -> tuple[int, int]:
    """The signature as ints; BadWeighting for a genus or leg count that is
    not an integer, UnstableSignature for a signature with no stable graph."""
    genus = _integer(genus, "genus")
    n_legs = _integer(n_legs, "leg count")
    if not _is_stable(genus, n_legs):
        raise UnstableSignature(
            f"no stable graph with genus {genus} and {n_legs} legs"
        )
    return genus, n_legs


def new_graph(
    vertices: Iterable[tuple[int, int]],
    edges: Iterable[tuple[int, int]] = (),
    legs: Iterable[tuple[int, int]] = (),
) -> MarkedGraph:
    """Validate and normalize raw graph data into a MarkedGraph.

    Every id, genus, edge end and leg label is read as an integer in the
    pass that first uses it (BadGraphDocument for a boolean or a float).
    Checks, in this order: distinct vertex ids, at least one vertex,
    nonnegative genera, all references resolve, leg labels exactly 1..n,
    connectivity, and stability of every vertex (2*genus - 2 + valence > 0,
    loops counting twice).  Data of the wrong shape, a vertex, edge or leg
    that is not a pair, say, raises BadGraphDocument.

    Each check runs on every graph, in that order, with work kept to the
    passes it needs: the first negative genus is noted in the id pass and
    raised only after the id checks; the valence is the adjacency list's
    length (a loop is listed twice there) plus a leg count; and the legs
    are sorted, and their labels listed, only if they arrive out of label
    order, since labels 1..n in order need no other test.

    A pair that is already a ``tuple`` of two ``int`` (an edge with
    ``a <= b``) goes into the graph as the very object given, so graphs
    built from one another share their pairs; a list or tuple-subclass
    row, a reversed edge or a value read through operator.index becomes a
    fresh tuple.  Tuples are immutable, so the sharing is safe.
    """
    try:
        verts = []
        negative = None  # the first vertex of negative genus
        for pair in vertices:
            v, g = pair
            if (type(v) is not int or type(g) is not int
                    or type(pair) is not tuple):
                pair = v, g = (
                    _integer(v, "vertex id", BadGraphDocument),
                    _integer(g, "genus", BadGraphDocument),
                )
            if g < 0 and negative is None:
                negative = pair
            verts.append(pair)
        verts = tuple(verts)
        adj: dict[int, list[int]] = {vid: [] for vid, _ in verts}  # id set too
        if len(adj) != len(verts):
            raise DanglingReference("duplicate vertex ids")
        if not verts:
            raise DisconnectedGraph("graph has no vertices")
        if negative is not None:
            raise UnstableVertex(
                f"vertex {negative[0]} has negative genus {negative[1]}"
            )

        norm_edges = []
        for edge in edges:
            a, b = edge
            if (type(a) is not int or type(b) is not int
                    or type(edge) is not tuple or a > b):
                a = _integer(a, "edge end", BadGraphDocument)
                b = _integer(b, "edge end", BadGraphDocument)
                edge = (a, b) if a <= b else (b, a)
            if a not in adj or b not in adj:
                raise DanglingReference(
                    f"edge ({a},{b}) references a missing vertex"
                )
            adj[a].append(b)  # a loop lists its vertex twice
            adj[b].append(a)
            norm_edges.append(edge)

        norm_legs = []
        leg_count = {}  # per vertex that has a leg
        in_order = True
        for leg in legs:
            v, lab = leg
            if (type(v) is not int or type(lab) is not int
                    or type(leg) is not tuple):
                v = _integer(v, "leg vertex", BadGraphDocument)
                lab = _integer(lab, "leg label", BadGraphDocument)
                leg = (v, lab)
            if v not in adj:
                raise DanglingReference(
                    f"leg {lab} references missing vertex {v}"
                )
            leg_count[v] = leg_count.get(v, 0) + 1
            norm_legs.append(leg)
            if lab != len(norm_legs):
                in_order = False
    except (TypeError, ValueError) as exc:
        # a row that is not a pair, or data that is not iterable
        raise BadGraphDocument(
            f"graph data of the wrong shape: {type(exc).__name__}: {exc}"
        ) from exc
    if not in_order:
        norm_legs.sort(key=operator.itemgetter(1))
        labels = [lab for _, lab in norm_legs]
        if labels != list(range(1, len(labels) + 1)):
            raise BadLegLabels(f"leg labels {labels} are not exactly 1..n")

    root = verts[0][0]
    seen = {root}
    reached = [root]
    for v in reached:  # grows as the search reaches vertices
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                reached.append(u)
    if len(seen) != len(verts):
        raise DisconnectedGraph(
            f"{len(verts) - len(seen)} vertices unreachable from vertex {root}"
        )

    for vid, genus in verts:
        valence = len(adj[vid]) + leg_count.get(vid, 0)
        if not _is_stable(genus, valence):
            raise UnstableVertex(
                f"vertex {vid}: genus {genus}, valence {valence}"
            )
    return MarkedGraph(verts, tuple(norm_edges), tuple(norm_legs))


def are_isomorphic(g1: MarkedGraph, g2: MarkedGraph) -> bool:
    """Isomorphism preserving genera and fixing every leg label."""
    return g1.canonical_label == g2.canonical_label


def require_trivalent(graph: MarkedGraph) -> None:
    """Raise NonTrivalentGraph unless every vertex is 3-valent with genus 0."""
    bad = graph._not_trivalent()
    if bad:
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
    leg per middle vertex in order.  BadWeighting if n is not an integer.
    """
    _, n = _check_signature(0, n)
    s = n - 2
    verts = [(i, 0) for i in range(s)]
    edges = [(i, i + 1) for i in range(s - 1)]
    legs = [(0, 1)] + [(i, i + 2) for i in range(s)] + [(s - 1, n)]
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
