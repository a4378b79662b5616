from __future__ import annotations

import collections
import gc
import hashlib
import itertools
import json
import random
import time

import numpy as np
import pytest

from verkit import (
    BadGraphDocument,
    BadLegLabels,
    DanglingReference,
    DisconnectedGraph,
    InstanceTooLarge,
    IsLeg,
    MarkedGraph,
    UnstableVertex,
    are_isomorphic,
    caterpillar,
    dumbbell,
    graphs,
    loop_with_leg,
    new_graph,
    standard_graph,
    theta_graph,
    trinode,
)
from verkit.cli import main


def test_stock_graph_signatures():
    assert trinode().signature() == (0, 3)
    assert caterpillar(4).signature() == (0, 4)
    assert caterpillar(6).signature() == (0, 6)
    assert dumbbell().signature() == (2, 0)
    assert theta_graph().signature() == (2, 0)
    assert loop_with_leg().signature() == (1, 1)
    for g in (trinode(), caterpillar(5), dumbbell(), theta_graph(), loop_with_leg()):
        assert g.is_trivalent()


def test_stock_graphs_refuse_sizes_past_the_stock_cap(monkeypatch):
    # judged before the first vertex, so a size past memory is refused
    # at once; standard_graph builds through the caterpillar with n + g legs.
    # The sizes just past the cap come first: without the cap they fail
    # here cheaply, before the sizes that would exhaust memory are tried.
    def build(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(graphs, "new_graph", build)
    for make in (lambda: caterpillar(100_001),
                 lambda: standard_graph(10**5, 1),
                 lambda: caterpillar(10**5000),
                 lambda: standard_graph(10**5000, 0)):
        start = time.perf_counter()
        with pytest.raises(InstanceTooLarge, match="stock graph cap 100000$"):
            make()
        assert time.perf_counter() - start < 0.05
    # the cap itself is admitted, as far as the build
    with pytest.raises(AssertionError, match="a graph was built"):
        caterpillar(100_000)


def test_caterpillar_3_is_trinode():
    assert are_isomorphic(caterpillar(3), trinode())


def test_total_genus_counts_cycles_and_vertex_genus():
    assert trinode().total_genus == 0
    assert dumbbell().total_genus == 2
    assert theta_graph().total_genus == 2
    g = new_graph([(0, 1)], [(0, 0)], [(0, 1)])  # genus-1 vertex with a loop
    assert g.total_genus == 2


def test_new_graph_rejects_disconnected():
    with pytest.raises(DisconnectedGraph):
        new_graph([(0, 1), (1, 1)], [], [(0, 1), (1, 2)])
    with pytest.raises(DisconnectedGraph):
        new_graph([], [], [])


def test_new_graph_rejects_unstable_vertices():
    # bare loop vertex: valence 2, genus 0
    with pytest.raises(UnstableVertex):
        new_graph([(0, 0)], [(0, 0)], [])
    # two-valent genus-0 vertex in a chain
    with pytest.raises(UnstableVertex):
        new_graph([(0, 0), (1, 0)], [(0, 1)], [(0, 1), (0, 2), (1, 3)])
    with pytest.raises(UnstableVertex):
        new_graph([(0, -1)], [], [(0, 1), (0, 2), (0, 3)])


def test_new_graph_rejects_bad_legs_and_references():
    with pytest.raises(BadLegLabels):
        new_graph([(0, 0)], [], [(0, 1), (0, 2), (0, 4)])
    with pytest.raises(BadLegLabels):
        new_graph([(0, 0)], [], [(0, 1), (0, 1), (0, 2)])
    with pytest.raises(DanglingReference):
        new_graph([(0, 0)], [(0, 3)], [(0, 1)])
    with pytest.raises(DanglingReference):
        new_graph([(0, 0)], [], [(5, 1), (0, 2), (0, 3)])
    with pytest.raises(DanglingReference):
        new_graph([(0, 0), (0, 1)], [], [(0, 1), (0, 2), (0, 3)])


def test_genus_one_vertex_with_leg_is_stable():
    g = new_graph([(0, 1)], [], [(0, 1)])
    assert g.signature() == (1, 1)
    assert not g.is_trivalent()


def test_slots_list_loops_twice():
    g = loop_with_leg()
    slots = g.slots_at[0]
    assert slots.count(0) == 2
    assert 1 in slots
    assert g.valence[0] == 3


def test_contract_bridge_merges_and_sums_genus():
    g = new_graph(
        [(0, 1), (1, 2)], [(0, 1)], [(0, 1), (1, 2)]
    )  # two decorated vertices joined by an edge
    c = g.contract_edge(0)
    assert len(c.vertices) == 1
    assert c.vertices[0][1] == 3
    assert c.total_genus == g.total_genus == 3


def test_contract_loop_bumps_genus():
    g = dumbbell()
    loops = [i for i, (a, b) in enumerate(g.edges) if a == b]
    c = g.contract_edge(loops[0])
    assert c.total_genus == 2
    assert sorted(gen for _, gen in c.vertices) == [0, 1]


def test_contract_parallel_edge_makes_loops():
    c = theta_graph().contract_edge(0)
    assert len(c.vertices) == 1
    assert len(c.edges) == 2
    assert all(a == b for a, b in c.edges)
    assert c.total_genus == 2


def test_contract_edge_slot_errors():
    g = caterpillar(4)
    ne = len(g.edges)
    with pytest.raises(IsLeg):
        g.contract_edge(ne)  # first leg slot
    with pytest.raises(IsLeg):
        g.contract_edge(ne + 3)
    with pytest.raises(DanglingReference):
        g.contract_edge(ne + 4)
    with pytest.raises(DanglingReference):
        g.contract_edge(-1)
    for slot in (True, 1.0):  # read as an integer, not as edge 1
        with pytest.raises(DanglingReference):
            g.contract_edge(slot)
    assert g.contract_edge(np.int64(0)) == g.contract_edge(0)


def _assert_contraction_shares(g, e):
    """contract_edge(e) builds new pairs only for the merged vertex, a
    loop's genus bump and the edges and legs that touched the vertex that
    merges away; every other pair is the parent's own object."""
    a, b = g.edges[e]
    c = g.contract_edge(e)
    kept = g.edges[:e] + g.edges[e + 1:]
    assert len(c.edges) == len(kept) and len(c.legs) == len(g.legs)
    others = [p for p in g.vertices if p[0] not in (a, b)]
    survivors = [p for p in c.vertices if p[0] != a]
    assert len(survivors) == len(others)
    assert all(new is old for new, old in zip(survivors, others))
    merged = next(p for p in c.vertices if p[0] == a)
    assert all(merged is not p for p in g.vertices)
    for old, new in zip(kept, c.edges):
        assert (new is old) == (a == b or b not in old)
    for old, new in zip(g.legs, c.legs):
        assert (new is old) == (a == b or old[0] != b)
    return c


def test_contraction_shares_the_pairs_it_leaves_alone():
    bridge = _assert_contraction_shares(caterpillar(6), 1)
    assert bridge.vertices[1] == (1, 0) and bridge.edges == ((0, 1), (1, 3))
    loop = _assert_contraction_shares(dumbbell(), 0)
    assert loop.vertices == ((0, 1), (1, 0))
    g = new_graph([(0, 0), (1, 0), (2, 0)], [(0, 1), (0, 1), (1, 2), (2, 2)],
                  [(0, 1), (2, 2)])
    parallel = _assert_contraction_shares(g, 0)
    assert parallel.edges == ((0, 0), (0, 2), (2, 2))


def test_isomorphism_ignores_vertex_ids_and_edge_order():
    g1 = new_graph([(0, 0), (1, 0)], [(0, 0), (0, 1), (1, 1)], [])
    g2 = new_graph([(7, 0), (3, 0)], [(3, 3), (7, 3), (7, 7)], [])
    assert are_isomorphic(g1, g2)
    assert g1.canonical_label == g2.canonical_label


def test_isomorphism_distinguishes_theta_from_dumbbell():
    # same vertex and edge counts, different multigraph structure
    assert not are_isomorphic(theta_graph(), dumbbell())


def test_isomorphism_respects_leg_labels():
    split_12 = new_graph(
        [(0, 0), (1, 0)], [(0, 1)], [(0, 1), (0, 2), (1, 3), (1, 4)]
    )
    split_13 = new_graph(
        [(0, 0), (1, 0)], [(0, 1)], [(0, 1), (0, 3), (1, 2), (1, 4)]
    )
    assert not are_isomorphic(split_12, split_13)


def test_isomorphism_respects_vertex_genus():
    plain = new_graph([(0, 0), (1, 0)], [(0, 1)] * 3, [])
    decorated = new_graph([(0, 1), (1, 0)], [(0, 1)] * 3, [])
    assert not are_isomorphic(plain, decorated)


def test_canonical_label_invariant_under_relabeling():
    bases = [caterpillar(4), caterpillar(5), dumbbell(), theta_graph(), loop_with_leg()]
    for perm, base in itertools.product(itertools.permutations(range(4)), bases):
        ids = [vid for vid, _ in base.vertices]
        mapping = {vid: 10 + perm[i % len(perm)] * 31 + i for i, vid in enumerate(ids)}
        relabeled = new_graph(
            [(mapping[v], g) for v, g in base.vertices],
            [(mapping[a], mapping[b]) for a, b in base.edges],
            [(mapping[v], lab) for v, lab in base.legs],
        )
        assert are_isomorphic(base, relabeled)


def test_canonical_label_stable_under_edge_reordering():
    g1 = new_graph([(0, 0), (1, 0)], [(0, 0), (0, 1), (1, 1)], [])
    g2 = new_graph([(0, 0), (1, 0)], [(1, 1), (0, 1), (0, 0)], [])
    assert g1.canonical_label == g2.canonical_label


def _cubic(edges):
    return new_graph([(v, 0) for v in sorted({v for e in edges for v in e})],
                     edges, [])


def _generalized_petersen(n, k):
    """Outer n-cycle, spokes, and inner vertices joined k apart."""
    return _cubic([(i, (i + 1) % n) for i in range(n)]
                  + [(i, n + i) for i in range(n)]
                  + [(n + i, n + (i + k) % n) for i in range(n)])


def _loop_tree(depth):
    """A ternary root, binary below it, and a loop at every leaf: a
    trivalent graph of genus 3 * 2**(depth - 1)."""
    vertices, edges, frontier = [(0, 0)], [], [0]
    for d in range(depth):
        children = []
        for parent in frontier:
            for _ in range(3 if d == 0 else 2):
                child = len(vertices)
                vertices.append((child, 0))
                edges.append((parent, child))
                children.append(child)
        frontier = children
    return new_graph(vertices, edges + [(v, v) for v in frontier], [])


SYMMETRIC = {
    "K4": _cubic([(a, b) for a in range(4) for b in range(a + 1, 4)]),
    "K33": _cubic([(a, b) for a in range(3) for b in range(3, 6)]),
    "cube": _generalized_petersen(4, 1),
    "petersen": _generalized_petersen(5, 2),
    "prism": _generalized_petersen(5, 1),
    "heawood": _cubic([(i, (i + 1) % 14) for i in range(14)]
                      + [(i, (i + 5) % 14) for i in range(0, 14, 2)]),
    "moebius_kantor": _generalized_petersen(8, 3),
    "desargues": _generalized_petersen(10, 3),
    "nauru": _generalized_petersen(12, 5),
    "dodecahedron": _generalized_petersen(10, 2),
    "loop_tree_2": _loop_tree(2),
    "loop_tree_3": _loop_tree(3),
}


def _relabeled(graph, seed):
    rng = random.Random(seed)
    ids = [vid for vid, _ in graph.vertices]
    fresh = dict(zip(ids, rng.sample(range(100), len(ids))))
    edges = [(fresh[a], fresh[b]) for a, b in graph.edges]
    rng.shuffle(edges)
    return new_graph([(fresh[v], g) for v, g in graph.vertices], edges, [])


def test_canonical_label_on_vertex_transitive_graphs():
    petersen, prism, cube = (SYMMETRIC[k] for k in ("petersen", "prism", "cube"))
    for graph in (petersen, prism, cube):
        for seed in range(3):
            assert _relabeled(graph, seed).canonical_label == graph.canonical_label
    assert petersen.signature() == prism.signature() == (6, 0)
    assert petersen.canonical_label != prism.canonical_label


def test_labels_of_symmetric_graphs_are_pinned():
    """The labels of these graphs hash to the digest the unpruned search
    gave them: pruning by automorphisms keeps every byte."""
    labels = [g.canonical_label for g in SYMMETRIC.values()]
    assert hashlib.sha256(b"\n".join(labels)).hexdigest() == (
        "b04a2fc33f6d13c5ee4938e49f4658adabcaba92824bd50bfb3939733d2a11fd"
    )
    for graph, label in zip(SYMMETRIC.values(), labels):
        for seed in range(5):
            assert _relabeled(graph, seed).canonical_label == label


def test_label_search_is_bounded_by_leaves(monkeypatch, tmp_path, capsys):
    """Work is counted in leaves, not timed.  The depth-4 loop-leaved tree
    has 3! * 2**21 automorphisms, each a leaf of the unpruned search; the
    pruned one labels it under the default cap."""
    tree = _loop_tree(4)
    assert tree.signature() == (24, 0)
    assert tree.canonical_label == _relabeled(tree, 0).canonical_label
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps(tree.to_json()))
    code = main(["hilbert", "--graph", str(tree_file), "--grading", "cox",
                 "--max", "2", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["graph"] == tree.canonical_hex()

    # Every graph here has at least 20 automorphisms, so 16 leaves are
    # fewer than the unpruned search visits on any of them.
    monkeypatch.setattr(graphs, "_LEAF_CAP", 16)
    for graph in SYMMETRIC.values():
        _relabeled(graph, 1).canonical_label

    monkeypatch.setattr(graphs, "_LEAF_CAP", 2)
    petersen = _relabeled(SYMMETRIC["petersen"], 2)
    with pytest.raises(InstanceTooLarge, match="cap 2"):
        petersen.canonical_label
    petersen_file = tmp_path / "petersen.json"
    petersen_file.write_text(json.dumps(petersen.to_json()))
    code = main(["hilbert", "--graph", str(petersen_file), "--grading", "cox",
                 "--max", "1", "--json"])
    assert code == 2
    assert "InstanceTooLarge" in capsys.readouterr().err
    assert caterpillar(8).canonical_label  # a discrete root encodes one leaf


def test_tied_leaves_jump_the_search_back(monkeypatch):
    """A leaf that ties with the least ends the subtree below the node where
    the two leaves' paths part.  Without that jump K4, the cube,
    Moebius-Kantor, Nauru, the dodecahedron and loop_tree_2 encode 7
    leaves, K33, Petersen and Desargues 8, and Heawood 11; with it K33
    encodes 6, Petersen 5 and loop_tree_3 12."""
    monkeypatch.setattr(graphs, "_LEAF_CAP", 6)
    for name, graph in SYMMETRIC.items():
        for seed in range(3):
            copy = _relabeled(graph, seed)
            if name == "loop_tree_3":
                with pytest.raises(InstanceTooLarge, match="cap 6"):
                    copy.canonical_label
            else:
                assert copy.canonical_label == graph.canonical_label
    monkeypatch.setattr(graphs, "_LEAF_CAP", 5)
    with pytest.raises(InstanceTooLarge, match="cap 5"):
        _relabeled(SYMMETRIC["K33"], 4).canonical_label
    monkeypatch.setattr(graphs, "_LEAF_CAP", 4)
    with pytest.raises(InstanceTooLarge, match="cap 4"):
        _relabeled(SYMMETRIC["petersen"], 4).canonical_label


def test_labelling_leaves_no_cyclic_garbage():
    graphs_ = [_relabeled(SYMMETRIC["K33"], 3),
               _relabeled(SYMMETRIC["petersen"], 3), caterpillar(8)]
    gc.collect()
    gc.disable()
    try:
        for graph in graphs_:
            graph.canonical_label
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_from_json_rejects_malformed_documents():
    good = caterpillar(4).to_json()
    documents = [
        dict(good, vertices=[[0, 0], [1, 0]]),  # vertices as pairs
        {k: v for k, v in good.items() if k != "legs"},
        dict(good, edges=[1]),
        [good],
        "{not json",
        dict(good, vertices=[{"id": 0, "genus": 1.7}, {"id": 1, "genus": 0}]),
        dict(good, vertices=[{"id": 0.0, "genus": 0}, {"id": 1, "genus": 0}]),
        dict(good, edges=[[0, 1.0]]),
        dict(good, edges=[[0, True]]),
        dict(good, legs=[dict(l, label=l["label"] * 1.0) for l in good["legs"]]),
        dict(good, legs=[dict(l, vertex=bool(l["vertex"])) for l in good["legs"]]),
        dict(good, legs=[{"vertex": 0, "label": True}] + good["legs"][1:]),
    ]
    for doc in documents:
        with pytest.raises(BadGraphDocument):
            MarkedGraph.from_json(doc)
        if not isinstance(doc, str):
            with pytest.raises(BadGraphDocument):
                MarkedGraph.from_json(json.dumps(doc))
    with pytest.raises(DanglingReference):  # well formed, but not a graph
        MarkedGraph.from_json(dict(good, edges=[[0, 7]]))


def test_json_round_trip_schema():
    g = caterpillar(4)
    data = g.to_json()
    assert set(data) == {"vertices", "edges", "legs"}
    assert all(set(v) == {"id", "genus"} for v in data["vertices"])
    assert all(set(l) == {"vertex", "label"} for l in data["legs"])
    back = MarkedGraph.from_json(json.dumps(data))
    assert back == g
    assert back.canonical_label == g.canonical_label


def test_dot_output_mentions_structure():
    dot = caterpillar(4).to_dot()
    assert dot.startswith("graph")
    assert 'label="g=0"' in dot
    assert "v0 -- v1;" in dot
    assert "leg1" in dot and "leg4" in dot
    gdot = new_graph([(0, 2)], [], [(0, 1)]).to_dot()
    assert 'label="g=2"' in gdot


def test_edges_normalized_to_sorted_pairs():
    g = new_graph([(0, 0), (1, 0)], [(1, 0), (0, 0), (1, 1)], [])
    assert all(a <= b for a, b in g.edges)


def test_legs_sorted_by_label():
    g = new_graph([(0, 0)], [], [(0, 3), (0, 1), (0, 2)])
    assert [lab for _, lab in g.legs] == [1, 2, 3]


def test_all_distinct_caterpillar_splits():
    splits = [
        new_graph([(0, 0), (1, 0)], [(0, 1)], [(0, 1), (0, a), (1, b), (1, c)])
        for a, b, c in [(2, 3, 4), (3, 2, 4), (4, 2, 3)]
    ]
    for g1, g2 in itertools.combinations(splits, 2):
        assert not are_isomorphic(g1, g2)


# Each row holds one fault or two; the error is that of the check new_graph
# runs first, so the rows pin the order of the checks.
LEGS3 = [(0, 1), (0, 2), (0, 3)]
MALFORMED = [
    ([(0, 0), (0, 0)], [(0, 9)], LEGS3, DanglingReference, "duplicate"),
    ([(0, -1), (0, 0)], [], LEGS3, DanglingReference, "duplicate"),
    ([], [], [(0, 1)], DisconnectedGraph, "no vertices"),
    ([(0, -1), (1, 0)], [(0, 5)], LEGS3, UnstableVertex, "negative genus"),
    ([(0, -1), (1, 0)], [], LEGS3, UnstableVertex, "negative genus"),
    ([(0, 0)], [(0, 4)], [(7, 1)], DanglingReference, r"edge \(0,4\)"),
    ([(0, 0)], [], [(0, 1), (5, 2), (0, 4)], DanglingReference, "leg 2"),
    ([(0, 0), (1, 0)], [], LEGS3 + [(1, 5), (1, 6), (1, 7)], BadLegLabels,
     "not exactly"),
    ([(0, 0)], [], [(0, 1), (0, 3)], BadLegLabels, "not exactly"),
    ([(0, 0), (1, 0)], [], LEGS3 + [(1, 4)], DisconnectedGraph,
     "unreachable from vertex 0"),
    ([(0, 0), (1, 0)], [(0, 1)], [(0, 1), (0, 2), (1, 3)], UnstableVertex,
     "vertex 1: genus 0, valence 2"),
]


@pytest.mark.parametrize("vertices, edges, legs, error, message", MALFORMED)
def test_new_graph_checks_run_in_a_fixed_order(vertices, edges, legs, error,
                                               message):
    with pytest.raises(error, match=message):
        new_graph(vertices, edges, legs)


def test_new_graph_sorts_legs_only_as_needed():
    # legs given in label order are kept in it; any other order comes back
    # sorted, as the same graph built from sorted legs
    verts, edges = [(0, 0), (1, 0)], [(0, 1)]
    legs = [(0, 1), (0, 2), (1, 3), (1, 4)]
    ordered = new_graph(verts, edges, legs)
    assert ordered.legs == tuple(legs)
    for seed in range(4):
        shuffled = legs[:]
        random.Random(seed).shuffle(shuffled)
        g = new_graph(verts, edges, shuffled)
        assert g.legs == tuple(legs) and g == ordered
        assert g.canonical_label == ordered.canonical_label
    # labels that are not 1..n are listed in ascending order
    with pytest.raises(BadLegLabels, match=r"leg labels \[1, 1, 3\] are not"):
        new_graph([(0, 0)], [], [(0, 3), (0, 1), (0, 1)])
    with pytest.raises(BadLegLabels, match=r"leg labels \[1, 2, 2\] are not"):
        new_graph([(0, 0)], [], [(0, 1), (0, 2), (0, 2)])


def test_new_graph_names_the_first_negative_genus():
    with pytest.raises(UnstableVertex, match="vertex 1 has negative genus -2"):
        new_graph([(0, 0), (1, -2), (2, -1)], [(0, 1), (1, 2)], LEGS3)
    with pytest.raises(UnstableVertex, match="vertex 2 has negative genus -1"):
        new_graph([(0, 0), (2, -1), (1, -2)], [(0, 1), (1, 2)], LEGS3)


def test_new_graph_refuses_non_integers():
    rows = [
        ([(0, 0)], [], [(0, 1), (0, 2), (0, 3.7)]),  # int() would make leg 3
        ([(0, True)], [(0, 0)], [(0, 1)]),  # int() would make genus 1
        ([(0.0, 0)], [], LEGS3),
        ([(0, 0), (1, 0)], [(0, 1), (0, True), (1, 1)], []),
        ([(0, 0)], [], [(False, 1), (0, 2), (0, 3)]),
        ([("0", 0)], [], LEGS3),
        ([(0, True), (0, 0)], [], LEGS3),  # read before the duplicate check
        ([(0, 0)], [(0, 0, 0)], [(0, 1)]),  # rows of the wrong shape
        ([None], [], []),
        ([(0, 0)], None, []),
    ]
    for vertices, edges, legs in rows:
        with pytest.raises(BadGraphDocument):
            new_graph(vertices, edges, legs)
    g = new_graph([(np.int64(0), np.int8(0))], [], [(0, np.int64(1)), (0, 2),
                                                    (0, 3)])
    assert g == trinode() and type(g.vertices[0][0]) is int


def test_new_graph_keeps_int_tuple_pairs():
    verts, edges, legs = [(0, 0), (1, 0)], [(0, 0), (0, 1), (1, 1)], [(0, 1)]
    g = new_graph(verts, edges, legs)
    pairs = g.vertices + g.edges + g.legs
    assert all(new is old for new, old in zip(pairs, verts + edges + legs))
    # anything else gives a fresh, exact tuple of ints
    Row = collections.namedtuple("Row", "a b")
    fresh = [
        new_graph([[0, 0], (1, 0)], edges, legs).vertices[0],
        new_graph([Row(0, 0), (1, 0)], edges, legs).vertices[0],
        new_graph(verts, [(0, 0), (1, 0), (1, 1)], legs).edges[1],
        new_graph([(0, 0), (np.int64(1), 0)], edges, legs).vertices[1],
        new_graph(verts, edges, [Row(0, 1)]).legs[0],
    ]
    assert fresh == [(0, 0), (0, 0), (0, 1), (1, 0), (0, 1)]
    for pair in fresh:
        assert type(pair) is tuple and all(type(x) is int for x in pair)
        assert all(pair is not old for old in verts + edges + legs)
    with pytest.raises(BadGraphDocument):
        new_graph([(0, True)], [(0, 0)], [(0, 1)])
