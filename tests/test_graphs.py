from __future__ import annotations

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verkit import (
    BadGraphDocument,
    BadLegLabels,
    DanglingReference,
    DisconnectedGraph,
    IsLeg,
    MarkedGraph,
    UnstableVertex,
    are_isomorphic,
    caterpillar,
    dumbbell,
    loop_with_leg,
    new_graph,
    theta_graph,
    trinode,
)


def test_stock_graph_signatures():
    assert trinode().signature() == (0, 3)
    assert caterpillar(4).signature() == (0, 4)
    assert caterpillar(6).signature() == (0, 6)
    assert dumbbell().signature() == (2, 0)
    assert theta_graph().signature() == (2, 0)
    assert loop_with_leg().signature() == (1, 1)
    for g in (trinode(), caterpillar(5), dumbbell(), theta_graph(), loop_with_leg()):
        assert g.is_trivalent()


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


@settings(max_examples=60, deadline=None)
@given(perm=st.permutations(list(range(4))), data=st.data())
def test_canonical_label_invariant_under_relabeling(perm, data):
    base = data.draw(
        st.sampled_from(
            [caterpillar(4), caterpillar(5), dumbbell(), theta_graph(), loop_with_leg()]
        )
    )
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


def _relabeled(graph, seed):
    rng = random.Random(seed)
    ids = [vid for vid, _ in graph.vertices]
    fresh = dict(zip(ids, rng.sample(range(100), len(ids))))
    edges = [(fresh[a], fresh[b]) for a, b in graph.edges]
    rng.shuffle(edges)
    return new_graph([(fresh[v], g) for v, g in graph.vertices], edges, [])


def test_canonical_label_on_vertex_transitive_graphs():
    ring = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    petersen = _cubic(ring + spokes + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    prism = _cubic(ring + spokes + [(5 + i, 5 + (i + 1) % 5) for i in range(5)])
    cube = _cubic([(a, b) for a in range(8) for b in range(a + 1, 8)
                   if bin(a ^ b).count("1") == 1])
    for graph in (petersen, prism, cube):
        for seed in range(3):
            assert _relabeled(graph, seed).canonical_label == graph.canonical_label
    assert petersen.signature() == prism.signature() == (6, 0)
    assert petersen.canonical_label != prism.canonical_label


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
