from __future__ import annotations

import hashlib
import json
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from verkit import (
    BadWeighting,
    InstanceTooLarge,
    StratumComplex,
    UnstableSignature,
    are_isomorphic,
    caterpillar,
    contraction_poset,
    dumbbell,
    enumerate_stable,
    enumerate_trivalent,
    flip_complex,
    flip_connectivity,
    flip_dot,
    flip_neighbors,
    hasse_dot,
    loop_with_leg,
    new_graph,
    theta_graph,
    trinode,
)
from verkit import moduli
from verkit.cli import main


def test_trivalent_class_counts():
    assert len(enumerate_trivalent(0, 3)) == 1
    assert len(enumerate_trivalent(0, 4)) == 3
    assert len(enumerate_trivalent(0, 5)) == 15
    assert len(enumerate_trivalent(0, 6)) == 105
    assert len(enumerate_trivalent(0, 7)) == 945
    assert len(enumerate_trivalent(1, 1)) == 1
    assert len(enumerate_trivalent(1, 2)) == 2
    assert len(enumerate_trivalent(2, 0)) == 2
    assert len(enumerate_trivalent(2, 1)) == 3
    # connected cubic multigraphs with loops allowed, OEIS A005967
    assert len(enumerate_trivalent(3, 0)) == 5
    assert len(enumerate_trivalent(4, 0)) == 17
    assert len(enumerate_trivalent(5, 0)) == 71


def test_trivalent_classes_have_right_shape():
    for g, n in [(0, 5), (1, 2), (2, 0), (2, 1)]:
        for cls in enumerate_trivalent(g, n):
            assert cls.is_trivalent()
            assert cls.signature() == (g, n)
            assert all(gv == 0 for _, gv in cls.vertices)
            assert len(cls.edges) == 3 * g - 3 + n


def test_trivalent_classes_pairwise_nonisomorphic():
    for g, n in [(0, 4), (1, 2), (2, 0), (2, 1)]:
        classes = enumerate_trivalent(g, n)
        for i in range(len(classes)):
            for j in range(i + 1, len(classes)):
                assert not are_isomorphic(classes[i], classes[j])


def test_genus_two_one_leg_matches_hand_enumeration():
    reps = [
        # two loops on the ends of a path, leg in the middle
        new_graph(
            [(0, 0), (1, 0), (2, 0)],
            [(0, 0), (0, 1), (1, 2), (2, 2)],
            [(1, 1)],
        ),
        # theta with one edge subdivided to carry the leg
        new_graph(
            [(0, 0), (1, 0), (2, 0)],
            [(0, 1), (0, 1), (0, 2), (1, 2)],
            [(2, 1)],
        ),
        # loop, then a double edge, leg on the far vertex
        new_graph(
            [(0, 0), (1, 0), (2, 0)],
            [(0, 0), (0, 1), (1, 2), (1, 2)],
            [(2, 1)],
        ),
    ]
    classes = enumerate_trivalent(2, 1)
    for rep in reps:
        assert sum(are_isomorphic(rep, cls) for cls in classes) == 1
    assert not are_isomorphic(reps[0], reps[1])
    assert not are_isomorphic(reps[0], reps[2])
    assert not are_isomorphic(reps[1], reps[2])


def test_genus_two_closed_matches_hand_enumeration():
    classes = enumerate_trivalent(2, 0)
    assert sum(are_isomorphic(dumbbell(), cls) for cls in classes) == 1
    assert sum(are_isomorphic(theta_graph(), cls) for cls in classes) == 1


def test_stable_class_counts():
    assert len(enumerate_stable(1, 1)) == 2
    assert len(enumerate_stable(0, 4)) == 4
    assert len(enumerate_stable(1, 2)) == 5
    assert len(enumerate_stable(2, 0)) == 7


def test_stable_classes_include_positive_genus_vertices():
    smooth = new_graph([(0, 1)], [], [(0, 1)])
    assert any(are_isomorphic(smooth, c) for c in enumerate_stable(1, 1))
    assert any(are_isomorphic(loop_with_leg(), c) for c in enumerate_stable(1, 1))


def test_stable_two_zero_matches_hand_enumeration():
    reps = [
        new_graph([(0, 2)], [], []),  # one genus-2 vertex
        new_graph([(0, 1)], [(0, 0)], []),  # genus-1 vertex with a loop
        new_graph([(0, 0)], [(0, 0), (0, 0)], []),  # two loops
        new_graph([(0, 1), (1, 1)], [(0, 1)], []),  # two genus-1 vertices
        new_graph([(0, 1), (1, 0)], [(0, 1), (1, 1)], []),  # genus-1 + loop
        dumbbell(),
        theta_graph(),
    ]
    classes = enumerate_stable(2, 0)
    assert len(classes) == len(reps)
    for rep in reps:
        assert sum(are_isomorphic(rep, cls) for cls in classes) == 1


def test_stable_includes_all_trivalent():
    triv = enumerate_trivalent(0, 5)
    stab = enumerate_stable(0, 5)
    labels = {g.canonical_label for g in stab}
    assert all(g.canonical_label in labels for g in triv)


def test_contraction_poset_four_legs():
    comp = contraction_poset(0, 4)
    assert len(comp.classes) == 4
    trivalent = [i for i, g in enumerate(comp.classes) if g.is_trivalent()]
    (star,) = [i for i, g in enumerate(comp.classes) if not g.is_trivalent()]
    assert len(trivalent) == 3
    assert set(comp.hasse) == {(i, star) for i in trivalent}
    # all three resolutions are flip-adjacent through the star
    assert len(comp.flips) == 6
    star_label = comp.classes[star].canonical_label
    for i, j, witness in comp.flips:
        assert i in trivalent and j in trivalent and i != j
        assert witness == star_label


def test_hasse_pairs_are_single_contractions():
    for g, n in [(1, 2), (2, 0)]:
        comp = contraction_poset(g, n)
        dims = comp.cone_dims
        for i, j in comp.hasse:
            assert dims[i] == dims[j] + 1
            src, dst = comp.classes[i], comp.classes[j]
            assert any(
                are_isomorphic(src.contract_edge(e), dst)
                for e in range(len(src.edges))
            )


def test_cone_dims():
    comp = flip_complex(0, 5)
    assert comp.cone_dims == (7,) * 15
    assert contraction_poset(1, 1).cone_dims.count(1) == 1  # smooth class


def test_flip_neighbors_none_on_trinode():
    assert flip_neighbors(trinode()) == ()


def test_flip_neighbors_caterpillar():
    moves = flip_neighbors(caterpillar(4))
    assert len(moves) == 2
    others = [c for c in enumerate_trivalent(0, 4)
              if not are_isomorphic(c, caterpillar(4))]
    for mv in moves:
        assert mv.edge == 0
        assert sum(are_isomorphic(mv.neighbor, o) for o in others) == 1
        assert not mv.ancestor.is_trivalent()


def test_flip_swaps_theta_and_dumbbell():
    for src, dst in [(theta_graph(), dumbbell()), (dumbbell(), theta_graph())]:
        moves = flip_neighbors(src)
        assert len(moves) == 1
        mv = moves[0]
        assert are_isomorphic(mv.neighbor, dst)
        # the witness is the single vertex carrying both loops
        assert len(mv.ancestor.vertices) == 1
        assert len(mv.ancestor.edges) == 2


def test_flip_moves_reverify():
    for cls in enumerate_trivalent(0, 5):
        for mv in flip_neighbors(cls):
            a = cls.contract_edge(mv.edge)
            assert are_isomorphic(a, mv.ancestor)
            back = {
                mv.neighbor.contract_edge(e).canonical_label
                for e in range(len(mv.neighbor.edges))
            }
            assert mv.ancestor.canonical_label in back


def test_flip_complex_matches_flip_neighbors():
    """The flips grouped by common one-edge ancestor are, class by class,
    the ones that re-expanding each edge finds, and no re-expansion
    crosses a loop."""
    for sig in [(0, 5), (0, 6), (1, 3), (2, 2), (3, 0)]:
        comp = flip_complex(*sig)
        label = [g.canonical_label for g in comp.classes]
        for i, g in enumerate(comp.classes):
            rows = [(label[a], label[b], w) for a, b, w in comp.flips if a == i]
            moves = flip_neighbors(g)
            assert all(genus == 0 for mv in moves
                       for _, genus in mv.ancestor.vertices)
            assert sorted(rows) == sorted(
                (label[i], mv.neighbor.canonical_label,
                 mv.ancestor.canonical_label) for mv in moves
            )


def test_flip_complex_symmetric_no_self_loops():
    for g, n in [(0, 5), (1, 2), (2, 0)]:
        comp = flip_complex(g, n)
        flips = set(comp.flips)
        for i, j, w in flips:
            assert i != j
            assert (j, i, w) in flips


def test_five_leg_flip_graph_is_four_regular():
    comp = flip_complex(0, 5)
    degree = {i: set() for i in range(15)}
    for i, j, _ in comp.flips:
        degree[i].add(j)
    assert all(len(v) == 4 for v in degree.values())


def test_flip_connectivity_frozen_diameters():
    assert flip_connectivity(0, 4) == (True, 1)
    assert flip_connectivity(0, 5) == (True, 3)
    assert flip_connectivity(1, 1) == (True, 0)
    assert flip_connectivity(1, 2) == (True, 1)
    assert flip_connectivity(2, 0) == (True, 1)
    assert flip_connectivity(2, 1) == (True, 2)


def test_flip_connectivity_six_legs():
    assert flip_connectivity(0, 6) == (True, 5)


def test_stratum_complex_json_schema():
    data = contraction_poset(0, 4).to_json()
    assert set(data) == {"classes", "hasse", "flips"}
    assert all(set(c) == {"label", "graph", "dim"} for c in data["classes"])
    for entry in data["flips"]:
        i, j, meta = entry
        assert isinstance(i, int) and isinstance(j, int)
        assert set(meta) == {"witness"}
        int(meta["witness"], 16)  # hex-decodable
    assert all(len(pair) == 2 for pair in data["hasse"])


def test_dot_outputs():
    comp = contraction_poset(0, 4)
    h = hasse_dot(comp)
    assert h.startswith("digraph") and "->" in h and h.rstrip().endswith("}")
    f = flip_dot(flip_complex(0, 4))
    assert f.startswith("graph") and "--" in f
    assert f.count("--") == 3  # each unordered flip pair once


def test_rejects_unstable_signatures():
    for g, n in [(0, 0), (0, 1), (0, 2), (1, 0), (-1, 3)]:
        with pytest.raises(UnstableSignature):
            enumerate_trivalent(g, n)
        with pytest.raises(UnstableSignature):
            enumerate_stable(g, n)
    with pytest.raises(UnstableSignature):
        flip_connectivity(0, 2)
    with pytest.raises(UnstableSignature):
        contraction_poset(1, 0)


def test_class_generation_is_capped(monkeypatch):
    # (0,n) has (2n-5)!! classes, each a distinct candidate: the slots of
    # the (0,n-1) classes.  The cap admits (0,9) and refuses (0,10).
    def candidates(n):
        return sum(len(g.edges) + g.n_legs for g in enumerate_trivalent(0, n - 1))

    assert [candidates(n) for n in range(4, 9)] == [3, 15, 105, 945, 10395]
    assert 135_135 <= moduli._CLASS_CAP < 2_027_025
    # the (0,6) candidates are counted before one is built
    monkeypatch.setattr(moduli, "_CLASS_CAP", 104)
    with pytest.raises(InstanceTooLarge, match="105 candidates"):
        moduli._trivalent.__wrapped__(0, 6)
    # (1,1) glues the top legs of the one (0,3) class
    monkeypatch.setattr(moduli, "_CLASS_CAP", 0)
    with pytest.raises(InstanceTooLarge, match="1 candidates"):
        moduli._trivalent.__wrapped__(1, 1)
    # the stable closure counts its contractions, 3 from each of the 105
    # trivalent (0,6) classes and more from the classes they reach
    monkeypatch.setattr(moduli, "_CLASS_CAP", 105)
    assert len(moduli._trivalent.__wrapped__(0, 6)) == 105
    with pytest.raises(InstanceTooLarge, match="contractions"):
        moduli._stable_closure.__wrapped__(0, 6)


def test_class_bound_is_a_lower_bound_on_the_classes():
    # exact in genus 0, where no class has an automorphism
    for genus, n_legs in [(g, n) for g in range(4) for n in range(8)
                          if 0 < 2 * g - 2 + n <= 5]:
        bound = moduli._mass_bound(moduli._chain(genus, n_legs))
        count = len(enumerate_trivalent(genus, n_legs))
        assert bound == count if genus == 0 else bound <= count
    # the (1,n) bounds are the masses, the sums of 1/|Aut|
    assert [moduli._mass_bound(moduli._chain(1, n)) for n in range(1, 6)] == [
        Fraction(1, 2), 1, 4, 24, 192
    ]
    # the first signatures the real cap refuses on two deep chains
    moduli._mass_bound(moduli._chain(1, 8))
    with pytest.raises(InstanceTooLarge, match="5160960 candidates"):
        moduli._mass_bound(moduli._chain(1, 9))
    moduli._mass_bound(moduli._chain(9, 1))
    with pytest.raises(InstanceTooLarge, match="4892388 candidates"):
        moduli._mass_bound(moduli._chain(9, 2))
    assert (9, 2) in moduli._chain(1000, 0) and (9, 2) in moduli._chain(400, 0)


def _chain_top_down(genus, n_legs):
    """The signature, the one it is built from, and so on down to (0,3):
    leg n is inserted where (g, n-1) is stable, else (g-1, n+2) is glued."""
    chain = [(genus, n_legs)]
    while chain[-1] != (0, 3):
        g, n = chain[-1]
        stable = n >= 1 and 2 * g - 2 + n - 1 > 0
        chain.append((g, n - 1) if stable else (g - 1, n + 2))
    return chain


def test_chain_is_the_top_down_rule_bottom_up():
    for genus in range(40):
        for n_legs in range(40):
            if 2 * genus - 2 + n_legs > 0:
                assert list(moduli._chain(genus, n_legs)) == (
                    _chain_top_down(genus, n_legs)[::-1]), (genus, n_legs)


def test_class_cap_refuses_before_listing_the_chain(capsys):
    # the chain is walked as it is yielded, so a refusal near its bottom
    # holds nothing of the million signatures above it
    def peak_of(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def refused(signature, count):
        with pytest.raises(InstanceTooLarge, match=f"{count} candidates"):
            enumerate_trivalent(*signature)

    def exits_two():
        assert main(["graphs", "--genus", "0", "--legs", "1000000"]) == 2

    assert peak_of(lambda: refused((0, 10**6), 2027025)) < 10**6
    assert peak_of(lambda: refused((10**6, 0), 4892388)) < 10**6
    assert peak_of(exits_two) < 10**6
    assert "2027025 candidates" in capsys.readouterr().err


def _pair_ids(g):
    return [id(p) for p in g.vertices + g.edges + g.legs]


def _assert_shares_exactly(parent, child, untouched, new):
    """child holds the untouched pairs of parent as the same objects, and
    ``new`` pairs of its own."""
    ids = set(_pair_ids(parent))
    assert sorted(map(id, untouched)) == sorted(
        i for i in _pair_ids(child) if i in ids)
    assert len(_pair_ids(child)) == len(untouched) + new


def test_generation_validates_every_candidate(monkeypatch):
    # each of the 9 slots of each of the 105 (0,6) classes makes one
    # candidate, and each goes through new_graph's checks
    enumerate_trivalent(0, 6)  # cached, so only (0,7) is built below
    calls = []

    def counted(*args):
        calls.append(args)
        return new_graph(*args)

    monkeypatch.setattr(moduli, "new_graph", counted)
    classes = moduli._trivalent.__wrapped__(0, 7)
    assert len(calls) == 105 * 9 == 945
    assert classes == enumerate_trivalent(0, 7)


def _renumbered(graph, ids, rng=None):
    """graph with vertex k (in vertices order) renamed ids[k]; with rng,
    its vertices and edges listed in a shuffled order."""
    new = {vid: ids[k] for k, (vid, _) in enumerate(graph.vertices)}
    vertices = [(new[v], g) for v, g in graph.vertices]
    edges = [(new[a], new[b]) for a, b in graph.edges]
    if rng is not None:
        rng.shuffle(vertices)
        rng.shuffle(edges)
    return new_graph(vertices, edges,
                     [(new[v], lab) for v, lab in graph.legs])


def test_labels_do_not_depend_on_vertex_ids():
    # Generated classes have ids 0..V-1 in order, and contraction leaves
    # gaps; the label reads the edges as index pairs only in the first case
    # and maps ids to indices in the second, and both give the same bytes.
    rng = random.Random(0)
    graphs = enumerate_trivalent(0, 7) + enumerate_stable(2, 1)
    gaps = 0
    for graph in graphs:
        n = len(graph.vertices)
        in_order = [vid for vid, _ in graph.vertices] == list(range(n))
        gaps += not in_order
        shifted = [k + 1000 for k in range(n)]
        rng.shuffle(shifted)
        for copy in (_renumbered(graph, list(range(n))),
                     _renumbered(graph, shifted, rng)):
            assert copy.canonical_label == graph.canonical_label
    assert gaps > 0


def test_local_moves_share_the_pairs_they_leave_alone():
    for g in enumerate_trivalent(0, 6)[:5]:
        ne = len(g.edges)
        for slot in range(ne + g.n_legs):
            split = slot - ne if slot >= ne else len(g.legs)
            untouched = (g.vertices + g.edges[:slot] + g.edges[slot + 1:]
                         + g.legs[:split] + g.legs[split + 1:])
            # the new vertex, the edge or leg split in two, and leg 7 are new
            _assert_shares_exactly(g, moduli._insert_leg(g, slot, 7),
                                   untouched, 4)
    for g in enumerate_trivalent(0, 5):
        # legs 4 and 5 become one new edge
        _assert_shares_exactly(g, moduli._glue_top_legs(g, 3),
                               g.vertices + g.edges + g.legs[:3], 1)


def test_trivalent_classes_share_their_pairs():
    # a class shares all but a few pairs with the class it grew from
    classes = enumerate_trivalent(0, 7)
    distinct = {i for g in classes for i in _pair_ids(g)}
    assert len(classes) == 945 and len(distinct) < 6 * len(classes)


def test_enumeration_order_is_stable():
    a = [g.canonical_hex() for g in enumerate_trivalent(0, 5)]
    b = [g.canonical_hex() for g in enumerate_trivalent(0, 5)]
    assert a == b == sorted(a)


def test_stratum_complex_is_dataclass_value():
    assert contraction_poset(0, 4) == contraction_poset(0, 4)
    assert isinstance(flip_complex(1, 1), StratumComplex)


def test_signature_arguments_are_integers():
    # Cache the int signatures first: equal floats and booleans must miss.
    for sig in [(0, 5), (1, 1)]:
        enumerate_trivalent(*sig), enumerate_stable(*sig)
        contraction_poset(*sig), flip_complex(*sig), flip_connectivity(*sig)
    for genus, n_legs in [(0, 5.0), (True, 1), (0, 5.5), (0, "4"), (1.0, 1)]:
        with pytest.raises(BadWeighting):
            enumerate_trivalent(genus, n_legs)
        with pytest.raises(BadWeighting):
            enumerate_stable(genus, n_legs)
        with pytest.raises(BadWeighting):
            contraction_poset(genus, n_legs)
        with pytest.raises(BadWeighting):
            flip_complex(genus, n_legs)
        with pytest.raises(BadWeighting):
            flip_connectivity(genus, n_legs)


def test_numpy_integer_signature_hits_the_cache():
    assert enumerate_trivalent(0, np.int64(7)) is enumerate_trivalent(0, 7)
    assert enumerate_trivalent(np.int8(1), 2) is enumerate_trivalent(1, 2)
    assert enumerate_stable(0, np.int64(6)) is enumerate_stable(0, 6)
    assert contraction_poset(0, 6).classes is enumerate_stable(0, 6)


def test_labels_and_class_order_are_pinned():
    """The labels of these classes, in enumeration order, hash to the
    digest they had when it was recorded: a new labelling algorithm must
    give the same bytes, and so the same class order."""
    trivalent = [(0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (1, 1), (1, 2),
                 (1, 3), (1, 4), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1),
                 (4, 0)]
    stable = [(0, 4), (0, 5), (0, 6), (1, 1), (1, 2), (2, 0), (2, 1)]
    labels = [g.canonical_label for s in trivalent
              for g in enumerate_trivalent(*s)]
    labels += [g.canonical_label for s in stable for g in enumerate_stable(*s)]
    assert len(labels) == 1463
    assert hashlib.sha256(b"\n".join(labels)).hexdigest() == (
        "96143711d46e75fe631417034520af0f1a714d98ffc0311d70415e7e65e733cf"
    )


def test_stratification_outputs_are_pinned():
    """The posets, flip complexes and flip diameters of these signatures,
    each asked twice so that the second answer may come from a cache, hash
    to the digest they had when it was recorded; and the poset and the flip
    complex of a signature hold the same flips."""
    sigs = [(0, 4), (0, 5), (0, 6), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1),
            (2, 2)]

    def triples(comp):
        label = [g.canonical_label for g in comp.classes]
        return {(label[i], label[j], w) for i, j, w in comp.flips}

    digest = hashlib.sha256()
    for sig in sigs:
        for _ in range(2):
            poset, flips = contraction_poset(*sig), flip_complex(*sig)
            doc = [poset.to_json(), flips.to_json(), flip_connectivity(*sig)]
            digest.update(json.dumps(doc, sort_keys=True).encode())
            assert triples(poset) == triples(flips)
    assert digest.hexdigest() == (
        "159de4608a8c7c2e66ddf7affb824af3fe177750a8af581a2eb08d0b14508933"
    )


def test_flip_connectivity_reports_a_disconnected_complex(monkeypatch):
    two = StratumComplex((caterpillar(4), trinode()), (), ())
    monkeypatch.setattr(moduli, "flip_complex", lambda genus, n_legs: two)
    assert flip_connectivity(0, 4) == (False, -1)


def _flip_diameter_by_bfs(genus, n_legs):
    """The per-class BFS flip_connectivity used before its bitset sweep."""
    comp = flip_complex(genus, n_legs)
    adj = [[] for _ in comp.classes]
    for i, j, _ in comp.flips:
        adj[i].append(j)

    def reach(start):
        seen, frontier, depth = {start}, {start}, 0
        while frontier := {j for i in frontier for j in adj[i]} - seen:
            seen |= frontier
            depth += 1
        return len(seen), depth

    reached, diameter = reach(0)
    if reached != len(adj):
        return False, -1
    return True, max([diameter] + [reach(i)[1] for i in range(1, len(adj))])


def test_flip_sweep_agrees_with_bfs():
    sigs = [(0, 4), (0, 5), (0, 6), (0, 7), (1, 1), (1, 2), (1, 3), (1, 4),
            (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (4, 0)]
    for sig in sigs:
        assert flip_connectivity(*sig) == _flip_diameter_by_bfs(*sig), sig
    assert flip_connectivity(0, 7) == (True, 7)


def test_flip_sweep_finds_a_disconnected_complex(monkeypatch):
    # classes 0-1 and 2 apart: the second round changes nothing
    two = StratumComplex((trinode(),) * 3, (), ((0, 1, b""), (1, 0, b"")))
    monkeypatch.setattr(moduli, "flip_complex", lambda genus, n_legs: two)
    assert flip_connectivity(0, 4) == (False, -1)


def test_flip_cap_refuses_before_building_a_class(monkeypatch):
    # (0,8), 10,395 classes, fits; (0,9), 135,135, is refused on the
    # a-priori bound, before any (0,9) class is made
    assert 10_395**2 <= moduli._FLIP_CAP < 135_135**2
    assert flip_connectivity(0, 4) == (True, 1)  # built before the patch

    def build(*args):
        raise AssertionError("a class was built")

    monkeypatch.setattr(moduli, "_insert_leg", build)
    monkeypatch.setattr(moduli, "_glue_top_legs", build)
    with pytest.raises(InstanceTooLarge, match="flip cap"):
        flip_connectivity(0, 9)
    # the built class count is judged again, past a bound that admits it
    monkeypatch.setattr(moduli, "_mass_bound", lambda chain: Fraction(1))
    monkeypatch.setattr(moduli, "_FLIP_CAP", 8)
    with pytest.raises(InstanceTooLarge, match="reach sets of 3 classes"):
        flip_connectivity(0, 4)
