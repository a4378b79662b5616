from __future__ import annotations

import gc
import hashlib
import itertools
import json
import random
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verkit import (
    BadWeighting,
    BadWorkLimit,
    GraphMismatch,
    InstanceTooLarge,
    LevelledWeighting,
    NonTrivalentGraph,
    NotATree,
    admissible_triple,
    admissible_triple_level,
    caterpillar,
    count_classical,
    count_cox,
    count_points,
    count_points_bruteforce,
    degree_one_generation_check,
    dumbbell,
    enumerate_points,
    enumerate_trivalent,
    gorenstein_check,
    interior_points,
    is_point,
    loop_with_leg,
    new_graph,
    standard_graph,
    theta_graph,
    trinode,
    verlinde,
    verlinde_closed_form,
)
from verkit import lattice, semigroup

small = st.integers(min_value=0, max_value=8)


def test_admissible_triple_basics():
    assert admissible_triple(0, 0, 0)
    assert not admissible_triple(1, 1, 1)
    assert admissible_triple(2, 2, 2)
    assert admissible_triple(1, 1, 0)
    assert not admissible_triple(0, 0, 2)
    assert not admissible_triple(-1, 1, 0)


@settings(max_examples=200, deadline=None)
@given(a=small, b=small, c=small)
def test_admissible_triple_symmetric(a, b, c):
    base = admissible_triple(a, b, c)
    for p in itertools.permutations((a, b, c)):
        assert admissible_triple(*p) == base


def test_admissible_triple_level_examples():
    assert admissible_triple_level(1, 1, 0, 1)
    assert not admissible_triple_level(1, 1, 2, 1)
    assert admissible_triple_level(1, 1, 2, 2)
    assert admissible_triple_level(2, 2, 2, 3)
    assert not admissible_triple_level(2, 2, 2, 2)
    assert not admissible_triple_level(3, 0, 3, 2)  # weight above level


@settings(max_examples=200, deadline=None)
@given(a=small, b=small, c=small, L=st.integers(min_value=0, max_value=10))
def test_level_condition_monotone_in_level(a, b, c, L):
    if admissible_triple_level(a, b, c, L):
        assert admissible_triple_level(a, b, c, L + 1)


def test_is_point_dumbbell_examples():
    g = dumbbell()
    # edge order: loop at 0, bridge, loop at 1
    assert is_point(g, LevelledWeighting(g, (1, 0, 1), (), 1))
    assert not is_point(g, LevelledWeighting(g, (0, 2, 0), (), 2))
    t = trinode()
    assert is_point(t, LevelledWeighting(t, (), (0, 0, 0), 0))


def test_is_point_validation():
    bad = new_graph([(0, 1)], [], [(0, 1)])
    with pytest.raises(NonTrivalentGraph):
        is_point(bad, LevelledWeighting(bad, (), (0,), 1))
    g, h = dumbbell(), theta_graph()
    with pytest.raises(GraphMismatch):
        is_point(g, LevelledWeighting(h, (0, 0, 0), (), 1))
    t = trinode()
    for legs, level in [((True, 1, 0), 1), ((1, 1, 0), True), ((1.0, 1, 0), 1)]:
        with pytest.raises(BadWeighting):
            is_point(t, LevelledWeighting(t, (), legs, level))
    # a weighting of the wrong length is not read as a shorter or longer one
    cat = caterpillar(4)
    for w in [LevelledWeighting(t, (), (1, 1, 0, 0), 1),
              LevelledWeighting(cat, (2,), (1, 1, 1), 2),
              LevelledWeighting(cat, (), (1, 1, 1, 1), 2)]:
        with pytest.raises(GraphMismatch):
            is_point(w.graph, w)


def test_count_points_frozen_examples():
    cat = caterpillar(4)
    assert count_points(cat, (1, 1, 1, 1), 1) == 1
    assert count_points(cat, (1, 1, 1, 1), 2) == 2
    assert count_points(dumbbell(), (), 1) == 4
    assert count_points(theta_graph(), (), 1) == 4
    t = trinode()
    for r in itertools.product(range(4), repeat=3):
        expected = 1 if admissible_triple_level(*r, 3) else 0
        assert count_points(t, r, 3) == expected


def test_count_points_out_of_range_weights_give_zero():
    cat = caterpillar(4)
    assert count_points(cat, (3, 0, 0, 0), 2) == 0
    assert count_points(cat, (1, 1, 1, 0), 4) == 0  # odd total
    assert count_points(cat, (-1, 1, 1, 1), 4) == 0


def test_count_points_rejects_non_trivalent():
    four_valent = new_graph([(0, 0)], [(0, 0), (0, 0)], [])
    with pytest.raises(NonTrivalentGraph):
        count_points(four_valent, (), 2)


def test_plan_cache_neither_hides_errors_nor_keeps_graphs():
    four_valent = new_graph([(0, 0)], [(0, 0), (0, 0)], [])
    for _ in range(2):  # a refused graph is refused again, not cached
        with pytest.raises(NonTrivalentGraph):
            count_points(four_valent, (), 2)
        with pytest.raises(NonTrivalentGraph):
            count_cox(four_valent, 2)
    g = caterpillar(6)
    assert count_points(g, (1,) * 6, 2) == 4
    assert count_cox(g, 2) > 0
    alive = weakref.ref(g)
    del g
    gc.collect()
    assert alive() is None


CAT4 = caterpillar(4)


@pytest.mark.parametrize(
    "call",
    [
        lambda w, L: count_points(CAT4, w, L),
        lambda w, L: count_points(CAT4, dict(enumerate(w, 1)), L),
        lambda w, L: count_points_bruteforce(CAT4, w, L),
        lambda w, L: len(list(enumerate_points(CAT4, w, L))),
    ],
    ids=["count_points", "mapping", "bruteforce", "enumerate_points"],
)
def test_non_integer_weights_and_levels_are_refused(call):
    # int() used to read (1.5, 1, 1, True) as (1, 1, 1, 1), which counts 2
    assert call(np.array([1, 1, 1, 1]), np.int64(2)) == call((1, 1, 1, 1), 2) == 2
    for w, L in [((1.5, 1, 1, 1), 2), ((1, 1, 1, True), 2), ((1, 1, 1, "1"), 2),
                 ((1, 1, 1, 1), 2.0), ((1, 1, 1, 1), True)]:
        with pytest.raises(BadWeighting):
            call(w, L)


def test_count_cox_refuses_a_non_integer_level():
    assert count_cox(CAT4, np.int64(2)) == count_cox(CAT4, 2)
    for L in (2.0, 2.5, True):
        with pytest.raises(BadWeighting):
            count_cox(CAT4, L)


def test_leaf_weight_count_must_match():
    with pytest.raises(GraphMismatch):
        count_points(trinode(), (1, 1), 2)
    with pytest.raises(GraphMismatch):
        count_points(trinode(), {1: 0, 2: 0, 4: 0}, 2)


def test_count_points_accepts_label_keyed_mapping():
    cat = caterpillar(4)
    assert count_points(cat, {1: 1, 2: 1, 3: 1, 4: 1}, 2) == 2


def test_brute_force_agrees_exhaustively():
    cases = [
        (trinode(), 3),
        (caterpillar(4), 3),
        (caterpillar(5), 2),
        (dumbbell(), 3),
        (theta_graph(), 3),
        (loop_with_leg(), 4),
    ]
    for graph, lmax in cases:
        n = graph.n_legs
        for L in range(lmax + 1):
            for r in itertools.product(range(L + 1), repeat=n):
                assert count_points(graph, r, L) == count_points_bruteforce(
                    graph, r, L
                ), (graph, r, L)


def test_enumerate_points_matches_count_and_order():
    cat = caterpillar(4)
    pts = list(enumerate_points(cat, (1, 1, 1, 1), 2))
    assert [w.edge_weights for w in pts] == [(0,), (2,)]
    assert all(is_point(cat, w) for w in pts)
    assert len(pts) == count_points(cat, (1, 1, 1, 1), 2)

    t = trinode()
    pts = list(enumerate_points(t, (0, 0, 0), 5))
    assert len(pts) == 1 and pts[0].edge_weights == ()

    assert list(enumerate_points(cat, (9, 0, 0, 0), 5)) == []


def test_enumerate_points_lexicographic():
    th = theta_graph()
    pts = [w.edge_weights for w in enumerate_points(th, (), 2)]
    assert pts == sorted(pts)
    assert len(pts) == count_points(th, (), 2)


def _every_assignment(graph, legs, bound, admissible):
    """The walk's reference: filter every assignment of 0..bound to the
    slots, fixed legs appended, by every vertex's rule."""
    if bound < 0 or legs is not None and not all(0 <= w <= bound for w in legs):
        return []
    width = len(graph.edges) + (graph.n_legs if legs is None else 0)
    stars = list(graph.slots_at.values())
    axes = [range(bound + 1)] * width + [(w,) for w in legs or ()]
    return [
        p for p in itertools.product(*axes)
        if all(admissible(p[i], p[j], p[k]) for i, j, k in stars)
    ]


@pytest.mark.parametrize(
    "rule",
    [admissible_triple_level, semigroup._interior_triple, admissible_triple],
    ids=["level", "interior", "classical"],
)
def test_walk_prunes_only_what_fails(rule):
    cat5 = caterpillar(5)
    graphs = [trinode(), caterpillar(4), cat5, dumbbell(), theta_graph(),
              loop_with_leg()]
    for sig in [(0, 4), (0, 5), (1, 1), (1, 2), (2, 0), (2, 1)]:
        graphs += enumerate_trivalent(*sig)
    rng = random.Random(13)
    for graph in graphs:
        n = graph.n_legs
        width = len(graph.edges) + n
        for L in range(-1, 5):
            check = (rule if rule is admissible_triple
                     else partial(rule, level=L))
            in_range = [tuple(rng.randint(0, max(L, 0)) for _ in range(n))
                        for _ in range(2)]
            outside = tuple(rng.choice([-1, L + 1]) if i == 0 else 0
                            for i in range(n))
            # legs free on every walk of at most 5^6 assignments, and on
            # caterpillar(5) at level 4; the other (0,5) trees at level 4
            # would take seconds more of reference filtering
            free = [None] if (L + 1) ** width <= 5**6 or graph is cat5 else []
            for legs in free + in_range + [outside]:
                assert list(lattice._walk(graph, legs, L, check)) == (
                    _every_assignment(graph, legs, L, check)
                ), (graph, legs, L)
    # a width-0 walk: every slot is a fixed leg
    rule = partial(admissible_triple_level, level=3)
    for legs in [(1, 1, 0), (1, 1, 1), (3, 2, 1), (4, 0, 4)]:
        assert list(lattice._walk(trinode(), legs, 3, rule)) == (
            _every_assignment(trinode(), legs, 3, rule)
        )
    assert list(lattice._walk(trinode(), (3, 2, 1), 3, rule)) == [(3, 2, 1)]


# every literal walk, each on an instance past a cap of 10 assignments
CAPPED_WALKS = [
    lambda: count_points_bruteforce(theta_graph(), (), 3),
    lambda: list(enumerate_points(theta_graph(), (), 3)),
    lambda: count_classical(caterpillar(4), (3, 3, 3, 3)),
    lambda: list(interior_points(theta_graph(), 3)),
    lambda: gorenstein_check(theta_graph(), 8),
    lambda: degree_one_generation_check(caterpillar(4), 3),
]


def test_walks_check_their_arguments_on_the_call(monkeypatch):
    # nothing is iterated here: each call must raise before it returns
    genus_one = new_graph([(0, 1)], [], [(0, 1)])
    with pytest.raises(NonTrivalentGraph):
        enumerate_points(genus_one, (0,), 2)
    with pytest.raises(GraphMismatch):
        enumerate_points(caterpillar(4), (1, 1, 1), 2)
    with pytest.raises(BadWeighting):
        enumerate_points(trinode(), (1, 1, 0), 1.5)
    with pytest.raises(NonTrivalentGraph):
        interior_points(genus_one, 3)
    with pytest.raises(BadWeighting):
        interior_points(theta_graph(), "3")
    # the walk and its work cap still run on iteration
    monkeypatch.setenv("VK_BRUTE_LIMIT", "10")
    for walk in [enumerate_points(theta_graph(), (), 3),
                 interior_points(theta_graph(), 3)]:
        with pytest.raises(InstanceTooLarge):
            next(walk)


def test_brute_limit_env(monkeypatch):
    monkeypatch.setenv("VK_BRUTE_LIMIT", "10")
    for walk in CAPPED_WALKS:
        with pytest.raises(InstanceTooLarge):
            walk()
    # the tensor route is not capped by VK_BRUTE_LIMIT
    assert count_points(theta_graph(), (), 3) == 20


def test_malformed_brute_limit(monkeypatch):
    for raw in ["abc", "-3"]:
        monkeypatch.setenv("VK_BRUTE_LIMIT", raw)
        for walk in CAPPED_WALKS:
            with pytest.raises(BadWorkLimit, match=f"'{raw}'"):
                walk()
    assert count_points(theta_graph(), (), 3) == 20
    monkeypatch.setenv("VK_BRUTE_LIMIT", "0")  # a cap of 0 is a cap
    with pytest.raises(InstanceTooLarge):
        count_points_bruteforce(trinode(), (0, 0, 0), 0)


def test_tensor_route_refuses_what_it_cannot_hold(monkeypatch):
    # T has (L+1)^3 entries and a rank-4 step (L+1)^4: the 2^26 cap stops
    # T above level 405 and K33 above level 89, before anything is built.
    class Built(Exception):
        pass

    def build(level):
        raise Built(level)

    monkeypatch.setattr(lattice, "_kernels", build)
    k33 = _closed([(a, b) for a in range(3) for b in range(3, 6)])
    for call in [lambda: verlinde(1, (), 10**6),
                 lambda: count_cox(theta_graph(), 10**6),
                 lambda: count_points(k33, (), 90)]:
        with pytest.raises(InstanceTooLarge):
            call()
    for call in [lambda: count_points(k33, (), 89),
                 lambda: count_points(trinode(), (0, 0, 0), 405),
                 lambda: count_cox(trinode(), 405)]:
        with pytest.raises(Built):
            call()


def test_count_classical_examples():
    assert count_classical(trinode(), (1, 1, 0)) == 1
    assert count_classical(caterpillar(4), (1, 1, 1, 1)) == 2
    assert count_classical(caterpillar(4), (2, 2, 2, 2)) == 3
    assert count_classical(trinode(), (0, 0, 0)) == 1


def test_count_classical_rejects_non_trees():
    with pytest.raises(NotATree):
        count_classical(theta_graph(), ())
    with pytest.raises(NotATree):
        count_classical(loop_with_leg(), (0,))


def test_stabilization_at_leaf_sum():
    rng = random.Random(11)
    for n in (3, 4, 5):
        tree = caterpillar(n)
        for _ in range(25):
            r = tuple(rng.randint(0, 4) for _ in range(n))
            s = sum(r)
            cl = count_classical(tree, r)
            assert count_points(tree, r, s) == cl
            assert count_points(tree, r, s + 3) == cl
            # truncation only removes points
            for L in range(s):
                assert count_points(tree, r, L) <= cl


@settings(max_examples=80, deadline=None)
@given(
    r=st.tuples(*[st.integers(min_value=0, max_value=5)] * 4),
    L=st.integers(min_value=0, max_value=8),
)
def test_count_nondecreasing_in_level(r, L):
    cat = caterpillar(4)
    assert count_points(cat, r, L) <= count_points(cat, r, L + 1)


@settings(max_examples=80, deadline=None)
@given(r=st.tuples(*[st.integers(min_value=0, max_value=6)] * 4))
def test_odd_leaf_sum_counts_zero(r):
    if sum(r) % 2 == 1:
        assert count_points(caterpillar(4), r, 5) == 0


def test_odd_sum_zero_on_loop_graphs():
    g = loop_with_leg()
    for r in (1, 3, 5):
        assert count_points(g, (r,), 6) == 0


def test_count_cox_values():
    t = trinode()
    assert [count_cox(t, L) for L in range(5)] == [1, 4, 10, 20, 35]
    assert count_cox(dumbbell(), 1) == 4
    for g in (caterpillar(4), theta_graph(), loop_with_leg()):
        assert count_cox(g, 0) == 1


def test_count_cox_matches_leafwise_sum():
    for graph, lmax in [(trinode(), 4), (caterpillar(4), 2), (loop_with_leg(), 3)]:
        n = graph.n_legs
        for L in range(lmax + 1):
            total = sum(
                count_points_bruteforce(graph, r, L)
                for r in itertools.product(range(L + 1), repeat=n)
            )
            assert count_cox(graph, L) == total, (graph, L)


def test_weighting_json_round_trip():
    cat = caterpillar(4)
    w = LevelledWeighting(cat, (2,), (1, 1, 1, 1), 3)
    data = w.to_json()
    assert set(data) == {"edges", "legs", "level"}
    assert data["edges"] == {"0": 2}
    assert data["legs"] == {"1": 1, "2": 1, "3": 1, "4": 1}
    back = LevelledWeighting.from_json(cat, json.dumps(data))
    assert back == w


@pytest.mark.parametrize(
    "doc",
    [
        {"edges": {"0": 1.7}, "legs": {"1": True, "2": 1, "3": 1, "4": 1},
         "level": 2.9},
        {"edges": {"0": 1.7}, "legs": {"1": 1, "2": 1, "3": 1, "4": 1}, "level": 2},
        {"edges": {"0": 1}, "legs": {"1": True, "2": 1, "3": 1, "4": 1}, "level": 2},
        {"edges": {"0": 1}, "legs": {"1": 1, "2": 1, "3": 1, "4": 1}, "level": 2.9},
        {"edges": {}, "legs": {"1": 1, "2": 1, "3": 1, "4": 1}, "level": 2},
        {"edges": {"0": 1}, "legs": {"1": 1, "2": 1, "3": 1}, "level": 2},
        {"edges": {"0": 1}, "legs": {"1": 1, "2": 1, "3": 1, "4": 1}},
        [1, 2],
        "{not json",
    ],
)
def test_weighting_from_json_rejects_malformed_documents(doc):
    cat = caterpillar(4)
    for data in (doc, doc if isinstance(doc, str) else json.dumps(doc)):
        with pytest.raises(BadWeighting):
            LevelledWeighting.from_json(cat, data)


def test_weighting_addition_and_scaling():
    cat = caterpillar(4)
    w1 = LevelledWeighting(cat, (2,), (1, 1, 1, 1), 3)
    w2 = LevelledWeighting(cat, (0,), (1, 0, 1, 0), 2)
    s = w1 + w2
    assert s.edge_weights == (2,) and s.leg_weights == (2, 1, 2, 1)
    assert s.level == 5
    assert w1.scaled(3).level == 9
    assert w1.scaled(np.int64(2)) == w1 + w1
    for k in (1.5, True):
        with pytest.raises(BadWeighting):
            w1.scaled(k)
    with pytest.raises(GraphMismatch):
        w1 + LevelledWeighting(trinode(), (), (0, 0, 0), 1)
    # a weighting of the wrong length is not summed as a shorter one
    for bad in [LevelledWeighting(cat, (), (1, 1, 1), 1),
                LevelledWeighting(cat, (1,), (1, 1, 1, 1, 1), 1)]:
        with pytest.raises(GraphMismatch):
            w1 + bad
        with pytest.raises(GraphMismatch):
            bad + w1


def test_factorization_shape_of_caterpillar_count():
    # two-vertex chain: the middle weight ranges over fused values
    cat = caterpillar(4)
    for L in range(4):
        for r in itertools.product(range(L + 1), repeat=4):
            direct = count_points(cat, r, L)
            bysum = sum(
                count_points(trinode(), (r[0], r[1], m), L)
                * count_points(trinode(), (m, r[2], r[3]), L)
                for m in range(L + 1)
            )
            assert direct == bysum


def _spy_dtypes(monkeypatch) -> list:
    """Record every tensordot result's dtype and largest entry."""
    seen = []
    tensordot = np.tensordot

    def spy(a, b, axes):
        out = tensordot(a, b, axes=axes)
        seen.append((out.dtype, int(np.max(out))))
        return out

    monkeypatch.setattr(lattice.np, "tensordot", spy)
    return seen


def _assert_narrowest(seen, graph, level, legs_summed=False):
    """Each step ran in the narrowest exact dtype for its (level+1)**k, k
    from the plan; the last step sums every slot, and no entry passed its
    step's bound."""
    ks = lattice._plan(graph)[2][legs_summed]
    assert ks[-1] == len(graph.edges) + legs_summed * graph.n_legs
    assert len(seen) == len(ks)
    for (dtype, top), k in zip(seen, ks):
        bound = (level + 1) ** k
        want = np.float64 if bound < 2**53 else np.int64 if bound < 2**63 else object
        assert dtype == np.dtype(want)
        assert top <= bound
    seen.clear()


def _glued(graph, r, level, seen):
    """The count on trinode glued to graph at its first leg: the sum over
    the middle weight m of the two counts.  Checks the dtypes of each of
    graph's contractions (the trinode has no step)."""
    total = 0
    for m in range(level + 1):
        total += count_points(trinode(), (r[0], r[1], m), level) * count_points(
            graph, (m,) + r[2:], level
        )
        _assert_narrowest(seen, graph, level)
    return total


def test_int64_and_object_contractions_agree_at_the_bound(monkeypatch):
    # caterpillar(35) has 32 edges at level 3: its steps run in float64
    # while 4^k < 2^53, int64 while 4^k < 2^63, and object for k = 32.
    seen = _spy_dtypes(monkeypatch)
    cat34, cat35 = caterpillar(34), caterpillar(35)
    for r, want in [((1,) * 34 + (2,), 5702887), ((3, 1) * 17 + (2,), 1597)]:
        whole = count_points(cat35, r, 3)
        assert {d for d, _ in seen} == {
            np.dtype(np.float64), np.dtype(np.int64), np.dtype(object)
        }
        _assert_narrowest(seen, cat35, 3)
        glued = _glued(cat34, r, 3, seen)
        assert whole == glued == want
        assert verlinde_closed_form(0, r, 3) == want
    # legs summed too: 15 edges + 18 legs = 33 slots in the last step
    assert count_cox(caterpillar(18), 3) == 1209462292480
    _assert_narrowest(seen, caterpillar(18), 3, legs_summed=True)


def test_float64_path_is_exact_up_to_2_53(monkeypatch):
    # At level 3, caterpillar(29) has 26 edges and 4^26 < 2^53, so every
    # step runs in float64; caterpillar(30) has 27 and its last steps do
    # not.  At level 1 the bound meets 2^53 itself: 53 edges need int64.
    f, i = np.dtype(np.float64), np.dtype(np.int64)
    seen = _spy_dtypes(monkeypatch)
    for n, L, kinds, weights in [
        (29, 3, {f}, [(1,) * 28 + (2,), (3, 1) * 14 + (2,)]),
        (30, 3, {f, i}, [(1,) * 30, (3, 1) * 15]),
        (55, 1, {f}, [(1,) * 54 + (0,)]),
        (56, 1, {f, i}, [(1,) * 56]),
    ]:
        small, big = caterpillar(n - 1), caterpillar(n)
        for r in weights:
            whole = count_points(big, r, L)
            assert {d for d, _ in seen} == kinds
            _assert_narrowest(seen, big, L)
            assert whole == _glued(small, r, L, seen)
            assert whole == verlinde_closed_form(0, r, L) > 0


def _closed(edges):
    return new_graph(sorted({(v, 0) for e in edges for v in e}), edges, [])


def test_blas_counts_on_wide_closed_graphs(monkeypatch):
    # Entries of up to nine digits, all in float64 BLAS products; the
    # closed form certifies them independently.
    seen = _spy_dtypes(monkeypatch)
    k33 = _closed([(a, b) for a in range(3) for b in range(3, 6)])
    cube = _closed([(a, b) for a in range(8) for b in range(a + 1, 8)
                    if bin(a ^ b).count("1") == 1])
    for graph, genus, levels in [(k33, 4, range(10, 15)), (cube, 5, range(9, 13))]:
        assert graph.signature() == (genus, 0)
        for L in levels:
            assert count_points(graph, (), L) == verlinde_closed_form(genus, (), L)
            assert {d for d, _ in seen} == {np.dtype(np.float64)}
            _assert_narrowest(seen, graph, L)
    assert count_points(cube, (), 12) == 802918753
    assert count_points(k33, (), 14) == 18948608


def _plan_pin_graphs():
    """Every class of the small signatures, the standard graphs up to genus
    25, caterpillars up to 60 legs, and three wide closed graphs."""
    signatures = [(0, n) for n in range(3, 8)] + [(1, n) for n in range(1, 5)]
    signatures += [(2, 0), (2, 1), (2, 2), (3, 0), (4, 0)]
    for g, n in signatures:
        yield from enumerate_trivalent(g, n)
    for g in range(26):
        for n in range(5):
            if 2 * g - 2 + n > 0:
                yield standard_graph(g, n)
    for n in range(3, 61):
        yield caterpillar(n)
    ring = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    yield _closed([(a, b) for a in range(3) for b in range(3, 6)])
    yield _closed([(a, b) for a in range(8) for b in range(a + 1, 8)
                   if bin(a ^ b).count("1") == 1])
    yield _closed(ring + spokes + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


# sha256 over the repr of every plan above, taken with the earlier planner
# that scanned all pairs of live factors: the open-edge planner must
# reproduce its plans exactly, since plans fix every step's dtype and shape.
PLAN_DIGEST = "12b684973cc68f8e269cf584ac0876cfd5860e4c790882436cb3860f247dfc89"


def test_plans_are_pinned():
    digest = hashlib.sha256()
    for graph in _plan_pin_graphs():
        digest.update(repr(lattice._compile(graph)).encode())
    assert digest.hexdigest() == PLAN_DIGEST
