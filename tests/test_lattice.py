from __future__ import annotations

import gc
import hashlib
import itertools
import math
import random
import tracemalloc
import weakref
from functools import partial

import numpy as np
import pytest

from verkit import (
    BadWeighting,
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
    enumerate_stable,
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
    verlinde_factor,
)
from verkit import lattice, semigroup


def test_admissible_triple_basics():
    assert admissible_triple(0, 0, 0)
    assert not admissible_triple(1, 1, 1)
    assert admissible_triple(2, 2, 2)
    assert admissible_triple(1, 1, 0)
    assert not admissible_triple(0, 0, 2)
    assert not admissible_triple(-1, 1, 0)


def test_admissible_triple_symmetric():
    for a, b, c in itertools.product(range(9), repeat=3):
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


def test_level_condition_monotone_in_level():
    for a, b, c, L in itertools.product(range(9), range(9), range(9), range(11)):
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
    monkeypatch.setattr(lattice, "_WALK_CAP", 10)
    for walk in [enumerate_points(theta_graph(), (), 3),
                 interior_points(theta_graph(), 3)]:
        with pytest.raises(InstanceTooLarge):
            next(walk)


@pytest.mark.parametrize("cap", [10, 0])
def test_walk_cap(monkeypatch, cap):
    # _WALK_CAP is set here the way the tensor cap's test sets its own;
    # 0 is still a cap, and stops even a one-assignment walk
    monkeypatch.setattr(lattice, "_WALK_CAP", cap)
    for walk in CAPPED_WALKS:
        with pytest.raises(InstanceTooLarge, match=f"work cap {cap}"):
            walk()
    if cap == 0:
        with pytest.raises(InstanceTooLarge):
            count_points_bruteforce(trinode(), (0, 0, 0), 0)
    # the tensor route is not capped by the walk's cap
    assert count_points(theta_graph(), (), 3) == 20


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



def test_level_cache_is_bounded():
    # a sweep to level 120 used to keep every T, ~400 MB; now T is kept
    # only while it has at most 2**18 entries (levels 0..63, ~35 MB)
    values = semigroup.hilbert_cox(trinode(), 120).values
    assert values == tuple(math.comb(L + 3, 3) for L in range(121))
    cache = lattice._kernel_cache
    assert set(cache) == set(range(64))
    held = sum(t.nbytes + d.nbytes for t, d in cache.values())
    assert held == 8 * sum(n**3 + n for n in range(1, 65)) < 35 * 10**6
    assert lattice._kernels(120)[0] is not lattice._kernels(120)[0]


def test_building_t_holds_little_beside_t():
    # level 100 is not cached, so T is built under the trace; in int64 its
    # slot sums alone held as many bytes as T
    tracemalloc.start()
    try:
        t, _ = lattice._kernels(100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * t.nbytes

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
    # From level ceil(sum/2) up the level conditions add nothing to the
    # classical ones (see count_classical), and that bound is sharp: some
    # query loses a point one level lower.
    rng = random.Random(11)
    queries = [(caterpillar(n), tuple(rng.randint(0, 4) for _ in range(n)))
               for n in (3, 4, 5) for _ in range(25)]
    for n in (3, 4, 5, 6):
        weights = range(3 if n == 6 else 4)
        queries += [(tree, r) for tree in enumerate_trivalent(0, n)[:3]
                    for r in itertools.product(weights, repeat=n)]
    truncated = 0
    for tree, r in queries:
        s = sum(r)
        sharp = (s + 1) // 2
        cl = count_classical(tree, r)
        for L in [*range(sharp, s + 1), s + 3]:
            assert count_points(tree, r, L) == cl
        # truncation only removes points
        below = [count_points(tree, r, L) for L in range(sharp)]
        assert all(c <= cl for c in below)
        if below and below[-1] != cl:
            truncated += 1
    assert truncated > 0


def test_count_nondecreasing_in_level():
    cat = caterpillar(4)
    for r in itertools.product(range(6), repeat=4):
        for L in range(9):
            assert count_points(cat, r, L) <= count_points(cat, r, L + 1)


def test_odd_leaf_sum_counts_zero():
    for r in itertools.product(range(7), repeat=4):
        if sum(r) % 2 == 1:
            assert count_points(caterpillar(4), r, 5) == 0


def test_odd_sum_zero_on_loop_graphs():
    g = loop_with_leg()
    for r in (1, 3, 5):
        assert count_points(g, (r,), 6) == 0


ACCEPTANCE_SIGNATURES = [(0, 4), (0, 5), (0, 6), (1, 1), (1, 2), (2, 0), (2, 1)]


def test_contraction_gives_zero_where_the_parity_exit_answers():
    # count_points answers an odd leg sum with 0 before contracting; the
    # contraction itself still gives 0 on every such query, loops included.
    # The 105 six-leg trees stop at level 2: all their odd sums up to
    # level 4 would take about a million contractions.
    graphs = [cls for g, n in ACCEPTANCE_SIGNATURES
              for cls in enumerate_trivalent(g, n)]
    graphs += [standard_graph(g, n) for g in range(4) for n in range(5)
               if 2 * g - 2 + n > 0]
    checked = 0
    for graph in graphs:
        plan = lattice._plan(graph)
        for L in range(3 if graph.n_legs == 6 else 5):
            for legs in itertools.product(range(L + 1), repeat=graph.n_legs):
                if sum(legs) % 2:
                    assert lattice._contract(plan, L, legs) == 0
                    checked += 1
    assert checked == 78_777


def test_parity_exit_hides_no_error():
    # each query has an odd leg sum, which would count 0 if it were valid
    stable = [g for g in enumerate_stable(0, 5) if g._not_trivalent()]
    assert stable
    for graph in stable:
        with pytest.raises(NonTrivalentGraph):
            count_points(graph, (1, 0, 0, 0, 0), 2)
    for legs in [(1, 0), (1, 0, 0, 0), {1: 1, 2: 0, 4: 0}]:
        with pytest.raises(GraphMismatch):
            count_points(trinode(), legs, 2)
    for legs, L in [((1.0, 0, 0), 2), ((True, 0, 0), 2),
                    ((1, 0, 0), 1.0), ((1, 0, 0), True)]:
        with pytest.raises(BadWeighting):
            count_points(trinode(), legs, L)
    assert count_points(trinode(), (1, 0, 0), 2) == 0


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


def test_weighting_to_json():
    cat = caterpillar(4)
    w = LevelledWeighting(cat, (2,), (1, 1, 1, 1), 3)
    data = w.to_json()
    assert set(data) == {"edges", "legs", "level"}
    assert data["edges"] == {"0": 2}
    assert data["legs"] == {"1": 1, "2": 1, "3": 1, "4": 1}


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
    """Record every tensordot call as (result dtype, (a, b, result))."""
    seen = []
    tensordot = np.tensordot

    def spy(a, b, axes):
        out = tensordot(a, b, axes=axes)
        seen.append((out.dtype, (a, b, out)))
        return out

    monkeypatch.setattr(lattice.np, "tensordot", spy)
    return seen


def _narrowest(bound: int) -> np.dtype:
    return np.dtype(
        np.float64 if bound < 2**53 else np.int64 if bound < 2**63 else object
    )


def _assert_narrowest(seen, graph, level, legs_summed=False):
    """Each step ran in the narrowest exact dtype for its bound, both
    operands cast to it, and no entry passed that bound or an operand's top.

    The bound is recomputed by the library's rule: a step's plan bound
    (level+1)**k, k from the plan, while that or the last step's plan bound
    is below 2^53; otherwise top_a * top_b * (level+1)**s, s its shared
    axes, where a vertex factor's top is (level+1)**(loop + summed legs)
    and an intermediate's is its largest entry.  The last step sums every
    slot."""
    vertices, steps, bounds, _ = lattice._plan(graph)
    ks = bounds[legs_summed]
    assert ks[-1] == len(graph.edges) + legs_summed * graph.n_legs
    assert len(seen) == len(steps)
    d = level + 1
    wide = d ** ks[-1] >= 2**53
    tops = [d ** (loop + legs_summed * len(at)) for loop, at in vertices]
    for (dtype, (a, b, out)), (i, j, axes_i, _), k in zip(seen, steps, ks):
        top_b, top_a = tops.pop(j), tops.pop(i)
        bound = d ** k
        if wide and bound >= 2**53:
            bound = top_a * top_b * d ** len(axes_i)
        assert a.dtype == b.dtype == dtype == _narrowest(bound)
        assert int(a.max()) <= top_a and int(b.max()) <= top_b
        tops.append(int(out.max()))
        assert tops[-1] <= bound
    seen.clear()


def _glued(graph, r, level, seen):
    """The count on trinode glued to graph at its first leg: the sum over
    the middle weight m of the two counts.  Checks the dtypes of each of
    graph's contractions (the trinode has no step), and that a call with
    an odd leg sum contracts nothing."""
    total = 0
    for m in range(level + 1):
        legs = (m,) + r[2:]
        total += count_points(trinode(), (r[0], r[1], m), level) * count_points(
            graph, legs, level
        )
        if sum(legs) % 2:
            assert seen == []
        else:
            _assert_narrowest(seen, graph, level)
    return total


def test_exact_dtype_ladder():
    for bound, want in [(2**53 - 1, np.float64), (2**53, np.int64),
                        (2**63 - 1, np.int64), (2**63, object)]:
        assert lattice._exact_dtype(bound) is want


def test_int64_and_object_contractions_agree_at_the_bound(monkeypatch):
    # caterpillar(56) at level 30: the plan advances both ends of the chain
    # in turn, and the plan bound 31^k passes 2^53 at the 21st of its 53
    # steps and 2^63 at the 25th, while the entries there are near 2^30.
    # So each later step's dtype follows its operands' largest entries, and
    # seeded weights run all three dtypes.
    f, i, o = np.dtype(np.float64), np.dtype(np.int64), np.dtype(object)
    seen = _spy_dtypes(monkeypatch)
    cat55, cat56 = caterpillar(55), caterpillar(56)
    rng = random.Random(5)
    for _ in range(2):
        r = [rng.randint(0, 30) for _ in range(56)]
        r[-1] += sum(r) % 2 * (-1 if r[-1] else 1)
        r = tuple(r)
        whole = count_points(cat56, r, 30)
        assert {d for d, _ in seen} == {f, i, o}
        _assert_narrowest(seen, cat56, 30)
        assert whole == _glued(cat55, r, 30, seen) == verlinde_factor(0, r, 30)
    # legs summed too: 15 edges + 18 legs = 33 slots in the last step, so
    # the plan bound passes 2^63 while every entry stays below 2^53
    assert count_cox(caterpillar(18), 3) == 1209462292480
    assert {d for d, _ in seen} == {f}
    _assert_narrowest(seen, caterpillar(18), 3, legs_summed=True)


def test_float64_path_is_exact_up_to_2_53(monkeypatch):
    # At level 3, caterpillar(29) has 26 edges and 4^26 < 2^53, so its plan
    # never reads an entry; caterpillar(30) has 27, and caterpillar(35) 32,
    # so their last steps, which sum every edge, bound their results by
    # their operands' largest entries: the plan advances both ends of the
    # chain in turn, so no earlier step sums more than 16 edges.  At level
    # 1 the plan bound meets 2^53 itself: 53 edges.
    # Those entries stay below 2^53, so every step runs in float64, and
    # exactly the steps whose plan bound reaches 2^53 ask for a dtype.
    f = np.dtype(np.float64)
    seen = _spy_dtypes(monkeypatch)
    asked = []
    exact_dtype = lattice._exact_dtype
    monkeypatch.setattr(lattice, "_exact_dtype",
                        lambda bound: asked.append(bound) or exact_dtype(bound))
    for n, L, steps_asked, weights in [
        (29, 3, 0, [(1,) * 28 + (2,), (3, 1) * 14 + (2,)]),
        (30, 3, 1, [(1,) * 30, (3, 1) * 15]),
        (35, 3, 1, [(1,) * 34 + (2,), (3, 1) * 17 + (2,)]),
        (55, 1, 0, [(1,) * 54 + (0,)]),
        (56, 1, 1, [(1,) * 56]),
    ]:
        small, big = caterpillar(n - 1), caterpillar(n)
        for r in weights:
            whole = count_points(big, r, L)
            assert {d for d, _ in seen} == {f}
            assert len(asked) == steps_asked and all(b < 2**53 for b in asked)
            asked.clear()
            _assert_narrowest(seen, big, L)
            assert whole == _glued(small, r, L, seen)
            asked.clear()
            assert whole == verlinde_closed_form(0, r, L) > 0
    assert count_points(caterpillar(35), (1,) * 34 + (2,), 3) == 5702887
    assert count_points(caterpillar(35), (3, 1) * 17 + (2,), 3) == 1597


def test_big_values_agree_across_routes(monkeypatch):
    # Past 2^63 on the standard graphs, where intermediates meet
    # intermediates, and with legs summed.  The two literals were taken
    # when every step's dtype followed its plan bound alone.
    o = np.dtype(object)
    seen = _spy_dtypes(monkeypatch)
    rng = random.Random(7)
    for g in (12, 24):
        for n in range(3):
            r = [rng.randint(0, 30) for _ in range(n)]
            if sum(r) % 2:
                r[-1] += -1 if r[-1] else 1
            count = verlinde(g, r, 30)
            assert o in {d for d, _ in seen}
            _assert_narrowest(seen, standard_graph(g, n), 30)
            assert count == verlinde_factor(g, r, 30) > 2**63
    assert verlinde(24, (), 30) == int(
        "2488263226049814635795225605771618464258534310226640798262714786848"
        "06283264"
    )
    seen.clear()
    assert count_cox(caterpillar(18), 30) == (
        309961021168030549200024593236878065664
    )
    assert o in {d for d, _ in seen}
    _assert_narrowest(seen, caterpillar(18), 30, legs_summed=True)


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


# sha256 over the repr of every plan above, each step the least (result
# axes, k, i, j) over the pairs of live factors an open edge joins, k the
# slots summed inside the result with legs fixed.  Plans fix every step's
# dtype and shape, so a planner that finds the pairs another way must
# reproduce these exactly.
PLAN_DIGEST = "c56dd823ddf3b828d06c6cd5085f825a33d4226168e91f951318223edb11f0a8"


def test_plans_are_pinned():
    digest = hashlib.sha256()
    for graph in _plan_pin_graphs():
        digest.update(repr(lattice._compile(graph)).encode())
    assert digest.hexdigest() == PLAN_DIGEST


def _compile_by_position(graph):
    """The planner that broke ties by position alone, the least (result
    axes, i, j): a literal copy, kept as the reference for the summed-slot
    tie-break."""
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


def test_summed_slot_tie_break_widens_no_plan():
    # Against ties broken by position: no result gets more axes, and no
    # more steps have a plan bound past float64 at level 30.
    def wide(plan):
        return sum(31**k >= 2**53 for k in plan[2][0])

    for graph in _plan_pin_graphs():
        plan, by_position = lattice._compile(graph), _compile_by_position(graph)
        assert plan[3] <= by_position[3]
        assert wide(plan) <= wide(by_position)


def test_a_long_chain_runs_one_object_step(monkeypatch):
    # caterpillar(40) at level 30: both ends of the chain advance in turn,
    # so each side sums at most 18 of the 37 edges and only the final join
    # runs on Python ints.  Ties broken by position ran 9 to 14 steps so.
    o = np.dtype(object)
    seen = _spy_dtypes(monkeypatch)
    cat40 = caterpillar(40)
    rng = random.Random(5)
    for _ in range(20):
        r = [rng.randint(0, 30) for _ in range(40)]
        r[-1] += sum(r) % 2 * (-1 if r[-1] else 1)
        r = tuple(r)
        count = count_points(cat40, r, 30)
        dtypes = [d for d, _ in seen]
        assert dtypes.count(o) == 1 and dtypes[-1] == o
        _assert_narrowest(seen, cat40, 30)
        assert count == verlinde_factor(0, r, 30)


def test_count_cox_is_zero_below_level_zero():
    assert count_cox(trinode(), -1) == 0


def test_no_leaf_weights_read_as_an_empty_vector():
    for L in range(5):
        assert count_points(theta_graph(), None, L) == count_points(
            theta_graph(), (), L
        )


def test_a_weighting_adds_only_to_a_weighting():
    w = LevelledWeighting(trinode(), (), (1, 1, 0), 1)
    with pytest.raises(TypeError):
        w + 1


def test_integers_takes_an_int_tuple_as_it_is():
    from verkit.graphs import _integers

    exact = (1, 2, 0)
    assert _integers(exact, "leaf weight") is exact
    assert _integers((), "leaf weight") == ()

    class Row(tuple):
        pass

    for values in ([1, 2, 0], np.array([1, 2, 0]),
                   (np.int64(1), 2, np.int8(0)), Row((1, 2, 0))):
        got = _integers(values, "leaf weight")
        assert type(got) is tuple and got == exact
        assert all(type(x) is int for x in got)


# the parent's BadWeighting messages, which every route keeps
BAD_LEAVES = [
    ((1, True, 0), "leaf weight True is a boolean, not an integer"),
    ((1.0, 1, 0), "leaf weight 1.0 is not an integer"),
    ((1, "1", 0), "leaf weight '1' is not an integer"),
]


def test_count_points_refuses_non_integer_leaves_with_their_messages():
    for weights, message in BAD_LEAVES:
        for call in (lambda: count_points(trinode(), weights, 2),
                     lambda: count_points(trinode(), list(weights), 2),
                     lambda: count_points(trinode(),
                                          dict(enumerate(weights, 1)), 2)):
            with pytest.raises(BadWeighting) as caught:
                call()
            assert str(caught.value) == message


def test_counts_neither_hash_the_graph_nor_plan_it_twice(monkeypatch):
    graph = caterpillar(5)
    hashes = []

    def counted_hash(self):
        hashes.append(self)
        return hash((self.vertices, self.edges, self.legs))

    monkeypatch.setattr(type(graph), "__hash__", counted_hash)
    for i in range(200):  # contractions, odd sums and zeros by range
        count_points(graph, (1, 2, 1, 2, i % 5), 3)
    assert hashes == []

    compiled = []
    compile_plan = lattice._compile

    def counted_compile(g):
        compiled.append(g)
        return compile_plan(g)

    monkeypatch.setattr(lattice, "_compile", counted_compile)
    twins = caterpillar(6), caterpillar(6)  # equal, built separately
    for g in twins:
        for _ in range(3):
            assert count_points(g, (1,) * 6, 2) == 4
            assert count_cox(g, 2) > 0
            assert semigroup.hilbert_cox(g, 2).values[-1] == count_cox(g, 2)
    assert len(compiled) == 2
    assert all(a is b for a, b in zip(compiled, twins))


def test_cheap_zeros_hide_no_error():
    # each query has an odd leg sum or a weight past the level
    four_valent = new_graph([(0, 0), (1, 0)], [(0, 1), (0, 1)],
                            [(0, 1), (0, 2), (1, 3), (1, 4)])
    for legs in [(1, 0, 0, 0), (9, 1, 0, 0)]:
        with pytest.raises(NonTrivalentGraph):
            count_points(four_valent, legs, 2)
        with pytest.raises(GraphMismatch):
            count_points(CAT4, legs + (0,), 2)
        with pytest.raises(BadWeighting):
            count_points(CAT4, legs, 2.0)
