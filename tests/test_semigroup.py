from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verkit import semigroup

from verkit import (
    BadWeighting,
    CounterexampleFound,
    GraphMismatch,
    LevelledWeighting,
    NotATree,
    caterpillar,
    count_cox,
    count_points,
    degree_one_generation_check,
    dualizing_weighting,
    dumbbell,
    enumerate_trivalent,
    filtration_value,
    gorenstein_check,
    hilbert_cox,
    hilbert_projective,
    interior_points,
    loop_with_leg,
    new_functional,
    theta_graph,
    trinode,
)

DESK_GRAPHS = [trinode(), caterpillar(4), dumbbell(), theta_graph(), loop_with_leg()]


def test_hilbert_cox_trinode():
    table = hilbert_cox(trinode(), 4)
    assert table.values == (1, 4, 10, 20, 35)
    assert table.grading == "cox"
    assert table.base is None


def test_hilbert_cox_independent_of_graph_model():
    assert hilbert_cox(dumbbell(), 5).values == hilbert_cox(theta_graph(), 5).values


def test_hilbert_cox_degree_zero_is_one():
    for g in DESK_GRAPHS:
        assert hilbert_cox(g, 0).values == (1,)


def test_hilbert_table_json_schema():
    data = hilbert_cox(trinode(), 2).to_json()
    assert set(data) == {"graph", "grading", "base", "values"}
    assert data["base"] == {}
    assert data["values"] == ["1", "4", "10"]
    data = hilbert_projective(trinode(), (1, 1, 1), 2, 2).to_json()
    assert data["base"] == {"weights": [1, 1, 1], "level": 2}
    assert all(isinstance(v, str) for v in data["values"])


def test_hilbert_projective_caterpillar_all_ones():
    table = hilbert_projective(caterpillar(4), (1, 1, 1, 1), 1, 6)
    assert table.values == (1,) * 7


def test_hilbert_projective_parity_gaps():
    # odd dilations of (1,1,1) land on odd totals, which never fuse
    table = hilbert_projective(trinode(), (1, 1, 1), 2, 4)
    assert table.values == (1, 0, 1, 0, 1)


def test_hilbert_projective_matches_direct_counts():
    g = loop_with_leg()
    table = hilbert_projective(g, (2,), 3, 5)
    for N, v in enumerate(table.values):
        assert v == count_points(g, (2 * N,), 3 * N)
    assert table.values[0] == 1


def test_interior_empty_below_level_four():
    for g in DESK_GRAPHS:
        assert list(interior_points(g, 3)) == []


def test_interior_minimal_point_is_all_twos():
    for g in DESK_GRAPHS:
        pts = list(interior_points(g, 4))
        assert pts == [dualizing_weighting(g)]


def test_interior_counts_frozen():
    assert len(list(interior_points(trinode(), 8))) == 70
    assert len(list(interior_points(caterpillar(4), 8))) == 406
    assert len(list(interior_points(loop_with_leg(), 8))) == 22


def test_interior_count_per_level_is_shifted_cox():
    for g in DESK_GRAPHS:
        by_level: dict[int, int] = {}
        for w in interior_points(g, 8):
            by_level[w.level] = by_level.get(w.level, 0) + 1
        for level in range(9):
            want = count_cox(g, level - 4) if level >= 4 else 0
            assert by_level.get(level, 0) == want, (g, level)


def test_interior_order_level_then_lex():
    seen = [(w.level, w.edge_weights + w.leg_weights) for w in
            interior_points(caterpillar(4), 6)]
    assert seen == sorted(seen)


def test_gorenstein_holds_with_reverifying_certificates():
    for g in DESK_GRAPHS:
        holds, certs = gorenstein_check(g, 8)
        assert holds
        omega = dualizing_weighting(g)
        assert len(certs) == len(list(interior_points(g, 8)))
        for w, residual in certs:
            assert residual + omega == w
            assert residual.level == w.level - 4
            assert all(x >= 0 for x in residual.edge_weights + residual.leg_weights)


def test_gorenstein_counterexample_payload():
    # sanity-check the exception type is raisable with a point attached
    w = dualizing_weighting(trinode())
    exc = CounterexampleFound(w, "demo")
    assert exc.point == w
    assert "demo" in str(exc)


def test_gorenstein_refuses_a_wrong_dualizing_weighting(monkeypatch):
    t = trinode()
    # all-ones at level 2: its shift of the level-0 point has an odd sum
    monkeypatch.setattr(
        semigroup,
        "dualizing_weighting",
        lambda g: LevelledWeighting(g, (), (1, 1, 1), 2),
    )
    with pytest.raises(CounterexampleFound) as info:
        gorenstein_check(t, 8)
    assert info.value.point == LevelledWeighting(t, (), (1, 1, 1), 2)
    assert "not interior" in str(info.value)
    # (2, 2, 0) at level 4: at level 4 the lists are [(2, 2, 2)] and
    # [(2, 2, 0)], each lacking the other's point; the lesser is reported
    monkeypatch.setattr(
        semigroup,
        "dualizing_weighting",
        lambda g: LevelledWeighting(g, (), (2, 2, 0), 4),
    )
    with pytest.raises(CounterexampleFound) as info:
        gorenstein_check(t, 8)
    assert info.value.point == LevelledWeighting(t, (), (2, 2, 0), 4)
    assert "not interior" in str(info.value)
    # all-twos at level 5: the interior point (2, 2, 2) at level 4 is no shift
    monkeypatch.setattr(
        semigroup,
        "dualizing_weighting",
        lambda g: LevelledWeighting(g, (), (2, 2, 2), 5),
    )
    with pytest.raises(CounterexampleFound) as info:
        gorenstein_check(t, 8)
    assert info.value.point == LevelledWeighting(t, (), (2, 2, 2), 4)
    assert "not a dualizing shift" in str(info.value)


def test_semigroup_integer_arguments_are_refused():
    t = trinode()
    for call in [
        lambda: hilbert_projective(t, (1, 1, 0), True, 3),
        lambda: hilbert_projective(t, (1, 1, 0), 1, 3.0),
        lambda: hilbert_cox(t, 2.0),
        lambda: gorenstein_check(t, 4.0),
        lambda: degree_one_generation_check(t, 2.0),
        lambda: list(interior_points(t, 4.0)),
    ]:
        with pytest.raises(BadWeighting):
            call()


def test_degree_one_generation_trinode():
    holds, certs = degree_one_generation_check(trinode(), 4)
    assert holds
    zero = LevelledWeighting(trinode(), (), (0, 0, 0), 0)
    for w, parts in certs.items():
        assert len(parts) == w.level
        assert all(p.level == 1 for p in parts)
        acc = zero
        for p in parts:
            acc = acc + p
        assert acc == w


def test_degree_one_generation_refuses_a_missing_generator(monkeypatch):
    t = trinode()
    missing = LevelledWeighting(t, (), (1, 1, 0), 1)
    walk, levels = semigroup._all_points, []

    def walk_without_one_generator(graph, level):
        # the first walk, at level 1, lists the generators
        levels.append(level)
        points = walk(graph, level)
        if len(levels) > 1:
            return points
        return (w for w in points if w != missing)

    monkeypatch.setattr(semigroup, "_all_points", walk_without_one_generator)
    with pytest.raises(CounterexampleFound) as info:
        degree_one_generation_check(t, 3)
    assert levels[:3] == [1, 0, 1]
    assert info.value.point == missing
    assert "no decomposition into 1 level-1 points" in str(info.value)


def test_degree_one_generation_caterpillar():
    cat = caterpillar(4)
    holds, certs = degree_one_generation_check(cat, 3)
    assert holds
    # one certificate per admissible point per level
    assert len(certs) == sum(
        count_points(cat, r, L)
        for L in range(4)
        for r in itertools.product(range(L + 1), repeat=4)
    )


def test_degree_one_certificates_match_literal_search():
    # each certificate is the first l-tuple of generators, in generator
    # order, that sums to the point
    cat = caterpillar(4)
    holds, certs = degree_one_generation_check(cat, 3)
    zero = LevelledWeighting(cat, (0,), (0, 0, 0, 0), 0)
    generators = [w for w in certs if w.level == 1]
    for w, parts in certs.items():
        first = next(
            combo
            for combo in itertools.product(generators, repeat=w.level)
            if sum(combo, start=zero) == w
        )
        assert parts == first


def test_degree_one_generation_all_five_leaf_trees():
    for tree in enumerate_trivalent(0, 5):
        holds, _ = degree_one_generation_check(tree, 2)
        assert holds


def test_degree_one_generation_rejects_loops():
    with pytest.raises(NotATree):
        degree_one_generation_check(dumbbell(), 2)
    with pytest.raises(NotATree):
        degree_one_generation_check(loop_with_leg(), 2)


def test_dualizing_weighting_shape():
    w = dualizing_weighting(caterpillar(5))
    assert w.level == 4
    assert set(w.edge_weights) == {2} and set(w.leg_weights) == {2}


def test_filtration_value_examples():
    t = trinode()
    theta = new_functional(t, (), (1, 1, 1))
    w = LevelledWeighting(t, (), (2, 2, 2), 4)
    assert filtration_value(w, theta) == 6

    d = dumbbell()
    theta_d = new_functional(d, (1, 1, 1), ())
    assert filtration_value(LevelledWeighting(d, (1, 0, 1), (), 1), theta_d) == 2


def test_filtration_value_rational():
    t = trinode()
    theta = new_functional(t, (), (Fraction(1, 2), Fraction(1, 3), 0))
    w = LevelledWeighting(t, (), (1, 1, 2), 2)
    assert filtration_value(w, theta) == Fraction(5, 6)


def test_filtration_zero_functional():
    cat = caterpillar(4)
    theta = new_functional(cat, (0,), (0, 0, 0, 0))
    assert not theta.is_strict
    w = LevelledWeighting(cat, (2,), (1, 1, 1, 1), 3)
    assert filtration_value(w, theta) == 0


def test_functional_strictness_ignores_legs():
    cat = caterpillar(4)
    assert new_functional(cat, (1,), (0, 0, 0, 0)).is_strict
    assert not new_functional(cat, (0,), (1, 1, 1, 1)).is_strict


def test_new_functional_validation():
    t = trinode()
    with pytest.raises(GraphMismatch):
        new_functional(t, (1,), (1, 1, 1))
    with pytest.raises(GraphMismatch):
        new_functional(t, (), (1, 1))
    with pytest.raises(BadWeighting):
        new_functional(t, (), (1, -1, 1))
    for values in [("x", 1, 1), (None, 1, 1), (float("inf"), 1, 1),
                   ("1/2", 1, 1), (1, " 3 ", 0)]:
        with pytest.raises(BadWeighting):
            new_functional(t, (), values)
    with pytest.raises(BadWeighting):
        new_functional(t, (), (True, 1, 1))
    with pytest.raises(BadWeighting):
        new_functional(dumbbell(), (1, False, 1), ())


def test_filtration_graph_mismatch():
    theta = new_functional(trinode(), (), (1, 1, 1))
    w = LevelledWeighting(caterpillar(4), (0,), (1, 1, 1, 1), 2)
    with pytest.raises(GraphMismatch):
        filtration_value(w, theta)
    # a weighting of the wrong length is not read as a shorter one
    theta = new_functional(caterpillar(4), (1,), (1, 1, 1, 1))
    for w in [LevelledWeighting(caterpillar(4), (), (1, 1, 1), 1),
              LevelledWeighting(caterpillar(4), (1, 1), (1, 1, 1, 1), 1)]:
        with pytest.raises(GraphMismatch):
            filtration_value(w, theta)


weights4 = st.tuples(*[st.integers(min_value=0, max_value=5)] * 4)


@settings(max_examples=60, deadline=None)
@given(a=weights4, b=weights4, e1=st.integers(0, 5), e2=st.integers(0, 5))
def test_filtration_additive(a, b, e1, e2):
    cat = caterpillar(4)
    theta = new_functional(cat, (Fraction(1, 2),), (1, 2, 0, Fraction(3, 4)))
    w1 = LevelledWeighting(cat, (e1,), a, 3)
    w2 = LevelledWeighting(cat, (e2,), b, 2)
    assert filtration_value(w1 + w2, theta) == filtration_value(
        w1, theta
    ) + filtration_value(w2, theta)
    assert filtration_value(w1.scaled(3), theta) == 3 * filtration_value(w1, theta)
