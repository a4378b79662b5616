from __future__ import annotations

import importlib
import itertools
import random
import time
import warnings

import numpy as np
import pytest

from verkit import lattice
from verkit import (
    BadWeighting,
    InstanceTooLarge,
    NumericalResidual,
    UnstableSignature,
    caterpillar,
    count_points,
    dumbbell,
    enumerate_trivalent,
    factorization_4point,
    fusion_coeff,
    standard_graph,
    theta_graph,
    verlinde,
    verlinde_closed_form,
    verlinde_factor,
)


def test_fusion_coeff_is_admissibility_indicator():
    assert fusion_coeff(1, 1, 0, 1) == 1
    assert fusion_coeff(1, 1, 2, 1) == 0
    assert fusion_coeff(1, 1, 2, 2) == 1
    assert fusion_coeff(2, 2, 2, 2) == 0
    assert fusion_coeff(0, 0, 0, 0) == 1
    assert fusion_coeff(1, 1, 1, 9) == 0  # odd sum never fuses


def test_fusion_routes_refuse_non_integers():
    for args in [(1.5, 0.5, 1, 2), (True, 1, 0, 1), (1, 1, 0, 1.0)]:
        with pytest.raises(BadWeighting):
            fusion_coeff(*args)
    for args in [(1.0, 1, 1, 1, 2), (1, 1, 1, 1, True), (1, 1, 1, 1, 2.5),
                 (1, 1, 1.5, 1, -1)]:
        with pytest.raises(BadWeighting):
            factorization_4point(*args)
    assert factorization_4point(np.int64(1), 1, 1, 1, np.int64(2)) == 2


def test_fusion_coeff_symmetric():
    for a, b, c, L in itertools.product(range(7), range(7), range(7), range(9)):
        vals = {fusion_coeff(*p, L) for p in itertools.permutations((a, b, c))}
        assert len(vals) == 1
        assert vals.pop() in (0, 1)


def test_standard_graph_signatures():
    for g, n in [(0, 3), (0, 5), (1, 1), (1, 3), (2, 0), (2, 2), (3, 1)]:
        G = standard_graph(g, n)
        assert G.signature() == (g, n)
        assert G.is_trivalent()
        assert len(G.edges) == 3 * g - 3 + n
        assert standard_graph(g, n) is G  # memoised: one graph, one plan


def test_standard_graph_tuples_are_pinned():
    # edge order fixes the greedy contraction plan, so it is pinned exactly
    expected = {
        (0, 5): (
            ((0, 0), (1, 0), (2, 0)),
            ((0, 1), (1, 2)),
            ((0, 1), (0, 2), (1, 3), (2, 4), (2, 5)),
        ),
        (1, 3): (
            ((0, 0), (1, 0), (2, 0)),
            ((0, 1), (1, 2), (2, 2)),
            ((0, 1), (0, 2), (1, 3)),
        ),
        (2, 1): (
            ((0, 0), (1, 0), (2, 0)),
            ((0, 1), (1, 1), (0, 2), (2, 2)),
            ((0, 1),),
        ),
        (3, 0): (
            ((0, 0), (1, 0), (2, 0), (3, 0)),
            ((0, 1), (1, 1), (0, 2), (2, 2), (0, 3), (3, 3)),
            (),
        ),
    }
    for signature, tuples in expected.items():
        G = standard_graph(*signature)
        assert (G.vertices, G.edges, G.legs) == tuples


@pytest.mark.parametrize("route", [verlinde, verlinde_factor, verlinde_closed_form])
def test_non_integer_weights_and_levels_are_refused(route):
    # int() used to read (1.9, 1, 1, 1) as (1, 1, 1, 1), which counts 2
    assert route(0, (1, 1, 1, 1), 2) == 2
    assert route(0, np.array([1, 1, 1, 1]), np.int64(2)) == 2
    assert route(0, None, 2) == route(0, (), 2) == 1
    for r, L in [((1.9, 1, 1, 1), 2), ((1, 1, 1, True), 2), ((1, 1, 1, 1), 2.5),
                 ((1, 1, 1, 1), True)]:
        with pytest.raises(BadWeighting):
            route(0, r, L)
    # a float genus would hit the memoised standard graph of its int value
    with pytest.raises(BadWeighting):
        route(0.0, (1, 1, 1, 1), 2)


def test_stock_sizes_are_read_as_integers():
    # warm the int-keyed cache first: a truncating read would hit it
    standard_graph(1, 1), standard_graph(2, 0), standard_graph(2, 5)
    for g, n in [(True, 1), (1.5, 0), (2, "5"), ("2", 0), (2.0, 0)]:
        with pytest.raises(BadWeighting):
            standard_graph(g, n)
    for n in [True, 4.0, 1.5, "5"]:
        with pytest.raises(BadWeighting):
            caterpillar(n)
    with pytest.raises(UnstableSignature):
        caterpillar(2)
    assert standard_graph(np.int64(2), 0) is standard_graph(2, 0)
    assert standard_graph(2, np.int64(5)) is standard_graph(2, 5)
    assert caterpillar(np.int64(5)) == caterpillar(5)


def test_standard_graph_rejects_unstable():
    for g, n in [(0, 0), (0, 2), (1, 0)]:
        with pytest.raises(UnstableSignature):
            standard_graph(g, n)
    with pytest.raises(UnstableSignature):
        verlinde(-1, (), 2)
    with pytest.raises(UnstableSignature):  # padding 3 - 2g legs is clamped
        verlinde(-10**18, (), 2)
    for route in (verlinde_factor, verlinde_closed_form):
        with pytest.raises(UnstableSignature):
            route(-1, (1,), 2)


def test_genus_one_count_is_level_plus_one():
    for L in range(21):
        assert verlinde(1, (), L) == L + 1


def test_level_one_count_is_two_to_the_genus():
    for g in range(1, 5):
        assert verlinde(g, (), 1) == 2**g


def test_small_frozen_values():
    assert verlinde(0, (1, 1, 1, 1), 1) == 1
    assert verlinde(0, (1, 1, 1, 1), 2) == 2
    assert verlinde(2, (), 1) == 4
    assert verlinde(2, (), 2) == 10
    assert verlinde(0, (0, 0, 0), 7) == 1


def test_genus_two_and_up_need_no_vacuum_leg():
    for g in range(2, 5):
        for L in range(5):
            assert verlinde(g, (), L) == count_points(standard_graph(g, 0), (), L)


def test_short_leaf_tuples_pad_neutrally():
    for L in range(4):
        assert verlinde(0, (), L) == 1
        for a in range(L + 1):
            assert verlinde(0, (a,), L) == (1 if a == 0 else 0)
            for b in range(L + 1):
                assert verlinde(0, (a, b), L) == (1 if a == b else 0)


def test_closed_form_matches_count_exhaustively():
    # both routes normalize short signatures the same way, so no skips
    for g in range(3):
        for n in range(4):
            for L in range(7):
                for r in itertools.product(range(L + 1), repeat=n):
                    a = verlinde(g, r, L)
                    b = verlinde_closed_form(g, r, L)
                    assert a == b, (g, r, L, a, b)


def test_closed_form_matches_count_sampled_genus_three():
    rng = random.Random(7)
    for _ in range(12):
        n = rng.randint(0, 2)
        L = rng.randint(1, 5)
        r = tuple(rng.randint(0, L) for _ in range(n))
        assert verlinde_closed_form(3, r, L) == verlinde(3, r, L)


def test_closed_form_residual_guard_can_fire():
    # the double lands on 8223616530000296873558016, an integer-valued
    # float 1.7e10 below the true 8223616530000314094021931
    with pytest.raises(NumericalResidual) as exc:
        verlinde_closed_form(10, (), 20)
    assert exc.value.bound >= 0.5


def test_tensor_route_is_exact_past_2_63():
    # its steps run in float64, int64 and object arrays in turn; a Python
    # float carried into an object array would round the value as the
    # double above does
    value = verlinde(10, (), 20)
    assert type(value) is int and value == 8223616530000314094021931


@pytest.mark.parametrize("genus, level", [(400, 5), (400, 40), (2000, 3)])
def test_closed_form_refuses_outside_double_range(genus, level):
    with pytest.raises(NumericalResidual):
        verlinde_closed_form(genus, (), level)


def test_every_route_reads_a_numpy_genus_as_an_int():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalResidual) as exc:
            verlinde_closed_form(np.int64(400), (), 5)
        assert type(exc.value.value) is float
        for route in (verlinde, verlinde_factor, verlinde_closed_form):
            assert route(np.int64(2), (1, 1), 3) == route(2, (1, 1), 3) == 40
            assert route(np.int64(0), (1, 1, 1, 1), 2) == 2


def test_closed_form_rounds_a_value_far_above_one():
    assert verlinde_closed_form(6, (), 12) == 113077051815


@pytest.mark.parametrize(
    "genus, n_legs, level",
    [(6, 0, 12), (8, 0, 16), (10, 1, 20), (12, 0, 22), (14, 2, 24),
     (16, 0, 26), (18, 1, 28), (20, 0, 30), (22, 2, 30), (24, 0, 30)],
)
def test_closed_form_is_exact_or_refuses_on_huge_values(genus, n_legs, level):
    for r in {(0,) * n_legs, (2,) * n_legs, (level,) * n_legs}:
        want = verlinde(genus, r, level)
        try:
            assert verlinde_closed_form(genus, r, level) == want
        except NumericalResidual:
            pass


def test_level_loops_refuse_past_their_cap(monkeypatch):
    # a cap of 8 terms: level 7 loops 8 times and answers, level 8 refuses
    # before its loop, so a missing check fails here without a big loop
    monkeypatch.setattr(importlib.import_module("verkit.verlinde"),
                        "_LEVEL_CAP", 8)
    assert verlinde_closed_form(0, (), 7) == 1
    assert factorization_4point(0, 0, 0, 0, 7) == 1
    assert verlinde_factor(0, (1, 1, 1, 1), 7) == 2
    for call in [lambda: verlinde_closed_form(0, (), 8),
                 lambda: verlinde_closed_form(1, (2,), 8),
                 lambda: factorization_4point(0, 0, 0, 0, 8),
                 lambda: verlinde_factor(0, (1, 1, 1, 1), 8)]:
        with pytest.raises(InstanceTooLarge, match="exceeds the cap 8"):
            call()
    # the out-of-range answers come before the cap
    assert verlinde_closed_form(0, (9,), 8) == 0
    assert verlinde_closed_form(0, (), -1) == 0
    assert factorization_4point(0, 0, 0, 0, -1) == 0


def test_factorization_4point_examples():
    assert factorization_4point(1, 1, 1, 1, 1) == 1
    assert factorization_4point(1, 1, 1, 1, 2) == 2
    for L in range(5):
        assert factorization_4point(0, 0, 0, 0, L) == 1


def test_factorization_4point_matches_count():
    cat = caterpillar(4)
    for L in range(4):
        for r in itertools.product(range(L + 1), repeat=4):
            assert factorization_4point(*r, L) == count_points(cat, r, L)


def test_factor_route_agrees():
    cases = [
        (0, (1, 1, 1, 1), 2),
        (0, (2, 1, 1, 2), 3),
        (0, (1, 1, 1, 1, 2), 3),
        (1, (2,), 3),
        (1, (1, 1), 2),
        (2, (), 2),
    ]
    for g, r, L in cases:
        assert verlinde_factor(g, r, L) == verlinde(g, r, L), (g, r, L)


def test_count_independent_of_trivalent_model():
    # any trivalent graph of the signature gives the same numbers
    for L in range(5):
        assert count_points(dumbbell(), (), L) == count_points(theta_graph(), (), L)
    r = (1, 1, 2, 0, 2)
    for cls in enumerate_trivalent(0, 5):
        assert count_points(cls, r, 3) == verlinde(0, r, 3)


def test_genus_two_graph_models_agree_with_closed_form():
    for L in range(4):
        want = verlinde_closed_form(2, (), L)
        assert count_points(dumbbell(), (), L) == want
        assert count_points(theta_graph(), (), L) == want


def test_closed_form_never_negative():
    for r in itertools.product(range(5), repeat=4):
        for L in range(7):
            v = verlinde_closed_form(0, r, L)
            assert v >= 0
            assert v == verlinde(0, r, L)


def _agrees_with_other_routes(g, r, L):
    want = verlinde(g, r, L)
    assert verlinde_factor(g, r, L) == want, (g, r, L)
    try:
        closed = verlinde_closed_form(g, r, L)
    except NumericalResidual:
        return
    assert closed == want, (g, r, L)


def test_sewing_route_matches_on_every_small_signature():
    # every r with g <= 3, n <= 3, L <= 6: 3,836 queries
    for L in range(7):
        for g in range(4):
            for n in range(4):
                for r in itertools.product(range(L + 1), repeat=n):
                    _agrees_with_other_routes(g, r, L)


def test_sewing_route_matches_on_seeded_draws():
    rng = random.Random(21)
    for _ in range(300):
        g, n, L = rng.randrange(7), rng.randrange(5), rng.randrange(11)
        _agrees_with_other_routes(
            g, tuple(rng.randrange(L + 1) for _ in range(n)), L)


def test_sewing_route_runs_no_walk_and_no_contraction(monkeypatch):
    # the three signatures the walk's cap refused when this route used it
    def refuse(*args, **kwargs):
        raise AssertionError("the sewing route left its own code")

    monkeypatch.setattr(importlib.import_module("verkit.lattice"), "_walk",
                        refuse)
    verlinde_module = importlib.import_module("verkit.verlinde")
    monkeypatch.setattr(verlinde_module, "count_points", refuse)
    monkeypatch.setattr(verlinde_module, "_standard_graph", refuse)
    assert verlinde_factor(4, (), 7) == 117072
    assert verlinde_factor(5, (), 4) == 42065
    assert verlinde_factor(6, (), 3) == 40000
    assert verlinde_factor(0, (1, 2, 1, 2), 3) == factorization_4point(
        1, 2, 1, 2, 3)


def test_sewing_cap_refuses_before_any_admissibility_test(monkeypatch):
    verlinde_module = importlib.import_module("verkit.verlinde")
    # (0, (1, 1, 0), 1) is cut at its middle leg: one test for each side
    # and one where they meet; a fourth leg adds one test
    monkeypatch.setattr(verlinde_module, "_SEW_CAP", 3)
    assert verlinde_factor(0, (1, 1), 1) == 1
    with pytest.raises(InstanceTooLarge, match="4 sewing steps .* cap 3"):
        verlinde_factor(0, (1, 1, 0, 0), 1)

    def refuse(*args):
        raise AssertionError("tested admissibility past the cap")

    monkeypatch.setattr(verlinde_module, "admissible_triple_level", refuse)
    monkeypatch.setattr(verlinde_module, "_SEW_CAP", 2)
    for g, r, L in [(0, (), 0), (5, (), 4), (1, (2,), 9)]:
        with pytest.raises(InstanceTooLarge, match="exceeds the cap 2"):
            verlinde_factor(g, r, L)
    # the out-of-range answers come before the cap
    assert verlinde_factor(0, (5,), 4) == 0
    assert verlinde_factor(2, (), -1) == 0


def test_sewing_cap_prices_the_length_of_the_ints(monkeypatch):
    verlinde_module = importlib.import_module("verkit.verlinde")
    steps = verlinde_module._sew_steps
    # the tests grow with the genus and so do the ints they add: the price
    # grows with its square
    assert steps(200_000, (), 1) > 3.9 * steps(100_000, (), 1)

    def refuse(*args):
        raise AssertionError("sewed past the cap")

    monkeypatch.setattr(verlinde_module, "_sew", refuse)
    monkeypatch.setattr(verlinde_module, "_side", refuse)
    for g, L in [(200_000, 1), (10_000, 10), (10**12, 10)]:
        with pytest.raises(InstanceTooLarge, match="sewing steps"):
            verlinde_factor(g, (), L)


def test_sewing_route_answers_wherever_the_walk_does():
    # the old factor route walked the standard graph under the walk's cap:
    # (L + 1) ** E assignments for its E edges, or at (0, 4) any level
    # below the level-loop cap.  Every such query still sews under its cap.
    verlinde_module = importlib.import_module("verkit.verlinde")
    walk_cap = importlib.import_module("verkit.lattice")._WALK_CAP
    rng = random.Random(21)
    for g in range(10):
        for n in range(max(0, 3 - 2 * g), 27):
            edges = len(standard_graph(g, n).edges)
            L = 2**20 - 1
            if edges and (g, n) != (0, 4):
                L = min(L, round(walk_cap ** (1 / edges)))
                while (L + 1) ** edges > walk_cap:
                    L -= 1
            if L < 1:
                continue
            pool = [0, 1, L // 2, (L + 1) // 2, L - 1, L]
            draws = (itertools.product(pool, repeat=n) if n <= 3 else
                     (tuple(rng.choice(pool) for _ in range(n))
                      for _ in range(50)))
            for r in draws:
                assert verlinde_module._sew_steps(g, r, L) <= (
                    verlinde_module._SEW_CAP), (g, r, L)


def test_sewing_route_answers_at_high_levels():
    assert verlinde_factor(0, (1, 1, 1, 1), 200) == 2
    assert verlinde_factor(0, (1, 1, 1, 1), 2**20 - 1) == 2
    assert verlinde_factor(0, (0, 0, 0), 10**5) == 1
    assert verlinde_factor(1, (), 500) == 501
    assert verlinde_factor(1, (), 10**4) == 10**4 + 1
    assert verlinde_factor(0, (300, 400, 500, 600), 2000) == (
        factorization_4point(300, 400, 500, 600, 2000))


@pytest.mark.parametrize("route", [verlinde, verlinde_factor, verlinde_closed_form])
def test_non_integer_leaves_keep_their_messages(route):
    for r, message in [((1, True, 0), "leaf weight True is a boolean, not an integer"),
                       ((1.0, 1, 0), "leaf weight 1.0 is not an integer"),
                       ((1, "1", 0), "leaf weight '1' is not an integer")]:
        for weights in (r, list(r)):
            with pytest.raises(BadWeighting) as caught:
                route(0, weights, 2)
            assert str(caught.value) == message
    # an exact int tuple and its numpy forms count alike
    assert (route(0, (1, 1, 0), 2) == route(0, np.array([1, 1, 0]), 2)
            == route(0, (np.int64(1), 1, 0), 2) == 1)


def test_standard_graph_has_n_plus_2g_minus_2_vertices():
    # verlinde judges the plan cap on this count before building the graph
    for g in range(7):
        for n in range(7):
            if 2 * g - 2 + n > 0:
                assert len(standard_graph(g, n).vertices) == n + 2 * g - 2


def test_plan_cap_refuses_before_the_graph_is_built(monkeypatch):
    verlinde_module = importlib.import_module("verkit.verlinde")
    monkeypatch.setattr(lattice, "_PLAN_CAP", 100)
    assert verlinde(6, (), 1) == verlinde_factor(6, (), 1)  # 10 vertices

    def build(*args):
        raise AssertionError("built the standard graph")

    monkeypatch.setattr(verlinde_module, "standard_graph", build)
    # the first signatures past the cap: 12, 11 and 11 vertices
    for g, r in [(7, ()), (0, (0,) * 13), (1, (1,) * 11)]:
        with pytest.raises(InstanceTooLarge, match="plan cap 100"):
            verlinde(g, r, 1)
    monkeypatch.undo()
    start = time.perf_counter()
    with pytest.raises(InstanceTooLarge, match="plan cap"):
        verlinde(10**7, (), 3)
    assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize("genus", [2**63, 10**400, 10**3000],
                         ids=["2**63", "10**400", "10**3000"])
def test_a_huge_genus_is_refused_before_any_work(genus, monkeypatch):
    # no legs are padded past genus 1, so a genus past the index range asks
    # for no sequence length, and a |2 - 2g - n| past double range is one
    # more overflow of the closed form
    verlinde_module = importlib.import_module("verkit.verlinde")

    def build(*args):
        raise AssertionError("built a standard graph or a sewing side")

    monkeypatch.setattr(verlinde_module, "standard_graph", build)
    monkeypatch.setattr(verlinde_module, "_side", build)
    with pytest.raises(InstanceTooLarge, match="plan cap"):
        verlinde(genus, (), 3)
    with pytest.raises(InstanceTooLarge, match="sewing steps"):
        verlinde_factor(genus, (), 3)
    with pytest.raises(NumericalResidual):
        verlinde_closed_form(genus, (), 3)
