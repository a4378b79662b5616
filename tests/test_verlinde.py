from __future__ import annotations

import itertools
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verkit import (
    BadWeighting,
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


@settings(max_examples=150, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=6),
    b=st.integers(min_value=0, max_value=6),
    c=st.integers(min_value=0, max_value=6),
    L=st.integers(min_value=0, max_value=8),
)
def test_fusion_coeff_symmetric(a, b, c, L):
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


@settings(max_examples=60, deadline=None)
@given(
    r=st.tuples(*[st.integers(min_value=0, max_value=4)] * 4),
    L=st.integers(min_value=0, max_value=6),
)
def test_closed_form_never_negative(r, L):
    v = verlinde_closed_form(0, r, L)
    assert v >= 0
    assert v == verlinde(0, r, L)
