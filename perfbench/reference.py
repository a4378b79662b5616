"""The benchmark's own exact reference, sharing no code with verkit.

Every count the library computes is a Verlinde number of some signature,
because the count of level-L admissible weightings does not depend on which
trivalent graph carries it.  With N_a the (L+1)x(L+1) 0/1 fusion matrix,
N_a[b][c] = 1 exactly when (a, b, c) is level-L admissible, and
H = sum_a N_a^2 (one handle),

    V_{g,n}(r; L) = (H^g N_{r_1} ... N_{r_n})[0][0].

Everything here is Python ints; the row vector e_0 H^g N_{r_1} ... is built
one sparse matrix at a time.  Class counts that have a closed form come from
it; the rest are pinned in ``PINNED`` with their provenance.
"""

from __future__ import annotations

import math
from functools import lru_cache


def admissible(a: int, b: int, c: int, level: int) -> bool:
    return (
        abs(a - b) <= c <= a + b
        and (a + b + c) % 2 == 0
        and a + b + c <= 2 * level
        and max(a, b, c) <= level
    )


@lru_cache(maxsize=None)
def fusion_rows(a: int, level: int) -> tuple[tuple[int, ...], ...]:
    """Sparse N_a: row b lists the c with (a, b, c) admissible."""
    return tuple(
        tuple(c for c in range(level + 1) if admissible(a, b, c, level))
        for b in range(level + 1)
    )


def apply_fusion(vec: list[int], a: int, level: int) -> list[int]:
    """Row vector times N_a; N_a is zero when a is outside 0..level."""
    out = [0] * (level + 1)
    if not 0 <= a <= level:
        return out
    for b, cs in enumerate(fusion_rows(a, level)):
        x = vec[b]
        if x:
            for c in cs:
                out[c] += x
    return out


@lru_cache(maxsize=None)
def handle_matrix(level: int) -> tuple[tuple[int, ...], ...]:
    """H = sum_a N_a N_a as a dense matrix."""
    h = [[0] * (level + 1) for _ in range(level + 1)]
    for a in range(level + 1):
        rows = fusion_rows(a, level)
        for b in range(level + 1):
            hb = h[b]
            for m in rows[b]:
                for c in rows[m]:
                    hb[c] += 1
    return tuple(tuple(row) for row in h)


@lru_cache(maxsize=None)
def vacuum_handles(genus: int, level: int) -> tuple[int, ...]:
    """The row vector e_0 H^genus."""
    if genus == 0:
        return tuple(1 if i == 0 else 0 for i in range(level + 1))
    prev = vacuum_handles(genus - 1, level)
    h = handle_matrix(level)
    out = [0] * (level + 1)
    for b, x in enumerate(prev):
        if x:
            for c, y in enumerate(h[b]):
                if y:
                    out[c] += x * y
    return tuple(out)


def verlinde_number(genus: int, weights, level: int) -> int:
    """V_{g,n}(weights; level) = (H^g N_{r_1} ... N_{r_n})[0][0]."""
    if level < 0:
        return 0
    vec = list(vacuum_handles(genus, level))
    for r in weights:
        vec = apply_fusion(vec, r, level)
    return vec[0]


def cox_dimension(genus: int, n_legs: int, level: int) -> int:
    """Admissible weightings at the level with every leg free as well:
    (H^g M^n)[0][0] with M = sum_a N_a."""
    if level < 0:
        return 0
    vec = list(vacuum_handles(genus, level))
    for _ in range(n_legs):
        acc = [0] * (level + 1)
        for a in range(level + 1):
            for c, x in enumerate(apply_fusion(vec, a, level)):
                acc[c] += x
        vec = acc
    return vec[0]


def points_up_to(genus: int, n_legs: int, level_bound: int) -> int:
    """All semigroup points of level 0..level_bound."""
    return sum(cox_dimension(genus, n_legs, l) for l in range(level_bound + 1))


# -- class counts -------------------------------------------------------------


def double_factorial(k: int) -> int:
    return math.prod(range(k, 0, -2))


def trivalent_trees(n_legs: int) -> int:
    """(2n-5)!! trivalent trees with n labelled leaves."""
    return double_factorial(2 * n_legs - 5)


# OEIS A005967, connected cubic multigraphs with loops on 2g-2 vertices.
CUBIC_MULTIGRAPHS = {2: 2, 3: 5, 4: 17}

# OEIS A000311 (Schroeder's fourth problem): trees with n-1 labelled leaves
# and every internal vertex of degree >= 3, rooted; unrooted with n legs.
SCHROEDER = {3: 1, 4: 4, 5: 26, 6: 236}


def trivalent_classes(genus: int, n_legs: int) -> int:
    if genus == 0:
        return trivalent_trees(n_legs)
    if n_legs == 0 and genus in CUBIC_MULTIGRAPHS:
        return CUBIC_MULTIGRAPHS[genus]
    return PINNED["trivalent"][(genus, n_legs)]


def stable_classes(genus: int, n_legs: int) -> int:
    if genus == 0:
        return SCHROEDER[n_legs]
    return PINNED["stable"][(genus, n_legs)]


# Counts with no closed form here, pinned from verkit at the commit that
# added this benchmark.  Checked by hand: trivalent (1,1) = 1, (1,2) = 2,
# (1,3) = 7, (2,1) = 3 and (2,2) = 10,
# stable (1,1) = 2, (1,2) = 5, (2,0) = 7 (the strata of M_2-bar) and
# (2,1) = 16.  At genus 0 the poset figures follow from counting: Hasse edges
# sum the internal edges over all stable trees, and there are
# 2 (n-3) (2n-5)!! flip triples.  Not checked independently: trivalent
# (1,4) = 39 and the flip diameters.
# "poset" is (classes, Hasse edges, flip triples) of contraction_poset;
# "flips" is (connected, diameter) of flip_connectivity.
PINNED = {
    "trivalent": {(1, 1): 1, (1, 2): 2, (1, 3): 7, (1, 4): 39, (2, 1): 3, (2, 2): 10},
    "stable": {(1, 1): 2, (1, 2): 5, (2, 0): 7, (2, 1): 16},
    "poset": {(0, 4): (4, 3, 6), (0, 5): (26, 40, 60),
              (0, 6): (236, 550, 630), (1, 1): (2, 1, 0), (1, 2): (5, 5, 2),
              (2, 0): (7, 8, 2), (2, 1): (16, 27, 4)},
    "flips": {(0, 5): (True, 3), (0, 6): (True, 5), (0, 7): (True, 7),
              (1, 2): (True, 1), (2, 0): (True, 1)},
}
