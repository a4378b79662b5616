"""sl2 Verlinde numbers by three independent routes.

V_g,n(r, L) counts level-L admissible weightings on any trivalent graph of
genus g with n legs weighted r; the answer does not depend on the graph.
Routes:

  * :func:`verlinde` -- tensor contraction on a fixed standard graph;
  * :func:`verlinde_factor` -- the literal factorization sum (products of
    fusion coefficients over all internal labelings; at (0,4) this is
    exactly :func:`factorization_4point`);
  * :func:`verlinde_closed_form` -- the trigonometric formula
    ((L+2)/2)^(g-1) * sum_j prod_i sin((r_i+1) j pi/(L+2))
                      * sin(j pi/(L+2))^(2-2g-n).

Signatures below stability are normalized first: with no legs a single
0-weighted leg is attached (vacuum insertion), and genus-0 signatures with
n < 3 are padded with 0-weighted legs, both of which leave the count
unchanged because fusing with the trivial weight is the identity.
"""

from __future__ import annotations

import math

from .errors import NumericalResidual, UnstableSignature
from .graphs import MarkedGraph, new_graph
from .lattice import (
    admissible_triple_level,
    count_points,
    count_points_bruteforce,
)


def fusion_coeff(a: int, b: int, c: int, level: int) -> int:
    """Multiplicity (0 or 1) of the level-truncated sl2 fusion product."""
    return 1 if admissible_triple_level(a, b, c, level) else 0


def standard_graph(genus: int, n_legs: int) -> MarkedGraph:
    """A fixed trivalent genus-0-vertex graph of the given signature.

    Caterpillar spine carrying the n legs first and then, for each unit of
    genus, a pendant vertex with a loop.  The (1,1) case degenerates to a
    single vertex with a loop and a leg.
    """
    g, n = genus, n_legs
    if g < 0 or n < 0 or 2 * g - 2 + n <= 0:
        raise UnstableSignature(f"no trivalent graph for genus {g}, {n} legs")
    p = n + g  # pendant count: legs then loops
    if p == 2:
        # no spine vertices: either a loop with a leg or two joined loops
        if g == 2:
            return new_graph([(0, 0), (1, 0)], [(0, 0), (0, 1), (1, 1)], [])
        return new_graph([(0, 0)], [(0, 0)], [(0, 1)])
    s = p - 2
    verts = [(i, 0) for i in range(s)]
    edges = [(i, i + 1) for i in range(s - 1)]
    legs = []
    next_id = s

    def place(pendant: int, at: int):
        nonlocal next_id
        if pendant < n:
            legs.append((at, pendant + 1))
        else:
            verts.append((next_id, 0))
            edges.append((at, next_id))
            edges.append((next_id, next_id))
            next_id += 1

    if s == 1:
        for k in range(3):
            place(k, 0)
    else:
        place(0, 0)
        place(1, 0)
        for i in range(1, s - 1):
            place(i + 1, i)
        place(p - 2, s - 1)
        place(p - 1, s - 1)
    return new_graph(verts, edges, legs)


def _normalize(genus: int, leaf_weights, level: int):
    r = tuple(int(x) for x in (leaf_weights or ()))
    if genus < 0:
        raise UnstableSignature(f"negative genus {genus}")
    if genus == 0:
        while len(r) < 3:
            r = r + (0,)
    elif not r:
        r = (0,)
    return r, int(level)


def verlinde(genus: int, leaf_weights, level: int) -> int:
    """Lattice count on the standard graph of the (normalized) signature."""
    r, L = _normalize(genus, leaf_weights, level)
    return count_points(standard_graph(genus, len(r)), r, L)


def verlinde_factor(genus: int, leaf_weights, level: int) -> int:
    """The explicit factorization sum: independent of the tensor route.

    At genus 0 with four legs this is the textbook two-trinode sum; in
    general it is the same product-of-fusion-coefficients sum carried out
    by literal enumeration of internal labelings.
    """
    r, L = _normalize(genus, leaf_weights, level)
    if genus == 0 and len(r) == 4:
        return factorization_4point(r[0], r[1], r[2], r[3], L)
    return count_points_bruteforce(standard_graph(genus, len(r)), r, L)


def verlinde_closed_form(genus: int, leaf_weights, level: int) -> int:
    """Trigonometric evaluation, rounded only where rounding is certain.

    Leaf weights outside 0..level give 0, matching the counting routes.
    Next to the double-precision sum this accumulates an a-priori bound B
    on its rounding error; the value is rounded only when its distance to
    the nearest integer plus B is below 1/2, and NumericalResidual is
    raised otherwise.
    """
    r, L = _normalize(genus, leaf_weights, level)
    if L < 0 or any(x < 0 or x > L for x in r):
        return 0  # same convention as the counting routes
    n = len(r)
    q = L + 2
    p = 2 - 2 * genus - n
    u = 2.0**-53
    # absolute error of a numerator sine, from rounding its argument
    sine_err = (4 * math.pi * (L + 1) + 3) * u
    # relative error of sin(j pi / q) ** p: the sine's is |cot x| (below q)
    # times the argument's absolute error (a few ulps of pi), and the power
    # multiplies it by |p|
    power_err = abs(p) * (1.5 * math.pi * q + 2) * u + 3 * u
    terms = []
    bound = 0.0
    for j in range(1, L + 2):
        x = math.pi * j / q
        prod = 1.0
        for ri in r:
            prod *= math.sin((ri + 1) * x)
        power = math.sin(x) ** p
        term = prod * power
        terms.append(term)
        bound += abs(power) * n * sine_err + abs(term) * power_err
    scale = (q / 2.0) ** (genus - 1)
    value = scale * math.fsum(terms)
    bound *= 2 * scale  # twice the first-order estimate
    nearest = round(value)
    if abs(value - nearest) + bound >= 0.5:
        raise NumericalResidual(value, bound)
    return int(nearest)


def factorization_4point(r1: int, r2: int, r3: int, r4: int, level: int) -> int:
    """Sum over the middle weight of products of two fusion coefficients."""
    return sum(
        fusion_coeff(r1, r2, m, level) * fusion_coeff(m, r3, r4, level)
        for m in range(level + 1)
    )
