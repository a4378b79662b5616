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

Signatures below stability are normalized first: 0-weighted legs are
attached up to 3 - 2g, the fewest legs a stable signature of genus g needs
(three at genus 0, one at genus 1, none above).  That leaves the count
unchanged, because fusing with the trivial weight is the identity.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import NumericalResidual
from .graphs import (
    MarkedGraph,
    _check_signature,
    caterpillar,
    dumbbell,
    loop_with_leg,
    new_graph,
)
from .lattice import (
    _integer,
    admissible_triple_level,
    count_points,
    count_points_bruteforce,
)


def fusion_coeff(a: int, b: int, c: int, level: int) -> int:
    """Multiplicity (0 or 1) of the level-truncated sl2 fusion product.

    BadWeighting if a weight or the level is not an integer."""
    return 1 if admissible_triple_level(
        _integer(a, "weight"),
        _integer(b, "weight"),
        _integer(c, "weight"),
        _integer(level, "level"),
    ) else 0


def standard_graph(genus: int, n_legs: int) -> MarkedGraph:
    """A fixed trivalent genus-0-vertex graph of the given signature.

    Memoised, so repeated queries of a signature share one graph and with
    it one compiled contraction plan.  BadWeighting for a genus or leg
    count that is not an integer, UnstableSignature below stability.

    The caterpillar with n + g legs, whose legs above n are each replaced
    by an edge to a pendant vertex with a loop: the n legs first and then
    one loop per unit of genus.  With n + g = 2 there is no spine, and the
    graph is the loop with a leg (1,1) or the dumbbell (2,0).
    """
    # read as ints first, so that True or 1.0 cannot hit the int entry
    return _standard_graph(*_check_signature(genus, n_legs))


@lru_cache(maxsize=256)
def _standard_graph(g: int, n: int) -> MarkedGraph:
    p = n + g  # pendant count: legs then loops
    if p == 2:
        # no spine vertices: either a loop with a leg or two joined loops
        return dumbbell() if g == 2 else loop_with_leg()
    spine = caterpillar(p)
    verts, edges, legs = list(spine.vertices), list(spine.edges), []
    for at, label in spine.legs:
        if label <= n:
            legs.append((at, label))
        else:
            pendant = len(verts)
            verts.append((pendant, 0))
            edges += [(at, pendant), (pendant, pendant)]
    return new_graph(verts, edges, legs)


def _normalize(genus: int, leaf_weights, level: int):
    """The genus, leaf weights and level as ints, the weights padded with
    zeros to 3 - 2 * genus when there are fewer."""
    if leaf_weights is None:
        leaf_weights = ()
    r = tuple(_integer(x, "leaf weight") for x in leaf_weights)
    g = _integer(genus, "genus")
    # pad to 3 - 2g legs, at most three, so a negative genus stays cheap
    r += (0,) * (min(3, 3 - 2 * g) - len(r))
    _check_signature(g, len(r))  # only a negative genus is left to fail
    return g, r, _integer(level, "level")


def verlinde(genus: int, leaf_weights, level: int) -> int:
    """Lattice count on the standard graph of the (normalized) signature."""
    genus, r, L = _normalize(genus, leaf_weights, level)
    return count_points(standard_graph(genus, len(r)), r, L)


def verlinde_factor(genus: int, leaf_weights, level: int) -> int:
    """The explicit factorization sum: independent of the tensor route.

    At genus 0 with four legs this is the textbook two-trinode sum; in
    general it is the same product-of-fusion-coefficients sum carried out
    by literal enumeration of internal labelings.
    """
    genus, r, L = _normalize(genus, leaf_weights, level)
    if genus == 0 and len(r) == 4:
        return factorization_4point(r[0], r[1], r[2], r[3], L)
    return count_points_bruteforce(standard_graph(genus, len(r)), r, L)


def verlinde_closed_form(genus: int, leaf_weights, level: int) -> int:
    """Trigonometric evaluation, rounded only where rounding is certain.

    Leaf weights outside 0..level give 0, matching the counting routes.
    Next to the double-precision sum this accumulates an a-priori bound B
    on its rounding error; the value is rounded only when its distance to
    the nearest integer plus B is below 1/2, and NumericalResidual is
    raised otherwise, also when a term, the sum or B leaves double range.
    """
    genus, r, L = _normalize(genus, leaf_weights, level)
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
    try:
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
    except OverflowError:  # a power, the scale or the sum leaves double range
        raise NumericalResidual(math.inf, math.inf) from None
    bound *= 2 * scale  # twice the first-order estimate
    if not math.isfinite(value + bound):  # a product past double range
        raise NumericalResidual(value, bound)
    nearest = round(value)
    if abs(value - nearest) + bound >= 0.5:
        raise NumericalResidual(value, bound)
    return int(nearest)


def factorization_4point(r1: int, r2: int, r3: int, r4: int, level: int) -> int:
    """Sum over the middle weight of products of two fusion coefficients.

    BadWeighting if a weight or the level is not an integer."""
    r1, r2, r3, r4 = (_integer(r, "weight") for r in (r1, r2, r3, r4))
    level = _integer(level, "level")
    return sum(
        fusion_coeff(r1, r2, m, level) * fusion_coeff(m, r3, r4, level)
        for m in range(level + 1)
    )
