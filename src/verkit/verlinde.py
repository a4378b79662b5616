"""sl2 Verlinde numbers by three independent routes.

V_g,n(r, L) counts level-L admissible weightings on any trivalent graph of
genus g with n legs weighted r; the answer does not depend on the graph.
Routes:

  * :func:`verlinde` -- tensor contraction on a fixed standard graph;
  * :func:`verlinde_factor` -- the factorization sum.  The count factors
    through every boundary stratum of the moduli space, so it is sewn one
    node at a time from the level's 0/1 fusion matrices N_a:
    e_0 . H^g . N_{r_1} ... N_{r_n} . e_0 with the handle H = sum_a N_a N_a
    (at (0,4) this is exactly :func:`factorization_4point`'s sum);
  * :func:`verlinde_closed_form` -- the trigonometric formula
    ((L+2)/2)^(g-1) * sum_j prod_i sin((r_i+1) j pi/(L+2))
                      * sin(j pi/(L+2))^(2-2g-n).

Signatures below stability are normalized first: 0-weighted legs are
attached up to 3 - 2g, the fewest legs a stable signature of genus g needs
(three at genus 0, one at genus 1, none above).  That leaves the count
unchanged, because fusing with the trivial weight is the identity.
"""

from __future__ import annotations

__all__ = [
    "factorization_4point", "fusion_coeff", "standard_graph", "verlinde",
    "verlinde_closed_form", "verlinde_factor",
]

import math
from functools import lru_cache

from .errors import NumericalResidual, _check_cap
from .graphs import (
    MarkedGraph,
    _check_signature,
    _integer,
    _integers,
    caterpillar,
    dumbbell,
    loop_with_leg,
    new_graph,
)
from .lattice import _require_plannable, admissible_triple_level, count_points

# Terms a level loop may take, one per weight 0..L, and entries a Hilbert
# table may hold: past it the closed form's term list alone would hold tens
# of MB.
_LEVEL_CAP = 2**20
# Steps the sewing sum may take, judged a priori by _sew_steps: one per
# level-rule test, and one more per _STEP_BITS bits of the longest int
# the sum may reach.  On one core of a 2-vCPU VM a step took 0.04 to
# 0.65 us near the cap, so a call takes at most about a minute.
_SEW_CAP = 10**8
_STEP_BITS = 2**14


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
    count that is not an integer, UnstableSignature below stability, and
    InstanceTooLarge when n + g passes graphs._STOCK_CAP.

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
    r = _integers(leaf_weights, "leaf weight")
    g = _integer(genus, "genus")
    # pad to 3 - 2g legs, at most three, so a negative genus stays cheap,
    # and none past genus 1, so a huge genus asks for no sequence length
    r += (0,) * max(0, min(3, 3 - 2 * g) - len(r))
    _check_signature(g, len(r))  # only a negative genus is left to fail
    return g, r, _integer(level, "level")


def verlinde(genus: int, leaf_weights, level: int) -> int:
    """Lattice count on the standard graph of the (normalized) signature.

    The plan cap is judged on the graph's n + 2g - 2 vertices before the
    graph is built."""
    genus, r, L = _normalize(genus, leaf_weights, level)
    _require_plannable(len(r) + 2 * genus - 2)
    return count_points(standard_graph(genus, len(r)), r, L)


def _sew(v: dict, a: int, level: int) -> dict:
    """The row vector v . N_a, both sparse (weight -> count).  Every c in
    the triangle window of (a, b) is put to the level rule."""
    out: dict = {}
    for b, x in v.items():
        for c in range(abs(a - b), min(a + b, 2 * level - a - b) + 1):
            if admissible_triple_level(a, b, c, level):
                out[c] = out.get(c, 0) + x
    return out


def _side(handles: int, legs, level: int) -> dict:
    """e_0 . H^handles . N_{legs[0]} N_{legs[1]} ..., sparse."""
    v = {0: 1}
    for _ in range(handles):
        out: dict = {}
        for a in range(level + 1):
            for c, x in _sew(_sew(v, a, level), a, level).items():
                out[c] = out.get(c, 0) + x
        v = out
    for x in legs:
        v = _sew(v, x, level)
    return v


def _join(u: dict, a: int, w: dict, level: int) -> int:
    """u . N_a . w, one level-rule test per pair of nonzeros."""
    return sum(x * y for b, x in u.items() for c, y in w.items()
               if admissible_triple_level(a, b, c, level))


def _cut(genus: int, r: tuple):
    """The factors H^g N_{r_1} ... N_{r_n} cut at the middle one: the left
    and right sides as (handles, legs) and the middle factor, a leg weight
    or None for a handle."""
    i = (genus + len(r) - 1) // 2
    if i < genus:
        return (i, ()), None, (genus - i - 1, r)
    i -= genus
    return (genus, r[:i]), r[i], (0, r[i + 1:])


def _sew_steps(genus: int, r: tuple, level: int) -> int:
    """A-priori bound on the steps of verlinde_factor's sum: one per
    level-rule test, times 1 + B // _STEP_BITS for ints of at most B bits.

    Fusing a vector of s nonzeros, none above weight hi, with N_x tests at
    most s * (2k + 1) weights and leaves at most s * (k + 1) nonzeros, k =
    min(x, L - x, hi).  A first handle on e_0 tests d + spread weights
    (spread = sum over a of 2 min(a, L - a) + 1), every later one at most
    2 d spread.  Each handle multiplies the values by at most d**3, each
    leg by at most d, and the meeting of the sides by at most d**2 more.
    """
    d = level + 1
    spread = d + 2 * (level // 2) * (d // 2)
    left, mid, right = _cut(genus, r)
    sides = []
    for handles, legs in (left, right):
        tests, s, hi = 0, 1, 0
        if handles:
            tests = d + spread + (handles - 1) * 2 * d * spread
            s, hi = d, level
        for x in legs:
            k = min(x, level - x, hi)
            tests += s * (2 * k + 1)
            s, hi = min(d, s * (k + 1)), min(level, hi + x)
        sides.append((tests, s, hi))
    (tests_u, s_u, hi_u), (tests_w, s_w, _) = sides
    if mid is None:  # sum over a of (u . N_a) . N_a . w
        join = (s_u * min(spread, d * (2 * hi_u + 1))
                + d * min(d, s_u * (hi_u + 1)) * s_w)
    else:
        join = s_u * s_w
    bits = (3 * genus + len(r) + 2) * d.bit_length()
    return (tests_u + tests_w + join) * (1 + bits // _STEP_BITS)


def verlinde_factor(genus: int, leaf_weights, level: int) -> int:
    """The factorization sum, sewn one boundary stratum at a time.

    With d = L + 1 weights 0..L, N_a is the d x d matrix with N_a[b][c] =
    1 when (a, b, c) is admissible at level L, and H = sum_a N_a N_a sews
    one non-separating node (a handle).  Then

        V_g,n(r, L) = e_0 . H^g . N_{r_1} ... N_{r_n} . e_0,

    summed literally in Python ints over sparse vectors.  The matrices
    are symmetric and commute (the fusion ring is commutative), so the
    product is cut at its middle factor: each side is a row vector sewn
    from the trivial weight, handles first, and the two meet through the
    middle factor, one level-rule test per pair of their nonzeros.  At
    (0,4) this is factorization_4point's sum over the middle weight.  It
    runs no contraction and no walk, so it is independent of both.

    Leaf weights outside 0..level give 0.  InstanceTooLarge when L + 1
    exceeds _LEVEL_CAP, and then when the a-priori step count of
    _sew_steps, which prices each test by the length of the ints it may
    add, exceeds _SEW_CAP.
    """
    genus, r, L = _normalize(genus, leaf_weights, level)
    if L < 0 or any(x < 0 or x > L for x in r):
        return 0  # same convention as the counting routes
    _check_cap(L + 1, _LEVEL_CAP, "terms at level {}", L)
    _check_cap(_sew_steps(genus, r, L), _SEW_CAP, "sewing steps at level {}",
               L)
    left, mid, right = _cut(genus, r)
    u, w = _side(*left, L), _side(*right, L)
    if mid is None:
        return sum(_join(_sew(u, a, L), a, w, L) for a in range(L + 1))
    return _join(u, mid, w, L)


def verlinde_closed_form(genus: int, leaf_weights, level: int) -> int:
    """Trigonometric evaluation, rounded only where rounding is certain.

    Leaf weights outside 0..level give 0, matching the counting routes.
    Next to the double-precision sum this accumulates an a-priori bound B
    on its rounding error; the value is rounded only when its distance to
    the nearest integer plus B is below 1/2, and NumericalResidual is
    raised otherwise, also when a term, the sum or B leaves double range.
    InstanceTooLarge when L + 1 exceeds _LEVEL_CAP.
    """
    genus, r, L = _normalize(genus, leaf_weights, level)
    if L < 0 or any(x < 0 or x > L for x in r):
        return 0  # same convention as the counting routes
    _check_cap(L + 1, _LEVEL_CAP, "terms at level {}", L)
    n = len(r)
    q = L + 2
    p = 2 - 2 * genus - n
    u = 2.0**-53
    # absolute error of a numerator sine, from rounding its argument
    sine_err = (4 * math.pi * (L + 1) + 3) * u
    terms = []
    bound = 0.0
    try:
        # relative error of sin(j pi / q) ** p: the sine's is |cot x| (below
        # q) times the argument's absolute error (a few ulps of pi), and the
        # power multiplies it by |p|, which may itself pass double range
        power_err = abs(p) * (1.5 * math.pi * q + 2) * u + 3 * u
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
    """Sum over the middle weight m of the products of the two fusion
    coefficients N(r1, r2, m) and N(m, r3, r4), each 0 or 1.

    A literal sum with no parity rule.  BadWeighting if a weight or the
    level is not an integer, and InstanceTooLarge when level + 1 exceeds
    _LEVEL_CAP."""
    r1, r2, r3, r4 = _integers((r1, r2, r3, r4), "weight")
    level = _integer(level, "level")
    _check_cap(level + 1, _LEVEL_CAP, "terms at level {}", level)
    return sum(
        admissible_triple_level(r1, r2, m, level)
        and admissible_triple_level(m, r3, r4, level)
        for m in range(level + 1)
    )
