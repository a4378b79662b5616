"""Exception types shared across the package.

Every error raised on bad input or a failed structural check derives from
VerkitError so callers (and the CLI) can catch the whole family at once.
"""

from __future__ import annotations


class VerkitError(Exception):
    """Base class for all package-specific errors."""


class DisconnectedGraph(VerkitError):
    """The vertex/edge data does not describe a connected graph."""


class UnstableVertex(VerkitError):
    """A vertex violates stability: 2*genus - 2 + valence must be positive.

    Loops count twice toward valence, legs once.  Also raised for a
    negative vertex genus.
    """


class BadLegLabels(VerkitError):
    """Leg labels are not exactly 1..n with no repeats."""


class DanglingReference(VerkitError):
    """An edge or leg references a vertex id that does not exist, the
    vertex list itself is malformed (duplicate ids), or an edge slot is
    not an integer naming an edge."""


class BadGraphDocument(VerkitError):
    """Graph data holds a vertex id, genus, edge end or leg label that is
    not an integer (a float or a boolean, say), or a graph document is not
    JSON of the shape MarkedGraph.to_json writes (vertices and legs as
    objects, edges as vertex-id pairs)."""


class IsLeg(VerkitError):
    """An edge operation was pointed at a leg slot."""


class NonTrivalentGraph(VerkitError):
    """An operation requiring a trivalent graph with genus-0 vertices was
    given something else."""


class NotATree(VerkitError):
    """An operation requiring a tree (first Betti number 0) was given a graph
    with cycles, or with positive-genus vertices."""


class InstanceTooLarge(VerkitError):
    """Work past one of the fixed caps, each a module constant beside the
    work it bounds: lattice._WALK_CAP, _TENSOR_CAP and _PLAN_CAP,
    verlinde._LEVEL_CAP and _SEW_CAP, moduli._CLASS_CAP and _FLIP_CAP, and
    graphs._LEAF_CAP.  Every cap refuses through _check_cap."""


def _check_cap(count: int, cap: int, what: str, name: str = "cap") -> None:
    """InstanceTooLarge, "{count} {what} exceeds the {name} {cap}", when
    count passes cap; what names the work counted, name the cap."""
    if count > cap:
        raise InstanceTooLarge(f"{count} {what} exceeds the {name} {cap}")


class BadWeighting(VerkitError):
    """A weight, level, genus or leg count is not an integer (a float or a
    boolean, say), a weighting document lacks a value it must hold, or a
    functional value is not a nonnegative rational number."""


class NumericalResidual(VerkitError):
    """The trigonometric closed form cannot be rounded to an integer with
    certainty: its distance to the nearest integer plus its error bound
    reaches 1/2."""

    def __init__(self, value: float, bound: float):
        self.value = value
        self.bound = bound
        super().__init__(
            f"closed-form value {value!r} has error bound {bound:.3e}, too "
            f"wide to round it to an integer with certainty"
        )


class CounterexampleFound(VerkitError):
    """A structural check (Gorenstein property, degree-1 generation) found a
    lattice point violating the claimed property.  The point is attached."""

    def __init__(self, point, reason: str = ""):
        self.point = point
        msg = f"counterexample: {point!r}"
        if reason:
            msg += f" ({reason})"
        super().__init__(msg)


class GraphMismatch(VerkitError):
    """Two objects that must live on the same graph do not, or a weighting
    does not hold one weight per edge and leg of its graph."""


class UnstableSignature(VerkitError):
    """The pair (genus, leg count) admits no stable graph: need
    2g - 2 + n > 0."""
