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
    """An edge or leg references a vertex id that does not exist,
    or the vertex list itself is malformed (duplicate ids)."""


class BadGraphDocument(VerkitError):
    """A graph document is not JSON of the shape MarkedGraph.to_json writes
    (vertices and legs as objects, edges as vertex-id pairs)."""


class IsLeg(VerkitError):
    """An edge operation was pointed at a leg slot."""


class NonTrivalentGraph(VerkitError):
    """An operation requiring a trivalent graph with genus-0 vertices was
    given something else."""


class NotATree(VerkitError):
    """An operation requiring a tree (first Betti number 0) was given a graph
    with cycles, or with positive-genus vertices."""


class InstanceTooLarge(VerkitError):
    """A brute-force enumeration would exceed the configured work limit
    (VK_BRUTE_LIMIT environment variable, default 10**8 assignments)."""


class BadWorkLimit(VerkitError):
    """The VK_BRUTE_LIMIT environment variable is set but is not an
    integer."""


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
    """Two objects that must live on the same graph do not."""


class UnstableSignature(VerkitError):
    """The pair (genus, leg count) admits no stable graph: need
    2g - 2 + n > 0."""
