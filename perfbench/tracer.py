"""Spans and work counts around verkit's public functions, from outside.

``Tracer.install`` replaces each named function at every verkit module that
binds it (``verkit.lattice.count_points`` and ``verkit.verlinde.count_points``
are the same object and both get the wrapper), wraps ``np.tensordot`` as the
lattice module sees it, and wraps the ``MarkedGraph.canonical_label`` cached
property and the ``contract_edge`` method.  Spans stay in memory until
``write``.  A span's self time is its duration minus the time its child
spans cover.

Work counts are computed here from the arguments and results, never read
from the library:

* ``lattice.brute_assignments``: (L+1)^E per brute-force walker call, and
  (sum of leg weights + 1)^E for ``count_classical``;
* ``lattice.tensordot.out_elems`` / ``max_out_elems``: sizes of the results;
* ``moduli.enumerate_trivalent.candidates`` / ``classes``: ``new_graph``
  calls under an op-level ``enumerate_trivalent`` call against the classes
  it returned;
* ``semigroup.assignments`` / ``points_yielded``: (L+1)^(E+n) per
  ``_all_points`` walk against the points it yielded.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from functools import cached_property

# (module, attribute) of every traced function; the span is named after the
# module that defines it.
FUNCTIONS = [
    ("graphs", "new_graph"),
    ("lattice", "count_points"), ("lattice", "count_cox"),
    ("lattice", "count_points_bruteforce"), ("lattice", "count_classical"),
    ("verlinde", "verlinde"), ("verlinde", "verlinde_closed_form"),
    ("verlinde", "factorization_4point"), ("verlinde", "standard_graph"),
    ("moduli", "enumerate_trivalent"), ("moduli", "enumerate_stable"),
    ("moduli", "contraction_poset"), ("moduli", "flip_neighbors"),
    ("moduli", "flip_connectivity"),
    ("semigroup", "gorenstein_check"),
    ("semigroup", "degree_one_generation_check"),
    ("semigroup", "hilbert_cox"), ("semigroup", "hilbert_projective"),
]


def _walked(graph, legs, level: int) -> int:
    """Assignments a level-truncated walker visits for these leg values."""
    if level < 0 or any(w < 0 or w > level for w in legs):
        return 0
    return (level + 1) ** len(graph.edges)


class _NumpyView:
    """numpy as the lattice module sees it, with tensordot traced."""

    def __init__(self, np, tensordot):
        self._np = np
        self.tensordot = tensordot

    def __getattr__(self, name):
        return getattr(self._np, name)


class Tracer:
    def __init__(self):
        self.spans: list = []   # (op, name, start, end, parent, self_s)
        self.stack: list = []   # [span index, name, child seconds]
        self.op = -1
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str):
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append([idx, name, 0.0])
        return idx, time.perf_counter()

    def _exit(self, name: str, idx: int, start: float) -> None:
        end = time.perf_counter()
        _, _, child = self.stack.pop()
        dur = end - start
        parent = -1
        if self.stack:
            self.stack[-1][2] += dur
            parent = self.stack[-1][0]
        self.spans[idx] = (self.op, name, start, end, parent, dur - child)
        self.calls[name] += 1
        self.self_s[name] += dur - child

    def span(self, name: str, fn, after=None):
        """fn wrapped in a span; after(result, args, depth) counts work on
        success, depth being the number of spans open at the call."""

        def traced(*args, **kwargs):
            depth = len(self.stack)
            idx, start = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, idx, start)
            if after is not None:
                after(result, args, depth)
            return result

        traced.__wrapped__ = fn
        return traced

    def begin_op(self, index: int, kind: str):
        self.op = index
        return self._enter(f"op.{kind}")

    def end_op(self, kind: str, idx: int, start: float) -> None:
        self._exit(f"op.{kind}", idx, start)

    def _under_op_level(self, name: str) -> bool:
        return len(self.stack) >= 2 and self.stack[1][1] == name

    # -- counters -----------------------------------------------------------

    def _count_new_graph(self, result, args, depth):
        if self._under_op_level("moduli.enumerate_trivalent"):
            self.counts["moduli.enumerate_trivalent.candidates"] += 1

    def _count_classes(self, result, args, depth):
        if depth == 1:  # called by the op itself, not by another function
            self.counts["moduli.enumerate_trivalent.classes"] += len(result)

    def _count_brute(self, result, args, depth):
        graph, legs, level = args[:3]
        self.counts["lattice.brute_assignments"] += _walked(graph, legs, level)

    def _count_classical(self, result, args, depth):
        tree, legs = args[:2]
        if all(w >= 0 for w in legs):
            bound = sum(legs)
            self.counts["lattice.brute_assignments"] += (bound + 1) ** len(tree.edges)

    def _count_tensordot(self, result, args, depth):
        self.counts["lattice.tensordot.out_elems"] += result.size
        if result.size > self.counts["lattice.tensordot.max_out_elems"]:
            self.counts["lattice.tensordot.max_out_elems"] = result.size

    def _walker(self, fn):
        counts = self.counts

        def walk(graph, level):
            if level >= 0:
                counts["semigroup.assignments"] += (level + 1) ** (
                    len(graph.edges) + graph.n_legs)
            for point in fn(graph, level):
                counts["semigroup.points_yielded"] += 1
                yield point

        return walk

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        after = {
            "new_graph": self._count_new_graph,
            "enumerate_trivalent": self._count_classes,
            "count_points_bruteforce": self._count_brute,
            "count_classical": self._count_classical,
        }
        modules = [m for n, m in sys.modules.items()
                   if n == "verkit" or n.startswith("verkit.")]
        # By module name: the package attribute "verlinde" is the function.
        layer = {n: importlib.import_module(f"verkit.{n}") for n in
                 ("graphs", "lattice", "verlinde", "moduli", "semigroup")}
        for home, attr in FUNCTIONS:
            original = getattr(layer[home], attr)
            wrapped = self.span(f"{home}.{attr}", original, after.get(attr))
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapped)

        lattice, semigroup = layer["lattice"], layer["semigroup"]
        lattice.np = _NumpyView(lattice.np, self.span(
            "lattice.tensordot", lattice.np.tensordot, self._count_tensordot))
        semigroup._all_points = self._walker(semigroup._all_points)

        graph_cls = layer["graphs"].MarkedGraph
        graph_cls.contract_edge = self.span(
            "graphs.contract_edge", graph_cls.contract_edge)
        label = cached_property(self.span(
            "graphs.canonical_label", graph_cls.canonical_label.func))
        label.__set_name__(graph_cls, "canonical_label")
        graph_cls.canonical_label = label

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts)}

    def write(self, path) -> None:
        """All spans, one JSON array per line: op, name, start, end, parent,
        self seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")))
                out.write("\n")
