"""Seeded op lists for the four workloads.

Pure Python: nothing here imports verkit.  A workload is a pair
``(graphs, ops)``.  ``graphs`` maps a key to a recipe the worker builds with
the library during set-up, together with the graph's signature for the
reference.  ``ops`` is the fixed, ordered op list; one op is one query and
may call more than one route.  The same seed always gives the same pair.

Seeds only draw values whose cost is flat (leg weights, labellings, which
tree of a class) or many small draws whose total is steady, so that the
work of a pass hardly depends on the seed.
"""

from __future__ import annotations

import json
import random
from functools import lru_cache
from pathlib import Path

WORKLOADS = ("count_sweep", "big_counts", "graph_enum", "oracle_checks")

# Acceptance signatures of the library's test suite.
ACCEPTANCE = [(0, 4), (0, 5), (0, 6), (1, 1), (1, 2), (2, 0), (2, 1)]
# The library's desk graphs: key -> (constructor, arguments, signature).
DESK = {"trinode": ("trinode", [], (0, 3)),
        "caterpillar4": ("caterpillar", [4], (0, 4)),
        "dumbbell": ("dumbbell", [], (2, 0)),
        "theta": ("theta_graph", [], (2, 0)),
        "loop_with_leg": ("loop_with_leg", [], (1, 1))}


@lru_cache(maxsize=None)
def classes() -> dict:
    """The pinned trivalent classes of graphs.json, keyed "genus,legs"."""
    return json.loads(Path(__file__).with_name("graphs.json").read_text())["classes"]


def _class_keys(graphs: dict, sig: tuple[int, int]) -> list[str]:
    """Add every pinned class of the signature to graphs; return the keys."""
    keys = []
    for idx, c in enumerate(classes()[f"{sig[0]},{sig[1]}"]):
        key = f"{sig[0]},{sig[1]}#{idx}"
        graphs[key] = {"build": "new_graph", "sig": list(sig), **c}
        keys.append(key)
    return keys


def _closed_graph(sig, edges) -> dict:
    vertices = sorted({v for e in edges for v in e})
    return {"build": "new_graph", "sig": list(sig), "vertices": vertices,
            "edges": [list(e) for e in edges], "legs": []}


K33 = _closed_graph((4, 0), [(a, b) for a in range(3) for b in range(3, 6)])
CUBE = _closed_graph((5, 0), [(a, b) for a in range(8) for b in range(a + 1, 8)
                              if bin(a ^ b).count("1") == 1])
PETERSEN = _closed_graph(
    (6, 0),
    [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def relabel(graph: dict, rng: random.Random) -> dict:
    """The same graph under fresh vertex ids, edge order and edge ends."""
    old = graph["vertices"]
    ids = dict(zip(old, rng.sample(range(10 * len(old)), len(old))))
    edges = [[ids[a], ids[b]] if rng.random() < 0.5 else [ids[b], ids[a]]
             for a, b in graph["edges"]]
    rng.shuffle(edges)
    vertices = [ids[v] for v in old]
    rng.shuffle(vertices)
    legs = [[ids[v], lab] for v, lab in graph["legs"]]
    rng.shuffle(legs)
    return dict(graph, vertices=vertices, edges=edges, legs=legs)


def _even_weights(rng: random.Random, n: int, lo: int, hi: int) -> tuple:
    """n weights in lo..hi with an even sum, so the count is not forced 0."""
    r = [rng.randint(lo, hi) for _ in range(n)]
    if sum(r) % 2:
        r[-1] += -1 if r[-1] > lo else 1
    return tuple(r)


# -- count_sweep ------------------------------------------------------------

SWEEP_OPS = {3: 600, 4: 1200, 5: 1800}  # stabilisation-sweep ops per leg count
# The heaviest sweep shape, all five legs at 4 (23 levels).  Two dozen of
# them top the latency list, so op_tail_ms is always this shape and does not
# hang on how many near-heaviest weight draws a seed happens to make.
HEAVY_SWEEPS = 24
COUNT_SIGS = [(0, 6), (1, 1), (1, 2), (2, 0), (2, 1)]
COUNT_OPS = 1800                         # count_points ops per signature
VERLINDE_OPS = 6000                      # three-route Verlinde ops


def count_sweep(rng: random.Random):
    graphs: dict = {}
    ops: list = []
    for n, k in SWEEP_OPS.items():
        trees = _class_keys(graphs, (0, n))
        for _ in range(k):
            r = tuple(rng.randrange(5) for _ in range(n))
            ops.append(("sweep", rng.choice(trees), r))
    ops += [("sweep", rng.choice(trees), (4,) * 5) for _ in range(HEAVY_SWEEPS)]
    for sig in COUNT_SIGS:
        keys = _class_keys(graphs, sig)
        for _ in range(COUNT_OPS):
            L = rng.randint(0, 6)
            r = tuple(rng.randint(0, L) for _ in range(sig[1]))
            ops.append(("count", rng.choice(keys), r, L))
    for _ in range(VERLINDE_OPS):
        g, n, L = rng.randint(0, 2), rng.randint(0, 4), rng.randint(0, 6)
        ops.append(("verlinde", g, tuple(rng.randint(0, L) for _ in range(n)), L))
    rng.shuffle(ops)
    return graphs, ops


# -- big_counts -------------------------------------------------------------

# Wide contractions with small values: (graph, level).  Intermediates reach
# (L+1)^4 elements; the largest, K4 at level 20, is 194,481.  The cube at
# level 10 is asked a dozen times more: with the nine wide ops slower than it
# that puts op_tail_ms inside a group of equal ops, above every huge-value
# op.  Vertex labels stay fixed: the greedy contraction order breaks ties by
# label, and a relabelling can double an op's cost.
WIDE = ([("K33", L) for L in range(10, 15)] + [("cube", L) for L in range(9, 13)]
        + [("cube", 10)] * 12)
WIDE_CLASS_LEVELS = {(3, 0): (20,), (4, 0): (14,)}
# Huge values, each also answered by the closed form: genus queries
# (genus, legs, level) and caterpillars (legs, level) with seeded weights.
HUGE_GENUS = [(6, 0, 12), (8, 0, 16), (10, 1, 20), (12, 0, 22), (14, 2, 24),
              (16, 0, 26), (18, 1, 28), (20, 0, 30), (22, 2, 30), (24, 0, 30)]
HUGE_GENUS_REPEATS = 2
# One caterpillar shape, so that op_p50_ms falls inside its group and not on
# the step between two groups of different cost.
CATERPILLARS = [(40, 30)]
CATERPILLAR_REPEATS = 60


def big_counts(rng: random.Random):
    graphs: dict = {}
    ops: list = []
    for name, L in WIDE:
        key = f"{name}@{L}"
        graphs[key] = {"K33": K33, "cube": CUBE}[name]
        ops.append(("count", key, (), L))
    for sig, levels in WIDE_CLASS_LEVELS.items():
        for key in _class_keys(graphs, sig):
            ops += [("count", key, (), L) for L in levels]
    for g, n, L in HUGE_GENUS * HUGE_GENUS_REPEATS:
        ops.append(("verlinde", g, _even_weights(rng, n, 0, L), L))
    for n, L in CATERPILLARS:
        key = f"caterpillar{n}"
        graphs[key] = {"build": "caterpillar", "args": [n], "sig": [0, n]}
        for _ in range(CATERPILLAR_REPEATS):
            ops.append(("count_closed", key, _even_weights(rng, n, 1, L), L))
    rng.shuffle(ops)
    return graphs, ops


# -- graph_enum -------------------------------------------------------------

TRIVALENT_SIGS = ([(0, n) for n in range(3, 9)] + [(1, n) for n in range(1, 5)]
                  + [(2, 0), (2, 1), (2, 2), (3, 0), (4, 0)])
STABLE_SIGS = [(0, 4), (0, 5), (0, 6), (1, 1), (1, 2), (2, 0), (2, 1)]
# (0,7) is left out: its flip diameter alone takes as long as the rest of a
# pass, and the run needs several passes for steady figures.
FLIP_SIGS = [(0, 5), (0, 6), (1, 2), (2, 0)]
# Seeded relabellings per labelled graph.  The K33 copies, about 8 ms each,
# form the middle of graph_enum's latency list, so op_p50_ms does not sit on
# the step between two ops of different cost.
LABEL_COPIES = {"K33": 20, "cube": 1, "petersen": 1}
# A dozen more (0,6) stable closures, about 25 ms each, rank just below the
# seven heaviest ops, so op_tail_ms (the 11th-slowest op) falls inside this
# group of equal ops and not among ops of different kinds and costs.
STABLE_REPEATS = 12


def graph_enum(rng: random.Random):
    # Enumeration order is fixed: the library caches classes per signature,
    # so the order decides which op pays for a shared sub-signature.
    graphs: dict = {}
    ops: list = [("enumerate_trivalent", g, n) for g, n in TRIVALENT_SIGS]
    for g, n in STABLE_SIGS:
        ops.append(("enumerate_stable", g, n))
        ops.append(("contraction_poset", g, n))
    ops += [("flip_connectivity", g, n) for g, n in FLIP_SIGS]
    mixed = []
    for name, graph in (("K33", K33), ("cube", CUBE), ("petersen", PETERSEN)):
        for copy in range(LABEL_COPIES[name] + 1):
            key = f"{name}~{copy}"
            graphs[key] = relabel(graph, rng) if copy else graph
            mixed.append(("canonical_label", key, name))
    mixed += [("enumerate_stable", 0, 6)] * STABLE_REPEATS
    rng.shuffle(mixed)
    return graphs, ops + mixed


# -- oracle_checks ----------------------------------------------------------

BRUTE_LEVELS = (2, 4)  # one seeded draw of weights per class at each level
CLASSICAL_DRAWS = 4    # seeded weight draws per 5-leg tree
GORENSTEIN_BOUND = 8
HILBERT_MAX = 10
PROJECTIVE_LEVEL = 2


def oracle_checks(rng: random.Random):
    graphs: dict = {}
    ops: list = []
    for sig in ACCEPTANCE:
        for key in _class_keys(graphs, sig):
            for L in BRUTE_LEVELS:
                r = tuple(rng.randint(0, L) for _ in range(sig[1]))
                ops.append(("bruteforce", key, r, L))
    trees5 = _class_keys(graphs, (0, 5))
    for key in trees5:
        for _ in range(CLASSICAL_DRAWS):
            ops.append(("classical", key, tuple(rng.randrange(5) for _ in range(5))))
    for name, (build, args, sig) in DESK.items():
        graphs[name] = {"build": build, "args": args, "sig": list(sig)}
        r = _even_weights(rng, sig[1], 0, PROJECTIVE_LEVEL)
        ops += [("gorenstein", name, GORENSTEIN_BOUND),
                ("hilbert_cox", name, HILBERT_MAX),
                ("hilbert_projective", name, r, PROJECTIVE_LEVEL, 6)]
    for key in _class_keys(graphs, (0, 4)):
        ops += [("degree_one", key, 3), ("degree_one", key, 4)]
    picked = rng.sample(trees5, 3)
    ops += [("degree_one", picked[0], 4), ("degree_one", picked[1], 3),
            ("degree_one", picked[2], 3)]
    rng.shuffle(ops)
    return graphs, ops


def make_workload(name: str, seed: int):
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return globals()[name](random.Random(f"{name}:{seed}"))
