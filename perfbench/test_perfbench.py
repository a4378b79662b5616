"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import check  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


# -- the reference ------------------------------------------------------------


def test_reference_known_values():
    assert [ref.verlinde_number(1, (), L) for L in range(21)] == [
        L + 1 for L in range(21)]
    assert ref.verlinde_number(2, (), 1) == 4
    assert [ref.cox_dimension(0, 3, L) for L in range(11)] == [
        math.comb(L + 3, 3) for L in range(11)]


def test_reference_fusion_rules():
    for L in range(6):
        for r in [(a, b, c) for a in range(L + 2) for b in range(L + 2)
                  for c in range(L + 2)]:
            assert ref.verlinde_number(0, r, L) == int(ref.admissible(*r, L))


def test_reference_matches_library_verlinde():
    import verkit

    rng = random.Random(0)
    for _ in range(200):
        g, n, L = rng.randint(0, 3), rng.randint(0, 4), rng.randint(0, 7)
        r = tuple(rng.randint(0, L) for _ in range(n))
        assert ref.verlinde_number(g, r, L) == verkit.verlinde(g, r, L), (g, r, L)
    assert ref.verlinde_number(10, (), 20) == verkit.verlinde(10, (), 20)


def test_class_counts_have_their_closed_forms():
    assert [ref.trivalent_classes(0, n) for n in range(3, 9)] == [
        1, 3, 15, 105, 945, 10395]
    assert [ref.trivalent_classes(g, 0) for g in (2, 3, 4)] == [2, 5, 17]
    assert [ref.stable_classes(0, n) for n in (4, 5, 6)] == [4, 26, 236]
    for n in (4, 5, 6):  # 2 (n-3) (2n-5)!! flip triples at genus 0
        flips = ref.PINNED["poset"][(0, n)][2]
        assert flips == 2 * (n - 3) * ref.double_factorial(2 * n - 5)


def test_pinned_graphs_are_the_library_classes():
    import verkit

    for sig, classes in workloads.classes().items():
        g, n = map(int, sig.split(","))
        assert len(classes) == ref.trivalent_classes(g, n)
        pinned = {verkit.new_graph([(v, 0) for v in c["vertices"]], c["edges"],
                                   c["legs"]).canonical_label for c in classes}
        assert len(pinned) == len(classes)
        if (g, n) != (4, 0):  # about two seconds; covered by graph_enum
            assert pinned == {c.canonical_label
                              for c in verkit.enumerate_trivalent(g, n)}


# -- op lists -----------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_ops_other_seed_other_ops(name):
    first = workloads.make_workload(name, 7)
    assert first == workloads.make_workload(name, 7)
    assert first[1] != workloads.make_workload(name, 8)[1]
    assert len(first[1]) > 11  # op_tail_ms needs ten samples above it


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_op_has_a_reference(name):
    graphs, ops = workloads.make_workload(name, 1)
    for op in ops:
        assert check.expected(op, graphs)


def test_relabelled_copies_are_the_same_graph():
    import verkit

    rng = random.Random(3)
    for graph in (workloads.K33, workloads.CUBE):
        copy = workloads.relabel(graph, rng)
        assert copy["vertices"] != graph["vertices"]
        built = [verkit.new_graph([(v, 0) for v in x["vertices"]], x["edges"],
                                  x["legs"]) for x in (graph, copy)]
        assert built[0].canonical_label == built[1].canonical_label


# -- verdicts -----------------------------------------------------------------


def test_judge_separates_known_defects_from_new_failures():
    graphs = {"cat": {"sig": [0, 4]}}
    ops = [("count", "cat", (1, 1, 1, 1), 2),
           ("verlinde", 20, (), 30),
           ("verlinde", 1, (), 3),
           ("canonical_label", "p0", "petersen"),
           ("canonical_label", "k0", "K33"),
           ("canonical_label", "k1", "K33")]
    wants = [check.expected(op, graphs) for op in ops]
    big = ref.verlinde_number(20, (), 30)
    answers = [[2], [big, big + 1], [4, 5],
               [{"error": "DanglingReference: cap"}], ["aa"], ["aa"]]
    verdict = check.judge(ops, graphs, wants, answers)
    assert verdict["failed_ops"] == 3
    assert verdict["defects"] == {"closed_form_precision": 1,
                                  "label_permutation_cap": 1}
    assert [u[0] for u in verdict["unexpected"]] == [2]
    answers[5] = ["bb"]  # copies of one graph must share a label
    assert len(check.judge(ops, graphs, wants, answers)["unexpected"]) == 3


# -- scaling to the reference speed ---------------------------------------------


def test_scale_takes_probes_out_and_divides_by_host_slowness():
    ref_s = run.REF_PACE_S
    # Host at full speed: probes cost ref_s each; the one that started
    # inside the second op comes out of its latency.
    paces = [(0.0, ref_s), (1.0, ref_s), (2.5, ref_s), (9.0, ref_s)]
    scaled = run.scale([0.5, 2.0], [0.25, 1.0], paces)
    assert scaled == pytest.approx([0.25, 1.0 - ref_s])
    # Host at half speed around both ops: every probe takes twice as long.
    slow = [(t, 2 * d) for t, d in paces]
    scaled = run.scale([0.5, 2.0], [0.5, 2.0], slow)
    assert scaled == pytest.approx([0.25, 1.0 - ref_s])


def test_scale_weighs_every_probe_inside_a_long_op():
    ref_s = run.REF_PACE_S
    # Full speed for the first half of the op, half speed for the second.
    paces = [(0.0, ref_s)] + [(1 + k / 10, ref_s if k < 5 else 2 * ref_s)
                              for k in range(10)] + [(5.0, 2 * ref_s)]
    (scaled,) = run.scale([0.5], [1.5], paces)
    inside = sum(d for _, d in paces[1:11])
    # Six probes at each speed: the one before, ten inside, the one after.
    assert scaled == pytest.approx((1.5 - inside) * (6 * 1 + 6 * 0.5) / 12)


# -- the tracer and the command -------------------------------------------------


def test_tracer_wraps_every_binding_and_counts_work():
    code = f"""
import json, sys
sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]
import verkit
from tracer import Tracer
t = Tracer()
t.install()
lattice = sys.modules["verkit.lattice"]
assert sys.modules["verkit.verlinde"].count_points is lattice.count_points
assert verkit.count_points is lattice.count_points
assert lattice.count_points.__wrapped__ is not None
span = t.begin_op(0, "probe")
verkit.count_points_bruteforce(verkit.caterpillar(5), (1, 1, 1, 1, 0), 3)
verkit.verlinde(2, (), 3)
list(verkit.enumerate_trivalent(0, 5))
t.end_op("probe", *span)
print(json.dumps(t.summary()))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    summary = json.loads(out)
    counts, calls = summary["counts"], summary["calls"]
    assert counts["lattice.brute_assignments"] == 4 ** 2
    assert calls["verlinde.verlinde"] == 1
    assert calls["lattice.count_points"] == 1  # reached through verlinde
    assert calls["verlinde.standard_graph"] == 1
    assert counts["moduli.enumerate_trivalent.classes"] == 15
    assert counts["moduli.enumerate_trivalent.candidates"] >= 15
    assert counts["lattice.tensordot.max_out_elems"] >= 1
    assert summary["self_s"]["op.probe"] >= 0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER

