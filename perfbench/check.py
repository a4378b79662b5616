"""Expected answers for every op, and the verdict on what a pass returned.

The expected values come from ``reference`` only.  Canonical labels have no
expected value: every copy of a graph must get the same label, and distinct
graphs distinct labels.

Known defects are failures the library shows at the commit that added this
benchmark.  They count in ``failed_share`` like any failure, but not in the
result line's ``failed``, which counts only failures nobody has recorded
yet, so that a change that breaks something new is caught.  A known defect
that stops failing is reported as fixed.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import reference as ref

# Above 2^32 the closed form's double-precision sum drifts by more than its
# residual tolerance (it refuses at genus 6, level 12, value ~2^36.7), and
# above 2^53 it returns wrong integers with no error (genus 8, level 16 and
# up).  ROADMAP open item 3.
CLOSED_FORM_EXACT_BELOW = 2**32

KNOWN_DEFECTS = {
    "closed_form_precision": "verlinde_closed_form refuses or is silently "
                             "wrong once the value passes 2^32 / 2^53",
    "label_permutation_cap": "canonical_label raises DanglingReference on "
                             "the Petersen graph (2M permutation cap)",
}


def expected(op: tuple, graphs: dict) -> list:
    """(route name, expected answer) for each call the op makes, in order."""
    kind = op[0]
    if kind == "sweep":
        _, key, r = op
        return [("count_points", [ref.verlinde_number(0, r, L)
                                  for L in range(sum(r) + 3)])]
    if kind == "count":
        _, key, r, L = op
        return [("count_points", ref.verlinde_number(graphs[key]["sig"][0], r, L))]
    if kind == "count_closed":
        _, key, r, L = op
        value = ref.verlinde_number(graphs[key]["sig"][0], r, L)
        return [("count_points", value), ("verlinde_closed_form", value)]
    if kind == "verlinde":
        _, g, r, L = op
        value = ref.verlinde_number(g, r, L)
        routes = ["verlinde", "verlinde_closed_form"]
        if g == 0 and len(r) == 4:
            routes.append("factorization_4point")
        return [(route, value) for route in routes]
    if kind == "enumerate_trivalent":
        return [(kind, ref.trivalent_classes(*op[1:]))]
    if kind == "enumerate_stable":
        return [(kind, ref.stable_classes(*op[1:]))]
    if kind == "contraction_poset":
        return [(kind, list(ref.PINNED["poset"][op[1:]]))]
    if kind == "flip_connectivity":
        return [(kind, list(ref.PINNED["flips"][op[1:]]))]
    if kind == "canonical_label":
        return [(kind, None)]
    g, n = graphs[op[1]]["sig"]
    if kind == "bruteforce":
        return [("count_points_bruteforce", ref.verlinde_number(g, op[2], op[3]))]
    if kind == "classical":
        # Past level sum(r) no level inequality binds on a tree.
        r = op[2]
        return [("count_classical", ref.verlinde_number(0, r, sum(r)))]
    if kind == "gorenstein":
        # Interior points of level l are the shifts of the level l-4 points.
        return [("gorenstein_check", [True, ref.points_up_to(g, n, op[2] - 4)])]
    if kind == "degree_one":
        return [("degree_one_generation_check", [True, ref.points_up_to(g, n, op[2])])]
    if kind == "hilbert_cox":
        return [(kind, [ref.cox_dimension(g, n, L) for L in range(op[2] + 1)])]
    if kind == "hilbert_projective":
        _, _, r, L, top = op
        return [(kind, [ref.verlinde_number(g, [k * x for x in r], k * L)
                        for k in range(top + 1)])]
    raise ValueError(f"unknown op kind {kind!r}")


def _defect(op: tuple, route: str, want) -> str | None:
    """The known defect a failure of this route on this op belongs to."""
    if route == "verlinde_closed_form" and want >= CLOSED_FORM_EXACT_BELOW:
        return "closed_form_precision"
    if route == "canonical_label" and op[2] == "petersen":
        return "label_permutation_cap"
    return None


def judge(ops: list, graphs: dict, wants: list, answers: list) -> dict:
    """Verdict on one pass: which ops failed, and why."""
    if len(answers) != len(ops):
        raise ValueError(f"{len(answers)} answers for {len(ops)} ops")
    labels = defaultdict(set)
    for op, got in zip(ops, answers):
        if op[0] == "canonical_label" and isinstance(got[0], str):
            labels[op[2]].add(got[0])
    owners = Counter(label for group in labels.values() for label in group)

    failed_ops, route_failures, defects, unexpected = 0, Counter(), Counter(), []
    for index, (op, want, got) in enumerate(zip(ops, wants, answers)):
        kinds = set()
        if len(got) != len(want):
            kinds.add(None)
            got = [None] * len(want)
        for (route, value), answer in zip(want, got):
            if route == "canonical_label":
                ok = (isinstance(answer, str) and len(labels[op[2]]) == 1
                      and owners[answer] == 1)
            else:
                ok = answer == value
            if not ok:
                route_failures[route] += 1
                kinds.add(_defect(op, route, value))
        if kinds:
            failed_ops += 1
            if None in kinds:
                unexpected.append((index, op, got))
            else:
                defects.update(kinds)
    return {"failed_ops": failed_ops, "route_failures": route_failures,
            "defects": defects, "unexpected": unexpected}
