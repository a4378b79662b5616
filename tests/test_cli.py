from __future__ import annotations

import hashlib
import importlib
import io
import json
import shlex
import subprocess
import sys
import time
from decimal import Decimal

import pytest

from verkit import (
    MarkedGraph, caterpillar, cli, dumbbell, enumerate_stable, lattice,
    moduli, semigroup, theta_graph, trinode,
)
from verkit.cli import build_parser, main
from verkit.errors import InstanceTooLarge, NumericalResidual


@pytest.fixture
def cat_file(tmp_path):
    path = tmp_path / "cat4.json"
    path.write_text(json.dumps(caterpillar(4).to_json()))
    return str(path)


@pytest.fixture
def trinode_file(tmp_path):
    path = tmp_path / "trinode.json"
    path.write_text(json.dumps(trinode().to_json()))
    return str(path)


def test_verlinde_all_methods_agree(capsys):
    code = main(
        ["verlinde", "--genus", "1", "--weights", "", "--level", "7",
         "--method", "all"]
    )
    assert code == 0
    assert capsys.readouterr().out == "8\n8\n8\n"


def test_verlinde_disagreement_exits_one(monkeypatch, capsys):
    closed_form = cli.verlinde_closed_form
    monkeypatch.setattr(cli, "verlinde_closed_form",
                        lambda *args: closed_form(*args) + 1)
    code = main(["verlinde", "--genus", "0", "--weights", "1,1,1,1",
                 "--level", "2", "--method", "all"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == "2\n3\n2\n"
    assert "methods disagree" in captured.err


def test_verlinde_parity_zero(capsys):
    code = main(["verlinde", "--genus", "0", "--weights", "1,1,1", "--level", "1"])
    assert code == 0
    assert capsys.readouterr().out == "0\n"


def test_verlinde_single_method_json(capsys):
    code = main(
        ["verlinde", "--genus", "2", "--weights", "", "--level", "3",
         "--method", "closed", "--json"]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["value"] == "20"
    assert data["method"] == "closed"


def test_verlinde_all_json_reports_agreement(capsys):
    code = main(
        ["verlinde", "--genus", "0", "--weights", "1,1,1,1", "--level", "2",
         "--method", "all", "--json"]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["agree"] is True
    assert set(data["values"]) == {"count", "closed", "factor"}
    assert set(data["values"].values()) == {"2"}


def test_verlinde_negative_genus_is_domain_error(capsys):
    code = main(["verlinde", "--genus", "-1", "--weights", "", "--level", "2"])
    assert code == 2
    assert "UnstableSignature" in capsys.readouterr().err


def test_count_tensor_and_brute(cat_file, capsys):
    for extra in ([], ["--brute"]):
        code = main(
            ["count", "--graph", cat_file, "--weights", "1,1,1,1",
             "--level", "2", *extra]
        )
        assert code == 0
        assert capsys.readouterr().out == "2\n"


def test_count_json(cat_file, capsys):
    code = main(
        ["count", "--graph", cat_file, "--weights", "1,1,1,1", "--level", "2",
         "--json"]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"value": "2"}


def test_count_graph_on_stdin(monkeypatch, capsys):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO(json.dumps(theta_graph().to_json()))
    )
    code = main(["count", "--graph", "-", "--weights", "", "--level", "2"])
    assert code == 0
    assert capsys.readouterr().out == "10\n"


def test_count_brute_respects_work_cap(monkeypatch, tmp_path, capsys):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(theta_graph().to_json()))
    monkeypatch.setattr(lattice, "_WALK_CAP", 10)
    code = main(["count", "--graph", str(path), "--weights", "",
                 "--level", "3", "--brute"])
    assert code == 2
    assert "InstanceTooLarge" in capsys.readouterr().err


def test_points_stream(cat_file, capsys):
    code = main(
        ["points", "--graph", cat_file, "--weights", "1,1,1,1", "--level", "2"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    parsed = [json.loads(line) for line in lines]
    assert [p["edges"] for p in parsed] == [{"0": 0}, {"0": 2}]
    assert all(p["level"] == 2 for p in parsed)


def test_hilbert_cox_plain_and_json(trinode_file, capsys):
    code = main(["hilbert", "--graph", trinode_file, "--grading", "cox",
                 "--max", "4"])
    assert code == 0
    assert capsys.readouterr().out == "1\n4\n10\n20\n35\n"
    code = main(["hilbert", "--graph", trinode_file, "--grading", "cox",
                 "--max", "2", "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["grading"] == "cox"
    assert data["values"] == ["1", "4", "10"]
    assert data["base"] == {}


def test_plain_hilbert_builds_no_document(trinode_file, monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("labelled the graph for a plain listing")

    monkeypatch.setattr(MarkedGraph, "canonical_hex", refuse)
    code = main(["hilbert", "--graph", trinode_file, "--grading", "cox",
                 "--max", "3"])
    assert code == 0
    assert capsys.readouterr().out == "1\n4\n10\n20\n"


def test_hilbert_projective(trinode_file, capsys):
    code = main(
        ["hilbert", "--graph", trinode_file, "--grading", "projective",
         "--base-weights", "1,1,1", "--base-level", "2", "--max", "4"]
    )
    assert code == 0
    assert capsys.readouterr().out == "1\n0\n1\n0\n1\n"


def test_hilbert_projective_requires_base(trinode_file, tmp_path, capsys):
    code = main(["hilbert", "--graph", trinode_file, "--grading", "projective",
                 "--max", "4"])
    assert code == 2
    captured = capsys.readouterr()
    assert "--base-weights" in captured.err
    assert "error [BadWeighting]" in captured.err
    assert captured.out == ""
    # the arguments are checked before the graph file is opened
    missing = str(tmp_path / "missing.json")
    code = main(["hilbert", "--graph", missing, "--grading", "projective",
                 "--max", "4"])
    assert code == 2
    assert "error [BadWeighting]" in capsys.readouterr().err


def test_huge_hilbert_tables_are_refused_at_their_top_entry(
        trinode_file, monkeypatch, capsys):
    # A table of more than 2**20 entries is refused before its loop, and a
    # table that fits has its top entry, the costliest, made first, so the
    # tensor cap refuses it before any other entry is built.
    made = []

    def recording(count):
        def wrapped(graph, *args):
            assert not made, f"made entries at {made} and then {args}"
            made.append(args)
            return count(graph, *args)
        return wrapped

    monkeypatch.setattr(semigroup, "count_points",
                        recording(semigroup.count_points))
    monkeypatch.setattr(semigroup, "count_cox", recording(semigroup.count_cox))
    for table, entries in [
        (lambda: semigroup.hilbert_cox(trinode(), 10**6), [(10**6,)]),
        (lambda: semigroup.hilbert_projective(trinode(), (0, 0, 0), 0,
                                              3 * 10**6), []),
    ]:
        made.clear()
        with pytest.raises(InstanceTooLarge):
            table()
        assert made == entries
    code = main(["hilbert", "--graph", trinode_file, "--grading", "projective",
                 "--base-weights", "0,0,0", "--base-level", "0",
                 "--max", "1000000000"])
    assert code == 2
    err = capsys.readouterr().err
    assert "InstanceTooLarge" in err and "1000000001 table entries" in err


def test_whole_check_past_the_work_cap_exits_two(trinode_file, capsys):
    # bound 1000 is sized before the first walk, so it is refused at once
    for command in ("gorenstein", "gen1"):
        start = time.perf_counter()
        code = main([command, "--graph", trinode_file, "--bound", "1000"])
        assert time.perf_counter() - start < 1
        assert code == 2
        err = capsys.readouterr().err
        assert "InstanceTooLarge" in err and "work cap" in err


def test_gorenstein_cli(trinode_file, capsys):
    code = main(["gorenstein", "--graph", trinode_file, "--bound", "6"])
    assert code == 0
    assert capsys.readouterr().out == "true\n"
    code = main(["gorenstein", "--graph", trinode_file, "--bound", "6",
                 "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["holds"] is True
    assert data["level_bound"] == 6
    assert data["interior_points"] == 15  # levels 4..6 shift to cox 0..2


def test_gen1_cli(trinode_file, capsys):
    code = main(["gen1", "--graph", trinode_file, "--bound", "3"])
    assert code == 0
    assert capsys.readouterr().out == "true\n"


def test_gen1_rejects_loops(tmp_path, capsys):
    path = tmp_path / "dumbbell.json"
    path.write_text(json.dumps(dumbbell().to_json()))
    code = main(["gen1", "--graph", str(path), "--bound", "2"])
    assert code == 2
    assert "NotATree" in capsys.readouterr().err


def test_graphs_trivalent_listing(capsys):
    code = main(["graphs", "--genus", "0", "--legs", "5"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 15
    idx, label, blob = lines[0].split(" ", 2)
    assert idx == "0"
    int(label, 16)
    parsed = json.loads(blob)
    assert set(parsed) == {"vertices", "edges", "legs"}


def test_graphs_stable_listing(capsys):
    code = main(["graphs", "--genus", "0", "--legs", "4", "--stable"])
    assert code == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 4


def test_graphs_json_modes(capsys):
    code = main(["graphs", "--genus", "0", "--legs", "4", "--json"])
    assert code == 0
    triv = json.loads(capsys.readouterr().out)
    assert len(triv["classes"]) == 3 and triv["hasse"] == []
    code = main(["graphs", "--genus", "0", "--legs", "4", "--stable", "--json"])
    assert code == 0
    stab = json.loads(capsys.readouterr().out)
    assert len(stab["classes"]) == 4 and len(stab["hasse"]) == 3


def test_graphs_dot_modes(capsys):
    code = main(["graphs", "--genus", "0", "--legs", "4", "--stable", "--dot"])
    assert code == 0
    assert capsys.readouterr().out.startswith("digraph")
    code = main(["graphs", "--genus", "0", "--legs", "4", "--dot"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("graph c") == 3  # one DOT chunk per class


@pytest.mark.parametrize("mode", [[], ["--json"], ["--dot"]])
def test_graphs_stable_closes_once(monkeypatch, capsys, mode):
    calls = []
    closure = moduli._stable_closure

    def counted(genus, n_legs):
        calls.append((genus, n_legs))
        return closure(genus, n_legs)

    monkeypatch.setattr(moduli, "_stable_closure", counted)
    code = main(["graphs", "--genus", "0", "--legs", "6", "--stable", *mode])
    assert code == 0
    assert capsys.readouterr().out
    assert calls == [(0, 6)]


def test_flips_listing(capsys):
    code = main(["flips", "--genus", "0", "--legs", "4"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    for line in lines:
        i, j, witness = line.split()
        assert i != j
        int(witness, 16)


def test_flips_dot_and_json(capsys):
    code = main(["flips", "--genus", "0", "--legs", "4", "--dot"])
    assert code == 0
    assert capsys.readouterr().out.startswith("graph")
    code = main(["flips", "--genus", "0", "--legs", "4", "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["flips"]) == 6


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(["verlinde"]) == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_missing_graph_file(capsys):
    code = main(["count", "--graph", "/no/such/file.json", "--weights", "",
                 "--level", "1"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_malformed_graph_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["count", "--graph", str(path), "--weights", "", "--level", "1"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_list_shaped_graph_is_input_error(tmp_path, capsys):
    # vertices and legs as pairs rather than the objects to_json writes
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(
        {"vertices": [[0, 0], [1, 0]], "edges": [[0, 1]],
         "legs": [[0, 1], [0, 2], [1, 3], [1, 4]]}
    ))
    code = main(["count", "--graph", str(path), "--weights", "1,1,1,1",
                 "--level", "2"])
    assert code == 2
    assert "BadGraphDocument" in capsys.readouterr().err


def test_non_integer_weight_is_domain_error(cat_file, capsys):
    code = main(["count", "--graph", cat_file, "--weights", "1,x",
                 "--level", "2"])
    assert code == 2
    assert "BadWeighting" in capsys.readouterr().err


def test_odd_weights_on_a_non_trivalent_graph_exit_two(tmp_path, capsys):
    # the odd leg sum would count 0 on a trivalent graph; this one has a
    # four-valent vertex, and the count refuses it
    graph = next(g for g in enumerate_stable(0, 4) if g._not_trivalent())
    path = tmp_path / "star.json"
    path.write_text(json.dumps(graph.to_json()))
    code = main(["count", "--graph", str(path), "--weights", "1,0,0,0",
                 "--level", "2"])
    assert code == 2
    assert "NonTrivalentGraph" in capsys.readouterr().err


def test_graph_file_not_utf8_is_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"vertices": "\xe9"}')
    code = main(["count", "--graph", str(path), "--weights", "", "--level", "1"])
    assert code == 2
    assert "BadGraphDocument" in capsys.readouterr().err


def test_closed_form_outside_double_range_exits_three(capsys):
    code = main(["verlinde", "--genus", "400", "--weights", "", "--level", "5",
                 "--method", "closed"])
    assert code == 3
    assert "NumericalResidual" in capsys.readouterr().err


def test_tensor_too_large_exits_two(monkeypatch, capsys):
    def refuse(level):
        raise AssertionError(f"built the kernels of level {level}")

    monkeypatch.setattr(lattice, "_kernels", refuse)
    code = main(["verlinde", "--genus", "1", "--level", "1000000"])
    assert code == 2
    assert "InstanceTooLarge" in capsys.readouterr().err
    code = main(["verlinde", "--genus", "1", "--level", "2000",
                 "--method", "closed"])
    assert code == 0
    assert capsys.readouterr().out == "2001\n"


def test_class_generation_too_large_exits_two(monkeypatch, capsys):
    # with a tiny cap the first signature the recursion builds is refused
    # before it builds a candidate
    def refuse(graph, slot, new_label):
        raise AssertionError(f"built a candidate with leg {new_label}")

    monkeypatch.setattr(moduli, "_CLASS_CAP", 2)
    monkeypatch.setattr(moduli, "_insert_leg", refuse)
    for mode in [[], ["--stable"]]:
        code = main(["graphs", "--genus", "0", "--legs", "12", *mode])
        assert code == 2
        assert "InstanceTooLarge" in capsys.readouterr().err


def test_genus_zero_class_cap_is_judged_before_building(monkeypatch, capsys):
    # (0,10) has 15!! = 2,027,025 candidates, known before (0,9) is built
    def refuse(graph, slot, new_label):
        raise AssertionError(f"built a candidate with leg {new_label}")

    monkeypatch.setattr(moduli, "_insert_leg", refuse)
    for legs in ["10", "12"]:
        for mode in [[], ["--stable"]]:
            code = main(["graphs", "--genus", "0", "--legs", legs, *mode])
            assert code == 2
            err = capsys.readouterr().err
            assert "InstanceTooLarge" in err and "2027025 candidates" in err


def test_deep_signatures_are_refused_by_the_cap(monkeypatch, capsys):
    # Each signature is built from (g, n-1) or (g-1, n+2), down to (0,3):
    # chains thousands of signatures deep are built bottom-up, so the cap
    # refuses them near the bottom instead of the recursion limit
    monkeypatch.setattr(moduli, "_CLASS_CAP", 10)
    for command, genus, legs in [("graphs", "1000", "0"),
                                 ("graphs", "1", "1000"),
                                 ("flips", "400", "0")]:
        code = main([command, "--genus", genus, "--legs", legs])
        assert code == 2
        assert "InstanceTooLarge" in capsys.readouterr().err


def test_deep_signatures_are_refused_before_building(monkeypatch, capsys):
    # With the real cap, the lower bound walked up each chain refuses these
    # at (1,9) and (9,2) before a single class is built
    def refuse(*args):
        raise AssertionError("built a candidate")

    monkeypatch.setattr(moduli, "_insert_leg", refuse)
    monkeypatch.setattr(moduli, "_glue_top_legs", refuse)
    for command, genus, legs, count in [("graphs", "1", "1000", 5160960),
                                        ("graphs", "1000", "0", 4892388),
                                        ("flips", "400", "0", 4892388)]:
        start = time.perf_counter()
        code = main([command, "--genus", genus, "--legs", legs])
        assert time.perf_counter() - start < 1
        assert code == 2
        err = capsys.readouterr().err
        assert "InstanceTooLarge" in err and f"{count} candidates" in err


def test_planning_past_the_cap_exits_two(capsys):
    # Planning is quadratic in the vertex count V, so V * V is judged
    # before the first step; the standard graph of (g, 0) has 2g - 2
    # vertices, and planning the first genus past the cap takes ~2 s
    verlinde = importlib.import_module("verkit.verlinde")
    genus = 2
    while (2 * genus - 2) ** 2 <= lattice._PLAN_CAP:
        genus += 1
    graph = verlinde.standard_graph(genus, 0)
    start = time.perf_counter()
    with pytest.raises(InstanceTooLarge, match="plan cap"):
        lattice.count_points(graph, (), 3)
    assert time.perf_counter() - start < 1
    assert "_plan" not in graph.__dict__
    code = main(["verlinde", "--genus", str(genus), "--weights", "",
                 "--level", "3"])
    assert code == 2
    assert "InstanceTooLarge" in capsys.readouterr().err
    assert verlinde.verlinde(250, (), 3) == verlinde.verlinde_factor(
        250, (), 3)


def test_level_loop_too_large_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(importlib.import_module("verkit.verlinde"),
                        "_LEVEL_CAP", 8)
    for method, weights in [("closed", ""), ("factor", "0,0,0,0")]:
        code = main(["verlinde", "--genus", "0", "--weights", weights,
                     "--level", "8", "--method", method])
        assert code == 2
        assert "InstanceTooLarge" in capsys.readouterr().err
        code = main(["verlinde", "--genus", "0", "--weights", weights,
                     "--level", "7", "--method", method])
        assert code == 0
        assert capsys.readouterr().out == "1\n"


def test_residual_failure_exits_three(monkeypatch, capsys):
    def explode(genus, r, level):
        raise NumericalResidual(3.5, 0.5)

    monkeypatch.setattr("verkit.cli.verlinde_closed_form", explode)
    code = main(["verlinde", "--genus", "1", "--weights", "", "--level", "3",
                 "--method", "closed"])
    assert code == 3
    assert "NumericalResidual" in capsys.readouterr().err


def test_console_entry_point_end_to_end():
    proc = subprocess.run(
        [sys.executable, "-m", "verkit.cli", "verlinde", "--genus", "1",
         "--weights", "", "--level", "7", "--method", "all"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "8\n8\n8\n"


def test_a_closed_stdout_exits_141_and_prints_nothing():
    """graphs (0,7) writes more than a pipe buffer holds; the reader takes
    one line and closes the pipe, as ``| head -1`` does."""
    with subprocess.Popen(
        [sys.executable, "-m", "verkit.cli", "graphs", "--genus", "0",
         "--legs", "7"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline().startswith(b"0 ")
        proc.stdout.close()
        assert proc.wait(timeout=120) == 141
        assert proc.stderr.read() == b""


@pytest.mark.parametrize("command", ["graphs", "flips"])
def test_dot_and_json_exclude_each_other(command, capsys):
    code = main([command, "--genus", "0", "--legs", "4", "--dot", "--json"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--json: not allowed with argument --dot" in err


# Every subcommand's options, read from the parser: option string ->
# (required, default, choices, type, nargs).  A refactor of the parser must
# leave this table as it is.
_INT = (True, None, None, int, None)
_GRAPH = (True, None, None, None, None)
_WEIGHTS = (False, "", None, None, None)
_FLAG = (False, False, None, None, 0)
OPTIONS = {
    "verlinde": {
        "--genus": _INT, "--weights": _WEIGHTS, "--level": _INT,
        "--method": (False, "count", ["count", "closed", "factor", "all"],
                     None, None),
        "--json": _FLAG,
    },
    "count": {"--graph": _GRAPH, "--weights": _WEIGHTS, "--level": _INT,
              "--brute": _FLAG, "--json": _FLAG},
    "points": {"--graph": _GRAPH, "--weights": _WEIGHTS, "--level": _INT},
    "hilbert": {
        "--graph": _GRAPH,
        "--grading": (True, None, ["cox", "projective"], None, None),
        "--base-weights": (False, None, None, None, None),
        "--base-level": (False, None, None, int, None),
        "--max": _INT, "--json": _FLAG,
    },
    "gorenstein": {"--graph": _GRAPH, "--bound": _INT, "--json": _FLAG},
    "gen1": {"--graph": _GRAPH, "--bound": _INT, "--json": _FLAG},
    "graphs": {"--genus": _INT, "--legs": _INT, "--stable": _FLAG,
               "--dot": _FLAG, "--json": _FLAG},
    "flips": {"--genus": _INT, "--legs": _INT, "--dot": _FLAG,
              "--json": _FLAG},
}


def test_options_are_pinned():
    subparsers = build_parser()._subparsers._group_actions[0]
    found = {
        name: {
            a.option_strings[0]: (a.required, a.default, a.choices, a.type,
                                  a.nargs)
            for a in sub._actions
            if a.option_strings and a.option_strings[0] != "-h"
        }
        for name, sub in subparsers.choices.items()
    }
    assert found == OPTIONS
    assert all(len(a.option_strings) <= 1 or a.option_strings[0] == "-h"
               for sub in subparsers.choices.values() for a in sub._actions)


# Invocations whose stdout and exit code are pinned; "{cat}", "{tri}" and
# "{dumb}" name graph files, and "-" reads the theta graph from stdin.
PINNED = [
    "verlinde --genus 1 --weights '' --level 7",
    "verlinde --genus 1 --weights '' --level 7 --method all",
    "verlinde --genus 0 --weights 1,1,1,1 --level 2 --method all --json",
    "verlinde --genus 2 --weights '' --level 3 --method closed",
    "verlinde --genus 2 --weights 1,1 --level 3 --method closed --json",
    "verlinde --genus 0 --weights 1,2,1,2 --level 3 --method factor",
    "verlinde --genus 1 --weights 2 --level 4 --json",
    "verlinde --genus 0 --weights 1,1,1 --level 1",
    "verlinde --genus -1 --weights '' --level 2",
    "verlinde --genus 0 --weights ' 1, 1,1 ,1' --level 2",
    "count --graph {cat} --weights 1,1,1,1 --level 2",
    "count --graph {cat} --weights 1,1,1,1 --level 2 --json",
    "count --graph {cat} --weights 1,2,1,2 --level 3 --brute",
    "count --graph {cat} --weights 1,2,1,2 --level 3 --brute --json",
    "count --graph - --weights '' --level 2",
    "count --graph {cat} --weights 1,1,1 --level 2",
    "count --graph {cat}.missing --weights '' --level 1",
    "points --graph {cat} --weights 1,1,1,1 --level 2",
    "points --graph {tri} --weights 2,2,2 --level 3",
    "hilbert --graph {tri} --grading cox --max 4",
    "hilbert --graph {tri} --grading cox --max 3 --json",
    "hilbert --graph {tri} --grading projective --base-weights 1,1,1 "
    "--base-level 2 --max 4",
    "hilbert --graph {cat} --grading projective --base-weights 1,1,1,1 "
    "--base-level 2 --max 3 --json",
    "hilbert --graph {tri} --grading projective --max 4",
    "gorenstein --graph {tri} --bound 6",
    "gorenstein --graph {cat} --bound 4 --json",
    "gen1 --graph {tri} --bound 3",
    "gen1 --graph {cat} --bound 3 --json",
    "gen1 --graph {dumb} --bound 2",
    "graphs --genus 0 --legs 5",
    "graphs --genus 1 --legs 2 --json",
    "graphs --genus 0 --legs 5 --dot",
    "graphs --genus 0 --legs 5 --stable",
    "graphs --genus 1 --legs 1 --stable --json",
    "graphs --genus 0 --legs 5 --stable --dot",
    "graphs --genus 0 --legs 2",
    "flips --genus 0 --legs 5",
    "flips --genus 1 --legs 2 --json",
    "flips --genus 0 --legs 5 --dot",
    "",
    "verlinde",
    "verlinde --genus 1 --level 2 --method nope",
]


def test_stdout_and_exit_codes_are_pinned(tmp_path, monkeypatch, capsys):
    """stdout and exit code of each PINNED invocation hash to the digest
    recorded when the list was written."""
    files = {}
    for key, graph in (("cat", caterpillar(4)), ("tri", trinode()),
                       ("dumb", dumbbell())):
        files[key] = tmp_path / f"{key}.json"
        files[key].write_text(json.dumps(graph.to_json()))
    record = []
    for line in PINNED:
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(json.dumps(theta_graph().to_json()))
        )
        code = main(shlex.split(line.format(**files)))
        record.append(f"{line}\n{code}\n{capsys.readouterr().out}")
    digest = hashlib.sha256("\x00".join(record).encode()).hexdigest()
    assert digest == (
        "6ebdc9b0752e57823354ea16f57537a78766ef564f7e1c6e21b845e63c800420"
    )


def test_factor_route_answers_where_the_walk_refused(capsys):
    code = main(["verlinde", "--genus", "5", "--weights", "", "--level", "4",
                 "--method", "all"])
    assert code == 0
    assert capsys.readouterr().out == "42065\n" * 3


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_counts_past_the_str_digit_limit_print_in_full(
        json_flag, monkeypatch, capsys, trinode_file):
    # str() refuses an int of more than 4,300 digits by default
    huge = 10**5000
    monkeypatch.setattr(cli, "verlinde", lambda *args: huge)
    monkeypatch.setattr(importlib.import_module("verkit.semigroup"),
                        "count_cox", lambda graph, level: huge)
    for argv in [["verlinde", "--genus", "1", "--level", "2"],
                 ["hilbert", "--graph", trinode_file, "--grading", "cox",
                  "--max", "0"]]:
        assert main(argv + json_flag) == 0
        out = capsys.readouterr().out
        if json_flag:
            doc = json.loads(out)
            out = doc["value"] if "value" in doc else doc["values"][0]
        assert out.strip() == "1" + "0" * 5000


def test_sewn_count_of_6021_digits_prints_exactly(capsys):
    # at level 1 every handle doubles the count: V_g = 2**g
    code = main(["verlinde", "--genus", "20000", "--weights", "",
                 "--level", "1", "--method", "factor"])
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert len(out) == 6021 and out.isdigit()
    assert int(Decimal(out)) == 2**20000
