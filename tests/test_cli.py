from __future__ import annotations

import io
import json
import subprocess
import sys

import pytest

from verkit import caterpillar, dumbbell, moduli, theta_graph, trinode
from verkit.cli import main
from verkit.errors import NumericalResidual


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
    for limit, error in (("10", "InstanceTooLarge"), ("abc", "BadWorkLimit")):
        monkeypatch.setenv("VK_BRUTE_LIMIT", limit)
        code = main(["count", "--graph", str(path), "--weights", "",
                     "--level", "3", "--brute"])
        assert code == 2
        assert error in capsys.readouterr().err


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


def test_hilbert_projective(trinode_file, capsys):
    code = main(
        ["hilbert", "--graph", trinode_file, "--grading", "projective",
         "--base-weights", "1,1,1", "--base-level", "2", "--max", "4"]
    )
    assert code == 0
    assert capsys.readouterr().out == "1\n0\n1\n0\n1\n"


def test_hilbert_projective_requires_base(trinode_file, capsys):
    code = main(["hilbert", "--graph", trinode_file, "--grading", "projective",
                 "--max", "4"])
    assert code == 2
    assert "--base-weights" in capsys.readouterr().err


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
